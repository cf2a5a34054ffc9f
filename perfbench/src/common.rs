//! What every workload shares: arguments, the measured loop, the
//! untraced and traced runs, registry snapshots and the report.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use goldfish_serve::coordinator::Coordinator;
use goldfish_serve::digest::DIGEST_LEN;
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::telemetry::ServeTelemetry;
use goldfish_serve::transport::ServeTransport;

use crate::traced::span;
use crate::{heap, stats, trace};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Run the traced variant.
    pub trace: bool,
    /// Where the traced run writes its spans (optional).
    pub trace_out: Option<std::path::PathBuf>,
}

/// Wall time of one set-up, split by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Input generation.
    pub data_ns: u64,
    /// Connecting remote workers.
    pub connect_ns: u64,
    /// Pretraining rounds.
    pub pretrain_ns: u64,
    /// Everything, end to end.
    pub total_ns: u64,
}

/// A set-up system ready for load.
pub struct Setup<S> {
    /// The system.
    pub sys: S,
    /// How long building it took.
    pub times: SetupTimes,
}

/// What the measured loop records.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Wall time of each training round, ms.
    pub round_ms: Vec<f64>,
    /// Process CPU time of each training round, ms.
    pub round_cpu_ms: Vec<f64>,
    /// Per served request: due (or submit) time to drain commit, ms.
    pub unlearn_ms: Vec<f64>,
    /// Per served request: process CPU time of its submit plus its share
    /// of the drain that served it, ms.
    pub unlearn_cpu_ms: Vec<f64>,
    /// Per submitted request: due time to `submit_unlearn` return, ms.
    pub submit_ms: Vec<f64>,
    /// Per submitted request: due time to the submit call, ms.
    pub generator_late_ms: Vec<f64>,
    /// Requests served per drain.
    pub batch_sizes: Vec<usize>,
    /// Deepest queue seen before a drain.
    pub depth_max: usize,
    /// Operations attempted (rounds + submits + drains).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Wire bytes moved by rounds.
    pub round_wire_bytes: u64,
    /// Wire bytes moved by drains.
    pub drain_wire_bytes: u64,
    /// Registry-timed work inside round spans (checkpoint fsync,
    /// cohort draw), ns.
    pub round_registry_ns: u64,
    /// Registry-timed work inside drain spans (checkpoint fsync), ns.
    pub drain_registry_ns: u64,
    /// Loop iterations completed.
    pub iterations: usize,
}

impl Recorder {
    /// Counts an operation's outcome.
    pub fn count<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("operation failed: {e}");
                None
            }
        }
    }
}

/// Runs one training round as a top-level span, recording its time,
/// wire bytes and registry-attributed time.
pub fn timed_round<T: ServeTransport>(
    c: &mut Coordinator<T>,
    round: usize,
    seed: u64,
    rec: &mut Recorder,
) {
    let before = RegSnap::take(c.telemetry());
    let wire = c.transport().wire_stats().total();
    let cpu0 = trace::process_cpu_ns();
    let t0 = Instant::now();
    let r = {
        let _s = trace::enter("serve.round");
        c.train_round_hot(round, seed)
    };
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu = cpu_ms_since(cpu0);
    if rec.count(r).is_some() {
        rec.round_ms.push(ms);
        rec.round_cpu_ms.push(cpu);
    }
    let after = RegSnap::take(c.telemetry());
    rec.round_wire_bytes += c.transport().wire_stats().total() - wire;
    rec.round_registry_ns += (after.checkpoint_fsync_ns - before.checkpoint_fsync_ns)
        + (after.cohort_draw_ns - before.cohort_draw_ns);
}

/// Runs a drain (`f`) as a top-level span, recording its wire bytes and
/// registry-attributed time; returns its result and its process CPU ms.
pub fn timed_drain<T: ServeTransport, R>(
    c: &mut Coordinator<T>,
    rec: &mut Recorder,
    f: impl FnOnce(&mut Coordinator<T>) -> R,
) -> (R, f64) {
    let before = RegSnap::take(c.telemetry());
    let wire = c.transport().wire_stats().total();
    let cpu0 = trace::process_cpu_ns();
    let out = {
        let _s = trace::enter("serve.drain");
        f(c)
    };
    let cpu = cpu_ms_since(cpu0);
    let after = RegSnap::take(c.telemetry());
    rec.drain_wire_bytes += c.transport().wire_stats().total() - wire;
    rec.drain_registry_ns += after.checkpoint_fsync_ns - before.checkpoint_fsync_ns;
    (out, cpu)
}

/// One closed-loop deletion: submits `req`, serves it with its own
/// `drain_unlearning(seed)`, and records its latency and CPU time.
/// Returns whether the request was served.
pub fn submit_and_drain<T: ServeTransport>(
    c: &mut Coordinator<T>,
    req: UnlearnRequest,
    seed: u64,
    rec: &mut Recorder,
) -> bool {
    let t0 = Instant::now();
    let cpu0 = trace::process_cpu_ns();
    let submitted = {
        let _s = trace::enter("serve.submit");
        c.submit_unlearn(req)
    };
    if rec.count(submitted).is_none() {
        return false;
    }
    rec.depth_max = rec.depth_max.max(c.queue().len());
    let (served, _) = timed_drain(c, rec, |c| c.drain_unlearning(seed));
    let Some(Some(summary)) = rec.count(served) else {
        return false;
    };
    rec.unlearn_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    rec.unlearn_cpu_ms.push(cpu_ms_since(cpu0));
    rec.batch_sizes.push(summary.requests.len());
    true
}

/// Process CPU milliseconds since a [`trace::process_cpu_ns`] reading.
pub fn cpu_ms_since(cpu0: u64) -> f64 {
    trace::process_cpu_ns().saturating_sub(cpu0) as f64 / 1e6
}

/// A workload's system under load.
pub trait System {
    /// Runs loop iteration `i`.
    fn step(&mut self, i: usize, rec: &mut Recorder);
    /// The coordinator's registry.
    fn telemetry(&self) -> Arc<ServeTelemetry>;
    /// Digests committed at fixed points of the schedule, compared
    /// between the traced and the untraced phase when the workload is
    /// deterministic (`None` for schedules that follow the clock).
    fn digests(&self) -> Option<Vec<[u8; DIGEST_LEN]>>;
    /// The OS thread hosting the remote workers, if any.
    fn host_tid(&self) -> Option<u32> {
        None
    }
    /// Runs the correctness gates and adds workload-specific results
    /// (end-to-end extras and layer metrics); consumes the system.
    fn finish(self, rec: &Recorder, out: &mut Outcome);
}

/// Registry cells read before and after a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegSnap {
    agg_fold_ns: u64,
    cohort_draw_ns: u64,
    updates_admitted: u64,
    updates_rejected: u64,
    reround_attempts: u64,
    poll_wait_ns: u64,
    broadcast_encode_ns: u64,
    frame_read_ns: u64,
    wal_append_ns: u64,
    checkpoint_fsync_ns: u64,
    queue_submitted: u64,
    queue_merged: u64,
    shard_tasks: u64,
    shard_requeued: u64,
}

impl RegSnap {
    /// Reads every cell the benchmark reports.
    pub fn take(t: &ServeTelemetry) -> RegSnap {
        let r = &t.round;
        RegSnap {
            agg_fold_ns: r.agg_fold_seconds.sum_nanos(),
            cohort_draw_ns: r.cohort_draw_seconds.sum_nanos(),
            updates_admitted: r.updates_admitted_total.get(),
            updates_rejected: r.rejected_non_finite.get()
                + r.rejected_delta_norm.get()
                + r.rejected_stale_nonce.get()
                + r.rejected_duplicate.get()
                + r.rejected_handler_panic.get(),
            reround_attempts: r.reround_attempts_total.get(),
            poll_wait_ns: t.poll_wait_seconds.sum_nanos(),
            broadcast_encode_ns: t.broadcast_encode_seconds.sum_nanos(),
            frame_read_ns: t.frame_read_seconds.sum_nanos(),
            wal_append_ns: t.wal_append_seconds.sum_nanos(),
            checkpoint_fsync_ns: t.checkpoint_fsync_seconds.sum_nanos(),
            queue_submitted: t.unlearn_submitted_total.get(),
            queue_merged: t.unlearn_merged_total.get(),
            shard_tasks: t.shard_tasks_total.get(),
            shard_requeued: t.shard_tasks_requeued_total.get(),
        }
    }
}

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Correctness gates: name, passed, detail.
    pub gates: Vec<(String, bool, String)>,
    /// Every metric measured, by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Metrics that could not be measured, with the reason.
    pub missing: BTreeMap<String, String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    /// Records a metric that may be unavailable.
    pub fn set_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str, why: &str) {
        match value {
            Some(v) => self.set(name, v, unit),
            None => {
                self.missing.insert(name.to_string(), why.to_string());
            }
        }
    }

    /// Records a gate.
    pub fn gate(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.gates.push((name.to_string(), passed, detail.into()));
    }

    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        !self.gates.is_empty() && self.gates.iter().all(|g| g.1)
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn seconds_elapsed(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The metrics every workload derives from its recorder: the declared
/// end-to-end ones (CPU time per operation) and the wall-clock figures
/// printed beside them.
fn end_to_end(rec: &Recorder, wall_s: f64, out: &mut Outcome) {
    out.set_opt(
        "unlearn_cpu_ms",
        stats::median(&rec.unlearn_cpu_ms),
        "ms",
        "no request served",
    );
    out.set_opt(
        "round_cpu_ms",
        stats::median(&rec.round_cpu_ms),
        "ms",
        "no round ran",
    );
    out.set_opt(
        "unlearn_p50_ms",
        stats::median(&rec.unlearn_ms),
        "ms",
        "no request served",
    );
    out.set_opt(
        "unlearn_p95_ms",
        stats::p95(&rec.unlearn_ms),
        "ms",
        "fewer than 200 requests served in the window",
    );
    out.set(
        "unlearns_per_s",
        rec.unlearn_ms.len() as f64 / wall_s,
        "1/s",
    );
    out.set_opt(
        "round_p50_ms",
        stats::median(&rec.round_ms),
        "ms",
        "no round ran",
    );
    out.set_opt(
        "round_p95_ms",
        stats::p95(&rec.round_ms),
        "ms",
        "fewer than 200 rounds in the window",
    );
    out.set("rounds_per_s", rec.round_ms.len() as f64 / wall_s, "1/s");
    out.set_opt(
        "submit_p50_ms",
        stats::median(&rec.submit_ms),
        "ms",
        "closed loop: requests are submitted when issued, with no due time",
    );
    out.set_opt(
        "submit_p95_ms",
        stats::p95(&rec.submit_ms),
        "ms",
        "fewer than 200 timed submits in the window",
    );
    out.set(
        "failed_ops_ratio",
        rec.failed as f64 / rec.attempted.max(1) as f64,
        "fraction",
    );
}

/// Untraced run: [`SETUP_REPS`] set-ups, then load for `args.seconds`.
pub fn run_untraced<S: System>(
    args: &Args,
    mut setup: impl FnMut() -> Result<Setup<S>, String>,
) -> Result<Outcome, String> {
    let mut setup_cpu_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut sys = None;
    for _ in 0..SETUP_REPS {
        drop(sys.take());
        let cpu0 = trace::process_cpu_ns();
        let s = setup()?;
        setup_cpu_s.push(cpu_ms_since(cpu0) / 1e3);
        setup_wall_s.push(s.times.total_ns as f64 / 1e9);
        sys = Some(s.sys);
    }
    let mut sys = sys.expect("at least one set-up");
    let mut rec = Recorder::default();
    heap::reset_peak();
    let ticks = trace::cpu_ticks();
    let t0 = Instant::now();
    while seconds_elapsed(t0) < args.seconds {
        sys.step(rec.iterations, &mut rec);
        rec.iterations += 1;
    }
    let wall = seconds_elapsed(t0);
    let peak = heap::peak_bytes();
    let mut out = Outcome::default();
    out.set_opt(
        "bench.steal_ratio",
        trace::steal_ratio(&ticks, &trace::cpu_ticks()),
        "ratio",
        "/proc/stat unavailable",
    );
    let median = |v: &[f64]| stats::median(v).expect("set-ups ran");
    out.set("setup_s", median(&setup_cpu_s), "s");
    out.set("setup_wall_s", median(&setup_wall_s), "s");
    out.set("peak_heap_mb", peak as f64 / (1024.0 * 1024.0), "MB");
    end_to_end(&rec, wall, &mut out);
    out.attempted = rec.attempted;
    out.failed = rec.failed;
    sys.finish(&rec, &mut out);
    Ok(out)
}

/// Traced run. Phase A loads a plain system for half the window and
/// counts its iterations; phase B sets up the traced system and runs the
/// same number of iterations with spans on. Their wall-time ratio is
/// the tracing overhead; on deterministic schedules their digests must
/// match.
pub fn run_traced<A: System, B: System>(
    args: &Args,
    setup_plain: impl FnOnce() -> Result<Setup<A>, String>,
    setup_traced: impl FnOnce() -> Result<Setup<B>, String>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    let mut a = setup_plain()?.sys;
    let mut rec_a = Recorder::default();
    let t0 = Instant::now();
    while seconds_elapsed(t0) < args.seconds / 2.0 || rec_a.iterations == 0 {
        a.step(rec_a.iterations, &mut rec_a);
        rec_a.iterations += 1;
    }
    let wall_a = seconds_elapsed(t0);
    let digests_a = a.digests();
    drop(a);

    trace::set_enabled(true);
    let setup_span = trace::enter("setup");
    let b = setup_traced();
    drop(setup_span);
    let Setup { sys: mut b, times } = b?;
    let tel = b.telemetry();
    let reg0 = RegSnap::take(&tel);
    let coord = trace::current_tid().and_then(trace::ThreadWindow::start);
    let host = b.host_tid().and_then(trace::ThreadWindow::start);
    let mut rec = Recorder::default();
    let spans_before = trace::take();
    let ticks = trace::cpu_ticks();
    let t0 = Instant::now();
    for i in 0..rec_a.iterations {
        trace::set_op(i as u64);
        b.step(i, &mut rec);
        rec.iterations += 1;
    }
    let wall_b = seconds_elapsed(t0);
    out.set_opt(
        "bench.steal_ratio",
        trace::steal_ratio(&ticks, &trace::cpu_ticks()),
        "ratio",
        "/proc/stat unavailable",
    );
    let coord_busy = coord.and_then(|w| w.finish());
    let host_busy = host.and_then(|w| w.finish());
    let reg1 = RegSnap::take(&tel);
    trace::set_enabled(false);
    let spans = trace::take();
    let digests_b = b.digests();

    match (digests_a, digests_b) {
        (Some(da), Some(db)) => out.gate(
            "traced_digests_match_untraced",
            da == db,
            format!("{} digests compared", da.len()),
        ),
        _ => out.gate(
            "traced_digests_match_untraced",
            true,
            "open-loop schedule follows the clock; not compared",
        ),
    }

    // Set-up phases.
    out.set("setup.data_ms", ms(times.data_ns), "ms");
    out.set("setup.pretrain_ms", ms(times.pretrain_ns), "ms");
    out.set("setup.connect_ms", ms(times.connect_ns), "ms");
    let setup_totals = trace::totals_by_name(&spans_before);
    if let Some(t) = setup_totals.get("setup") {
        eprintln!(
            "setup span: {:.1} ms total, {:.1} ms unexplained by kernel spans",
            ms(t.total_ns),
            ms(t.self_ns)
        );
    }

    layer_metrics(&spans, &rec, &mut out);
    out.set(
        "bench.trace_overhead_ratio",
        wall_b / wall_a.max(1e-9) - 1.0,
        "ratio",
    );
    type Cell = (&'static str, &'static str, fn(&RegSnap) -> u64);
    let registry: [Cell; 14] = [
        ("fed.agg_fold_ms", "ms", |r| r.agg_fold_ns),
        ("fed.cohort_draw_ms", "ms", |r| r.cohort_draw_ns),
        ("fed.updates_admitted", "count", |r| r.updates_admitted),
        ("fed.updates_rejected", "count", |r| r.updates_rejected),
        ("fed.reround_attempts", "count", |r| r.reround_attempts),
        ("serve.reactor.poll_wait_ms", "ms", |r| r.poll_wait_ns),
        ("serve.reactor.broadcast_encode_ms", "ms", |r| {
            r.broadcast_encode_ns
        }),
        ("serve.reactor.frame_read_ms", "ms", |r| r.frame_read_ns),
        ("serve.durability.wal_append_ms", "ms", |r| r.wal_append_ns),
        ("serve.durability.checkpoint_fsync_ms", "ms", |r| {
            r.checkpoint_fsync_ns
        }),
        ("serve.queue.submitted", "count", |r| r.queue_submitted),
        ("serve.queue.merged", "count", |r| r.queue_merged),
        ("serve.shard.tasks", "count", |r| r.shard_tasks),
        ("serve.shard.requeued", "count", |r| r.shard_requeued),
    ];
    for (name, unit, cell) in registry {
        let delta = cell(&reg1).saturating_sub(cell(&reg0));
        let value = if unit == "ms" {
            ms(delta)
        } else {
            delta as f64
        };
        out.set(name, value, unit);
    }

    let no_proc = "/proc thread accounting unavailable";
    out.set_opt(
        "serve.coordinator.cpu_ms",
        coord_busy.map(|(b, _)| ms(b)),
        "ms",
        no_proc,
    );
    out.set_opt(
        "serve.coordinator.wait_ms",
        coord_busy.map(|(_, w)| ms(w)),
        "ms",
        no_proc,
    );
    let no_host = if b.host_tid().is_some() {
        no_proc
    } else {
        "no remote-worker host thread on this workload"
    };
    // A workload without a host thread has no fleet: its fleet time is 0.
    let host_busy = host_busy.or(b.host_tid().is_none().then_some((0, 0)));
    out.set_opt(
        "serve.fleet.cpu_ms",
        host_busy.map(|(bz, _)| ms(bz)),
        "ms",
        no_host,
    );
    out.set_opt(
        "serve.fleet.wait_ms",
        host_busy.map(|(_, w)| ms(w)),
        "ms",
        no_host,
    );

    if let Some(path) = &args.trace_out {
        write_spans(path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    print_span_table(&spans);

    // Layers only some workloads load; `finish` overwrites these.
    for (name, unit) in [
        ("core.retrain_baseline_ms", "ms"),
        ("core.goldfish_retrain_ratio", "ratio"),
        ("serve.durability.checkpoint_bytes", "B"),
        ("serve.durability.recover_ms", "ms"),
    ] {
        out.set(name, 0.0, unit);
    }
    out.attempted = rec.attempted;
    out.failed = rec.failed;
    b.finish(&rec, &mut out);
    Ok(out)
}

/// Per-layer metrics derived from spans and the loop's own counters.
fn layer_metrics(spans: &[trace::Span], rec: &Recorder, out: &mut Outcome) {
    let totals = trace::totals_by_name(spans);
    let get = |n: &str| totals.get(n).copied().unwrap_or_default();
    let total_ms = |names: &[&str]| ms(names.iter().map(|n| get(n).total_ns).sum());
    let calls = |names: &[&str]| names.iter().map(|n| get(n).count).sum::<u64>() as f64;

    out.set("nn.conv.fwd_ms", total_ms(&["nn.conv.fwd"]), "ms");
    out.set("nn.conv.bwd_ms", total_ms(&["nn.conv.bwd"]), "ms");
    out.set(
        "nn.conv.calls",
        calls(&["nn.conv.fwd", "nn.conv.bwd", "nn.conv.infer"]),
        "count",
    );
    out.set("nn.dense.fwd_ms", total_ms(&["nn.dense.fwd"]), "ms");
    out.set("nn.dense.bwd_ms", total_ms(&["nn.dense.bwd"]), "ms");
    out.set(
        "nn.dense.calls",
        calls(&["nn.dense.fwd", "nn.dense.bwd", "nn.dense.infer"]),
        "count",
    );
    out.set(
        "nn.other_ms",
        total_ms(&["nn.other.fwd", "nn.other.bwd"]),
        "ms",
    );
    out.set(
        "nn.infer_ms",
        total_ms(&["nn.conv.infer", "nn.dense.infer", "nn.other.infer"]),
        "ms",
    );

    out.set(
        "core.distill_round_ms",
        total_ms(&[span::DISTILL_ROUND]),
        "ms",
    );
    out.set(
        "core.begin_unlearn_ms",
        total_ms(&[span::BEGIN_UNLEARN]),
        "ms",
    );
    out.set(
        "core.shard_retrain_ms",
        total_ms(&[span::SHARD_RETRAIN]),
        "ms",
    );
    out.set(
        "core.shard_retrain.calls",
        calls(&[span::SHARD_RETRAIN]),
        "count",
    );

    let fold_ns = get(span::FOLD).total_ns;
    out.set(
        "fed.client_train_ms",
        ms(get(span::TRAIN).total_ns.saturating_sub(fold_ns)),
        "ms",
    );
    out.set("fed.fold_ms", ms(fold_ns), "ms");

    let round = get("serve.round");
    let drain = get("serve.drain");
    out.set("serve.round.self_ms", ms(round.self_ns), "ms");
    out.set("serve.drain.self_ms", ms(drain.self_ns), "ms");
    out.set(
        "serve.round.unattributed_ms",
        ms(round.self_ns) - ms(rec.round_registry_ns),
        "ms",
    );
    out.set(
        "serve.drain.unattributed_ms",
        ms(drain.self_ns) - ms(rec.drain_registry_ns),
        "ms",
    );
    let batches = rec.batch_sizes.len();
    out.set(
        "serve.drain.requests_per_batch",
        rec.batch_sizes.iter().sum::<usize>() as f64 / batches.max(1) as f64,
        "requests",
    );
    out.set("serve.queue.depth_max", rec.depth_max as f64, "count");
    out.set(
        "serve.wire.bytes_per_round",
        rec.round_wire_bytes as f64 / rec.round_ms.len().max(1) as f64,
        "B",
    );
    out.set(
        "serve.wire.bytes_per_drain",
        rec.drain_wire_bytes as f64 / batches.max(1) as f64,
        "B",
    );
    out.set(
        "bench.generator_late_ms",
        stats::median(&rec.generator_late_ms).unwrap_or(0.0),
        "ms",
    );
}

fn write_spans(path: &std::path::Path, spans: &[trace::Span]) -> std::io::Result<()> {
    use std::io::Write;
    let selfs = trace::self_times(spans);
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "id\tparent\tname\top\tstart_ns\tend_ns\tself_ns")?;
    for s in spans {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.op, s.start, s.end, selfs[&s.id]
        )?;
    }
    f.flush()
}

fn print_span_table(spans: &[trace::Span]) {
    eprintln!(
        "{:<22} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in trace::totals_by_name(spans) {
        eprintln!(
            "{:<22} {:>9} {:>12.2} {:>12.2}",
            name,
            t.count,
            ms(t.total_ns),
            ms(t.self_ns)
        );
    }
}

/// Scratch directory for on-disk state, inside the working tree's build
/// directory (the benchmark writes nowhere else).
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(".bench_build"));
    static SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    base.join("perfbench-state")
        .join(format!("{}-{tag}-{n}", std::process::id()))
}

/// Bit patterns of a state vector (for bitwise comparisons).
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
