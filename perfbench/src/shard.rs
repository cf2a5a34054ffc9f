//! `shard-durable`: durability-bound shard-mode deletions that arrive on
//! a schedule.
//!
//! `ShardPolicy { tau: 4, group: 2 }` on loopback with a compute pool of
//! one thread, a `DurableStore` on the real disk, twelve clients on a
//! small MLP. Open loop: deletion requests (distinct seeded client/row
//! pairs) fall due at [`RATE_PER_S`]. Each iteration submits every
//! request that has fallen due, runs one training round, then
//! `drain_shard_tasks`. Latency is timed from when a request was due.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use goldfish_core::basic_model::network_from_state;
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_data::Dataset;
use goldfish_fed::trainer::TrainConfig;
use goldfish_serve::audit::{self, audit_kind};
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::digest::DIGEST_LEN;
use goldfish_serve::durability::{audit_path, DurableStore};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::shard::ShardPolicy;
use goldfish_serve::telemetry::ServeTelemetry;
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

use crate::common::{self, bits, Args, Outcome, Recorder, Setup, SetupTimes, System};
use crate::trace;
use crate::traced::{Arch, TracedTransport};

const ARCH: Arch = Arch::Mlp {
    input: 64,
    hidden: 32,
};
const CLIENTS: usize = 12;
const SAMPLES_PER_CLIENT: usize = 96;
const TEST_SAMPLES: usize = 400;
/// Held-out samples `test_acc` is measured on (not seen by the program).
const EVAL_SAMPLES: usize = 2000;
const PRETRAIN_ROUNDS: usize = 40;
const POLICY: ShardPolicy = ShardPolicy {
    tau: 4,
    group: 2,
    deadline_ms: 0,
};
/// Deletion requests falling due per second.
pub const RATE_PER_S: f64 = 30.0;

fn train_config() -> TrainConfig {
    TrainConfig {
        local_epochs: 1,
        batch_size: 16,
        lr: 0.1,
        momentum: 0.9,
    }
}

fn coordinator_config(seed: u64) -> CoordinatorConfig {
    CoordinatorConfig {
        train: train_config(),
        init_seed: seed ^ 0x5A4D,
        threads: Some(1),
        ..CoordinatorConfig::default()
    }
    .with_shards(POLICY)
}

fn inputs(seed: u64) -> (Vec<Dataset>, Dataset, Dataset) {
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let (train, held_out) = synthetic::generate(
        &spec,
        CLIENTS * SAMPLES_PER_CLIENT,
        TEST_SAMPLES + EVAL_SAMPLES,
        seed,
    );
    let test = held_out.subset(&(0..TEST_SAMPLES).collect::<Vec<_>>());
    let eval = held_out.subset(&(TEST_SAMPLES..TEST_SAMPLES + EVAL_SAMPLES).collect::<Vec<_>>());
    let shards = (0..CLIENTS)
        .map(|id| {
            let idx: Vec<usize> =
                (id * SAMPLES_PER_CLIENT..(id + 1) * SAMPLES_PER_CLIENT).collect();
            train.subset(&idx)
        })
        .collect();
    (shards, test, eval)
}

/// A state directory removed when dropped.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One coordinator call, recorded for the replay gate.
#[derive(Debug, Clone)]
enum Op {
    Round(usize, u64),
    Submit(UnlearnRequest),
    Drain(u64),
}

/// The set-up system.
pub struct ShardSys<T: ServeTransport> {
    c: Coordinator<T>,
    dir: StateDir,
    seed: u64,
    clients: Vec<Dataset>,
    test: Dataset,
    /// Where `test_acc` is measured.
    eval: Dataset,
    origin: Vec<f32>,
    /// Every `(client, row)` pair in seeded order: request `k` deletes
    /// `pairs[k]`, so no row is ever deleted twice.
    pairs: Vec<(usize, usize)>,
    next_req: usize,
    start: Option<Instant>,
    /// Submitted requests awaiting a drain: due time and submit CPU ms.
    pending: Vec<(Instant, f64)>,
    next_round: usize,
    ops: Vec<Op>,
    accepted: Vec<(usize, usize)>,
}

fn setup<T: ServeTransport>(
    seed: u64,
    traced: bool,
    wrap: impl FnOnce(LoopbackTransport) -> T,
) -> Result<Setup<ShardSys<T>>, String> {
    let t0 = Instant::now();
    let (clients, test, eval) = inputs(seed);
    let mut pairs: Vec<(usize, usize)> = (0..CLIENTS)
        .flat_map(|c| (0..SAMPLES_PER_CLIENT).map(move |r| (c, r)))
        .collect();
    pairs.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0DE1));
    let data_ns = t0.elapsed().as_nanos() as u64;

    let dir = StateDir(common::scratch_dir("shard"));
    let (store, recovered) =
        DurableStore::open(&dir.0).map_err(|e| format!("opening {}: {e}", dir.0.display()))?;
    let factory = ARCH.factory_for(traced);
    let transport = wrap(LoopbackTransport::new(
        Arc::clone(&factory),
        clients.clone(),
        Some(1),
    ));
    let mut c = Coordinator::new(factory, test.clone(), transport, coordinator_config(seed));
    c.attach_durability(store, recovered)
        .map_err(|e| format!("attaching the store: {e}"))?;
    let t1 = Instant::now();
    let mut ops = Vec::new();
    for r in 0..PRETRAIN_ROUNDS {
        let s = round_seed(seed, r);
        c.train_round_hot(r, s)
            .map_err(|e| format!("pretrain round {r}: {e}"))?;
        ops.push(Op::Round(r, s));
    }
    let pretrain_ns = t1.elapsed().as_nanos() as u64;
    let origin = c.global_state().to_vec();
    Ok(Setup {
        sys: ShardSys {
            c,
            dir,
            seed,
            clients,
            test,
            eval,
            origin,
            pairs,
            next_req: 0,
            start: None,
            pending: Vec::new(),
            next_round: PRETRAIN_ROUNDS,
            ops,
            accepted: Vec::new(),
        },
        times: SetupTimes {
            data_ns,
            connect_ns: 0,
            pretrain_ns,
            total_ns: t0.elapsed().as_nanos() as u64,
        },
    })
}

impl<T: ServeTransport> ShardSys<T> {
    fn due(&self, start: Instant, k: usize) -> Instant {
        start + Duration::from_secs_f64(k as f64 / RATE_PER_S)
    }

    /// Submits every request that has fallen due.
    fn submit_due(&mut self, rec: &mut Recorder) {
        let start = *self.start.get_or_insert_with(Instant::now);
        while self.next_req < self.pairs.len() {
            let due = self.due(start, self.next_req);
            let called = Instant::now();
            if due > called {
                break;
            }
            let (client, row) = self.pairs[self.next_req];
            self.next_req += 1;
            let req = UnlearnRequest::new(client, vec![row]);
            let cpu0 = trace::process_cpu_ns();
            let r = {
                let _s = trace::enter("serve.submit");
                self.c.submit_unlearn(req.clone())
            };
            let done = Instant::now();
            let cpu = common::cpu_ms_since(cpu0);
            if rec.count(r).is_some() {
                rec.generator_late_ms
                    .push((called - due).as_secs_f64() * 1e3);
                rec.submit_ms.push((done - due).as_secs_f64() * 1e3);
                self.pending.push((due, cpu));
                self.accepted.push((client, row));
                self.ops.push(Op::Submit(req));
            }
        }
    }
}

impl<T: ServeTransport> System for ShardSys<T> {
    fn step(&mut self, _i: usize, rec: &mut Recorder) {
        self.submit_due(rec);
        let r = self.next_round;
        let seed = round_seed(self.seed, r);
        common::timed_round(&mut self.c, r, seed, rec);
        self.next_round += 1;
        self.ops.push(Op::Round(r, seed));
        if self.c.shard_tasks().is_empty() {
            return;
        }
        rec.depth_max = rec.depth_max.max(self.c.shard_tasks().len());
        let seed = drain_seed(self.seed, r);
        let (served, drain_cpu) =
            common::timed_drain(&mut self.c, rec, |c| c.drain_shard_tasks(seed));
        if let Some(Some(summary)) = rec.count(served) {
            let done = Instant::now();
            self.ops.push(Op::Drain(seed));
            let batch = self.pending.len();
            rec.batch_sizes.push(batch);
            if summary.requeued == 0 {
                for (due, submit_cpu) in self.pending.drain(..) {
                    rec.unlearn_ms.push((done - due).as_secs_f64() * 1e3);
                    rec.unlearn_cpu_ms
                        .push(submit_cpu + drain_cpu / batch.max(1) as f64);
                }
            }
        }
    }

    fn telemetry(&self) -> Arc<ServeTelemetry> {
        Arc::clone(self.c.telemetry())
    }

    fn digests(&self) -> Option<Vec<[u8; DIGEST_LEN]>> {
        None
    }

    fn finish(self, _rec: &Recorder, out: &mut Outcome) {
        let ShardSys {
            c,
            dir,
            seed,
            clients,
            test,
            eval,
            origin,
            ops,
            accepted,
            pending,
            ..
        } = self;
        let mut net = network_from_state(&ARCH.factory(), &origin, 0);
        out.set(
            "test_acc",
            goldfish_fed::eval::accuracy(&mut net, &eval),
            "fraction",
        );
        let final_global = c.global_state().to_vec();
        out.gate(
            "every_submit_drained",
            pending.is_empty() && c.shard_tasks().is_empty(),
            format!("{} accepted requests", accepted.len()),
        );
        drop(c);

        // Replay the recorded calls on a fresh coordinator with no store.
        let mut replay = Coordinator::new(
            ARCH.factory(),
            test.clone(),
            LoopbackTransport::new(ARCH.factory(), clients.clone(), Some(1)),
            coordinator_config(seed),
        );
        let replayed = ops.iter().try_for_each(|op| match op {
            Op::Round(r, s) => replay.train_round_hot(*r, *s).map_err(|e| e.to_string()),
            Op::Submit(req) => replay
                .submit_unlearn(req.clone())
                .map_err(|e| e.to_string()),
            Op::Drain(s) => replay
                .drain_shard_tasks(*s)
                .map(|_| ())
                .map_err(|e| e.to_string()),
        });
        out.gate(
            "storeless_replay_equals_run",
            replayed.is_ok() && bits(replay.global_state()) == bits(&final_global),
            format!("{} calls replayed: {replayed:?}", ops.len()),
        );

        // Restart from disk.
        let t0 = Instant::now();
        let recovered = DurableStore::open(&dir.0)
            .map_err(|e| e.to_string())
            .and_then(|(store, recovered)| {
                let mut r = Coordinator::new(
                    ARCH.factory(),
                    test.clone(),
                    LoopbackTransport::new(ARCH.factory(), clients.clone(), Some(1)),
                    coordinator_config(seed),
                );
                r.attach_durability(store, recovered)
                    .map_err(|e| e.to_string())?;
                Ok(r)
            });
        let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
        match &recovered {
            Ok(r) => out.gate(
                "restart_recovers_final_global",
                bits(r.global_state()) == bits(&final_global),
                "DurableStore::open + attach_durability, bitwise",
            ),
            Err(e) => out.gate("restart_recovers_final_global", false, e.clone()),
        }
        drop(recovered);
        out.set("serve.durability.recover_ms", recover_ms, "ms");
        if let Some(bytes) = newest_checkpoint_bytes(&dir.0) {
            out.set("serve.durability.checkpoint_bytes", bytes as f64, "B");
        }

        match audit::verify_file(&audit_path(&dir.0)) {
            Ok(summary) => {
                out.gate(
                    "audit_chain_verifies",
                    true,
                    format!("{} entries", summary.entries.len()),
                );
                let mut served: Vec<(usize, usize)> = summary
                    .entries
                    .iter()
                    .filter(|e| e.kind == audit_kind::UNLEARN_SERVED)
                    .flat_map(|e| {
                        e.detail[1..]
                            .iter()
                            .map(move |&row| (e.client_id as usize, row as usize))
                    })
                    .collect();
                served.sort_unstable();
                let mut want = accepted.clone();
                want.sort_unstable();
                out.gate(
                    "every_accepted_deletion_served_once",
                    served == want,
                    format!("{} served rows, {} accepted", served.len(), want.len()),
                );
            }
            Err(e) => out.gate("audit_chain_verifies", false, e.to_string()),
        }
        drop(dir);
    }
}

fn newest_checkpoint_bytes(dir: &Path) -> Option<u64> {
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("checkpoint-"))
        .max_by_key(|e| e.file_name())
        .and_then(|e| e.metadata().ok())
        .map(|m| m.len())
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    if args.trace {
        common::run_traced(
            args,
            || setup(seed, false, |t| t),
            || setup(seed, true, TracedTransport::new),
        )
    } else {
        common::run_untraced(args, || setup(seed, false, |t| t))
    }
}
