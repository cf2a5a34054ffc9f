//! The metric catalog `BENCHMARK.json` declares, and the JSON result line.

use crate::common::Outcome;

/// End-to-end metrics: every workload's untraced run reports each.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "unlearn_cpu_ms",
    "round_cpu_ms",
    "test_acc",
    "peak_heap_mb",
];

/// Per-layer metrics: every workload's traced run reports each (0 where
/// the workload bypasses the layer).
pub const PER_LAYER: &[&str] = &[
    "nn.conv.fwd_ms",
    "nn.conv.bwd_ms",
    "nn.conv.calls",
    "nn.dense.fwd_ms",
    "nn.dense.bwd_ms",
    "nn.dense.calls",
    "nn.other_ms",
    "nn.infer_ms",
    "core.distill_round_ms",
    "core.begin_unlearn_ms",
    "core.shard_retrain_ms",
    "core.shard_retrain.calls",
    "core.retrain_baseline_ms",
    "core.goldfish_retrain_ratio",
    "fed.client_train_ms",
    "fed.fold_ms",
    "fed.agg_fold_ms",
    "fed.cohort_draw_ms",
    "fed.updates_admitted",
    "fed.updates_rejected",
    "fed.reround_attempts",
    "serve.round.self_ms",
    "serve.drain.self_ms",
    "serve.drain.requests_per_batch",
    "serve.coordinator.cpu_ms",
    "serve.coordinator.wait_ms",
    "serve.reactor.poll_wait_ms",
    "serve.reactor.broadcast_encode_ms",
    "serve.reactor.frame_read_ms",
    "serve.wire.bytes_per_round",
    "serve.wire.bytes_per_drain",
    "serve.fleet.cpu_ms",
    "serve.fleet.wait_ms",
    "serve.durability.wal_append_ms",
    "serve.durability.checkpoint_fsync_ms",
    "serve.durability.checkpoint_bytes",
    "serve.durability.recover_ms",
    "serve.queue.submitted",
    "serve.queue.merged",
    "serve.queue.depth_max",
    "serve.shard.tasks",
    "serve.shard.requeued",
    "setup.data_ms",
    "setup.pretrain_ms",
    "setup.connect_ms",
    "bench.generator_late_ms",
    "bench.trace_overhead_ratio",
    "bench.steal_ratio",
    "serve.round.unattributed_ms",
    "serve.drain.unattributed_ms",
];

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: the declared metrics of this mode only. Metrics the
/// run could not measure are left out (their reasons go to stderr).
pub fn result_line(out: &Outcome, names: &[&str]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .filter_map(|&n| {
            out.metrics.get(n).map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(n),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}
