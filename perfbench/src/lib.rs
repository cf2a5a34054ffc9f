//! The Goldfish benchmark: one command, three workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced run.
//!
//! ```text
//! goldfish-perfbench --workload <distill-lenet|fleet-tcp|shard-durable>
//!                    --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when a
//! correctness gate fails.

pub mod common;
pub mod distill;
pub mod fleet;
pub mod heap;
pub mod metrics;
pub mod shard;
pub mod stats;
pub mod trace;
pub mod traced;
