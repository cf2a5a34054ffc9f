//! `distill-lenet`: compute-bound whole-client Goldfish unlearning in
//! process.
//!
//! LeNet-5 on the 1×20×20 synthetic-MNIST analogue, five clients on
//! `LoopbackTransport` with a compute pool of two threads; client 0 holds
//! backdoored rows. Closed loop, one deletion client: each iteration
//! submits one request, serves it with its own `drain_unlearning`, then
//! runs one training round. The first request deletes the poisoned rows;
//! later ones delete two clean rows each.

use std::sync::Arc;
use std::time::Instant;

use goldfish_core::baselines::RetrainFromScratch;
use goldfish_core::basic_model::{network_from_state, GoldfishLocalConfig};
use goldfish_core::method::{ClientSplit, UnlearnSetup, UnlearningMethod};
use goldfish_core::GoldfishUnlearning;
use goldfish_data::backdoor::BackdoorSpec;
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_data::{partition, Dataset};
use goldfish_fed::eval;
use goldfish_fed::trainer::TrainConfig;
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::digest::DIGEST_LEN;
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::telemetry::ServeTelemetry;
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::common::{self, bits, Args, Outcome, Recorder, Setup, SetupTimes, System};
use crate::traced::{Arch, TracedTransport};

const ARCH: Arch = Arch::LeNet5 { side: 20 };
const SAMPLES: usize = 1200;
const TEST_SAMPLES: usize = 400;
/// Held-out samples `test_acc` and `forget_asr` are measured on (not seen
/// by the program).
const EVAL_SAMPLES: usize = 2000;
const CLIENTS: usize = 5;
const POISONED: usize = 120;
const PRETRAIN_ROUNDS: usize = 10;
const DISTILL_ROUNDS: usize = 3;
const CLEAN_ROWS_PER_REQUEST: usize = 2;
const POOL_THREADS: usize = 2;

fn train_config() -> TrainConfig {
    TrainConfig {
        local_epochs: 2,
        batch_size: 20,
        lr: 0.05,
        momentum: 0.9,
    }
}

fn method() -> GoldfishUnlearning {
    GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
        epochs: 2,
        batch_size: 20,
        lr: 0.05,
        momentum: 0.9,
        ..GoldfishLocalConfig::default()
    })
}

fn backdoor() -> BackdoorSpec {
    BackdoorSpec::new(0).with_patch(6)
}

/// The generated inputs: client datasets (client 0 poisoned), the test
/// set and the poisoned row indices.
struct Inputs {
    clients: Vec<Dataset>,
    test: Dataset,
    eval: Dataset,
    poisoned: Vec<usize>,
}

fn inputs(seed: u64) -> Inputs {
    let spec = SyntheticSpec::mnist().with_size(20, 20).with_shift(2);
    let (train, held_out) = synthetic::generate(&spec, SAMPLES, TEST_SAMPLES + EVAL_SAMPLES, seed);
    let test = held_out.subset(&(0..TEST_SAMPLES).collect::<Vec<_>>());
    let eval = held_out.subset(&(TEST_SAMPLES..TEST_SAMPLES + EVAL_SAMPLES).collect::<Vec<_>>());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD157);
    let parts = partition::iid(train.len(), CLIENTS, &mut rng);
    let mut clients: Vec<Dataset> = parts.iter().map(|p| train.subset(p)).collect();
    let mut rows: Vec<usize> = (0..clients[0].len()).collect();
    rows.shuffle(&mut rng);
    let mut poisoned = rows[..POISONED].to_vec();
    poisoned.sort_unstable();
    backdoor().poison(&mut clients[0], &poisoned);
    Inputs {
        clients,
        test,
        eval,
        poisoned,
    }
}

/// The set-up system.
pub struct DistillSys<T: ServeTransport> {
    c: Coordinator<T>,
    seed: u64,
    inputs: Inputs,
    origin: Vec<f32>,
    first_drain: Option<Vec<f32>>,
    rng: StdRng,
    next_round: usize,
    digests: Vec<[u8; DIGEST_LEN]>,
    report_baseline: bool,
}

fn setup<T: ServeTransport>(
    seed: u64,
    traced: bool,
    wrap: impl FnOnce(LoopbackTransport) -> T,
) -> Result<Setup<DistillSys<T>>, String> {
    let t0 = Instant::now();
    let inputs = inputs(seed);
    let data_ns = t0.elapsed().as_nanos() as u64;
    let factory = ARCH.factory_for(traced);
    let transport = wrap(LoopbackTransport::new(
        Arc::clone(&factory),
        inputs.clients.clone(),
        Some(POOL_THREADS),
    ));
    let cfg = CoordinatorConfig {
        train: train_config(),
        method: method(),
        unlearn_rounds: DISTILL_ROUNDS,
        init_seed: seed ^ 0x1417,
        threads: Some(POOL_THREADS),
        ..CoordinatorConfig::default()
    };
    let mut c = Coordinator::new(factory, inputs.test.clone(), transport, cfg);
    let t1 = Instant::now();
    for r in 0..PRETRAIN_ROUNDS {
        c.train_round_hot(r, round_seed(seed, r))
            .map_err(|e| format!("pretrain round {r}: {e}"))?;
    }
    let pretrain_ns = t1.elapsed().as_nanos() as u64;
    let origin = c.global_state().to_vec();
    Ok(Setup {
        sys: DistillSys {
            c,
            seed,
            inputs,
            origin,
            first_drain: None,
            rng: StdRng::seed_from_u64(seed ^ 0x5EED),
            next_round: PRETRAIN_ROUNDS,
            digests: Vec::new(),
            report_baseline: traced,
        },
        times: SetupTimes {
            data_ns,
            connect_ns: 0,
            pretrain_ns,
            total_ns: t0.elapsed().as_nanos() as u64,
        },
    })
}

impl<T: ServeTransport> DistillSys<T> {
    fn next_request(&mut self, i: usize) -> UnlearnRequest {
        if i == 0 {
            return UnlearnRequest::new(0, self.inputs.poisoned.clone());
        }
        let sizes = self.c.transport().client_sizes();
        let client = self.rng.gen_range(0..CLIENTS);
        let mut rows: Vec<usize> = (0..sizes[client]).collect();
        rows.shuffle(&mut self.rng);
        rows.truncate(CLEAN_ROWS_PER_REQUEST);
        UnlearnRequest::new(client, rows)
    }
}

impl<T: ServeTransport> System for DistillSys<T> {
    fn step(&mut self, i: usize, rec: &mut Recorder) {
        let req = self.next_request(i);
        let seed = drain_seed(self.seed, i);
        if common::submit_and_drain(&mut self.c, req, seed, rec) && i == 0 {
            self.first_drain = Some(self.c.global_state().to_vec());
            self.digests.push(self.c.global_digest());
        }
        let r = self.next_round;
        common::timed_round(&mut self.c, r, round_seed(self.seed, r), rec);
        self.next_round += 1;
    }

    fn telemetry(&self) -> Arc<ServeTelemetry> {
        Arc::clone(self.c.telemetry())
    }

    fn digests(&self) -> Option<Vec<[u8; DIGEST_LEN]>> {
        let mut d = self.digests.clone();
        d.push(self.c.global_digest());
        Some(d)
    }

    fn finish(self, _rec: &Recorder, out: &mut Outcome) {
        let factory = ARCH.factory();
        let held_out = &self.inputs.eval;
        let bd = backdoor();
        let score = |state: &[f32]| {
            let mut net = network_from_state(&factory, state, 0);
            (
                eval::accuracy(&mut net, held_out),
                eval::attack_success_rate(&mut net, held_out, &bd),
            )
        };
        let (origin_acc, origin_asr) = score(&self.origin);
        out.set("origin_acc", origin_acc, "fraction");
        out.set("origin_asr", origin_asr, "fraction");
        let Some(first) = self.first_drain else {
            out.gate(
                "first_drain_served",
                false,
                "the first deletion never drained",
            );
            return;
        };
        let (acc, asr) = score(&first);
        out.set("test_acc", acc, "fraction");
        out.set("forget_asr", asr, "fraction");
        out.gate(
            "forget_asr_below_origin",
            asr < origin_asr,
            format!("origin ASR {origin_asr:.4}, after first drain {asr:.4}"),
        );

        // The library's in-process Goldfish on the same request.
        let setup = UnlearnSetup {
            factory: Arc::clone(&factory),
            clients: self
                .inputs
                .clients
                .iter()
                .enumerate()
                .map(|(id, d)| {
                    if id == 0 {
                        ClientSplit::with_removed(d, &self.inputs.poisoned)
                    } else {
                        ClientSplit::intact(d.clone())
                    }
                })
                .collect(),
            test: self.inputs.test.clone(),
            original_global: self.origin.clone(),
            rounds: DISTILL_ROUNDS,
            train: train_config(),
        };
        let t0 = Instant::now();
        let oracle = method().unlearn(&setup, drain_seed(self.seed, 0));
        let goldfish_ms = t0.elapsed().as_secs_f64() * 1e3;
        out.gate(
            "first_drain_equals_library_goldfish",
            bits(&first) == bits(&oracle.global_state),
            "Coordinator::drain_unlearning vs GoldfishUnlearning::unlearn, bitwise",
        );
        if self.report_baseline {
            let t0 = Instant::now();
            RetrainFromScratch.unlearn(&setup, self.seed);
            let retrain_ms = t0.elapsed().as_secs_f64() * 1e3;
            out.set("core.retrain_baseline_ms", retrain_ms, "ms");
            out.set(
                "core.goldfish_retrain_ratio",
                goldfish_ms / retrain_ms,
                "ratio",
            );
            eprintln!(
                "goldfish {goldfish_ms:.1} ms vs retrain-from-scratch {retrain_ms:.1} ms \
                 ({DISTILL_ROUNDS} rounds each, same request, in process)"
            );
        }
    }
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
