//! `fleet-tcp`: reactor- and wire-bound serving.
//!
//! 256 `WorkerRuntime`s hosted by `run_fleet` on one thread register
//! over localhost TCP; a seeded cohort of 64 trains each round (MLP
//! 64→128→10, one 16-sample batch per client). Closed loop of training
//! rounds; every [`DRAIN_EVERY`]th iteration also submits a one-row
//! deletion and drains it by TCP distillation, which contacts all 256
//! workers. Two threads: the coordinator (this one) and the fleet host.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::GoldfishUnlearning;
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_data::Dataset;
use goldfish_fed::trainer::TrainConfig;
use goldfish_fed::ModelFactory;
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::digest::DIGEST_LEN;
use goldfish_serve::fleet::{run_fleet, FleetReport};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::telemetry::ServeTelemetry;
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_serve::wire::FrameLimits;
use goldfish_serve::worker::WorkerRuntime;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::common::{self, bits, Args, Outcome, Recorder, Setup, SetupTimes, System};
use crate::trace;
use crate::traced::{Arch, TracedTransport};

const ARCH: Arch = Arch::Mlp {
    input: 64,
    hidden: 128,
};
const CLIENTS: usize = 256;
const SAMPLES_PER_CLIENT: usize = 16;
const TEST_SAMPLES: usize = 400;
/// Held-out samples `test_acc` is measured on (not seen by the program).
const EVAL_SAMPLES: usize = 2000;
const COHORT_FRACTION: f64 = 0.25;
const PRETRAIN_ROUNDS: usize = 40;
/// A deletion is submitted and drained every this many iterations.
pub const DRAIN_EVERY: usize = 8;

fn train_config() -> TrainConfig {
    TrainConfig {
        local_epochs: 1,
        batch_size: SAMPLES_PER_CLIENT,
        lr: 0.2,
        momentum: 0.9,
    }
}

fn coordinator_config(seed: u64) -> CoordinatorConfig {
    CoordinatorConfig {
        train: train_config(),
        method: GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
            epochs: 3,
            batch_size: SAMPLES_PER_CLIENT,
            lr: 0.2,
            momentum: 0.9,
            ..GoldfishLocalConfig::default()
        }),
        unlearn_rounds: 1,
        init_seed: seed ^ 0xF1EE,
        threads: Some(1),
        ..CoordinatorConfig::default()
    }
    .with_cohort_fraction(COHORT_FRACTION)
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

/// One loop operation, recorded for the loopback replay gate.
#[derive(Debug, Clone)]
enum Op {
    Round(usize, u64),
    Unlearn(UnlearnRequest, u64),
}

/// The set-up system.
pub struct FleetSys<T: ServeTransport> {
    c: Coordinator<T>,
    seed: u64,
    shards: Vec<Dataset>,
    test: Dataset,
    /// Where `test_acc` is measured.
    eval: Dataset,
    host: Option<JoinHandle<Result<FleetReport, String>>>,
    host_tid: Option<u32>,
    rng: StdRng,
    next_round: usize,
    /// Every operation up to and including the first drain.
    schedule: Vec<Op>,
    first_drain: Option<Vec<f32>>,
    /// The global the training rounds produced, just before the first
    /// drain (the first drain's teacher).
    trained: Option<Vec<f32>>,
    digests: Vec<[u8; DIGEST_LEN]>,
}

fn setup<T: ServeTransport>(
    seed: u64,
    traced: bool,
    wrap: impl FnOnce(TcpTransport) -> T,
) -> Result<Setup<FleetSys<T>>, String> {
    let t0 = Instant::now();
    let (shards, test, eval) = inputs(seed);
    let data_ns = t0.elapsed().as_nanos() as u64;

    let factory: ModelFactory = ARCH.factory_for(traced);
    let t1 = Instant::now();
    let (listener, addr) = bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let (tid_tx, tid_rx) = mpsc::channel();
    let host_shards = shards.clone();
    let host_factory = Arc::clone(&factory);
    let host = std::thread::spawn(move || {
        let _ = tid_tx.send(trace::current_tid());
        let mut runtimes: Vec<WorkerRuntime> = host_shards
            .into_iter()
            .enumerate()
            .map(|(id, shard)| WorkerRuntime::new(id, Arc::clone(&host_factory), shard))
            .collect();
        run_fleet(&addr, &mut runtimes, &FrameLimits::default()).map_err(|e| e.to_string())
    });
    let state_len = (factory)(0).state_len();
    let transport = TcpTransport::accept(&listener, CLIENTS, state_len, TcpConfig::default())
        .map_err(|e| format!("fleet handshake: {e}"))?;
    let connect_ns = t1.elapsed().as_nanos() as u64;
    let host_tid = tid_rx.recv().ok().flatten();

    let mut c = Coordinator::new(
        factory,
        test.clone(),
        wrap(transport),
        coordinator_config(seed),
    );
    let t2 = Instant::now();
    let mut schedule = Vec::new();
    for r in 0..PRETRAIN_ROUNDS {
        c.train_round_hot(r, round_seed(seed, r))
            .map_err(|e| format!("pretrain round {r}: {e}"))?;
        schedule.push(Op::Round(r, round_seed(seed, r)));
    }
    let pretrain_ns = t2.elapsed().as_nanos() as u64;
    Ok(Setup {
        sys: FleetSys {
            c,
            seed,
            shards,
            test,
            eval,
            host: Some(host),
            host_tid,
            rng: StdRng::seed_from_u64(seed ^ 0xDE1E),
            next_round: PRETRAIN_ROUNDS,
            schedule,
            first_drain: None,
            trained: None,
            digests: Vec::new(),
        },
        times: SetupTimes {
            data_ns,
            connect_ns,
            pretrain_ns,
            total_ns: t0.elapsed().as_nanos() as u64,
        },
    })
}

impl<T: ServeTransport> FleetSys<T> {
    fn next_request(&mut self) -> UnlearnRequest {
        let sizes = self.c.transport().client_sizes();
        loop {
            let client = self.rng.gen_range(0..CLIENTS);
            if sizes[client] > 1 {
                let row = self.rng.gen_range(0..sizes[client]);
                return UnlearnRequest::new(client, vec![row]);
            }
        }
    }

    fn shutdown(&mut self) -> Option<Result<FleetReport, String>> {
        let host = self.host.take()?;
        self.c.transport_mut().shutdown();
        Some(
            host.join()
                .unwrap_or_else(|_| Err("fleet host panicked".into())),
        )
    }
}

impl<T: ServeTransport> Drop for FleetSys<T> {
    fn drop(&mut self) {
        if let Some(Err(e)) = self.shutdown() {
            eprintln!("fleet host: {e}");
        }
    }
}

impl<T: ServeTransport> System for FleetSys<T> {
    fn step(&mut self, i: usize, rec: &mut Recorder) {
        let r = self.next_round;
        let seed = round_seed(self.seed, r);
        common::timed_round(&mut self.c, r, seed, rec);
        self.next_round += 1;
        if self.first_drain.is_none() {
            self.schedule.push(Op::Round(r, seed));
        }
        if !(i + 1).is_multiple_of(DRAIN_EVERY) {
            return;
        }
        let req = self.next_request();
        let seed = drain_seed(self.seed, i);
        if self.trained.is_none() {
            self.trained = Some(self.c.global_state().to_vec());
        }
        if common::submit_and_drain(&mut self.c, req.clone(), seed, rec)
            && self.first_drain.is_none()
        {
            self.schedule.push(Op::Unlearn(req, seed));
            self.first_drain = Some(self.c.global_state().to_vec());
            self.digests.push(self.c.global_digest());
        }
    }

    fn telemetry(&self) -> Arc<ServeTelemetry> {
        Arc::clone(self.c.telemetry())
    }

    fn digests(&self) -> Option<Vec<[u8; DIGEST_LEN]>> {
        let mut d = self.digests.clone();
        d.push(self.c.global_digest());
        Some(d)
    }

    fn host_tid(&self) -> Option<u32> {
        self.host_tid
    }

    fn finish(mut self, _rec: &Recorder, out: &mut Outcome) {
        match self.shutdown() {
            Some(Ok(report)) => out.gate(
                "fleet_shut_down_cleanly",
                report.clean_shutdowns == CLIENTS && report.dropped == 0,
                format!(
                    "{} clean shutdowns, {} dropped",
                    report.clean_shutdowns, report.dropped
                ),
            ),
            Some(Err(e)) => out.gate("fleet_shut_down_cleanly", false, e),
            None => out.gate("fleet_shut_down_cleanly", false, "host already gone"),
        }
        let Some(first) = &self.first_drain else {
            out.gate(
                "first_drain_served",
                false,
                "no deletion drained in the window",
            );
            return;
        };
        // Evaluated at a fixed point of the schedule (the rounds before
        // the first drain), so it is a pure function of the seed.
        let trained = self.trained.as_deref().unwrap_or(first);
        let mut net = goldfish_core::basic_model::network_from_state(&ARCH.factory(), trained, 0);
        out.set(
            "test_acc",
            goldfish_fed::eval::accuracy(&mut net, &self.eval),
            "fraction",
        );
        // The same schedule over the in-process transport.
        let transport = LoopbackTransport::new(ARCH.factory(), self.shards.clone(), Some(1));
        let mut lb = Coordinator::new(
            ARCH.factory(),
            self.test.clone(),
            transport,
            coordinator_config(self.seed),
        );
        let mut replay = || -> Result<(), String> {
            for op in &self.schedule {
                match op {
                    Op::Round(r, s) => lb.train_round_hot(*r, *s).map_err(|e| e.to_string())?,
                    Op::Unlearn(req, s) => {
                        lb.submit_unlearn(req.clone()).map_err(|e| e.to_string())?;
                        lb.drain_unlearning(*s).map_err(|e| e.to_string())?;
                    }
                }
            }
            Ok(())
        };
        match replay() {
            Ok(()) => out.gate(
                "tcp_equals_loopback",
                bits(lb.global_state()) == bits(first),
                format!(
                    "{} rounds and one drain replayed on LoopbackTransport, bitwise",
                    self.schedule.len() - 1
                ),
            ),
            Err(e) => out.gate("tcp_equals_loopback", false, e),
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
