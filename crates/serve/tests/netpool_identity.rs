//! Bitwise pins for the warm-network pool (`goldfish_fed::netpool`).
//!
//! Every pooled site must compute exactly what a network freshly built
//! with `factory(seed)` and overwritten with `set_state_vector` computes.
//! These tests fill the calling thread's pool with networks left as
//! dirty as a network can be — a garbage state, non-zero gradients,
//! arenas sized for other batches, and a training forward never followed
//! by its backward — then run every kind of pooled work and compare each
//! result bit for bit with an oracle the test builds itself from the
//! factory. A last pin counts factory calls: a warm TCP fleet drain
//! builds exactly one network (the reinitialised ω0), a warm training
//! round none.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use goldfish_core::basic_model::{
    network_from_state, reference_loss, train_distill_cached, GoldfishLocalConfig, TeacherCache,
};
use goldfish_core::optimization::retrain_shard;
use goldfish_core::transport::UnlearnJob;
use goldfish_core::{ClientSplit, GoldfishLoss, GoldfishUnlearning};
use goldfish_data::Dataset;
use goldfish_fed::eval::ServerScorer;
use goldfish_fed::trainer::train_local_ce;
use goldfish_fed::transport::{client_seed, round_seed};
use goldfish_fed::{eval, netpool, ModelFactory};
use goldfish_nn::loss::HardLossSpec;
use goldfish_nn::{zoo, Network};
use goldfish_serve::coordinator::{Coordinator, CoordinatorConfig};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::fleet::run_fleet;
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::transport::ServeTransport;
use goldfish_serve::wire::{FrameLimits, Msg, RoundMode};
use goldfish_serve::worker::WorkerRuntime;
use goldfish_tensor::{init, Tensor};
use rand::{rngs::StdRng, SeedableRng};

fn spec() -> DemoSpec {
    DemoSpec {
        clients: 2,
        samples_per_client: 42,
        test_samples: 300,
        seed: 23,
    }
}

fn lenet_factory() -> ModelFactory {
    Arc::new(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        zoo::lenet5(1, 16, 16, 10, &mut rng)
    })
}

/// A factory that counts its calls.
fn counting(inner: ModelFactory) -> (ModelFactory, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let c = Arc::clone(&calls);
    let factory: ModelFactory = Arc::new(move |seed| {
        c.fetch_add(1, Ordering::Relaxed);
        (inner)(seed)
    });
    (factory, calls)
}

fn assert_bitwise(got: &[f32], want: &[f32], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: element {i}: {a} vs {b}");
    }
}

/// Refills this thread's pool for `factory` with [`netpool::MAX_IDLE`]
/// networks in the dirtiest state reachable: a garbage state vector,
/// accumulated gradients, arenas sized at batch 37 and then at batch 3
/// by a training forward whose backward never comes. `sample` is the
/// per-sample input shape.
fn dirty_pool(factory: &ModelFactory, sample: &[usize]) {
    let len = (factory)(0).state_len();
    let nets: Vec<Network> = (0..netpool::MAX_IDLE)
        .map(|_| netpool::take(factory, &vec![0.0; len]))
        .collect();
    let mut rng = StdRng::seed_from_u64(99);
    for (k, mut net) in nets.into_iter().enumerate() {
        let garbage: Vec<f32> = (0..len)
            .map(|i| ((i * 7919 + k * 31) % 101) as f32 * 0.037 - 1.8)
            .collect();
        net.set_state_vector(&garbage);
        let batch = |n: usize, rng: &mut StdRng| {
            let mut shape = vec![n];
            shape.extend_from_slice(sample);
            init::normal(rng, shape, 0.0, 1.0)
        };
        let y = net.forward(&batch(37, &mut rng), true);
        net.backward(&Tensor::filled(y.shape().to_vec(), 0.5));
        assert!(net.grad_vector().iter().any(|&g| g != 0.0));
        let _ = net.forward_ws(&batch(3, &mut rng), true);
        netpool::give(factory, net);
    }
    assert_eq!(netpool::idle(factory), netpool::MAX_IDLE);
}

/// One distillation round exactly as the pre-pool worker ran it: every
/// network built by the factory, the teacher reference recomputed.
fn oracle_distill_round(
    factory: &ModelFactory,
    split: &ClientSplit,
    teacher_state: &[f32],
    local: &GoldfishLocalConfig,
    incoming: &[f32],
    seed: u64,
) -> Vec<f32> {
    let loss = GoldfishLoss::new(HardLossSpec::CrossEntropy.build(), local.weights);
    let mut student = network_from_state(factory, incoming, seed);
    let teacher = network_from_state(factory, teacher_state, seed);
    let mut cache = TeacherCache::build(teacher, &split.remaining, local.batch_size);
    let reference = local.early_termination.map(|_| {
        let mut t = network_from_state(factory, teacher_state, seed);
        let mut i = network_from_state(factory, incoming, seed);
        let t = reference_loss(&mut t, &split.remaining, &split.forget, &loss);
        t.min(reference_loss(
            &mut i,
            &split.remaining,
            &split.forget,
            &loss,
        ))
    });
    train_distill_cached(
        &mut student,
        &mut cache,
        &split.remaining,
        &split.forget,
        &loss,
        local,
        reference,
        seed,
    );
    student.state_vector()
}

#[test]
fn worker_train_round_on_a_dirty_pool_matches_fresh_network() {
    let spec = spec();
    let factory = spec.factory();
    let data = spec.client_shard(1);
    let mut worker = WorkerRuntime::new(1, Arc::clone(&factory), data.clone());
    let mut global = (factory)(5).state_vector();
    for round in 0..3u64 {
        dirty_pool(&factory, &[64]);
        let reply = worker.handle(Msg::RoundAssign {
            mode: RoundMode::Train,
            round,
            seed: 11,
            nonce: 0,
            cfg: spec.train_config(),
            global: global.clone(),
        });
        let Msg::Update { state, .. } = reply else {
            panic!("expected Update, got {reply:?}");
        };
        let s = client_seed(11, 1, round as usize);
        let mut oracle = network_from_state(&factory, &global, s);
        train_local_ce(&mut oracle, &data, &spec.train_config(), s);
        assert_bitwise(
            &state,
            &oracle.state_vector(),
            &format!("train round {round}"),
        );
        global = state;
    }
}

#[test]
fn worker_distill_rounds_on_a_dirty_pool_match_fresh_networks() {
    let spec = spec();
    let factory = spec.factory();
    let data = spec.client_shard(0);
    let teacher = {
        let mut t = (factory)(3);
        train_local_ce(&mut t, &data, &spec.train_config(), 4);
        t.state_vector()
    };
    let removed = [0usize, 3];
    let split = ClientSplit::with_removed(&data, &removed);
    assert_eq!(split.remaining.len(), 40);
    // Batch 20 divides the 40 remaining rows (the teacher goes back to
    // the pool); batch 15 leaves a 10-row tail (the cache keeps it).
    // The third case adds Eq 7 early termination (the teacher reference
    // is computed once per request).
    let cases = [
        (20, None, "no tail"),
        (15, None, "short tail"),
        (15, Some(0.05), "tail + early termination"),
    ];
    for (batch_size, early_termination, label) in cases {
        let local = GoldfishLocalConfig {
            epochs: 3,
            batch_size,
            lr: 0.05,
            momentum: 0.9,
            early_termination,
            ..GoldfishLocalConfig::default()
        };
        let mut worker = WorkerRuntime::new(0, Arc::clone(&factory), data.clone());
        dirty_pool(&factory, &[64]);
        let ack = worker.handle(Msg::UnlearnAssign {
            serial: 0,
            job: UnlearnJob {
                local,
                hard: Some(HardLossSpec::CrossEntropy),
            },
            removed: removed.iter().map(|&r| r as u64).collect(),
            teacher: teacher.clone(),
        });
        assert!(matches!(ack, Msg::UnlearnAck { num_samples: 40 }));
        let mut global = (factory)(77).state_vector();
        for round in 0..3u64 {
            dirty_pool(&factory, &[64]);
            let reply = worker.handle(Msg::RoundAssign {
                mode: RoundMode::Distill,
                round,
                seed: 8,
                nonce: 0,
                cfg: spec.train_config(),
                global: global.clone(),
            });
            let Msg::UnlearnResult { state, .. } = reply else {
                panic!("expected UnlearnResult, got {reply:?}");
            };
            let seed = client_seed(8, 0, round as usize);
            let want = oracle_distill_round(&factory, &split, &teacher, &local, &global, seed);
            assert_bitwise(&state, &want, &format!("{label}, round {round}"));
            global = state;
        }
    }
}

#[test]
fn server_evaluation_on_a_dirty_pool_matches_fresh_networks() {
    // LeNet-5 as well as the MLP: conv arenas and max-pool routing are
    // the scratch most sensitive to a stale batch size.
    let spec = spec();
    let mlp_test = spec.test_set();
    let lenet_test = {
        let s = goldfish_data::synthetic::SyntheticSpec::mnist().with_size(16, 16);
        goldfish_data::synthetic::generate(&s, 10, 300, 6).1
    };
    for (factory, test, sample) in [
        (spec.factory(), mlp_test, vec![64]),
        (lenet_factory(), lenet_test, vec![1, 16, 16]),
    ] {
        let states: Vec<Vec<f32>> = (0..3)
            .map(|k| (factory)(40 + k as u64).state_vector())
            .collect();
        let views: Vec<&[f32]> = states.iter().map(Vec::as_slice).collect();
        let scorer = ServerScorer {
            factory: &factory,
            test: &test,
            threads: Some(1),
        };
        dirty_pool(&factory, &sample);
        let mses = scorer.mse(&views);
        dirty_pool(&factory, &sample);
        let accs = scorer.accuracy(&views);
        for ((state, mse), acc) in states.iter().zip(mses).zip(accs) {
            let mut fresh = network_from_state(&factory, state, 0);
            let want = eval::mse(&mut fresh, &test);
            assert_eq!(mse.to_bits(), want.to_bits());
            assert_eq!(acc, eval::accuracy(&mut fresh, &test));
        }
    }
}

#[test]
fn shard_retrain_on_a_dirty_pool_matches_fresh_network() {
    let spec = spec();
    let factory = spec.factory();
    let survived: Dataset = spec.client_shard(1).subset(&(0..30).collect::<Vec<_>>());
    let cfg = spec.train_config();
    let checkpoint = (factory)(12).state_vector();
    let zero = vec![0.0; checkpoint.len()];
    for (ckpt, label) in [(&checkpoint, "checkpoint"), (&zero, "zero checkpoint")] {
        dirty_pool(&factory, &[64]);
        let got = retrain_shard(&factory, &cfg, ckpt, &survived, 31);
        let mut oracle = (factory)(31);
        if label == "checkpoint" {
            oracle.set_state_vector(ckpt);
        }
        train_local_ce(&mut oracle, &survived, &cfg, 31);
        assert_bitwise(&got, &oracle.state_vector(), label);
    }
}

#[test]
fn pool_entries_never_serve_another_or_recreated_factory() {
    // Same state length (2410), different architecture: a network of
    // one served to the other would accept the state and then reject
    // the input width.
    let (wide, wide_calls) = counting(spec().factory());
    let (flat, flat_calls) = counting(Arc::new(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        zoo::mlp(240, &[], 10, &mut rng)
    }));
    let len = (wide)(0).state_len();
    assert_eq!((flat)(0).state_len(), len);
    dirty_pool(&wide, &[64]);
    let before = (
        wide_calls.load(Ordering::Relaxed),
        flat_calls.load(Ordering::Relaxed),
    );
    let state = (flat)(9).state_vector();
    let x = Tensor::filled(vec![2, 240], 0.1);
    let logits = netpool::with(&flat, &state, |net| net.forward(&x, false));
    assert_eq!(logits.shape(), &[2, 10]);
    assert_eq!(wide_calls.load(Ordering::Relaxed), before.0);
    assert_eq!(flat_calls.load(Ordering::Relaxed), before.1 + 2);
    assert_eq!(netpool::idle(&wide), netpool::MAX_IDLE);

    // A factory dropped and re-created around the same closure is a new
    // factory: its first take builds a network.
    drop(wide);
    let (again, again_calls) = counting(spec().factory());
    assert_eq!(netpool::idle(&again), 0);
    netpool::with(&again, &(again)(1).state_vector(), |_| {});
    assert_eq!(again_calls.load(Ordering::Relaxed), 2);
}

/// A warm fleet — coordinator and every worker runtime sharing one
/// counting factory — builds no network in a training round and exactly
/// one (the reinitialised ω0) in a distillation drain.
#[test]
fn warm_fleet_drain_builds_one_network_and_a_round_none() {
    let spec = DemoSpec {
        clients: 4,
        samples_per_client: 20,
        test_samples: 40,
        seed: 3,
    };
    let (factory, calls) = counting(spec.factory());
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let host_factory = Arc::clone(&factory);
    let fleet = std::thread::spawn(move || {
        let mut runtimes: Vec<WorkerRuntime> = (0..spec.clients)
            .map(|id| WorkerRuntime::new(id, Arc::clone(&host_factory), spec.client_shard(id)))
            .collect();
        run_fleet(&addr, &mut runtimes, &FrameLimits::default()).unwrap()
    });
    let state_len = (factory)(0).state_len();
    let transport =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let cfg = CoordinatorConfig {
        train: spec.train_config(),
        // Batch 20 over the 19 rows left after each deletion: no short
        // tail batch, so every teacher goes back to the pool.
        method: GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
            epochs: 1,
            batch_size: 20,
            lr: 0.05,
            momentum: 0.9,
            ..GoldfishLocalConfig::default()
        }),
        unlearn_rounds: 2,
        init_seed: 1,
        threads: Some(1),
        ..CoordinatorConfig::default()
    };
    let mut c = Coordinator::new(Arc::clone(&factory), spec.test_set(), transport, cfg);
    let mut measured = Vec::new();
    for step in 0..3usize {
        let n0 = calls.load(Ordering::Relaxed);
        c.train_round(step, round_seed(7, step)).unwrap();
        let n1 = calls.load(Ordering::Relaxed);
        c.submit_unlearn(UnlearnRequest::new(step, vec![0]))
            .unwrap();
        c.drain_unlearning(100 + step as u64).unwrap().unwrap();
        let n2 = calls.load(Ordering::Relaxed);
        measured.push((n1 - n0, n2 - n1));
    }
    c.transport_mut().shutdown();
    drop(c);
    let report = fleet.join().unwrap();
    assert_eq!(report.clean_shutdowns, spec.clients);
    // Step 0 warms both threads' pools; from then on a round builds no
    // network and a drain only ω0.
    assert_eq!(&measured[1..], &[(0, 1), (0, 1)], "{measured:?}");
}
