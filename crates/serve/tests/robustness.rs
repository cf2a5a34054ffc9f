//! The ISSUE-7 Byzantine-robustness suite (DESIGN.md §13).
//!
//! 1. **Zero-attacker identity**: every robust aggregation mode and the
//!    quorum path at 100% participation reproduce the plain streaming
//!    mean bitwise, at any thread count (fed's determinism proptests pin
//!    the arrival-order half of the claim at the accumulator level).
//! 2. **Typed duplicates**: a double-sent `Update` surfaces as the typed
//!    `DuplicateUpdate` verdict — never a panic, never silently folded
//!    twice — on both the loopback and the TCP transport.
//! 3. **Attack runs**: scripted Byzantine workers (scaled updates, stale
//!    nonces, replays) are struck and quarantined within the strike
//!    budget, the robust folds keep global drift bounded, and every
//!    verdict lands in the verified hash-chained audit log.
//! 4. **Drain probes**: an unlearning drain's `UnlearnResult` replies go
//!    through the same admission layer — a scaled, a non-finite and a
//!    wrong-length reply, tampered on a real socket, get the verdicts a
//!    training `Update` gets, and none of them reaches the fold.

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::transport::DistillTransport;
use goldfish_core::GoldfishUnlearning;
use goldfish_fed::aggregate::AggregationMode;
use goldfish_fed::transport::{RobustnessEvent, UpdateViolation};
use goldfish_serve::audit::{self, audit_kind};
use goldfish_serve::coordinator::{drain_seed, round_seed, Coordinator, CoordinatorConfig};
use goldfish_serve::demo::DemoSpec;
use goldfish_serve::durability::{audit_path, DurableStore};
use goldfish_serve::fault::{ByzantineScript, FaultPlan, FaultyTransport};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::tcp::{bind, TcpConfig, TcpTransport};
use goldfish_serve::transport::{LoopbackTransport, ServeTransport};
use goldfish_serve::wire::{read_frame, write_frame, FrameLimits, Msg};
use goldfish_serve::worker::{run_worker, WorkerRuntime};

const SEED: u64 = 42;

fn demo(clients: usize) -> DemoSpec {
    DemoSpec {
        clients,
        samples_per_client: 24,
        test_samples: 20,
        seed: 19,
    }
}

fn config(spec: &DemoSpec) -> CoordinatorConfig {
    CoordinatorConfig {
        train: spec.train_config(),
        method: GoldfishUnlearning::default().with_local(GoldfishLocalConfig {
            epochs: 1,
            batch_size: 12,
            lr: 0.05,
            momentum: 0.9,
            ..GoldfishLocalConfig::default()
        }),
        unlearn_rounds: 1,
        init_seed: 1,
        threads: Some(2),
        ..CoordinatorConfig::default()
    }
}

fn coordinator(
    spec: &DemoSpec,
    cfg: CoordinatorConfig,
    plan: FaultPlan,
) -> Coordinator<FaultyTransport<LoopbackTransport>> {
    let transport = FaultyTransport::new(
        LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(2)),
        plan,
    );
    Coordinator::new(spec.factory(), spec.test_set(), transport, cfg)
}

fn run_rounds<T: ServeTransport>(c: &mut Coordinator<T>, rounds: usize) {
    for r in 0..rounds {
        c.train_round_hot(r, round_seed(SEED, r)).unwrap();
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x as f64 - *y as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

#[test]
fn zero_attacker_robust_modes_match_mean_bitwise() {
    let spec = demo(5);
    let reference = {
        let mut c = coordinator(&spec, config(&spec), FaultPlan::new());
        run_rounds(&mut c, 3);
        bits(c.global_state())
    };
    // Identity modes, the full-participation quorum path, and every
    // thread count reproduce the reference exactly.
    let variants: Vec<(&str, CoordinatorConfig)> = vec![
        (
            "trimmed:0",
            config(&spec).with_aggregation(AggregationMode::TrimmedMean { trim: 0 }),
        ),
        (
            "normclip (untriggered)",
            config(&spec).with_aggregation(AggregationMode::NormClipped { limit: 1e9 }),
        ),
        (
            "quorum 0.6 at full participation",
            config(&spec).with_quorum(0.6),
        ),
        (
            "strike budget armed, nobody lying",
            config(&spec).with_max_strikes(2),
        ),
    ];
    for (label, cfg) in variants {
        for threads in [1usize, 4] {
            let mut cfg = cfg.clone();
            cfg.threads = Some(threads);
            let mut c = coordinator(&spec, cfg, FaultPlan::new());
            run_rounds(&mut c, 3);
            assert_eq!(
                bits(c.global_state()),
                reference,
                "{label} with {threads} thread(s) diverged from the plain mean"
            );
            assert!(c.robustness_log().is_empty(), "{label}: phantom verdicts");
            assert!(!c.last_round_outcome().degraded, "{label}: phantom quorum");
        }
    }
}

#[test]
fn duplicate_update_is_typed_on_loopback() {
    let spec = demo(4);
    let plan = FaultPlan::new().byzantine(2, ByzantineScript::Duplicate);
    let mut c = coordinator(&spec, config(&spec), plan);
    // The round completes — the first frame folds; the duplicate is the
    // typed verdict, not a poison pill.
    run_rounds(&mut c, 1);
    assert_eq!(
        c.robustness_log(),
        &[RobustnessEvent::Violation {
            client_id: 2,
            violation: UpdateViolation::Duplicate,
            strikes: 1,
        }]
    );
    // The clean cohort's aggregate is unaffected by the extra frame.
    let clean = {
        let mut c = coordinator(&spec, config(&spec), FaultPlan::new());
        run_rounds(&mut c, 1);
        bits(c.global_state())
    };
    assert_eq!(bits(c.global_state()), clean);
}

#[test]
fn duplicate_update_is_typed_on_tcp() {
    let spec = demo(2);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers: Vec<_> = (0..spec.clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let spec = demo(2);
                let mut rt = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
                let _ = run_worker(&addr, &mut rt, &FrameLimits::default());
            })
        })
        .collect();
    let state_len = (spec.factory())(0).state_len();
    let tcp =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let transport = FaultyTransport::new(
        tcp,
        FaultPlan::new().byzantine(1, ByzantineScript::Duplicate),
    );
    let mut c = Coordinator::new(spec.factory(), spec.test_set(), transport, config(&spec));
    run_rounds(&mut c, 1);
    assert_eq!(
        c.robustness_log(),
        &[RobustnessEvent::Violation {
            client_id: 1,
            violation: UpdateViolation::Duplicate,
            strikes: 1,
        }]
    );
    // A duplicate is an admission verdict, not a connection fault: the
    // worker stays registered and the next round succeeds too.
    c.train_round_hot(1, round_seed(SEED, 1)).unwrap();
    c.transport_mut().shutdown();
    drop(c);
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn scaled_attackers_are_quarantined_and_drift_stays_bounded() {
    // f = 2 attackers of n = 7 (f < n/3): client 0 ships 40x-scaled
    // updates, client 6 flips signs. Trim 2 discards both extremes per
    // coordinate; the delta-norm bound catches the scaler outright.
    let spec = demo(7);
    let attack = || {
        FaultPlan::new()
            .byzantine(0, ByzantineScript::Scale { factor: 40.0 })
            .byzantine(6, ByzantineScript::SignFlip)
    };
    let rounds = 4;

    // Clean reference: the same fleet, nobody lying, plain mean.
    let reference = {
        let mut c = coordinator(&spec, config(&spec), FaultPlan::new());
        run_rounds(&mut c, rounds);
        c.global_state().to_vec()
    };
    // Undefended: the attack lands with full weight.
    let drift_mean = {
        let mut c = coordinator(&spec, config(&spec), attack());
        run_rounds(&mut c, rounds);
        l2(c.global_state(), &reference)
    };
    for mode in [
        AggregationMode::TrimmedMean { trim: 2 },
        AggregationMode::Median,
    ] {
        let mut c = coordinator(&spec, config(&spec).with_aggregation(mode), attack());
        run_rounds(&mut c, rounds);
        let drift = l2(c.global_state(), &reference);
        // The documented bound (DESIGN.md §13): with trim ≥ f the fold
        // stays inside the honest updates' coordinate-wise range, so the
        // drift from the all-honest mean is a small fraction of what the
        // unprotected mean absorbs.
        assert!(
            drift < drift_mean / 10.0,
            "{mode}: drift {drift} vs undefended {drift_mean}"
        );
    }

    // Admission + strikes: the delta-norm bound rejects the scaler each
    // round; two strikes quarantine it (round 0 strike, round 1 strike +
    // eviction). The sign-flipper preserves norms and must NOT be
    // evicted by the norm check — that's the trimmed fold's job.
    let mut c = coordinator(
        &spec,
        config(&spec)
            .with_aggregation(AggregationMode::TrimmedMean { trim: 2 })
            .with_max_delta_norm(5.0)
            .with_max_strikes(2),
        attack(),
    );
    run_rounds(&mut c, rounds);
    assert!(c.is_quarantined(0), "scaler not quarantined");
    assert!(
        !c.is_quarantined(6),
        "norm-preserving attacker wrongly evicted"
    );
    assert_eq!(c.client_strikes(0), 2);
    assert_eq!(c.quarantined_clients(), vec![0]);
    let quarantine_round = c
        .robustness_log()
        .iter()
        .filter(|e| matches!(e, RobustnessEvent::Quarantined { client_id: 0, .. }))
        .count();
    assert_eq!(quarantine_round, 1, "exactly one eviction event");
    // The loopback transport honoured the eviction: the quarantined
    // client no longer computes or counts.
    assert_eq!(c.transport().inner().quarantined_clients(), vec![0]);
}

#[test]
fn stale_and_replayed_frames_strike_over_tcp_and_ban_sticks() {
    // A replaying worker over real sockets: round 0 passes through (no
    // older frame to replay yet), every later round re-ships the
    // previous round's state under its old nonce — a StaleNonce
    // violation each time. max_strikes = 2 evicts it at its second
    // strike; the TCP transport bans the id so it cannot rejoin.
    let spec = demo(3);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers: Vec<_> = (0..spec.clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let spec = demo(3);
                let mut rt = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
                let _ = run_worker(&addr, &mut rt, &FrameLimits::default());
            })
        })
        .collect();
    let state_len = (spec.factory())(0).state_len();
    let tcp =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let transport =
        FaultyTransport::new(tcp, FaultPlan::new().byzantine(1, ByzantineScript::Replay));
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport,
        config(&spec).with_max_strikes(2),
    );
    for r in 0..4 {
        c.train_round_hot(r, round_seed(SEED, r)).unwrap();
    }
    assert!(c.is_quarantined(1));
    let stale_strikes = c
        .robustness_log()
        .iter()
        .filter(|e| {
            matches!(
                e,
                RobustnessEvent::Violation {
                    client_id: 1,
                    violation: UpdateViolation::StaleNonce { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(stale_strikes, 2, "one strike per offending round");
    // The ban outlives the session: the transport refuses the id.
    assert!(!c.transport().inner().live_clients().contains(&1));
    c.transport_mut().shutdown();
    drop(c);
    for w in workers {
        let _ = w.join();
    }
}

#[test]
fn quorum_round_finishes_degraded_and_is_recorded() {
    let spec = demo(4);
    // Client 3's reply is dropped at op 0 (the first streamed round).
    let plan = FaultPlan::new().drop_client_at(0, 3);
    let mut c = coordinator(&spec, config(&spec).with_quorum(0.5), plan);
    c.train_round_hot(0, round_seed(SEED, 0)).unwrap();
    let outcome = c.last_round_outcome();
    assert!(outcome.degraded, "round should have finished on quorum");
    assert_eq!((outcome.reported, outcome.cohort), (3, 4));
    // Degraded ≠ struck: a timeout is not a violation.
    assert!(c.robustness_log().is_empty());
    // The next (full) round recovers to a non-degraded outcome.
    c.train_round_hot(1, round_seed(SEED, 1)).unwrap();
    assert!(!c.last_round_outcome().degraded);
}

#[test]
fn quarantine_verdicts_land_in_the_verified_audit_chain() {
    let dir = std::env::temp_dir().join(format!("goldfish-robust-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let spec = demo(5);
    let plan = FaultPlan::new().byzantine(4, ByzantineScript::StaleRound);
    {
        let mut c = coordinator(
            &spec,
            config(&spec)
                .with_aggregation(AggregationMode::TrimmedMean { trim: 1 })
                .with_max_strikes(2),
            plan,
        );
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        c.attach_durability(store, recovered).unwrap();
        c.submit_unlearn(UnlearnRequest::new(0, (0..4).collect()))
            .unwrap();
        c.run(3, SEED).unwrap();
        assert!(c.is_quarantined(4));
    }

    // The chain verifies end-to-end and holds all three entry kinds:
    // the served deletion, the stale-nonce violations, the eviction.
    let summary = audit::verify_file(&audit_path(&dir)).unwrap();
    let kinds: Vec<u8> = summary.entries.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&audit_kind::UNLEARN_SERVED));
    assert!(kinds.contains(&audit_kind::VIOLATION));
    assert!(kinds.contains(&audit_kind::QUARANTINE));
    let quarantine = summary
        .entries
        .iter()
        .find(|e| e.kind == audit_kind::QUARANTINE)
        .expect("quarantine entry");
    assert_eq!(quarantine.client_id, 4);
    assert_eq!(quarantine.detail, vec![2], "strike count at eviction");
    let violations: Vec<_> = summary
        .entries
        .iter()
        .filter(|e| e.kind == audit_kind::VIOLATION)
        .collect();
    assert_eq!(violations.len(), 2);
    assert!(violations.iter().all(|e| e.client_id == 4
        && e.detail[0] == UpdateViolation::StaleNonce { got: 0, want: 0 }.code()));

    // Recovery replays only the served deletion as a removal — the
    // robustness verdicts are evidence, not data mutations.
    let mut c2 = coordinator(&spec, config(&spec), FaultPlan::new());
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    assert!(recovered.resumed);
    c2.attach_durability(store, recovered).unwrap();
    let sizes = c2.transport().client_sizes();
    assert_eq!(sizes[0], spec.samples_per_client - 4);
    assert!(sizes[1..].iter().all(|&n| n == spec.samples_per_client));

    let _ = std::fs::remove_dir_all(&dir);
}

/// How worker 0 of a drain probe corrupts its reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tamper {
    /// Every coordinate ×40.
    Scale40,
    /// One coordinate NaN.
    OneNan,
    /// Half the state vector.
    HalfLength,
    /// No reply: the connection closes instead.
    Vanish,
}

/// Worker 0 of a probe: the real worker runtime on a raw socket, its
/// reply to the first round of kind `distill` corrupted by `tamper`
/// before it goes on the wire.
fn tampering_worker(addr: &str, spec: DemoSpec, tamper: Tamper, distill: bool) {
    let limits = FrameLimits::default();
    let Ok(mut stream) = std::net::TcpStream::connect(addr) else {
        return;
    };
    let mut rt = WorkerRuntime::new(0, spec.factory(), spec.client_shard(0));
    if write_frame(&mut stream, &rt.hello(), &limits).is_err()
        || read_frame(&mut stream, &limits).is_err()
    {
        return;
    }
    let mut armed = true;
    while let Ok((msg, _)) = read_frame(&mut stream, &limits) {
        if matches!(msg, Msg::Shutdown | Msg::Err { .. }) {
            return;
        }
        let mut reply = rt.handle(msg);
        let state = match &mut reply {
            Msg::UnlearnResult { state, .. } if distill => Some(state),
            Msg::Update { state, .. } if !distill => Some(state),
            _ => None,
        };
        if let (Some(state), true) = (state, armed) {
            armed = false;
            match tamper {
                Tamper::Scale40 => state.iter_mut().for_each(|v| *v *= 40.0),
                Tamper::OneNan => state[0] = f32::NAN,
                Tamper::HalfLength => state.truncate(state.len() / 2),
                Tamper::Vanish => return,
            }
        }
        if write_frame(&mut stream, &reply, &limits).is_err() {
            return;
        }
    }
}

/// What a probe run left behind.
struct Probe {
    /// The global right after the tampered round kind committed.
    global: Vec<u32>,
    log: Vec<RobustnessEvent>,
    /// Client 0's entries in the verified audit chain: `(kind, detail)`.
    audit: Vec<(u8, Vec<u64>)>,
    /// Whether client 0 was still connected afterwards.
    still_live: bool,
}

/// Four TCP workers under `trimmed:1`, `max_delta_norm 0.5` and
/// `max_strikes 1`: one training round, one deletion, one drain, then
/// another training round (the coordinator must keep serving). Worker
/// 0 tampers with its drain reply (`distill`) or its first training
/// update.
fn probe(tamper: Tamper, distill: bool) -> Probe {
    static RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("goldfish-drain-probe-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = demo(4);
    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers: Vec<_> = (0..spec.clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                if id == 0 {
                    tampering_worker(&addr, spec, tamper, distill);
                } else {
                    let mut rt = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
                    let _ = run_worker(&addr, &mut rt, &FrameLimits::default());
                }
            })
        })
        .collect();
    let state_len = (spec.factory())(0).state_len();
    let tcp =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let cfg = config(&spec)
        .with_aggregation(AggregationMode::TrimmedMean { trim: 1 })
        .with_max_delta_norm(0.5)
        .with_max_strikes(1);
    let mut c = Coordinator::new(spec.factory(), spec.test_set(), tcp, cfg);
    let (store, recovered) = DurableStore::open(&dir).unwrap();
    c.attach_durability(store, recovered).unwrap();
    c.train_round_hot(0, round_seed(SEED, 0)).unwrap();
    let mut global = bits(c.global_state());
    c.submit_unlearn(UnlearnRequest::new(1, (0..4).collect()))
        .unwrap();
    c.drain_unlearning(drain_seed(SEED, 0)).unwrap().unwrap();
    if distill {
        global = bits(c.global_state());
    }
    c.train_round_hot(1, round_seed(SEED, 1)).unwrap();
    let still_live = c.transport().live_clients().contains(&0);
    let log = c.robustness_log().to_vec();
    c.transport_mut().shutdown();
    drop(c);
    for w in workers {
        let _ = w.join();
    }
    let audit = audit::verify_file(&audit_path(&dir))
        .unwrap()
        .entries
        .into_iter()
        .filter(|e| e.client_id == 0)
        .map(|e| (e.kind, e.detail))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    Probe {
        global,
        log,
        audit,
        still_live,
    }
}

#[test]
fn drain_scaled_reply_is_struck_quarantined_and_never_folded() {
    let probe = probe(Tamper::Scale40, true);
    assert_eq!(
        probe.log,
        vec![
            RobustnessEvent::Violation {
                client_id: 0,
                violation: UpdateViolation::DeltaNorm,
                strikes: 1,
            },
            RobustnessEvent::Quarantined {
                client_id: 0,
                strikes: 1,
            },
        ]
    );
    assert_eq!(
        probe.audit,
        vec![
            (
                audit_kind::VIOLATION,
                vec![UpdateViolation::DeltaNorm.code(), 1]
            ),
            (audit_kind::QUARANTINE, vec![1]),
        ]
    );
    assert!(
        !probe.still_live,
        "the quarantined worker kept its connection"
    );
    // Not folded: the drain commits what it commits when worker 0's
    // reply never arrives at all.
    assert_eq!(probe.global, self::probe(Tamper::Vanish, true).global);
}

#[test]
fn drain_non_finite_reply_is_a_typed_strike() {
    let probe = probe(Tamper::OneNan, true);
    assert_eq!(
        probe.log.first(),
        Some(&RobustnessEvent::Violation {
            client_id: 0,
            violation: UpdateViolation::NonFinite,
            strikes: 1,
        })
    );
    assert_eq!(
        probe.audit.first(),
        Some(&(
            audit_kind::VIOLATION,
            vec![UpdateViolation::NonFinite.code(), 1]
        ))
    );
    assert_eq!(probe.global, self::probe(Tamper::Vanish, true).global);
}

#[test]
fn drain_half_length_reply_gets_the_training_verdict() {
    // A wrong-length training update is a protocol failure: the
    // connection drops, no strike is charged, the round re-runs over
    // the survivors. A wrong-length drain reply gets exactly that —
    // never a coordinator panic.
    for distill in [false, true] {
        let probe = probe(Tamper::HalfLength, distill);
        assert!(probe.log.is_empty(), "distill {distill}: {:?}", probe.log);
        assert!(probe.audit.is_empty(), "distill {distill}");
        assert!(!probe.still_live, "distill {distill}");
        assert_eq!(
            probe.global,
            self::probe(Tamper::Vanish, distill).global,
            "distill {distill}"
        );
    }
}

#[test]
fn loopback_drain_skips_quarantined_clients_like_tcp() {
    // Client 2 is quarantined in training (stale nonce, one-strike
    // budget); the drain that follows must fold the same survivors on
    // both transports.
    let spec = demo(4);
    let plan = || FaultPlan::new().byzantine(2, ByzantineScript::StaleRound);
    let cfg = || config(&spec).with_max_strikes(1);
    let run = |c: &mut Coordinator<FaultyTransport<LoopbackTransport>>| {
        c.train_round_hot(0, round_seed(SEED, 0)).unwrap();
        assert!(c.is_quarantined(2));
        assert_eq!(DistillTransport::num_clients(c.transport().inner()), 3);
        c.submit_unlearn(UnlearnRequest::new(1, (0..4).collect()))
            .unwrap();
        c.drain_unlearning(drain_seed(SEED, 0)).unwrap().unwrap();
        bits(c.global_state())
    };
    let loopback = run(&mut coordinator(&spec, cfg(), plan()));

    let (listener, addr) = bind("127.0.0.1:0").unwrap();
    let workers: Vec<_> = (0..spec.clients)
        .map(|id| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let spec = demo(4);
                let mut rt = WorkerRuntime::new(id, spec.factory(), spec.client_shard(id));
                let _ = run_worker(&addr, &mut rt, &FrameLimits::default());
            })
        })
        .collect();
    let state_len = (spec.factory())(0).state_len();
    let tcp =
        TcpTransport::accept(&listener, spec.clients, state_len, TcpConfig::default()).unwrap();
    let mut c = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        FaultyTransport::new(tcp, plan()),
        cfg(),
    );
    c.train_round_hot(0, round_seed(SEED, 0)).unwrap();
    assert!(c.is_quarantined(2));
    c.submit_unlearn(UnlearnRequest::new(1, (0..4).collect()))
        .unwrap();
    c.drain_unlearning(drain_seed(SEED, 0)).unwrap().unwrap();
    assert_eq!(bits(c.global_state()), loopback);
    c.transport_mut().shutdown();
    drop(c);
    for w in workers {
        let _ = w.join();
    }
}
