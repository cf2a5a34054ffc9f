//! The benchmark's wrappers are transparent: the traced factory builds
//! the zoo's models bit for bit, traced layers compute the same bits,
//! and the traced transport reaches the inner transport's own
//! implementation of every trait method, defaulted ones included.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Duration;

use goldfish_core::transport::{DistillTransport, UnlearnJob};
use goldfish_fed::aggregate::ClientUpdate;
use goldfish_fed::trainer::TrainConfig;
use goldfish_fed::transport::{
    RoundTransport, StreamedUpdate, TrainAssign, TransportError, UpdateSink,
};
use goldfish_perfbench::trace;
use goldfish_perfbench::traced::{Arch, TracedTransport};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::shard::ShardRetrainAssign;
use goldfish_serve::telemetry::ServeTelemetry;
use goldfish_serve::transport::{LocalEval, ServeTransport, WireStats};
use goldfish_tensor::Tensor;

/// Tests that switch tracing on share the process-wide span store.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

const ARCHS: [Arch; 3] = [
    Arch::LeNet5 { side: 20 },
    Arch::Mlp {
        input: 64,
        hidden: 128,
    },
    Arch::Mlp {
        input: 64,
        hidden: 32,
    },
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn traced_factory_builds_the_zoo_models_bit_for_bit() {
    for arch in ARCHS {
        for seed in [0, 1, 42, 0xDEAD_BEEF] {
            let plain = (arch.factory())(seed);
            let traced = (arch.traced_factory())(seed);
            assert_eq!(
                bits(&plain.state_vector()),
                bits(&traced.state_vector()),
                "{arch:?} seed {seed}"
            );
        }
    }
}

#[test]
fn traced_layers_compute_the_same_bits_and_record_spans() {
    let _lock = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let arch = Arch::LeNet5 { side: 20 };
    let mut plain = (arch.factory())(7);
    let mut traced = (arch.traced_factory())(7);
    let x = Tensor::from_vec(
        vec![2, 1, 20, 20],
        (0..2 * 400).map(|i| ((i % 37) as f32) / 37.0).collect(),
    );
    trace::set_enabled(true);
    trace::take();
    let want = plain.forward(&x, true);
    let got = traced.forward(&x, true);
    assert_eq!(bits(want.as_slice()), bits(got.as_slice()));
    let g = Tensor::from_vec(want.shape().to_vec(), vec![0.01; want.len()]);
    let gw = plain.backward(&g);
    let gt = traced.backward(&g);
    assert_eq!(bits(gw.as_slice()), bits(gt.as_slice()));
    let _ = traced.forward(&x, false);
    trace::set_enabled(false);
    let totals = trace::totals_by_name(&trace::take());
    assert_eq!(totals["nn.conv.fwd"].count, 2);
    assert_eq!(totals["nn.conv.bwd"].count, 2);
    assert_eq!(totals["nn.dense.fwd"].count, 2);
    assert_eq!(totals["nn.conv.infer"].count, 2);
    assert_eq!(totals["nn.other.fwd"].count, 6);
}

/// An inner transport whose every method, defaulted or not, leaves a
/// distinct mark.
#[derive(Default)]
struct Marked {
    calls: RefCell<Vec<&'static str>>,
}

impl Marked {
    fn mark(&self, call: &'static str) {
        self.calls.borrow_mut().push(call);
    }
}

fn update(id: usize) -> ClientUpdate {
    ClientUpdate {
        client_id: id,
        state: vec![id as f32],
        num_samples: 3,
        server_mse: None,
    }
}

impl RoundTransport for Marked {
    fn num_clients(&self) -> usize {
        self.mark("round.num_clients");
        11
    }

    fn train_round(&mut self, _a: &TrainAssign<'_>) -> Vec<Result<ClientUpdate, TransportError>> {
        self.mark("train_round");
        vec![Ok(update(0))]
    }

    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        self.mark("cohort_into");
        out.clear();
        out.push((5, 6));
    }

    fn train_round_streamed(
        &mut self,
        a: &TrainAssign<'_>,
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        self.mark("train_round_streamed");
        results.clear();
        results.push(sink(StreamedUpdate {
            client_id: 1,
            num_samples: 2,
            nonce: a.nonce,
            state: &[1.0],
        }));
    }

    fn train_round_sampled(
        &mut self,
        a: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        self.mark("train_round_sampled");
        results.clear();
        for &(id, n) in cohort {
            results.push(sink(StreamedUpdate {
                client_id: id,
                num_samples: n,
                nonce: a.nonce,
                state: &[2.0],
            }));
        }
    }

    fn quarantine(&mut self, _client_id: usize) -> bool {
        self.mark("quarantine");
        true
    }
}

impl DistillTransport for Marked {
    fn num_clients(&self) -> usize {
        self.mark("distill.num_clients");
        13
    }

    fn begin_unlearn(&mut self, _j: &UnlearnJob, _t: &[f32]) -> Result<(), TransportError> {
        self.mark("begin_unlearn");
        Ok(())
    }

    fn distill_round(
        &mut self,
        _r: usize,
        _s: u64,
        _g: &[f32],
    ) -> Vec<Result<ClientUpdate, TransportError>> {
        self.mark("distill_round");
        vec![Ok(update(2))]
    }
}

impl ServeTransport for Marked {
    fn client_sizes(&self) -> Vec<usize> {
        self.mark("client_sizes");
        vec![4]
    }

    fn stage_removals(&mut self, _r: &[UnlearnRequest], _serial: u64) {
        self.mark("stage_removals");
    }

    fn apply_removals(&mut self, _r: &[UnlearnRequest]) {
        self.mark("apply_removals");
    }

    fn admit_reconnects(&mut self, _round: usize, _global: &[f32]) -> usize {
        self.mark("admit_reconnects");
        7
    }

    fn local_eval(&mut self, _r: usize, _g: &[f32]) -> Vec<Result<LocalEval, TransportError>> {
        self.mark("local_eval");
        vec![Ok(LocalEval {
            client_id: 0,
            accuracy: 0.5,
            mse: 0.25,
        })]
    }

    fn set_read_timeout(&mut self, _t: Duration) {
        self.mark("set_read_timeout");
    }

    fn fatal_fault(&self) -> Option<&str> {
        self.mark("fatal_fault");
        Some("marked")
    }

    fn shutdown(&mut self) {
        self.mark("shutdown");
    }

    fn wire_stats(&self) -> WireStats {
        self.mark("wire_stats");
        WireStats {
            bytes_sent: 3,
            bytes_received: 4,
        }
    }

    fn set_telemetry(&mut self, _t: &ServeTelemetry) {
        self.mark("set_telemetry");
    }

    fn shard_retrain(&mut self, _a: &ShardRetrainAssign) -> Result<Vec<f32>, TransportError> {
        self.mark("shard_retrain");
        Ok(vec![42.0])
    }

    fn straggle_ms(&self, _client_id: usize) -> u64 {
        self.mark("straggle_ms");
        9
    }
}

#[test]
fn traced_transport_reaches_every_inner_override() {
    let _lock = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::set_enabled(true);
    trace::take();
    let mut t = TracedTransport::new(Marked::default());
    let cfg = TrainConfig::default();
    let assign = TrainAssign {
        round: 0,
        seed: 1,
        nonce: 77,
        global: &[0.0],
        cfg: &cfg,
    };
    let mut seen: Vec<(usize, u64, Vec<f32>)> = Vec::new();
    let mut sink = |u: StreamedUpdate<'_>| -> Result<(), TransportError> {
        seen.push((u.client_id, u.nonce, u.state.to_vec()));
        Ok(())
    };
    let mut results = Vec::new();

    assert_eq!(RoundTransport::num_clients(&t), 11);
    assert_eq!(t.train_round(&assign).len(), 1);
    let mut cohort = Vec::new();
    t.cohort_into(&mut cohort);
    assert_eq!(cohort, vec![(5, 6)]);
    t.train_round_streamed(&assign, &mut sink, &mut results);
    t.train_round_sampled(&assign, &[(3, 4), (8, 9)], &mut sink, &mut results);
    assert_eq!(results.len(), 2);
    assert!(t.quarantine(2));
    assert_eq!(DistillTransport::num_clients(&t), 13);
    let job = UnlearnJob {
        local: Default::default(),
        hard: None,
    };
    t.begin_unlearn(&job, &[0.0]).unwrap();
    assert_eq!(t.distill_round(0, 0, &[0.0]).len(), 1);
    assert_eq!(t.client_sizes(), vec![4]);
    t.stage_removals(&[], 0);
    t.apply_removals(&[]);
    assert_eq!(t.admit_reconnects(0, &[0.0]), 7);
    assert_eq!(t.local_eval(0, &[0.0]).len(), 1);
    t.set_read_timeout(Duration::from_millis(1));
    assert_eq!(t.fatal_fault(), Some("marked"));
    t.shutdown();
    assert_eq!(t.wire_stats().total(), 7);
    t.set_telemetry(&ServeTelemetry::disabled());
    let shard = ShardRetrainAssign {
        owner: 0,
        executor: 0,
        shard: 0,
        tau: 1,
        keep_rows: vec![],
        checkpoint: vec![],
        cfg,
        seed: 0,
    };
    assert_eq!(t.shard_retrain(&shard).unwrap(), vec![42.0]);
    assert_eq!(t.straggle_ms(0), 9);
    trace::set_enabled(false);

    // Updates reach the coordinator's sink unchanged.
    assert_eq!(
        seen,
        vec![(1, 77, vec![1.0]), (3, 77, vec![2.0]), (8, 77, vec![2.0]),]
    );
    let calls = t.inner().calls.borrow().clone();
    for want in [
        "round.num_clients",
        "train_round",
        "cohort_into",
        "train_round_streamed",
        "train_round_sampled",
        "quarantine",
        "distill.num_clients",
        "begin_unlearn",
        "distill_round",
        "client_sizes",
        "stage_removals",
        "apply_removals",
        "admit_reconnects",
        "local_eval",
        "set_read_timeout",
        "fatal_fault",
        "shutdown",
        "wire_stats",
        "set_telemetry",
        "shard_retrain",
        "straggle_ms",
    ] {
        assert_eq!(
            calls.iter().filter(|&&c| c == want).count(),
            1,
            "{want} did not reach the inner transport exactly once: {calls:?}"
        );
    }

    // Spans: one per call that does work, one fold per delivered update,
    // folds parented to their round call.
    let spans = trace::take();
    let totals = trace::totals_by_name(&spans);
    assert_eq!(totals["fed.train"].count, 3);
    assert_eq!(totals["fed.fold"].count, 3);
    assert_eq!(totals["core.distill_round"].count, 1);
    assert_eq!(totals["core.begin_unlearn"].count, 1);
    assert_eq!(totals["core.shard_retrain"].count, 1);
    assert_eq!(totals["serve.local_eval"].count, 1);
    let trains: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "fed.train")
        .map(|s| s.id)
        .collect();
    assert!(spans
        .iter()
        .filter(|s| s.name == "fed.fold")
        .all(|s| trains.contains(&s.parent)));
}
