//! Transparent wrappers that record spans around calls into the
//! program's public layers, plus the benchmark's model factories.
//!
//! [`TracedTransport`] explicitly overrides **every** method of
//! `RoundTransport`, `DistillTransport` and `ServeTransport`, defaulted
//! ones included: relying on a trait default would silently replace the
//! inner transport's own override. [`TracedLayer`] does the same for
//! `Layer`. Neither touches a number, so a traced run commits the same
//! bits as a plain one.

use std::sync::Arc;
use std::time::Duration;

use goldfish_core::transport::{DistillTransport, UnlearnJob};
use goldfish_fed::aggregate::ClientUpdate;
use goldfish_fed::transport::{
    RoundTransport, StreamedUpdate, TrainAssign, TransportError, UpdateSink,
};
use goldfish_fed::ModelFactory;
use goldfish_nn::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Network, Param, Relu, Sequential};
use goldfish_serve::queue::UnlearnRequest;
use goldfish_serve::shard::ShardRetrainAssign;
use goldfish_serve::telemetry::ServeTelemetry;
use goldfish_serve::transport::{LocalEval, ServeTransport, WireStats};
use goldfish_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

use crate::trace;

/// Span names of the transport layer.
pub mod span {
    /// A training-round call (any of the three round entry points).
    pub const TRAIN: &str = "fed.train";
    /// One update handed to the coordinator's aggregation sink.
    pub const FOLD: &str = "fed.fold";
    /// One distillation round over every client.
    pub const DISTILL_ROUND: &str = "core.distill_round";
    /// Shipping an unlearning job and its teacher.
    pub const BEGIN_UNLEARN: &str = "core.begin_unlearn";
    /// One shard retrain.
    pub const SHARD_RETRAIN: &str = "core.shard_retrain";
    /// Client-side evaluation.
    pub const LOCAL_EVAL: &str = "serve.local_eval";
}

/// A delegating [`ServeTransport`] that records a span around every call
/// that does work, and a leaf span around every call into the
/// coordinator's aggregation sink.
pub struct TracedTransport<T> {
    inner: T,
}

impl<T> TracedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        TracedTransport { inner }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: ServeTransport> RoundTransport for TracedTransport<T> {
    fn num_clients(&self) -> usize {
        RoundTransport::num_clients(&self.inner)
    }

    fn train_round(
        &mut self,
        assign: &TrainAssign<'_>,
    ) -> Vec<Result<ClientUpdate, TransportError>> {
        let _g = trace::enter(span::TRAIN);
        self.inner.train_round(assign)
    }

    fn cohort_into(&self, out: &mut Vec<(usize, usize)>) {
        self.inner.cohort_into(out)
    }

    fn train_round_streamed(
        &mut self,
        assign: &TrainAssign<'_>,
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        let _g = trace::enter(span::TRAIN);
        let mut timed = |u: StreamedUpdate<'_>| {
            let _f = trace::leaf(span::FOLD);
            sink(u)
        };
        self.inner.train_round_streamed(assign, &mut timed, results)
    }

    fn train_round_sampled(
        &mut self,
        assign: &TrainAssign<'_>,
        cohort: &[(usize, usize)],
        sink: &mut UpdateSink<'_>,
        results: &mut Vec<Result<(), TransportError>>,
    ) {
        let _g = trace::enter(span::TRAIN);
        let mut timed = |u: StreamedUpdate<'_>| {
            let _f = trace::leaf(span::FOLD);
            sink(u)
        };
        self.inner
            .train_round_sampled(assign, cohort, &mut timed, results)
    }

    fn quarantine(&mut self, client_id: usize) -> bool {
        self.inner.quarantine(client_id)
    }
}

impl<T: ServeTransport> DistillTransport for TracedTransport<T> {
    fn num_clients(&self) -> usize {
        DistillTransport::num_clients(&self.inner)
    }

    fn begin_unlearn(&mut self, job: &UnlearnJob, teacher: &[f32]) -> Result<(), TransportError> {
        let _g = trace::enter(span::BEGIN_UNLEARN);
        self.inner.begin_unlearn(job, teacher)
    }

    fn distill_round(
        &mut self,
        round: usize,
        seed: u64,
        global: &[f32],
    ) -> Vec<Result<ClientUpdate, TransportError>> {
        let _g = trace::enter(span::DISTILL_ROUND);
        self.inner.distill_round(round, seed, global)
    }
}

impl<T: ServeTransport> ServeTransport for TracedTransport<T> {
    fn client_sizes(&self) -> Vec<usize> {
        self.inner.client_sizes()
    }

    fn stage_removals(&mut self, requests: &[UnlearnRequest], serial: u64) {
        self.inner.stage_removals(requests, serial)
    }

    fn apply_removals(&mut self, requests: &[UnlearnRequest]) {
        self.inner.apply_removals(requests)
    }

    fn admit_reconnects(&mut self, round: usize, global: &[f32]) -> usize {
        self.inner.admit_reconnects(round, global)
    }

    fn local_eval(
        &mut self,
        round: usize,
        global: &[f32],
    ) -> Vec<Result<LocalEval, TransportError>> {
        let _g = trace::enter(span::LOCAL_EVAL);
        self.inner.local_eval(round, global)
    }

    fn set_read_timeout(&mut self, timeout: Duration) {
        self.inner.set_read_timeout(timeout)
    }

    fn fatal_fault(&self) -> Option<&str> {
        self.inner.fatal_fault()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown()
    }

    fn wire_stats(&self) -> WireStats {
        self.inner.wire_stats()
    }

    fn set_telemetry(&mut self, telemetry: &ServeTelemetry) {
        self.inner.set_telemetry(telemetry)
    }

    fn shard_retrain(&mut self, assign: &ShardRetrainAssign) -> Result<Vec<f32>, TransportError> {
        let _g = trace::enter(span::SHARD_RETRAIN);
        self.inner.shard_retrain(assign)
    }

    fn straggle_ms(&self, client_id: usize) -> u64 {
        self.inner.straggle_ms(client_id)
    }
}

/// Which kernel family a traced layer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Convolutions.
    Conv,
    /// Fully-connected layers.
    Dense,
    /// Activations, pooling and reshapes.
    Other,
}

impl LayerKind {
    fn forward_span(self, train: bool) -> &'static str {
        match (self, train) {
            (LayerKind::Conv, true) => "nn.conv.fwd",
            (LayerKind::Dense, true) => "nn.dense.fwd",
            (LayerKind::Other, true) => "nn.other.fwd",
            (LayerKind::Conv, false) => "nn.conv.infer",
            (LayerKind::Dense, false) => "nn.dense.infer",
            (LayerKind::Other, false) => "nn.other.infer",
        }
    }

    fn backward_span(self) -> &'static str {
        match self {
            LayerKind::Conv => "nn.conv.bwd",
            LayerKind::Dense => "nn.dense.bwd",
            LayerKind::Other => "nn.other.bwd",
        }
    }
}

/// A delegating [`Layer`] that records a leaf span around every forward
/// and backward pass, on whichever thread runs it.
pub struct TracedLayer {
    inner: Box<dyn Layer>,
    kind: LayerKind,
}

impl TracedLayer {
    /// Wraps `inner` as a layer of `kind`.
    pub fn new(inner: impl Layer + 'static, kind: LayerKind) -> Self {
        TracedLayer {
            inner: Box::new(inner),
            kind,
        }
    }
}

impl Layer for TracedLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let _s = trace::leaf(self.kind.forward_span(train));
        self.inner.forward(x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let _s = trace::leaf(self.kind.backward_span());
        self.inner.backward(grad_out)
    }

    fn forward_into(&mut self, x: &Tensor, train: bool, out: &mut Tensor) {
        let _s = trace::leaf(self.kind.forward_span(train));
        self.inner.forward_into(x, train, out)
    }

    fn backward_into(&mut self, grad_out: &Tensor, grad_in: &mut Tensor) {
        let _s = trace::leaf(self.kind.backward_span());
        self.inner.backward_into(grad_out, grad_in)
    }

    fn backward_params_only(&mut self, grad_out: &Tensor) {
        let _s = trace::leaf(self.kind.backward_span());
        self.inner.backward_params_only(grad_out)
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params_mut(f)
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.inner.visit_params(f)
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A model architecture the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arch {
    /// `goldfish_nn::zoo::lenet5(1, side, side, 10)`.
    LeNet5 {
        /// Input height and width.
        side: usize,
    },
    /// `goldfish_nn::zoo::mlp(input, &[hidden], 10)`.
    Mlp {
        /// Input features.
        input: usize,
        /// Hidden width.
        hidden: usize,
    },
}

const CLASSES: usize = 10;

/// Output side of the LeNet trunk (two 5×5 valid convs, two 2×2 pools).
fn lenet_trunk_side(side: usize) -> usize {
    ((side - 4) / 2 - 4) / 2
}

impl Arch {
    /// The zoo's own constructor, untraced.
    pub fn factory(self) -> ModelFactory {
        Arc::new(move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            match self {
                Arch::LeNet5 { side } => goldfish_nn::zoo::lenet5(1, side, side, CLASSES, &mut rng),
                Arch::Mlp { input, hidden } => {
                    goldfish_nn::zoo::mlp(input, &[hidden], CLASSES, &mut rng)
                }
            }
        })
    }

    /// The same architecture rebuilt from the public layer constructors
    /// (same construction order, so the same weights per seed), with
    /// every layer wrapped in a [`TracedLayer`].
    pub fn traced_factory(self) -> ModelFactory {
        Arc::new(move |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let seq = match self {
                Arch::LeNet5 { side } => {
                    let t = lenet_trunk_side(side);
                    Sequential::new()
                        .push(traced_conv(Conv2d::new(1, 6, 5, 1, 0, &mut rng)))
                        .push(TracedLayer::new(Relu::new(), LayerKind::Other))
                        .push(TracedLayer::new(MaxPool2d::new(2, 2), LayerKind::Other))
                        .push(traced_conv(Conv2d::new(6, 16, 5, 1, 0, &mut rng)))
                        .push(TracedLayer::new(Relu::new(), LayerKind::Other))
                        .push(TracedLayer::new(MaxPool2d::new(2, 2), LayerKind::Other))
                        .push(TracedLayer::new(Flatten::new(), LayerKind::Other))
                        .push(traced_dense(Dense::new(16 * t * t, 120, &mut rng)))
                        .push(TracedLayer::new(Relu::new(), LayerKind::Other))
                        .push(traced_dense(Dense::new(120, CLASSES, &mut rng)))
                }
                Arch::Mlp { input, hidden } => Sequential::new()
                    .push(traced_dense(Dense::new(input, hidden, &mut rng)))
                    .push(TracedLayer::new(Relu::new(), LayerKind::Other))
                    .push(traced_dense(Dense::new(hidden, CLASSES, &mut rng))),
            };
            Network::new(seq)
        })
    }

    /// [`Arch::traced_factory`] when `traced`, else [`Arch::factory`].
    pub fn factory_for(self, traced: bool) -> ModelFactory {
        if traced {
            self.traced_factory()
        } else {
            self.factory()
        }
    }
}

fn traced_conv(layer: Conv2d) -> TracedLayer {
    TracedLayer::new(layer, LayerKind::Conv)
}

fn traced_dense(layer: Dense) -> TracedLayer {
    TracedLayer::new(layer, LayerKind::Dense)
}
