//! Shared benchmark fixtures: the inputs of the scenarios the bench
//! binaries (`src/bin/bench_kernels.rs` and friends) measure, built in
//! one place so every committed `BENCH_*.json` measures the same thing.

use std::sync::Arc;

use goldfish_core::basic_model::GoldfishLocalConfig;
use goldfish_core::method::{ClientSplit, UnlearnSetup};
use goldfish_data::synthetic::{self, SyntheticSpec};
use goldfish_data::Dataset;
use goldfish_fed::aggregate::ClientUpdate;
use goldfish_fed::trainer::{train_local_ce, TrainConfig};
use goldfish_fed::ModelFactory;
use goldfish_nn::{zoo, Network};
use goldfish_tensor::conv::Conv2dSpec;
use goldfish_tensor::{init, Tensor};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Client count of the aggregation scenario.
pub const AGG_CLIENTS: usize = 25;

/// Parameter count of the aggregation scenario.
pub const AGG_PARAMS: usize = 500_000;

/// Conv scenarios: `(label, images, channels, height/width, filters)` —
/// a LeNet-ish first layer and a deeper, channel-heavy layer.
pub const CONV_CASES: [(&str, usize, usize, usize, usize); 2] = [
    ("32x1x28x28 f6", 32, 1, 28, 6),
    ("32x16x12x12 f16", 32, 16, 12, 16),
];

/// A pair of dense `n×n` standard-normal matrices.
pub fn square_pair(n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        init::normal(&mut rng, vec![n, n], 0.0, 1.0),
        init::normal(&mut rng, vec![n, n], 0.0, 1.0),
    )
}

/// The two convolutions of the `distill-lenet` benchmark workload's
/// LeNet-5 (1×20×20 inputs, 5×5 kernels) at its training batch (20) and
/// its inference batch (256): `(label, images, channels, side, filters)`.
pub const LENET_CONV_CASES: [(&str, usize, usize, usize, usize); 4] = [
    ("lenet_conv1_b20", 20, 1, 20, 6),
    ("lenet_conv2_b20", 20, 6, 8, 16),
    ("lenet_conv1_b256", 256, 1, 20, 6),
    ("lenet_conv2_b256", 256, 6, 8, 16),
];

/// Inputs for one conv scenario: `(input, weight, bias, spec)` with a
/// 5×5 stride-1 kernel.
pub fn conv_case(
    nimg: usize,
    ch: usize,
    hw: usize,
    f: usize,
    seed: u64,
) -> (Tensor, Tensor, Tensor, Conv2dSpec) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        init::normal(&mut rng, vec![nimg, ch, hw, hw], 0.0, 1.0),
        init::normal(&mut rng, vec![f, ch, 5, 5], 0.0, 0.2),
        Tensor::zeros(vec![f]),
        Conv2dSpec::new(5, 5, 1, 0),
    )
}

/// Clients in the round-throughput scenario.
pub const ROUND_CLIENTS: usize = 5;

/// Samples per client in the round-throughput scenario.
pub const ROUND_SAMPLES_PER_CLIENT: usize = 300;

/// Layer widths of the round-throughput MLP: the scaled-MNIST feature
/// width (8×8, DESIGN.md §3), one hidden layer, ten classes.
pub const ROUND_MLP_DIMS: [usize; 3] = [64, 32, 10];

/// The paper-shaped MLP round workload measured by `bench_round` and
/// `benches/round.rs`: IID shards of the synthetic MNIST analogue plus
/// the paper's local hyperparameters (B = 100, η = 0.001, β = 0.9).
pub fn round_workload(seed: u64) -> (Vec<Dataset>, TrainConfig) {
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let total = ROUND_CLIENTS * ROUND_SAMPLES_PER_CLIENT;
    let (train, _) = synthetic::generate(&spec, total, 10, seed);
    let shards = (0..ROUND_CLIENTS)
        .map(|c| {
            let lo = c * ROUND_SAMPLES_PER_CLIENT;
            let idx: Vec<usize> = (lo..lo + ROUND_SAMPLES_PER_CLIENT).collect();
            train.subset(&idx)
        })
        .collect();
    let cfg = TrainConfig {
        local_epochs: 1,
        batch_size: 100,
        lr: 0.001,
        momentum: 0.9,
    };
    (shards, cfg)
}

/// The round-workload model (`zoo::mlp` over [`ROUND_MLP_DIMS`]).
pub fn round_model(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = ROUND_MLP_DIMS;
    zoo::mlp(
        dims[0],
        &dims[1..dims.len() - 1],
        dims[dims.len() - 1],
        &mut rng,
    )
}

/// Clients in the unlearning-throughput scenario.
pub const UNLEARN_CLIENTS: usize = 3;

/// Samples per client in the unlearning-throughput scenario.
pub const UNLEARN_SAMPLES_PER_CLIENT: usize = 300;

/// Removed samples (all on client 0) in the unlearning scenario.
pub const UNLEARN_REMOVED: usize = 30;

/// Federated rounds each unlearning method gets (the paper's few-round
/// budget; every method is timed at the same budget, as in Fig 4).
pub const UNLEARN_ROUNDS: usize = 2;

/// Round budget retraining from scratch needs before its accuracy
/// recovers — the fixture's pretraining budget (Fig 4's headline
/// comparison times B1 at this budget vs Goldfish at
/// [`UNLEARN_ROUNDS`]).
pub const UNLEARN_RETRAIN_ROUNDS: usize = 8;

/// The unlearning workload measured by `bench_unlearn` and
/// `benches/unlearn_pipeline.rs`: the round-throughput MLP
/// ([`ROUND_MLP_DIMS`]) over an IID federation where client 0 must
/// forget a tenth of its data. The test set is kept small so the timed
/// figure is dominated by the distillation training the port rebuilt,
/// not by shared evaluation plumbing.
///
/// Returns the assembled [`UnlearnSetup`] (original model pretrained on
/// everything, including the to-be-removed samples) and the matching
/// Goldfish local configuration.
pub fn unlearn_workload(seed: u64) -> (UnlearnSetup, GoldfishLocalConfig) {
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let total = UNLEARN_CLIENTS * UNLEARN_SAMPLES_PER_CLIENT;
    let (train, test) = synthetic::generate(&spec, total, 64, seed);
    let factory: ModelFactory = Arc::new(|s| {
        let mut rng = StdRng::seed_from_u64(s);
        let dims = ROUND_MLP_DIMS;
        zoo::mlp(
            dims[0],
            &dims[1..dims.len() - 1],
            dims[dims.len() - 1],
            &mut rng,
        )
    });
    let train_cfg = TrainConfig {
        local_epochs: 2,
        batch_size: 25,
        lr: 0.03,
        momentum: 0.9,
    };
    // Pretrain the original ("origin") global model on everything; a
    // single trainer keeps the fixture assembly fast.
    let mut original = (factory)(1);
    train_local_ce(
        &mut original,
        &train,
        &TrainConfig {
            local_epochs: 8,
            ..train_cfg
        },
        5,
    );
    let clients: Vec<ClientSplit> = (0..UNLEARN_CLIENTS)
        .map(|c| {
            let lo = c * UNLEARN_SAMPLES_PER_CLIENT;
            let idx: Vec<usize> = (lo..lo + UNLEARN_SAMPLES_PER_CLIENT).collect();
            let data = train.subset(&idx);
            if c == 0 {
                let removed: Vec<usize> = (0..UNLEARN_REMOVED).collect();
                ClientSplit::with_removed(&data, &removed)
            } else {
                ClientSplit::intact(data)
            }
        })
        .collect();
    let setup = UnlearnSetup {
        factory,
        clients,
        test,
        original_global: original.state_vector(),
        rounds: UNLEARN_ROUNDS,
        train: train_cfg,
    };
    // Unlearning runs more local epochs than plain training (the
    // paper's Eq 7 early-termination budget exists precisely because
    // the distillation loop iterates): four here.
    let local = GoldfishLocalConfig {
        epochs: 4,
        batch_size: train_cfg.batch_size,
        lr: train_cfg.lr,
        momentum: train_cfg.momentum,
        ..GoldfishLocalConfig::default()
    };
    (setup, local)
}

/// Synthetic client uploads for the aggregation scenario.
pub fn client_updates(clients: usize, params: usize, seed: u64) -> Vec<ClientUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..clients)
        .map(|id| ClientUpdate {
            client_id: id,
            state: (0..params).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            num_samples: rng.gen_range(10..1000),
            server_mse: None,
        })
        .collect()
}
