//! Property tests pinning the allocation-free runtime to the allocating
//! path: `forward_into`/`backward_into`, the fused loss and the fused
//! optimizer must be **bitwise identical** to their classic counterparts
//! on arbitrary shapes and values — reusing buffers is an execution
//! detail, never a semantic one.

use goldfish_nn::loss::{CrossEntropy, HardLoss};
use goldfish_nn::optim::{FusedSgd, Sgd};
use goldfish_nn::{zoo, Layer, Network, Relu, Sequential};
use goldfish_tensor::{init, ops, Tensor};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Strategy: batch size, feature width, hidden width, class count.
fn mlp_dims() -> impl Strategy<Value = (usize, usize, usize, usize)> {
    (1usize..9, 1usize..12, 1usize..10, 2usize..6)
}

/// The seed implementation of softmax cross-entropy, kept verbatim as the
/// oracle for the fused path (log-softmax tensor, exponentiation pass,
/// one-hot subtraction, scale).
fn seed_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (n, c) = logits.dims2();
    let logp = ops::log_softmax_t(logits, 1.0);
    let p = logp.map(|v| v.exp());
    let mut grad = p;
    let mut loss = 0.0f32;
    for (r, &label) in labels.iter().enumerate() {
        loss -= logp.at2(r, label);
        grad.row_mut(r)[label] -= 1.0;
    }
    let scale = 1.0 / n as f32;
    grad.scale_mut(scale);
    (loss * scale, grad.reshape(vec![n, c]))
}

proptest! {
    #[test]
    fn fused_loss_is_bitwise_identical_to_seed_pipeline(
        (n, c) in (1usize..10, 2usize..8),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = init::normal(&mut rng, vec![n, c], 0.0, 3.0);
        let labels: Vec<usize> = (0..n).map(|i| (i + seed as usize) % c).collect();
        let (want_l, want_g) = seed_cross_entropy(&logits, &labels);
        let mut grad = Tensor::zeros(vec![1]);
        let got_l = CrossEntropy.loss_and_grad_into(&logits, &labels, &mut grad);
        prop_assert_eq!(got_l.to_bits(), want_l.to_bits(), "loss diverged");
        prop_assert_eq!(grad.shape(), want_g.shape());
        for (a, b) in grad.as_slice().iter().zip(want_g.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "grad diverged");
        }
    }

    #[test]
    fn forward_into_is_bitwise_identical_to_forward(
        (n, d, h, c) in mlp_dims(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net_a = zoo::mlp(d, &[h], c, &mut rng);
        let mut net_b = zoo::mlp(d, &[h], c, &mut rng);
        net_b.set_state_vector(&net_a.state_vector());
        let x = init::normal(&mut rng, vec![n, d], 0.0, 1.0);
        let allocating = net_a.forward(&x, true);
        let reused = net_b.forward_ws(&x, true);
        prop_assert_eq!(allocating.shape(), reused.shape());
        for (a, b) in allocating.as_slice().iter().zip(reused.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "logits diverged");
        }
    }

    #[test]
    fn backward_train_accumulates_identical_gradients(
        (n, d, h, c) in mlp_dims(),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net_a = zoo::mlp(d, &[h], c, &mut rng);
        let mut net_b = zoo::mlp(d, &[h], c, &mut rng);
        net_b.set_state_vector(&net_a.state_vector());
        let x = init::normal(&mut rng, vec![n, d], 0.0, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| i % c).collect();

        let logits = net_a.forward(&x, true);
        let (_, grad) = CrossEntropy.loss_and_grad(&logits, &labels);
        net_a.zero_grad();
        let _ = net_a.backward(&grad);

        let mut grad_b = Tensor::zeros(vec![1]);
        let logits_b = net_b.forward_ws(&x, true);
        CrossEntropy.loss_and_grad_into(logits_b, &labels, &mut grad_b);
        net_b.zero_grad();
        net_b.backward_train(&grad_b);

        let (ga, gb) = (net_a.grad_vector(), net_b.grad_vector());
        for (a, b) in ga.iter().zip(gb.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "param grads diverged");
        }
    }

    #[test]
    fn fused_sgd_tracks_sgd_over_several_steps(
        (n, d, h, c) in mlp_dims(),
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net_a = zoo::mlp(d, &[h], c, &mut rng);
        let mut net_b = zoo::mlp(d, &[h], c, &mut rng);
        net_b.set_state_vector(&net_a.state_vector());
        let x = init::normal(&mut rng, vec![n, d], 0.0, 1.0);
        let labels: Vec<usize> = (0..n).map(|i| i % c).collect();
        let mut sgd = Sgd::new(0.05, 0.9);
        let mut fused = FusedSgd::new(0.05, 0.9);
        for _ in 0..3 {
            let logits = net_a.forward(&x, true);
            let (_, grad) = CrossEntropy.loss_and_grad(&logits, &labels);
            net_a.zero_grad();
            net_a.backward(&grad);
            sgd.step(&mut net_a);

            let mut grad_b = Tensor::zeros(vec![1]);
            let logits_b = net_b.forward_ws(&x, true);
            CrossEntropy.loss_and_grad_into(logits_b, &labels, &mut grad_b);
            net_b.zero_grad();
            net_b.backward_train(&grad_b);
            fused.step(&mut net_b);
        }
        let (sa, sb) = (net_a.state_vector(), net_b.state_vector());
        for (a, b) in sa.iter().zip(sb.iter()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "states diverged");
        }
    }
}

/// The runtime plumbing must also hold for non-dense layers; a CNN with
/// BatchNorm exercises `Conv2d`, `MaxPool2d`, `BatchNorm2d`, `Flatten`
/// and the arena chain at once. (A plain #[test]: conv shapes make
/// proptest cases needlessly slow.)
#[test]
fn conv_network_runtime_matches_allocating_path() {
    let build = || {
        let mut rng = StdRng::seed_from_u64(3);
        zoo::lenet5(1, 16, 16, 4, &mut rng)
    };
    let mut net_a = build();
    let mut net_b = build();
    let mut rng = StdRng::seed_from_u64(4);
    let x = init::normal(&mut rng, vec![3, 1, 16, 16], 0.0, 1.0);
    let labels = vec![0usize, 2, 3];
    let mut sgd = Sgd::new(0.01, 0.9);
    let mut fused = FusedSgd::new(0.01, 0.9);
    for _ in 0..3 {
        let logits = net_a.forward(&x, true);
        let (_, grad) = CrossEntropy.loss_and_grad(&logits, &labels);
        net_a.zero_grad();
        net_a.backward(&grad);
        sgd.step(&mut net_a);

        let mut grad_b = Tensor::zeros(vec![1]);
        let logits_b = net_b.forward_ws(&x, true);
        CrossEntropy.loss_and_grad_into(logits_b, &labels, &mut grad_b);
        net_b.zero_grad();
        net_b.backward_train(&grad_b);
        fused.step(&mut net_b);
        assert_eq!(net_a.state_vector(), net_b.state_vector());
    }
}

/// Residual blocks route the runtime through nested `Sequential`s and the
/// projection shortcut.
#[test]
fn residual_network_runtime_matches_allocating_path() {
    let build = || {
        let mut rng = StdRng::seed_from_u64(8);
        zoo::resnet_mini(1, 3, 1, 4, &mut rng)
    };
    let mut net_a = build();
    let mut net_b = build();
    let mut rng = StdRng::seed_from_u64(9);
    let x = init::normal(&mut rng, vec![2, 1, 8, 8], 0.0, 1.0);
    let labels = vec![1usize, 2];

    let logits = net_a.forward(&x, true);
    let (_, grad) = CrossEntropy.loss_and_grad(&logits, &labels);
    net_a.zero_grad();
    net_a.backward(&grad);

    let mut grad_b = Tensor::zeros(vec![1]);
    let logits_b = net_b.forward_ws(&x, true);
    CrossEntropy.loss_and_grad_into(logits_b, &labels, &mut grad_b);
    net_b.zero_grad();
    net_b.backward_train(&grad_b);

    assert_eq!(net_a.grad_vector(), net_b.grad_vector());
}

/// Mixing the paths inside one step also stays coherent: the caches are
/// shared, so an allocating forward followed by an arena backward sees
/// the same cached state.
#[test]
fn mixed_paths_share_caches() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut seq = Sequential::new()
        .push(goldfish_nn::Dense::new(4, 6, &mut rng))
        .push(Relu::new());
    let x = init::normal(&mut rng, vec![2, 4], 0.0, 1.0);
    let y_alloc = seq.forward(&x, true);
    let mut grad_in = Tensor::zeros(vec![1]);
    seq.backward_into(&Tensor::filled(y_alloc.shape().to_vec(), 1.0), &mut grad_in);
    let gx = seq.backward(&Tensor::filled(y_alloc.shape().to_vec(), 1.0));
    assert_eq!(gx, grad_in);
    let mut net = Network::new(seq);
    assert!(net.forward(&x, false).all_finite());
}

/// Inference forwards skip every buffer only a backward pass reads
/// (ReLU masks, max-pool routing, cached inputs); the logits must not
/// move a bit. Checked on the MLP and LeNet-5 at several batch sizes,
/// with the eval forward both before and after a training forward.
#[test]
fn eval_logits_match_training_logits_bitwise() {
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let mut rng = StdRng::seed_from_u64(11);
    let mut mlp = zoo::mlp(20, &[16, 12], 5, &mut rng);
    let mut lenet = zoo::lenet5(1, 20, 20, 10, &mut rng);
    for (net, sample) in [(&mut mlp, vec![20]), (&mut lenet, vec![1, 20, 20])] {
        for n in [1usize, 7, 20, 33] {
            let mut shape = vec![n];
            shape.extend_from_slice(&sample);
            let x = init::normal(&mut rng, shape, 0.0, 1.0);
            let eval_first = bits(net.forward_ws(&x, false));
            let train = bits(net.forward_ws(&x, true));
            let eval_after = bits(net.forward_ws(&x, false));
            let eval_alloc = bits(&net.forward(&x, false));
            assert_eq!(eval_first, train, "batch {n}");
            assert_eq!(eval_after, train, "batch {n}");
            assert_eq!(eval_alloc, train, "batch {n}");
        }
    }
}

/// After an inference forward the layers that skipped their backward
/// state report not-ready: a backward panics with the same "before
/// forward" message as one that never saw a forward — even when an
/// earlier training forward had left a cache behind.
#[test]
fn backward_after_inference_forward_panics() {
    use goldfish_nn::{Conv2d, Dense, MaxPool2d};
    let mut rng = StdRng::seed_from_u64(12);
    let x4 = init::normal(&mut rng, vec![2, 2, 6, 6], 0.0, 1.0);
    let x2 = init::normal(&mut rng, vec![2, 6], 0.0, 1.0);
    let layers: Vec<(Box<dyn Layer>, &Tensor)> = vec![
        (Box::new(Relu::new()), &x2),
        (Box::new(MaxPool2d::new(2, 2)), &x4),
        (Box::new(Conv2d::new(2, 3, 3, 1, 1, &mut rng)), &x4),
        (Box::new(Dense::new(6, 4, &mut rng)), &x2),
    ];
    for (mut layer, x) in layers {
        let name = layer.name();
        let y = layer.forward(x, true);
        let g = Tensor::filled(y.shape().to_vec(), 1.0);
        let _ = layer.backward(&g);
        let _ = layer.forward(x, false);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| layer.backward(&g)));
        let err = out.expect_err(name);
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("before forward"), "{name}: {msg}");
        // Params-only backward is guarded the same way.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            layer.backward_params_only(&g)
        }));
        assert!(out.is_err(), "{name} params-only backward");
    }
}
