//! Pins the "zero per-step heap allocations after warm-up" guarantee of
//! the training runtime on the dense and the conv path, using a counting
//! global allocator. Only allocations made by the armed thread count, so
//! libtest's own threads cannot leak into the armed window; the steps
//! run on a one-thread pool, so every kernel runs on that thread too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use goldfish::core::basic_model::{clip_grad_norm, TeacherCache};
use goldfish::core::loss::{GoldfishBatch, GoldfishLoss, GoldfishLossBufs, LossWeights};
use goldfish::data::synthetic::{self, SyntheticSpec};
use goldfish::data::BatchGather;
use goldfish::fed::pool;
use goldfish::nn::loss::{CrossEntropy, HardLoss};
use goldfish::nn::optim::FusedSgd;
use goldfish::nn::{zoo, Network};
use goldfish::tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// Counts allocations (and growth reallocations) made by an armed thread.
struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are counted, and how many it
    /// made while armed. Const-initialised with no destructor, so
    /// touching them never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_if_armed() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

/// Runs `f` with the calling thread armed and returns how many
/// allocations it made.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by steady-state Goldfish unlearning steps of the
/// network `make` builds, on `spec`-shaped data, after warm-up: teacher
/// logits from the cache (bulk row gather for full batches, fallback
/// forward through the teacher's inference workspace for the short
/// tail), student forward through its arenas, the fused composite loss
/// (remaining + forget parts) into reused buffers, the allocation-free
/// gradient clip and the fused optimizer.
fn distillation_step_allocations(
    spec: SyntheticSpec,
    make: impl Fn(&mut StdRng) -> Network,
) -> usize {
    let (train, _) = synthetic::generate(&spec, 76, 10, 9);
    let remaining = train.subset(&(12..76).collect::<Vec<usize>>()); // 64 rows
    let forget = train.subset(&(0..12).collect::<Vec<usize>>());
    let mut rng = StdRng::seed_from_u64(1);
    let mut student = make(&mut rng);
    let teacher = make(&mut rng);

    let loss = GoldfishLoss::new(Arc::new(CrossEntropy), LossWeights::default());
    let mut cache = TeacherCache::build(teacher, &remaining, 20);
    let mut opt = FusedSgd::new(0.05, 0.9);
    let mut gather_r = BatchGather::new();
    let mut gather_f = BatchGather::new();
    let mut grad = Tensor::zeros(vec![1]);
    let mut bufs = GoldfishLossBufs::new();
    // 64 remaining rows at B = 20 → 20, 20, 20 and a short tail of 4
    // (exercising the cache's fallback forward); 12 forget rows spread
    // as slices of 3.
    let rem_batches: Vec<Vec<usize>> = (0..3).map(|b| (b * 20..(b + 1) * 20).collect()).collect();
    let tail: Vec<usize> = (60..64).collect();
    let fg_batches: Vec<Vec<usize>> = (0..4).map(|b| (b * 3..(b + 1) * 3).collect()).collect();

    let mut step = |gather_r: &mut BatchGather,
                    gather_f: &mut BatchGather,
                    grad: &mut Tensor,
                    bufs: &mut GoldfishLossBufs,
                    cache: &mut TeacherCache,
                    chunk: &[usize],
                    fchunk: &[usize]| {
        student.zero_grad();
        gather_r.gather(&remaining, chunk);
        {
            let teacher_logits = cache.logits_for(gather_r.features(), chunk);
            let student_logits = student.forward_ws(gather_r.features(), true);
            loss.loss_and_grad_into(
                GoldfishBatch::Remaining {
                    student_logits,
                    teacher_logits: Some(teacher_logits),
                    labels: gather_r.labels(),
                },
                grad,
                bufs,
            );
        }
        student.backward_train(grad);
        gather_f.gather(&forget, fchunk);
        {
            let student_logits = student.forward_ws(gather_f.features(), true);
            loss.loss_and_grad_into(
                GoldfishBatch::Forget {
                    student_logits,
                    labels: gather_f.labels(),
                    hard_scale: 0.1875,
                },
                grad,
                bufs,
            );
        }
        student.backward_train(grad);
        clip_grad_norm(&mut student, 5.0);
        opt.step(&mut student);
    };

    // Warm-up: size every arena, loss buffer, cache gather buffer and
    // the teacher's fallback workspace, full and short geometry.
    for (chunk, fchunk) in rem_batches.iter().zip(fg_batches.iter()) {
        step(
            &mut gather_r,
            &mut gather_f,
            &mut grad,
            &mut bufs,
            &mut cache,
            chunk,
            fchunk,
        );
    }
    step(
        &mut gather_r,
        &mut gather_f,
        &mut grad,
        &mut bufs,
        &mut cache,
        &tail,
        &fg_batches[3][..2],
    );

    // Armed: full batches, the short tail and short forget slices must
    // not touch the allocator.
    allocations_in(|| {
        for _ in 0..3 {
            for (chunk, fchunk) in rem_batches.iter().zip(fg_batches.iter()) {
                step(
                    &mut gather_r,
                    &mut gather_f,
                    &mut grad,
                    &mut bufs,
                    &mut cache,
                    chunk,
                    fchunk,
                );
            }
            step(
                &mut gather_r,
                &mut gather_f,
                &mut grad,
                &mut bufs,
                &mut cache,
                &tail,
                &fg_batches[2][..2],
            );
        }
    })
}

#[test]
fn distillation_step_is_allocation_free_after_warm_up() {
    // The dense path: the paper-shaped MLP on 8×8 synthetic MNIST.
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let n = pool::install(Some(1), || {
        distillation_step_allocations(spec, |rng| zoo::mlp(64, &[32], 10, rng))
    });
    assert_eq!(n, 0, "distillation steps performed {n} heap allocations");
}

#[test]
fn lenet_distillation_step_is_allocation_free_after_warm_up() {
    // The conv path at the distillation benchmark's shapes: LeNet-5 on
    // 1×20×20 inputs (im2col/im2row lowering, narrow and tail-column
    // GEMM panels, col2im), B = 20 with short tails.
    let spec = SyntheticSpec::mnist().with_size(20, 20).with_shift(2);
    let n = pool::install(Some(1), || {
        distillation_step_allocations(spec, |rng| zoo::lenet5(1, 20, 20, 10, rng))
    });
    assert_eq!(
        n, 0,
        "LeNet-5 distillation steps performed {n} heap allocations"
    );
}

#[test]
fn dense_training_step_is_allocation_free_after_warm_up() {
    // The paper-shaped MLP round workload at its reduced scale: 64
    // synthetic-MNIST features, one hidden layer, B = 20.
    pool::install(Some(1), dense_training_steps);
}

fn dense_training_steps() {
    let spec = SyntheticSpec::mnist().with_size(8, 8).with_shift(1);
    let (train, _) = synthetic::generate(&spec, 60, 10, 9);
    let mut rng = StdRng::seed_from_u64(1);
    let mut net = zoo::mlp(64, &[32], 10, &mut rng);
    let mut opt = FusedSgd::new(0.05, 0.9);
    let mut gather = BatchGather::new();
    let mut grad = Tensor::zeros(vec![1]);
    let batches: Vec<Vec<usize>> = (0..3).map(|b| (b * 20..(b + 1) * 20).collect()).collect();

    let mut step = |gather: &mut BatchGather, grad: &mut Tensor, chunk: &[usize]| {
        gather.gather(&train, chunk);
        {
            let logits = net.forward_ws(gather.features(), true);
            CrossEntropy.loss_and_grad_into(logits, gather.labels(), grad);
        }
        net.zero_grad();
        net.backward_train(grad);
        opt.step(&mut net);
    };

    // Warm-up: size every arena, scratch buffer and thread-local pack
    // buffer, including the short-batch geometry.
    for chunk in &batches {
        step(&mut gather, &mut grad, chunk);
    }
    step(&mut gather, &mut grad, &batches[0][..7]);

    // Armed: full and short batches must not touch the allocator.
    let n = allocations_in(|| {
        for _ in 0..3 {
            for chunk in &batches {
                step(&mut gather, &mut grad, chunk);
            }
            step(&mut gather, &mut grad, &batches[1][..7]);
        }
    });
    assert_eq!(n, 0, "training steps performed {n} heap allocations");
}
