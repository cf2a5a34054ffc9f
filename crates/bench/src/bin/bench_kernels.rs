//! Kernel perf baseline: times naive (seed reference) vs blocked vs
//! parallel kernels at paper-relevant shapes and writes
//! `BENCH_kernels.json` so the perf trajectory is tracked in-repo from
//! this commit onward.
//!
//! Flags: `--quick` (fewer samples), `--seed N`, `--out PATH` (default
//! `BENCH_kernels.json` in the current directory).

use goldfish_bench::report::{self, PerfReport, Table};
use goldfish_bench::{args, fixtures};
use goldfish_fed::aggregate::weighted_mean;
use goldfish_fed::pool;
use goldfish_tensor::conv::{
    conv2d_backward_into, conv2d_forward_into, conv2d_forward_ws, ConvWorkspace,
};
use goldfish_tensor::{ops, Tensor};

/// A boxed benchmark closure producing a tensor.
type TensorFn<'a> = Box<dyn FnMut() -> Tensor + 'a>;

fn main() {
    let seed = args::seed();
    let samples = if args::quick() { 5 } else { 11 };
    let mut rep = PerfReport::new("goldfish-kernel-baseline-v1", seed);

    report::heading("matmul kernels (naive = seed reference)");
    let mut table = Table::new(&["kernel", "naive ms", "blocked ms", "parallel ms", "speedup"]);
    for &n in &[128usize, 256] {
        let (a, b) = fixtures::square_pair(n, seed);
        let cases: [(&str, TensorFn); 3] = [
            (
                "naive",
                Box::new(|| ops::reference::matmul(std::hint::black_box(&a), &b)),
            ),
            (
                "blocked",
                Box::new(|| pool::install(Some(1), || ops::matmul(std::hint::black_box(&a), &b))),
            ),
            (
                "parallel",
                Box::new(|| ops::matmul(std::hint::black_box(&a), &b)),
            ),
        ];
        let mut medians = [0.0f64; 3];
        for (slot, (variant, mut f)) in medians.iter_mut().zip(cases) {
            let rec = rep.time(&format!("matmul_{n}_{variant}"), samples, || {
                std::hint::black_box(f());
            });
            *slot = rec.median_ns;
        }
        let speedup = medians[0] / medians[2];
        table.row(vec![
            format!("matmul {n}³"),
            report::num(medians[0] / 1e6, 3),
            report::num(medians[1] / 1e6, 3),
            report::num(medians[2] / 1e6, 3),
            format!("{:.2}x", speedup),
        ]);
        if n == 256 {
            rep.speedup("matmul_256_blocked_parallel_vs_naive", speedup);
        }
    }

    // Transposed orientations at 256.
    let (a, b) = fixtures::square_pair(256, seed.wrapping_add(1));
    for (label, naive, fast) in [
        (
            "matmul_at_b_256",
            Box::new(|| ops::reference::matmul_at_b(std::hint::black_box(&a), &b)) as TensorFn,
            Box::new(|| ops::matmul_at_b(std::hint::black_box(&a), &b)) as TensorFn,
        ),
        (
            "matmul_a_bt_256",
            Box::new(|| ops::reference::matmul_a_bt(std::hint::black_box(&a), &b)),
            Box::new(|| ops::matmul_a_bt(std::hint::black_box(&a), &b)),
        ),
    ] {
        let (mut naive, mut fast) = (naive, fast);
        let rn = rep.time(&format!("{label}_naive"), samples, || {
            std::hint::black_box(naive());
        });
        let rf = rep.time(&format!("{label}_blocked"), samples, || {
            std::hint::black_box(fast());
        });
        let speedup = rn.median_ns / rf.median_ns;
        table.row(vec![
            label.to_string(),
            report::num(rn.median_ns / 1e6, 3),
            report::num(rf.median_ns / 1e6, 3),
            "-".to_string(),
            format!("{speedup:.2}x"),
        ]);
    }
    table.print();

    report::heading("conv2d forward: seed-style per-image alloc vs blocked batch");
    let mut conv_table = Table::new(&["shape", "per-image ms", "batched ms", "speedup"]);
    for (label, nimg, ch, hw, f) in fixtures::CONV_CASES {
        let (input, weight, bias, spec) = fixtures::conv_case(nimg, ch, hw, f, seed);
        let per = ch * hw * hw;
        // Seed strategy: a fresh column matrix allocated (and retained,
        // as the old backward cache did) per image.
        let r_per = rep.time(&format!("conv2d_{label}_per_image"), samples, || {
            let iv = input.as_slice();
            let mut retained = Vec::with_capacity(nimg);
            for s in 0..nimg {
                let img =
                    Tensor::from_vec(vec![1, ch, hw, hw], iv[s * per..(s + 1) * per].to_vec());
                let mut ws = ConvWorkspace::new();
                std::hint::black_box(conv2d_forward_ws(&img, &weight, &bias, &spec, &mut ws));
                retained.push(ws);
            }
            std::hint::black_box(&retained);
        });
        // New strategy: one blocked batch over a reused workspace.
        let mut ws = ConvWorkspace::new();
        let r_batch = rep.time(&format!("conv2d_{label}_batched"), samples, || {
            std::hint::black_box(conv2d_forward_ws(&input, &weight, &bias, &spec, &mut ws));
        });
        let speedup = r_per.median_ns / r_batch.median_ns;
        conv_table.row(vec![
            label.to_string(),
            report::num(r_per.median_ns / 1e6, 3),
            report::num(r_batch.median_ns / 1e6, 3),
            format!("{speedup:.2}x"),
        ]);
        if ch == 16 {
            rep.speedup("conv2d_batched_vs_per_image", speedup);
        }
    }
    conv_table.print();

    report::heading("conv2d forward/backward at the distill-lenet LeNet-5 shapes");
    let mut lenet_table = Table::new(&["layer", "batch", "forward ms", "backward ms"]);
    for (label, nimg, ch, hw, f) in fixtures::LENET_CONV_CASES {
        let (input, weight, bias, spec) = fixtures::conv_case(nimg, ch, hw, f, seed);
        let mut ws = ConvWorkspace::new();
        let mut out = Tensor::zeros(vec![0]);
        let r_fwd = rep.time(&format!("conv2d_{label}_forward"), samples, || {
            conv2d_forward_into(&input, &weight, &bias, &spec, &mut ws, &mut out);
            std::hint::black_box(&out);
        });
        let grad_out = Tensor::filled(out.shape().to_vec(), 0.01);
        // The first layer skips ∂input, as the network does.
        let want_grad_in = ch > 1;
        let (mut gi, mut gw, mut gb) = (
            Tensor::zeros(vec![0]),
            Tensor::zeros(vec![0]),
            Tensor::zeros(vec![0]),
        );
        let r_bwd = rep.time(&format!("conv2d_{label}_backward"), samples, || {
            conv2d_backward_into(
                &grad_out,
                &input,
                &weight,
                &spec,
                &mut ws,
                want_grad_in.then_some(&mut gi),
                &mut gw,
                &mut gb,
            );
            std::hint::black_box((&gi, &gw, &gb));
        });
        lenet_table.row(vec![
            label.to_string(),
            nimg.to_string(),
            report::num(r_fwd.median_ns / 1e6, 3),
            report::num(r_bwd.median_ns / 1e6, 3),
        ]);
    }
    lenet_table.print();

    report::heading("weighted_mean (25 clients × 500k params)");
    let ups = fixtures::client_updates(fixtures::AGG_CLIENTS, fixtures::AGG_PARAMS, seed);
    let wts: Vec<f64> = ups.iter().map(|u| u.num_samples as f64).collect();
    let r_serial = rep.time("weighted_mean_serial", samples, || {
        std::hint::black_box(pool::install(Some(1), || weighted_mean(&ups, &wts)));
    });
    let r_par = rep.time("weighted_mean_parallel", samples, || {
        std::hint::black_box(weighted_mean(&ups, &wts));
    });
    println!(
        "serial {:.3} ms  parallel {:.3} ms  ({} threads available)",
        r_serial.median_ns / 1e6,
        r_par.median_ns / 1e6,
        pool::effective_threads(None)
    );

    rep.write("BENCH_kernels.json");
}
