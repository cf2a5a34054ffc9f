//! The blocked, parallel matrix-multiply engine.
//!
//! This module owns the flops of the whole stack: dense layers, the
//! im2col-lowered convolutions and every backward pass funnel into the
//! three GEMM orientations here (`A·B`, `Aᵀ·B`, `A·Bᵀ`), operating on raw
//! row-major `f32` slices so callers (e.g. batched conv) can avoid
//! intermediate `Tensor` allocations.
//!
//! # Dispatch
//!
//! Each entry point picks an implementation by problem size (`m·k·n`
//! multiply-accumulates) and output width:
//!
//! * **small** (< [`SMALL_FLOPS`]): a straightforward loop in the same
//!   per-element accumulation order as [`crate::ops::reference`], so small
//!   results are *bitwise identical* to the reference oracle (several unit
//!   tests across the workspace rely on exact equality at toy sizes);
//! * **narrow** (`n <` [`NR`]): `B` (for `A·Bᵀ`: `B` transposed, in the
//!   same pass) is copied into one zero-padded `[k, NR]` panel and run
//!   through the register tile; the padding lanes are dead;
//! * **tiled**: a register-tiled kernel computing [`MR`]`×`[`NR`] output
//!   tiles whose accumulators stay in vector registers across the entire
//!   reduction — one store per output element, each `B` load reused
//!   across [`MR`] rows, fixed-width inner loops that LLVM fully
//!   vectorizes. Each [`NR`]-column strip reads `B` from a contiguous
//!   panel: packed once per strip for deep reductions (`k ≥` [`KPACK`]),
//!   read in place for short ones and when `n ==` [`NR`] (`B` already is
//!   the panel). The `n %` [`NR`] **tail** columns are packed into a
//!   zero-padded panel and run through the same register tile (the edge
//!   tile). At or above [`PAR_FLOPS`], output rows are split into
//!   contiguous ranges processed in parallel on the current rayon pool.
//!
//! # Floating point
//!
//! Every path accumulates each output element from zero in ascending-`p`
//! order — the reference association — one term at a time. What differs
//! is the rounding of a step:
//!
//! * **unfused** (`o += x·v`: the product and the sum each round): the
//!   small path and the edge tile's tail columns;
//! * **fused** (hardware FMA where available, one rounding per step):
//!   full strips of the tiled path and the narrow path.
//!
//! Fused results can differ from the reference by normal `k · ε`
//! accumulation rounding (the equivalence proptests pin it under `1e-4`
//! for workspace-scale values); unfused ones match it bitwise
//! (`tests/engine_equivalence.rs` pins the tail columns). Which path an
//! element takes depends only on the problem shape, never on the thread
//! count: row ranges are disjoint and each output element is accumulated
//! in a fixed order.

use std::cell::Cell;
use std::ops::Range;

/// Below this many multiply-accumulates the reference-order loop wins
/// (tile bookkeeping costs more than it saves) and bitwise compatibility
/// with the oracle is preserved.
pub const SMALL_FLOPS: usize = 16 * 1024;

/// At or above this many multiply-accumulates the row range is split
/// across the rayon pool (when it has more than one thread).
pub const PAR_FLOPS: usize = 1 << 21;

/// Minimum reduction depth for B-panel packing to amortize; shallower
/// reductions read B in place.
pub const KPACK: usize = 64;

/// Register-tile height (output rows per tile) of the `A·B` / `Aᵀ·B`
/// kernels. Sized with [`NR`] so an `MR×NR` accumulator block fits the
/// vector register file of the compiled-for ISA (see `.cargo/config.toml`,
/// which enables the build machine's full ISA): oversized tiles spill to
/// the stack every iteration and run far slower than the naive loop.
#[cfg(target_feature = "avx512f")]
pub const MR: usize = 6;
/// Register-tile height (output rows per tile); 256-bit-vector variant.
#[cfg(all(target_feature = "avx", not(target_feature = "avx512f")))]
pub const MR: usize = 6;
/// Register-tile height (output rows per tile); 128-bit-vector variant.
#[cfg(not(target_feature = "avx"))]
pub const MR: usize = 2;

/// Register-tile width (output columns per tile): accumulators for an
/// `MR×NR` tile stay in vector registers across the whole reduction.
#[cfg(target_feature = "avx512f")]
pub const NR: usize = 32;
/// Register-tile width (output columns per tile); 256-bit-vector variant.
#[cfg(all(target_feature = "avx", not(target_feature = "avx512f")))]
pub const NR: usize = 16;
/// Register-tile width (output columns per tile); 128-bit-vector variant.
#[cfg(not(target_feature = "avx"))]
pub const NR: usize = 8;

/// `*acc += x * v`, fused into a single FMA when the target has hardware
/// FMA (one rounding step, double the port throughput of mul+add — rustc
/// never fuses plain `a += b * c` itself because that would change
/// rounding). Without hardware FMA, `mul_add` would lower to a libm call,
/// so fall back to the plain expression.
#[inline(always)]
fn fma_acc(acc: &mut f32, x: f32, v: f32) {
    #[cfg(target_feature = "fma")]
    {
        *acc = x.mul_add(v, *acc);
    }
    #[cfg(not(target_feature = "fma"))]
    {
        *acc += x * v;
    }
}

fn flops(m: usize, k: usize, n: usize) -> usize {
    m.saturating_mul(k).saturating_mul(n)
}

thread_local! {
    /// Per-thread scratch for a packed, zero-padded `NR`-wide `B` panel
    /// (full strips with deep reductions, tail strips, narrow outputs).
    static PANEL_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread scratch for the transposed `A` block of `Aᵀ·B`.
    static AT_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    /// Per-thread scratch for the materialised `Bᵀ` of a wide `A·Bᵀ`.
    static BT_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Runs `f` on a per-thread scratch vector resized to `len`.
///
/// The vector is *taken* out of the thread-local cell for the duration of
/// `f` (so an unexpected reentrant use would fall back to a fresh
/// allocation instead of panicking) and put back afterwards, buffer
/// capacity intact. This is what makes the training hot path
/// allocation-free after warm-up: GEMM pack scratch is reused across
/// every step on each thread instead of being reallocated per call.
/// Newly exposed elements are zeroed; every pack site overwrites its
/// scratch completely before reading it.
fn with_scratch<R>(
    cell: &'static std::thread::LocalKey<Cell<Vec<f32>>>,
    len: usize,
    f: impl FnOnce(&mut [f32]) -> R,
) -> R {
    let mut v = cell.with(Cell::take);
    v.resize(len, 0.0);
    let out = f(&mut v[..len]);
    cell.with(|c| c.set(v));
    out
}

/// Splits `out` into per-task row ranges and runs `kernel` over them on
/// the current pool. `kernel(rows, chunk)` must fill `chunk` (the output
/// rows `rows`) completely.
fn parallel_rows<F>(m: usize, n: usize, out: &mut [f32], kernel: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    let threads = rayon::current_num_threads();
    // Aim for a few tasks per thread so uneven row costs balance out.
    let rows_per = m.div_ceil(threads * 2).max(1);
    let kernel = &kernel;
    rayon::scope(|s| {
        for (ci, chunk) in out.chunks_mut(rows_per * n).enumerate() {
            let r0 = ci * rows_per;
            s.spawn(move |_| kernel(r0..r0 + chunk.len() / n, chunk));
        }
    });
}

// ---------------------------------------------------------------------------
// out = A · B
// ---------------------------------------------------------------------------

/// `out = A · B` with `A: [m, k]`, `B: [k, n]`, `out: [m, n]` (overwritten).
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm: A length");
    assert_eq!(b.len(), k * n, "gemm: B length");
    assert_eq!(out.len(), m * n, "gemm: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let work = flops(m, k, n);
    if work < SMALL_FLOPS {
        out.fill(0.0);
        gemm_rows_small(0..m, k, n, a, b, out);
    } else if n < NR {
        // Narrow outputs have no full register strip; run the tiled
        // kernel over a zero-padded panel instead.
        gemm_narrow(m, k, n, a, b, out);
    } else if work >= PAR_FLOPS && rayon::current_num_threads() > 1 {
        parallel_rows(m, n, out, |rows, chunk| {
            gemm_rows_tiled(rows, k, n, a, b, chunk);
        });
    } else {
        gemm_rows_tiled(0..m, k, n, a, b, out);
    }
}

/// Register-tiled kernel for **narrow outputs** (`n <` [`NR`]): packs
/// `B` into one zero-padded [`NR`]-column panel and runs the fused tile
/// over it, storing the `n` real columns.
///
/// Narrow outputs — classifier heads, thin dense layers, conv `∂W` with
/// small `c·kh·kw` — would otherwise fall back to the reference-order
/// loop, whose `n`-wide inner loop neither tiles nor vectorizes well.
/// The padding lanes are dead (zeros in, discarded out); each real
/// element accumulates in the tiled kernel's ascending-`p` FMA order, so
/// this is a large-path kernel like any other: deterministic at every
/// thread count, equivalent to the oracle within accumulation rounding.
fn gemm_narrow(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert!(n < NR && n > 0);
    with_scratch(&PANEL_SCRATCH, k * NR, |panel| {
        pack_panel(panel, b, n, 0, n);
        strip::<true>(0..m, k, n, a, panel, NR, out, 0, n);
    });
}

/// Reference-order accumulation (`i`/`p`/`j`) for output rows `rows`.
fn gemm_rows_small(rows: Range<usize>, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for (orow, i) in out.chunks_exact_mut(n).zip(rows) {
        let arow = &a[i * k..(i + 1) * k];
        for (p, &apk) in arow.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bpn) in orow.iter_mut().zip(brow.iter()) {
                *o += apk * bpn;
            }
        }
    }
}

/// Register-tiled kernel for output rows `rows` of `A·B` (`n ≥` [`NR`]).
///
/// The output is swept in [`NR`]-column strips. A full strip reads its
/// `B` columns from a contiguous `[k, NR]` panel: packed once per strip
/// ([`pack_panel`]) for deep reductions, read in place for short ones
/// (where the pack would cost as much as the tile compute, e.g. conv
/// lowerings with tiny `c·kh·kw`) and when `n == NR` (`B` already *is*
/// the panel). Full strips accumulate with FMA. The `n % NR` tail
/// columns are packed into a zero-padded panel and run through the same
/// register tile, accumulating unfused (`o += x·v`, one rounding for the
/// product and one for the sum): that keeps them bitwise equal to the
/// reference oracle, which `tail_columns_match_reference_bitwise` pins.
fn gemm_rows_tiled(rows: Range<usize>, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    let pack = k >= KPACK && n != NR;
    let full = n - n % NR;
    let scratch = if pack || full < n { k * NR } else { 0 };
    with_scratch(&PANEL_SCRATCH, scratch, |panel| {
        for j0 in (0..full).step_by(NR) {
            if pack {
                pack_panel(panel, b, n, j0, NR);
                strip::<true>(rows.clone(), k, n, a, panel, NR, out, j0, NR);
            } else {
                strip::<true>(rows.clone(), k, n, a, &b[j0..], n, out, j0, NR);
            }
        }
        if full < n {
            pack_panel(panel, b, n, full, n - full);
            strip::<false>(rows, k, n, a, panel, NR, out, full, n - full);
        }
    });
}

/// `dst.copy_from_slice(&src[..dst.len()])` for the short rows of panel
/// packs and conv lowerings: a runtime-length `copy_from_slice` lowers
/// to a `memcpy` call, whose fixed cost dwarfs a 16–100-byte copy, while
/// constant-size chunks lower to inline vector moves.
#[inline(always)]
pub(crate) fn copy_row(dst: &mut [f32], src: &[f32]) {
    let src = &src[..dst.len()];
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (d, s) in (&mut d).zip(&mut s) {
        d.copy_from_slice(s);
    }
    let (mut d, mut s) = (d.into_remainder(), s.remainder());
    if d.len() >= 4 {
        d[..4].copy_from_slice(&s[..4]);
        (d, s) = (&mut d[4..], &s[4..]);
    }
    if d.len() >= 2 {
        d[..2].copy_from_slice(&s[..2]);
        (d, s) = (&mut d[2..], &s[2..]);
    }
    if let (Some(d), Some(&v)) = (d.first_mut(), s.first()) {
        *d = v;
    }
}

/// Packs columns `j0..j0 + width` (`width ≤` [`NR`]) of the row-major
/// `[k, n]` matrix `b` into `k` contiguous [`NR`]-wide panel rows,
/// zero-padding lanes `width..NR`.
fn pack_panel(panel: &mut [f32], b: &[f32], n: usize, j0: usize, width: usize) {
    for (prow, brow) in panel.chunks_exact_mut(NR).zip(b.chunks_exact(n)) {
        let prow: &mut [f32; NR] = prow.try_into().expect("panel width");
        if width == NR {
            prow.copy_from_slice(&brow[j0..j0 + NR]);
        } else {
            *prow = [0.0; NR];
            copy_row(&mut prow[..width], &brow[j0..]);
        }
    }
}

/// Computes output columns `j0..j0 + width` of rows `rows` from the
/// panel `b`: its `k` rows start every `ldb` elements and each holds
/// [`NR`] readable lanes (lanes past `width` are dead: zeros in,
/// discarded out). Rows are taken [`MR`] at a time, then the rest as
/// one shorter tile.
#[allow(clippy::too_many_arguments)] // GEMM geometry + panel view; crate-internal
fn strip<const FUSED: bool>(
    rows: Range<usize>,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    ldb: usize,
    out: &mut [f32],
    j0: usize,
    width: usize,
) {
    let mut i = rows.start;
    let mut orows = out.chunks_exact_mut(MR * n);
    for ogroup in orows.by_ref() {
        tile::<MR, FUSED>(ogroup, &a[i * k..(i + MR) * k], k, n, b, ldb, j0, width);
        i += MR;
    }
    // The last `m % MR` rows as one shorter tile, so each B load still
    // feeds every remaining row.
    let rest = orows.into_remainder();
    let a_rest = &a[i * k..];
    const _: () = assert!(MR <= 6, "one match arm per leftover row count");
    match rest.len() / n {
        0 => {}
        1 => tile::<1, FUSED>(rest, a_rest, k, n, b, ldb, j0, width),
        2 => tile::<2, FUSED>(rest, a_rest, k, n, b, ldb, j0, width),
        3 => tile::<3, FUSED>(rest, a_rest, k, n, b, ldb, j0, width),
        4 => tile::<4, FUSED>(rest, a_rest, k, n, b, ldb, j0, width),
        5 => tile::<5, FUSED>(rest, a_rest, k, n, b, ldb, j0, width),
        _ => unreachable!("fewer than MR rows are left"),
    }
}

/// Computes the `R×NR` register tile at rows `ogroup` (`R` concatenated
/// output rows of width `n`) from the `R` concatenated A rows and
/// `panel`, storing lanes `..width` at column `j0`. Each accumulator
/// visits `p` in ascending order from zero — with FMA when `FUSED`, else
/// as `o += x·v`.
///
/// Note the A scalars are deliberately loaded one `arow[p]` at a time
/// from `R` separate row slices: funnelling them through a contiguous
/// `[f32; R]` (packed-A layouts) makes LLVM lower the tile to
/// insert/extract shuffles instead of broadcasts and runs ~15× slower.
/// The panel likewise comes in as a plain `(b, ldb)` pair: bundling it
/// into a struct was enough for LLVM to stop unrolling the row loop and
/// spill the accumulators (~10× slower).
#[allow(clippy::too_many_arguments)] // GEMM geometry + panel view; crate-internal
fn tile<const R: usize, const FUSED: bool>(
    ogroup: &mut [f32],
    a_rows: &[f32],
    k: usize,
    n: usize,
    b: &[f32],
    ldb: usize,
    j0: usize,
    width: usize,
) {
    let a: [&[f32]; R] = std::array::from_fn(|r| &a_rows[r * k..(r + 1) * k]);
    let mut acc = [[0.0f32; NR]; R];
    for (p, brow) in b.chunks(ldb).take(k).enumerate() {
        let bseg: &[f32; NR] = brow.first_chunk().expect("panel width");
        for (accr, arow) in acc.iter_mut().zip(a) {
            let x = arow[p];
            for (av, &bv) in accr.iter_mut().zip(bseg) {
                if FUSED {
                    fma_acc(av, x, bv);
                } else {
                    *av += x * bv;
                }
            }
        }
    }
    for (orow, accr) in ogroup.chunks_exact_mut(n).zip(acc) {
        if width == NR {
            // Fixed-width store: full strips stay vector moves.
            orow[j0..j0 + NR].copy_from_slice(&accr);
        } else {
            orow[j0..j0 + width].copy_from_slice(&accr[..width]);
        }
    }
}

// ---------------------------------------------------------------------------
// out = Aᵀ · B
// ---------------------------------------------------------------------------

/// `out = Aᵀ · B` with `A: [k, m]`, `B: [k, n]`, `out: [m, n]`
/// (overwritten), without materialising the transpose.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_at_b(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "gemm_at_b: A length");
    assert_eq!(b.len(), k * n, "gemm_at_b: B length");
    assert_eq!(out.len(), m * n, "gemm_at_b: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let work = flops(m, k, n);
    if work < SMALL_FLOPS {
        out.fill(0.0);
        at_b_rows_small(0..m, k, m, n, a, b, out);
    } else if n < NR {
        // Narrow outputs: transpose A into row-major scratch once, then
        // run the padded-panel narrow kernel.
        with_scratch(&AT_SCRATCH, m * k, |packed| {
            for (c, prow) in packed.chunks_exact_mut(k).enumerate() {
                for (p, dst) in prow.iter_mut().enumerate() {
                    *dst = a[p * m + c];
                }
            }
            gemm_narrow(m, k, n, packed, b, out);
        });
    } else if work >= PAR_FLOPS && rayon::current_num_threads() > 1 {
        parallel_rows(m, n, out, |rows, chunk| {
            at_b_rows_tiled(rows, k, m, n, a, b, chunk);
        });
    } else {
        at_b_rows_tiled(0..m, k, m, n, a, b, out);
    }
}

/// Reference-order accumulation for `Aᵀ·B` restricted to output rows
/// `rows`. For one output row the reference (`p` outer) and this (`i`
/// outer, `p` inner) visit `p` in the same ascending order per element, so
/// results are bitwise identical to the oracle.
fn at_b_rows_small(
    rows: Range<usize>,
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    for (orow, i) in out.chunks_exact_mut(n).zip(rows) {
        for p in 0..k {
            let api = a[p * m + i];
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bpn) in orow.iter_mut().zip(brow.iter()) {
                *o += api * bpn;
            }
        }
    }
}

/// Register-tiled `Aᵀ·B` for output rows `rows`.
///
/// Each group of [`MR`] output rows corresponds to [`MR`] *columns* of
/// `A`; those are packed (transposed) into a contiguous row-major scratch
/// block first, after which the shared [`gemm_rows_tiled`] kernel runs
/// unchanged. The pack touches `A` once per group (`m·k` elements total —
/// noise next to the `m·k·n` reduction) and keeps the hot loop free of
/// strided loads, which LLVM otherwise lowers catastrophically at wider
/// tile shapes.
fn at_b_rows_tiled(
    rows: Range<usize>,
    k: usize,
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
) {
    // Transpose this row range's column block of A into row-major form,
    // then run the shared row-major kernel. m·k moves, noise next to the
    // m·k·n reduction.
    with_scratch(&AT_SCRATCH, rows.len() * k, |packed| {
        for (c, prow) in packed.chunks_exact_mut(k).enumerate() {
            for (p, dst) in prow.iter_mut().enumerate() {
                *dst = a[p * m + rows.start + c];
            }
        }
        // The packed block holds exactly these rows, so index it from 0.
        gemm_rows_tiled(0..rows.len(), k, n, packed, b, out);
    });
}

// ---------------------------------------------------------------------------
// out = A · Bᵀ
// ---------------------------------------------------------------------------

/// `out = A · Bᵀ` with `A: [m, k]`, `B: [n, k]`, `out: [m, n]`
/// (overwritten), without materialising the transpose on the small path.
///
/// The large path transposes `B` once (`n·k` moves, noise next to the
/// `m·k·n` reduction) — for narrow outputs straight into the zero-padded
/// panel of the narrow kernel, otherwise into a materialised `Bᵀ` — and
/// reuses the tiled kernel, which beats any dot-product formulation by a wide margin: row
/// dot products carry a serial FMA dependency chain, while the tiled
/// kernel keeps [`MR`]`·`[`NR`] independent accumulators in flight.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_a_bt: A length");
    assert_eq!(b.len(), n * k, "gemm_a_bt: B length");
    assert_eq!(out.len(), m * n, "gemm_a_bt: out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let work = flops(m, k, n);
    if work < SMALL_FLOPS {
        a_bt_rows_small(0..m, k, n, a, b, out);
        return;
    }
    if n < NR {
        // Narrow outputs (e.g. classifier heads): transpose B once,
        // straight into the zero-padded panel of the narrow kernel.
        with_scratch(&PANEL_SCRATCH, k * NR, |panel| {
            for (p, prow) in panel.chunks_exact_mut(NR).enumerate() {
                for (j, dst) in prow[..n].iter_mut().enumerate() {
                    *dst = b[j * k + p];
                }
                prow[n..].fill(0.0);
            }
            strip::<true>(0..m, k, n, a, panel, NR, out, 0, n);
        });
        return;
    }
    with_scratch(&BT_SCRATCH, k * n, |bt| {
        for (j, brow) in b.chunks_exact(k).enumerate() {
            for (p, &v) in brow.iter().enumerate() {
                bt[p * n + j] = v;
            }
        }
        if work >= PAR_FLOPS && rayon::current_num_threads() > 1 {
            let bt = &*bt;
            parallel_rows(m, n, out, |rows, chunk| {
                gemm_rows_tiled(rows, k, n, a, bt, chunk);
            });
        } else {
            gemm_rows_tiled(0..m, k, n, a, bt, out);
        }
    });
}

/// Reference-order dot products for output rows `rows`.
fn a_bt_rows_small(rows: Range<usize>, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    for (orow, i) in out.chunks_exact_mut(n).zip(rows) {
        let arow = &a[i * k..(i + 1) * k];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow.iter()) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| ((i % 17) as f32 - 8.0) * scale).collect()
    }

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out
    }

    fn assert_close(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-3, "{g} vs {w}");
        }
    }

    #[test]
    fn gemm_matches_naive_across_sizes() {
        for &(m, k, n) in &[(1, 1, 1), (2, 3, 4), (5, 7, 3), (17, 33, 9), (64, 64, 64)] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let mut out = vec![f32::NAN; m * n];
            gemm(m, k, n, &a, &b, &mut out);
            assert_close(&out, &naive(m, k, n, &a, &b));
        }
    }

    #[test]
    fn at_b_matches_transposed_naive() {
        for &(k, m, n) in &[(3, 2, 4), (16, 5, 9), (48, 33, 20)] {
            let a = seq(k * m, 0.25);
            let b = seq(k * n, 0.5);
            // A^T as an explicit matrix, then plain gemm.
            let mut at = vec![0.0f32; m * k];
            for p in 0..k {
                for i in 0..m {
                    at[i * k + p] = a[p * m + i];
                }
            }
            let mut out = vec![f32::NAN; m * n];
            gemm_at_b(k, m, n, &a, &b, &mut out);
            assert_close(&out, &naive(m, k, n, &at, &b));
        }
    }

    #[test]
    fn a_bt_matches_transposed_naive() {
        for &(m, k, n) in &[(2, 3, 4), (7, 16, 5), (21, 40, 33)] {
            let a = seq(m * k, 0.25);
            let b = seq(n * k, 0.5);
            let mut bt = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    bt[p * n + j] = b[j * k + p];
                }
            }
            let mut out = vec![f32::NAN; m * n];
            gemm_a_bt(m, k, n, &a, &b, &mut out);
            assert_close(&out, &naive(m, k, n, &a, &bt));
        }
    }

    #[test]
    fn large_path_engages_and_agrees() {
        // 40×40×40 = 64000 flops: above SMALL_FLOPS, exercises the tiled
        // kernel including odd-row/odd-k remainders at 41.
        for &d in &[40usize, 41] {
            let a = seq(d * d, 0.1);
            let b = seq(d * d, 0.2);
            let mut out = vec![f32::NAN; d * d];
            gemm(d, d, d, &a, &b, &mut out);
            assert_close(&out, &naive(d, d, d, &a, &b));
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let d = 160; // above PAR_FLOPS
        let a = seq(d * d, 0.01);
        let b = seq(d * d, 0.02);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut out = vec![0.0f32; d * d];
                gemm(d, d, d, &a, &b, &mut out);
                let mut out2 = vec![0.0f32; d * d];
                gemm_at_b(d, d, d, &a, &b, &mut out2);
                let mut out3 = vec![0.0f32; d * d];
                gemm_a_bt(d, d, d, &a, &b, &mut out3);
                (out, out2, out3)
            })
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(7));
    }
}
