//! Register-blocked microkernel and the packed-panel GEMM driver.
//!
//! This is the crate's hot path: a BLIS-style three-level blocking scheme
//!
//! ```text
//! for jc in 0..n  step NC          // B column panel  (streams through L3)
//!   for pc in 0..k  step KC        // pack B[pc..pc+KC, jc..jc+NC]
//!     for ic in 0..m  step MC      // pack A[ic..ic+MC, pc..pc+KC]  (fits L2)
//!       for jr in 0..NC step NR    // micro-panel of packed B
//!         for ir in 0..MC step MR  // micro-panel of packed A
//!           C[MR×NR] += Apanel · Bpanel   // the microkernel, registers only
//! ```
//!
//! driving an `MR×NR` register tile over panels packed by [`crate::pack`].
//! The packed layouts make every `k`-step of the microkernel two contiguous
//! loads, which is what lets the compiler keep the `MR×NR` accumulator in
//! vector registers.
//!
//! ## Tuning knobs
//!
//! | knob | default | meaning |
//! |------|---------|---------|
//! | `MR` | 4  | microkernel rows (one accumulator column of SIMD lanes) |
//! | `NR` | 8  | microkernel columns (two 4-wide SIMD vectors)  |
//! | `MC` | 128 | rows of the packed A block — `MC·KC` doubles ≈ ¼ L2 |
//! | `KC` | 256 | shared inner dimension of both packed blocks |
//! | `NC` | 1024 | columns of the packed B block — `KC·NC` doubles ≈ L3 share |
//!
//! `MC` must be a multiple of `MR` and `NC` a multiple of `NR` (checked at
//! compile time below).  See `crates/dense/README.md` for how to re-run the
//! kernel benches after changing them.

use crate::matrix::{MatMut, MatRef};
use crate::pack::{
    a_block_len, b_block_len, op_dims, op_strides, pack_a, pack_b, with_gemm_scratch,
    with_packed_a, PackedA,
};
use crate::threads;
#[cfg(target_arch = "x86_64")]
use std::sync::OnceLock;

/// Microkernel tile rows.
pub const MR: usize = 4;
/// Microkernel tile columns.
pub const NR: usize = 8;
/// Row-blocking of the packed `A` block.
pub const MC: usize = 128;
/// Inner-dimension blocking shared by the packed `A` and `B` blocks.
pub const KC: usize = 256;
/// Column-blocking of the packed `B` block.
pub const NC: usize = 1024;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

/// Below this many multiply–adds the panel-packing overhead outweighs its
/// cache benefits and [`gemm_accumulate`] falls back to a simple loop.
const PACK_THRESHOLD: usize = 32 * 32 * 32;

/// `C += alpha · op(A) · op(B)` on borrowed views, where `a_trans` /
/// `b_trans` select `op(X) = Xᵀ` — implemented by walking the stored
/// operand with swapped strides during packing (see [`crate::pack`]), so a
/// transposed operand is never materialized, in scratch or anywhere else.
///
/// `threads` is the worker budget: with more than one worker (and a product
/// big enough to be packed, with enough column panels to split) the
/// multithreaded driver partitions `C` by columns across the pool; otherwise
/// the sequential kernel runs on the calling thread.  All paths produce
/// **bitwise-identical** results — to each other *and* to the same product
/// on materialized transposes: the packed buffers hold identical values
/// either way, and the per-element accumulation order (`pc` blocks
/// ascending, `k` ascending within each tile) depends on neither the column
/// partitioning nor the operand storage order.
///
/// Callers must pre-validate conceptual dimensions (`op(a): m×k`,
/// `op(b): k×n`, `c: m×n`).
pub(crate) fn gemm_views_accumulate_opt(
    alpha: f64,
    a: MatRef<'_>,
    a_trans: bool,
    b: MatRef<'_>,
    b_trans: bool,
    c: &mut MatMut<'_>,
    threads: usize,
) {
    let (m, kdim) = op_dims(a, a_trans);
    let n = op_dims(b, b_trans).1;
    debug_assert_eq!(kdim, op_dims(b, b_trans).0);
    debug_assert_eq!((m, n), c.dims());
    if m == 0 || n == 0 || kdim == 0 || alpha == 0.0 {
        return;
    }
    let madds = m.saturating_mul(n).saturating_mul(kdim);
    let parallel = threads > 1 && madds >= PACK_THRESHOLD;
    if parallel && n >= 2 * NR {
        gemm_parallel(alpha, a, a_trans, b, b_trans, c, threads);
    } else if parallel && m >= 2 * MR {
        // Tall-skinny product: too few column panels to split, so partition
        // the `ic` (row) dimension of `A`/`C` instead.
        gemm_parallel_rows(alpha, a, a_trans, b, b_trans, c, threads);
    } else {
        let (ai, ak) = op_strides(a, a_trans);
        let (bk, bj) = op_strides(b, b_trans);
        // SAFETY: the views describe in-bounds blocks of live allocations
        // with the dimensions checked above, and `c` is a mutable borrow so
        // it cannot alias `a` or `b`.
        unsafe {
            gemm_accumulate(
                m,
                n,
                kdim,
                alpha,
                a.as_ptr(),
                ai,
                ak,
                b.as_ptr(),
                bk,
                bj,
                c.as_mut_ptr(),
                c.stride(),
            );
        }
    }
}

/// The multithreaded packed driver: packs all of `op(A)` once (shared
/// read-only by every worker), splits `C` and `op(B)` into per-worker
/// column chunks on `NR`-panel boundaries via [`MatMut::split_cols_at_mut`],
/// and runs one worker per chunk on the [`threads`] pool.  Each worker
/// packs its own `B` panels into its thread-local scratch, so the only
/// shared state is the immutable packed `A`.
fn gemm_parallel(
    alpha: f64,
    a: MatRef<'_>,
    a_trans: bool,
    b: MatRef<'_>,
    b_trans: bool,
    c: &mut MatMut<'_>,
    threads: usize,
) {
    let kdim = op_dims(a, a_trans).1;
    let n = op_dims(b, b_trans).1;
    let _region = obs::span_with("dense", "gemm_parallel", "threads", threads as u64);
    with_packed_a(alpha, a, a_trans, |apack| {
        let chunks = panel_chunks(n, NR, threads);
        let mut jobs = Vec::with_capacity(chunks.len());
        let mut rest = c.reborrow();
        for (w, (j0, chunk_cols)) in chunks.into_iter().enumerate() {
            let (chunk, tail) = rest.split_cols_at_mut(chunk_cols);
            rest = tail;
            // Columns `j0 ..` of `op(B)` are rows `j0 ..` of a transposed
            // stored `b`.
            let b_chunk = if b_trans {
                b.subview(j0, 0, chunk_cols, kdim)
            } else {
                b.subview(0, j0, kdim, chunk_cols)
            };
            jobs.push(move || {
                let _worker = obs::span_with("dense", "gemm_worker", "worker", w as u64);
                gemm_chunk_shared_a(apack, b_chunk, b_trans, chunk)
            });
        }
        threads::join_all(jobs);
    });
}

/// Splits `len` items grouped into `panel`-sized units across at most
/// `workers` contiguous chunks, returning each chunk's `(start, len)`.  The
/// first `panels % workers` chunks take one extra panel; only the last chunk
/// may end on a ragged (partial) panel.  Shared by both parallel GEMM
/// drivers so the column and row partitionings cannot drift apart.
fn panel_chunks(len: usize, panel: usize, workers: usize) -> Vec<(usize, usize)> {
    let panels = len.div_ceil(panel);
    let workers = workers.min(panels);
    let base = panels / workers;
    let extra = panels % workers;
    let mut chunks = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let chunk_panels = base + usize::from(w < extra);
        let chunk_len = (chunk_panels * panel).min(len - start);
        chunks.push((start, chunk_len));
        start += chunk_len;
    }
    chunks
}

/// One worker's share of the multithreaded GEMM: the full `(jc, pc, ic)`
/// loop nest over a column chunk of `op(B)`/`C`, reading `A` blocks from the
/// shared pack and packing `B` panels into this worker's thread-local
/// scratch.  The loop order matches the sequential [`gemm_packed`], which is
/// what keeps the parallel result bitwise identical to the sequential one.
fn gemm_chunk_shared_a(apack: &PackedA<'_>, b: MatRef<'_>, b_trans: bool, mut c: MatMut<'_>) {
    let macro_kernel = select_macro_kernel();
    let (m, n) = c.dims();
    let kdim = op_dims(b, b_trans).0;
    let c_rs = c.stride();
    let c_ptr = c.as_mut_ptr();
    let (bk, bj) = op_strides(b, b_trans);
    let b_ptr = b.as_ptr();
    // Pack-vs-microkernel attribution: accumulated locally and emitted as
    // two counters at chunk end, so the hot loop records no events.  When
    // tracing is off the only residue is a branch on a local bool.
    let tracing = obs::enabled();
    let mut pack_ns = 0u64;
    let mut kernel_ns = 0u64;
    with_gemm_scratch(0, b_block_len(kdim, n), |_, bpack| {
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            let mut pc_idx = 0;
            while pc < kdim {
                let kc = KC.min(kdim - pc);
                // SAFETY: `b` and `c` are live in-bounds views with the
                // strides captured above; the conceptual `kc×nc` block of
                // `op(b)` at `(pc, jc)` is valid for reads at `(bk, bj)`,
                // the `mc×nc` blocks of `c` are valid for writes, and `c`
                // is exclusively owned by this worker (disjoint column
                // chunks via `split_cols_at_mut`).
                unsafe {
                    let t0 = if tracing { obs::now_ns() } else { 0 };
                    pack_b(b_ptr.add(pc * bk + jc * bj), bk, bj, kc, nc, bpack);
                    let t1 = if tracing { obs::now_ns() } else { 0 };
                    let mut ic = 0;
                    let mut ic_idx = 0;
                    while ic < m {
                        let mc = MC.min(m - ic);
                        macro_kernel(
                            mc,
                            nc,
                            kc,
                            apack.block(ic_idx, pc_idx),
                            bpack,
                            c_ptr.add(ic * c_rs + jc),
                            c_rs,
                        );
                        ic += MC;
                        ic_idx += 1;
                    }
                    if tracing {
                        let t2 = obs::now_ns();
                        pack_ns += t1.saturating_sub(t0);
                        kernel_ns += t2.saturating_sub(t1);
                    }
                }
                pc += KC;
                pc_idx += 1;
            }
            jc += NC;
        }
    });
    if tracing {
        obs::counter("dense", "pack_ns", "ns", pack_ns, "", 0);
        obs::counter("dense", "kernel_ns", "ns", kernel_ns, "", 0);
    }
}

/// The row-partitioned multithreaded driver for tall-skinny products
/// (`n < 2·NR`, so the column split of [`gemm_parallel`] has nothing to
/// divide): `C` and `A` are split into per-worker row chunks on `MR`-panel
/// boundaries via [`MatMut::split_rows_at_mut`], and each worker runs the
/// full sequential packed loop nest ([`gemm_packed`]) over its chunk,
/// packing its own `A` rows and (small) `B` panels into thread-local
/// scratch.  Per element of `C` the accumulation order — `pc` blocks
/// ascending, `k` ascending within each tile — does not depend on where the
/// row partition starts, so the result stays bitwise identical to the
/// sequential packed kernel.
fn gemm_parallel_rows(
    alpha: f64,
    a: MatRef<'_>,
    a_trans: bool,
    b: MatRef<'_>,
    b_trans: bool,
    c: &mut MatMut<'_>,
    threads: usize,
) {
    let (m, kdim) = op_dims(a, a_trans);
    let _region = obs::span_with("dense", "gemm_parallel_rows", "threads", threads as u64);
    let chunks = panel_chunks(m, MR, threads);
    let mut jobs = Vec::with_capacity(chunks.len());
    let mut rest = c.reborrow();
    for (w, (i0, chunk_rows)) in chunks.into_iter().enumerate() {
        let (chunk, tail) = rest.split_rows_at_mut(chunk_rows);
        rest = tail;
        // Rows `i0 ..` of `op(A)` are columns `i0 ..` of a transposed
        // stored `a`.
        let a_chunk = if a_trans {
            a.subview(0, i0, kdim, chunk_rows)
        } else {
            a.subview(i0, 0, chunk_rows, kdim)
        };
        jobs.push(move || {
            let _worker = obs::span_with("dense", "gemm_worker", "worker", w as u64);
            gemm_chunk_rows(alpha, a_chunk, a_trans, b, b_trans, chunk)
        });
    }
    threads::join_all(jobs);
}

/// One worker's share of the row-partitioned GEMM: the sequential packed
/// driver over this worker's row chunk.  Always the packed path (never
/// [`gemm_small`]) so a chunk falling under the pack threshold cannot
/// diverge bitwise from the sequential whole-matrix run, which took the
/// packed path to begin with.
fn gemm_chunk_rows(
    alpha: f64,
    a: MatRef<'_>,
    a_trans: bool,
    b: MatRef<'_>,
    b_trans: bool,
    mut c: MatMut<'_>,
) {
    let (m, kdim) = op_dims(a, a_trans);
    let n = op_dims(b, b_trans).1;
    let (ai, ak) = op_strides(a, a_trans);
    let (bk, bj) = op_strides(b, b_trans);
    // SAFETY: the views describe live in-bounds blocks with the strides they
    // report; `c` is this worker's exclusively-owned row chunk (disjoint via
    // `split_rows_at_mut`), so the written region cannot overlap the blocks
    // read through `a` and `b`.
    unsafe {
        gemm_packed(
            m,
            n,
            kdim,
            alpha,
            a.as_ptr(),
            ai,
            ak,
            b.as_ptr(),
            bk,
            bj,
            c.as_mut_ptr(),
            c.stride(),
        );
    }
}

/// `C[m×n] += alpha · A[m×k] · B[k×n]` on raw strided storage, choosing the
/// packed path for large products and a register-blocked loop for small
/// ones.  Elements are addressed as `A[i, k] = a + i·ai + k·ak` and
/// `B[k, j] = b + k·bk + j·bj`, so `(stride, 1)` reads an operand as
/// stored and `(1, stride)` reads its transpose in place.
///
/// # Safety
/// * `a` must be valid for reads of an `m×kdim` block at strides `(ai, ak)`;
/// * `b` must be valid for reads of a `kdim×n` block at strides `(bk, bj)`;
/// * `c` must be valid for reads and writes of an `m×n` block at row stride
///   `c_rs`;
/// * the `m×n` region written through `c` must not overlap the regions read
///   through `a` or `b` (the blocks may belong to the same allocation, e.g.
///   disjoint column ranges of one matrix).
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
pub(crate) unsafe fn gemm_accumulate(
    m: usize,
    n: usize,
    kdim: usize,
    alpha: f64,
    a: *const f64,
    ai: usize,
    ak: usize,
    b: *const f64,
    bk: usize,
    bj: usize,
    c: *mut f64,
    c_rs: usize,
) {
    if m == 0 || n == 0 || kdim == 0 || alpha == 0.0 {
        return;
    }
    if m * n * kdim < PACK_THRESHOLD {
        gemm_small(m, n, kdim, alpha, a, ai, ak, b, bk, bj, c, c_rs);
    } else {
        gemm_packed(m, n, kdim, alpha, a, ai, ak, b, bk, bj, c, c_rs);
    }
}

/// The packed-panel driver (see the module docs for the loop structure).
///
/// # Safety
/// Same contract as [`gemm_accumulate`].
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
unsafe fn gemm_packed(
    m: usize,
    n: usize,
    kdim: usize,
    alpha: f64,
    a: *const f64,
    ai: usize,
    ak: usize,
    b: *const f64,
    bk: usize,
    bj: usize,
    c: *mut f64,
    c_rs: usize,
) {
    let macro_kernel = select_macro_kernel();
    // Same pack-vs-microkernel attribution as `gemm_chunk_shared_a`: local
    // accumulators, two counter events at the end, nothing in the hot loop.
    let tracing = obs::enabled();
    let mut pack_ns = 0u64;
    let mut kernel_ns = 0u64;
    let (a_len, b_len) = (a_block_len(m, kdim), b_block_len(kdim, n));
    with_gemm_scratch(a_len, b_len, |apack, bpack| {
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < kdim {
                let kc = KC.min(kdim - pc);
                let t0 = if tracing { obs::now_ns() } else { 0 };
                pack_b(b.add(pc * bk + jc * bj), bk, bj, kc, nc, bpack);
                if tracing {
                    pack_ns += obs::now_ns().saturating_sub(t0);
                }
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    let t1 = if tracing { obs::now_ns() } else { 0 };
                    pack_a(alpha, a.add(ic * ai + pc * ak), ai, ak, mc, kc, apack);
                    let t2 = if tracing { obs::now_ns() } else { 0 };
                    macro_kernel(mc, nc, kc, apack, bpack, c.add(ic * c_rs + jc), c_rs);
                    if tracing {
                        let t3 = obs::now_ns();
                        pack_ns += t2.saturating_sub(t1);
                        kernel_ns += t3.saturating_sub(t2);
                    }
                    ic += MC;
                }
                pc += KC;
            }
            jc += NC;
        }
    });
    if tracing {
        obs::counter("dense", "pack_ns", "ns", pack_ns, "", 0);
        obs::counter("dense", "kernel_ns", "ns", kernel_ns, "", 0);
    }
}

/// Signature shared by the macro-kernel instantiations.
type MacroKernelFn = unsafe fn(usize, usize, usize, &[f64], &[f64], *mut f64, usize);

/// Picks the best macro-kernel for this CPU, once per process.
///
/// On x86-64 with AVX2+FMA the kernel is compiled with those features
/// enabled (and uses `mul_add`, which lowers to `vfmadd`); everywhere else
/// the portable mul-then-add version is used.  Setting the
/// `DENSE_FORCE_SCALAR` environment variable (to anything but `0` or the
/// empty string) forces the portable kernel even when AVX2+FMA are
/// available — CI uses this to keep the scalar dispatch branch exercised on
/// AVX2 runners.
fn select_macro_kernel() -> MacroKernelFn {
    #[cfg(target_arch = "x86_64")]
    {
        static KERNEL: OnceLock<MacroKernelFn> = OnceLock::new();
        *KERNEL.get_or_init(|| {
            let forced_scalar = std::env::var("DENSE_FORCE_SCALAR")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            if !forced_scalar && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            {
                macro_kernel_avx2
            } else {
                macro_kernel_portable
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        macro_kernel_portable
    }
}

/// AVX2+FMA instantiation of the macro kernel.
///
/// # Safety
/// Same contract as [`macro_kernel_impl`]; additionally the CPU must support
/// AVX2 and FMA (guaranteed by [`select_macro_kernel`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn macro_kernel_avx2(
    mc: usize,
    nc: usize,
    kc: usize,
    apack: &[f64],
    bpack: &[f64],
    c: *mut f64,
    c_rs: usize,
) {
    macro_kernel_impl::<true>(mc, nc, kc, apack, bpack, c, c_rs);
}

/// Portable instantiation of the macro kernel.
///
/// # Safety
/// Same contract as [`macro_kernel_impl`].
unsafe fn macro_kernel_portable(
    mc: usize,
    nc: usize,
    kc: usize,
    apack: &[f64],
    bpack: &[f64],
    c: *mut f64,
    c_rs: usize,
) {
    macro_kernel_impl::<false>(mc, nc, kc, apack, bpack, c, c_rs);
}

/// Drives the microkernel over every `MR×NR` tile of one packed block pair.
///
/// `FMA` selects `mul_add` in the inner loop; it must only be `true` inside
/// a `target_feature(enable = "fma")` context, where it lowers to hardware
/// FMA instead of a libm call.
///
/// # Safety
/// `c` must be valid for reads/writes of the `mc×nc` block at row stride
/// `c_rs`; the packed slices must hold `⌈mc/MR⌉` / `⌈nc/NR⌉` panels of depth
/// `kc`.
#[inline(always)]
unsafe fn macro_kernel_impl<const FMA: bool>(
    mc: usize,
    nc: usize,
    kc: usize,
    apack: &[f64],
    bpack: &[f64],
    c: *mut f64,
    c_rs: usize,
) {
    let mut jr = 0;
    while jr < nc {
        let nr = NR.min(nc - jr);
        let bpanel = &bpack[(jr / NR) * kc * NR..][..kc * NR];
        let mut ir = 0;
        while ir < mc {
            let mr = MR.min(mc - ir);
            let apanel = &apack[(ir / MR) * kc * MR..][..kc * MR];
            let ctile = c.add(ir * c_rs + jr);
            let acc = accumulate_tile::<FMA>(kc, apanel, bpanel);
            if mr == MR && nr == NR {
                for (i, row) in acc.iter().enumerate() {
                    let crow = ctile.add(i * c_rs);
                    for (j, v) in row.iter().enumerate() {
                        *crow.add(j) += v;
                    }
                }
            } else {
                // Edge tile: the panels are zero-padded, so the full product
                // is computed and the write-back masked to the valid region.
                for (i, row) in acc.iter().enumerate().take(mr) {
                    let crow = ctile.add(i * c_rs);
                    for (j, v) in row.iter().enumerate().take(nr) {
                        *crow.add(j) += v;
                    }
                }
            }
            ir += MR;
        }
        jr += NR;
    }
}

/// The `MR×NR` register tile: `Apanel · Bpanel` over `kc` steps.  Each step
/// is one contiguous `MR`-load of packed `A` and one contiguous `NR`-load of
/// packed `B`, so the accumulator stays in vector registers.
#[inline(always)]
fn accumulate_tile<const FMA: bool>(kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    for k in 0..kc {
        let a = &apanel[k * MR..k * MR + MR];
        let b = &bpanel[k * NR..k * NR + NR];
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                if FMA {
                    acc[i][j] = ai.mul_add(b[j], acc[i][j]);
                } else {
                    acc[i][j] += ai * b[j];
                }
            }
        }
    }
    acc
}

/// Register-blocked i-k-j loop for products too small to be worth packing.
///
/// # Safety
/// Same contract as [`gemm_accumulate`].
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
unsafe fn gemm_small(
    m: usize,
    n: usize,
    kdim: usize,
    alpha: f64,
    a: *const f64,
    ai: usize,
    ak: usize,
    b: *const f64,
    bk: usize,
    bj: usize,
    c: *mut f64,
    c_rs: usize,
) {
    for i in 0..m {
        let arow = a.add(i * ai);
        let crow = c.add(i * c_rs);
        for k in 0..kdim {
            let aik = alpha * *arow.add(k * ak);
            if aik == 0.0 {
                continue;
            }
            let brow = b.add(k * bk);
            for j in 0..n {
                *crow.add(j) += aik * *brow.add(j * bj);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// The plain (no-transpose) accumulate the pre-`_opt` tests were
    /// written against.
    fn gemm_views_accumulate(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: &mut MatMut<'_>,
        threads: usize,
    ) {
        gemm_views_accumulate_opt(alpha, a, false, b, false, c, threads);
    }

    fn accumulate(
        m: usize,
        n: usize,
        kdim: usize,
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        c: &mut Matrix,
    ) {
        unsafe {
            gemm_accumulate(
                m,
                n,
                kdim,
                alpha,
                a.as_slice().as_ptr(),
                a.cols(),
                1,
                b.as_slice().as_ptr(),
                b.cols(),
                1,
                c.as_mut_slice().as_mut_ptr(),
                n,
            );
        }
    }

    #[test]
    fn packed_matches_small_on_every_edge_shape() {
        // Shapes straddling the MR/NR/MC/KC edges, including ragged tiles.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (4, 8, 8), (5, 9, 17), (33, 40, 35)] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 - 11.0);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 41) % 19) as f64 - 9.0);
            let mut c_small = Matrix::zeros(m, n);
            let mut c_packed = Matrix::zeros(m, n);
            unsafe {
                gemm_small(
                    m,
                    n,
                    k,
                    1.5,
                    a.as_slice().as_ptr(),
                    k,
                    1,
                    b.as_slice().as_ptr(),
                    n,
                    1,
                    c_small.as_mut_slice().as_mut_ptr(),
                    n,
                );
                gemm_packed(
                    m,
                    n,
                    k,
                    1.5,
                    a.as_slice().as_ptr(),
                    k,
                    1,
                    b.as_slice().as_ptr(),
                    n,
                    1,
                    c_packed.as_mut_slice().as_mut_ptr(),
                    n,
                );
            }
            assert!(
                c_small.max_abs_diff(&c_packed).unwrap() < 1e-10,
                "mismatch at shape ({m},{k},{n})"
            );
        }
    }

    #[test]
    fn accumulates_into_existing_c() {
        let a = Matrix::filled(2, 3, 1.0);
        let b = Matrix::filled(3, 2, 1.0);
        let mut c = Matrix::filled(2, 2, 10.0);
        accumulate(2, 2, 3, 2.0, &a, &b, &mut c);
        assert_eq!(c, Matrix::filled(2, 2, 16.0));
    }

    #[test]
    fn zero_alpha_is_a_noop() {
        let a = Matrix::filled(2, 2, f64::NAN);
        let b = Matrix::filled(2, 2, f64::NAN);
        let mut c = Matrix::filled(2, 2, 3.0);
        accumulate(2, 2, 2, 0.0, &a, &b, &mut c);
        assert_eq!(c, Matrix::filled(2, 2, 3.0));
    }

    #[test]
    fn parallel_gemm_is_bitwise_identical_to_sequential() {
        // Shapes with ragged NR/MR/KC edges; every worker count must agree
        // with the sequential packed path bit for bit.
        for &(m, k, n) in &[
            (64, 64, 64),
            (97, 130, 121),
            (130, 257, 260),
            (35, 40, 1029),
        ] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 41) % 19) as f64 / 19.0 - 0.5);
            let mut c_seq = Matrix::zeros(m, n);
            gemm_views_accumulate(1.5, a.as_view(), b.as_view(), &mut c_seq.as_view_mut(), 1);
            for threads in [2usize, 3, 4, 7] {
                let mut c_par = Matrix::zeros(m, n);
                gemm_views_accumulate(
                    1.5,
                    a.as_view(),
                    b.as_view(),
                    &mut c_par.as_view_mut(),
                    threads,
                );
                assert!(
                    c_seq == c_par,
                    "parallel GEMM diverged at shape ({m},{k},{n}) with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn transposed_operands_are_bitwise_equal_to_materialized_transposes() {
        // Pack-transposed micro-panels hold the same values a materialized
        // transpose would have produced, and the accumulation order is
        // unchanged — so op(A)/op(B) products must be *bitwise* equal to
        // the plain product on explicitly transposed operands, across the
        // small, packed, column-parallel and row-parallel paths.
        for &(m, k, n) in &[
            (5, 9, 17),     // gemm_small
            (97, 130, 121), // packed + column-parallel
            (512, 257, 4),  // row-parallel (n < 2·NR)
            (35, 40, 1029), // many column panels
        ] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 41) % 19) as f64 / 19.0 - 0.5);
            let at = a.transpose(); // stored k×m
            let bt = b.transpose(); // stored n×k
            for threads in [1usize, 3, 4] {
                let mut c_ref = Matrix::zeros(m, n);
                gemm_views_accumulate_opt(
                    1.5,
                    a.as_view(),
                    false,
                    b.as_view(),
                    false,
                    &mut c_ref.as_view_mut(),
                    threads,
                );
                let mut c_at = Matrix::zeros(m, n);
                gemm_views_accumulate_opt(
                    1.5,
                    at.as_view(),
                    true,
                    b.as_view(),
                    false,
                    &mut c_at.as_view_mut(),
                    threads,
                );
                assert!(
                    c_ref == c_at,
                    "Aᵀ path diverged at ({m},{k},{n}) with {threads} threads"
                );
                let mut c_bt = Matrix::zeros(m, n);
                gemm_views_accumulate_opt(
                    1.5,
                    a.as_view(),
                    false,
                    bt.as_view(),
                    true,
                    &mut c_bt.as_view_mut(),
                    threads,
                );
                assert!(
                    c_ref == c_bt,
                    "Bᵀ path diverged at ({m},{k},{n}) with {threads} threads"
                );
                let mut c_both = Matrix::zeros(m, n);
                gemm_views_accumulate_opt(
                    1.5,
                    at.as_view(),
                    true,
                    bt.as_view(),
                    true,
                    &mut c_both.as_view_mut(),
                    threads,
                );
                assert!(
                    c_ref == c_both,
                    "AᵀBᵀ path diverged at ({m},{k},{n}) with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn panel_chunks_tile_exactly_on_panel_boundaries() {
        for len in [1usize, 7, 8, 9, 64, 100, 1029] {
            for panel in [4usize, 8] {
                for workers in [1usize, 2, 3, 7, 16] {
                    let chunks = panel_chunks(len, panel, workers);
                    assert!(chunks.len() <= workers.min(len.div_ceil(panel)));
                    let mut expect_start = 0;
                    for (i, &(start, clen)) in chunks.iter().enumerate() {
                        assert_eq!(start, expect_start, "chunks must tile contiguously");
                        assert!(clen > 0);
                        // Interior chunks end on whole-panel boundaries.
                        if i + 1 < chunks.len() {
                            assert_eq!((start + clen) % panel, 0);
                        }
                        expect_start = start + clen;
                    }
                    assert_eq!(expect_start, len, "chunks must cover everything");
                }
            }
        }
    }

    #[test]
    fn parallel_gemm_row_split_is_bitwise_identical_to_sequential() {
        // Tall-skinny shapes: too few column panels for the jc split
        // (n < 2·NR), so the ic (row) partitioning must engage — and agree
        // with the sequential packed kernel bit for bit, including ragged
        // MR/MC/KC edges and non-divisible worker counts.
        for &(m, k, n) in &[(1029, 40, 9), (512, 257, 4), (130, 300, 15), (97, 400, 1)] {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5);
            let b = Matrix::from_fn(k, n, |i, j| ((i * 7 + j * 41) % 19) as f64 / 19.0 - 0.5);
            let mut c_seq = Matrix::zeros(m, n);
            gemm_views_accumulate(1.5, a.as_view(), b.as_view(), &mut c_seq.as_view_mut(), 1);
            for threads in [2usize, 3, 4, 7] {
                let mut c_par = Matrix::zeros(m, n);
                gemm_views_accumulate(
                    1.5,
                    a.as_view(),
                    b.as_view(),
                    &mut c_par.as_view_mut(),
                    threads,
                );
                assert!(
                    c_seq == c_par,
                    "row-split GEMM diverged at shape ({m},{k},{n}) with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_gemm_row_split_matches_reference_numerically() {
        let (m, k, n) = (600, 64, 8);
        let a = Matrix::from_fn(m, k, |i, j| ((i * 13 + j) % 29) as f64 / 29.0 - 0.5);
        let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j * 3) % 31) as f64 / 31.0 - 0.5);
        let mut c = Matrix::zeros(m, n);
        gemm_views_accumulate(2.0, a.as_view(), b.as_view(), &mut c.as_view_mut(), 4);
        let expect = crate::gemm::matmul(&a, &b).scale(2.0);
        assert!(c.max_abs_diff(&expect).unwrap() < 1e-10);
    }

    #[test]
    fn parallel_gemm_on_strided_views() {
        // Operate on interior blocks of larger matrices so the chunked
        // column splits run at a stride different from the block width.
        let big_a = Matrix::from_fn(80, 100, |i, j| ((i * 13 + j) % 29) as f64 - 14.0);
        let big_b = Matrix::from_fn(90, 150, |i, j| ((i * 5 + j * 3) % 31) as f64 - 15.0);
        let (m, kdim, n) = (64, 80, 128);
        let mut big_c_seq = Matrix::zeros(70, 140);
        let mut big_c_par = big_c_seq.clone();
        gemm_views_accumulate(
            1.0,
            big_a.view(4, 6, m, kdim),
            big_b.view(2, 8, kdim, n),
            &mut big_c_seq.view_mut(3, 5, m, n),
            1,
        );
        gemm_views_accumulate(
            1.0,
            big_a.view(4, 6, m, kdim),
            big_b.view(2, 8, kdim, n),
            &mut big_c_par.view_mut(3, 5, m, n),
            4,
        );
        assert!(big_c_seq == big_c_par);
        // Nothing outside the target block was written.
        assert_eq!(big_c_par[(0, 0)], 0.0);
        assert_eq!(big_c_par[(69, 139)], 0.0);
        assert_eq!(big_c_par[(2, 5)], 0.0);
    }

    #[test]
    fn strided_subblocks_multiply_correctly() {
        // Multiply interior blocks of larger matrices through raw strides.
        let big_a = Matrix::from_fn(10, 12, |i, j| (i * 12 + j) as f64);
        let big_b = Matrix::from_fn(9, 11, |i, j| (i as f64) - (j as f64));
        let (m, kdim, n) = (4, 5, 6);
        let mut c = Matrix::zeros(m, n);
        unsafe {
            gemm_accumulate(
                m,
                n,
                kdim,
                1.0,
                big_a.as_slice().as_ptr().add(2 * 12 + 3),
                12,
                1,
                big_b.as_slice().as_ptr().add(11 + 2),
                11,
                1,
                c.as_mut_slice().as_mut_ptr(),
                n,
            );
        }
        let a_blk = big_a.block(2, 3, m, kdim);
        let b_blk = big_b.block(1, 2, kdim, n);
        let expect = crate::gemm::matmul(&a_blk, &b_blk);
        assert!(c.max_abs_diff(&expect).unwrap() < 1e-12);
    }
}
