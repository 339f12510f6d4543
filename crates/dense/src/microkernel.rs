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
//!
//! ## Triangular operands
//!
//! Every driver takes an optional [`TriMask`] saying that `op(A)` or `op(B)`
//! is lower/upper triangular.  The loop nest, the packed layouts and the
//! `pc` block grid stay exactly as above; the mask only removes work: a
//! `(block, pc)` or `(tile, pc)` pair lying wholly in the zero part is
//! skipped (not packed, not multiplied, `C` not touched), a tile crossing
//! the diagonal runs the microkernel over the shorter `k`-range, and the
//! few packed entries of such a tile that fall on the wrong side of the
//! diagonal are stored as zeros, so whatever the caller keeps in the other
//! triangle is never multiplied in.

use crate::matrix::{MatMut, MatRef};
use crate::pack::{
    a_block_len, b_block_len, op_dims, op_strides, op_subview, pack_a, pack_b, with_gemm_scratch,
};
use crate::threads;
use crate::trsm::Triangle;
use std::ops::Range;
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

/// Declares one operand of a product triangular, so the packed kernel
/// multiplies only the triangle: `TriMask::a(Triangle::Lower)` says `op(A)`
/// is lower triangular, `TriMask::b(Triangle::Upper)` that `op(B)` is upper
/// triangular — the triangle of the operand *as multiplied*, after any
/// transposition.  Entries outside the triangle are never multiplied in,
/// whatever is stored there (other data, NaN).
///
/// For finite operands and `beta = 0` the masked product is **bitwise** the
/// unmasked product on operands whose other triangle was explicitly filled
/// with zeros: every term it leaves out is an exact zero added to an
/// accumulator that is never `-0.0`.
///
/// Internally a mask is one inequality between an entry's *outer* index `o`
/// (its row in `op(A)`, its column in `op(B)`) and its *inner* index `p`
/// (the summation index): kept iff `p <= o + shift`, or iff `p >= o + shift`
/// for a `tail` mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TriMask {
    on_b: bool,
    tail: bool,
    shift: isize,
}

impl TriMask {
    /// `op(A)` occupies the `tri` triangle (main diagonal included).
    pub fn a(tri: Triangle) -> TriMask {
        TriMask {
            on_b: false,
            tail: tri == Triangle::Upper,
            shift: 0,
        }
    }

    /// `op(B)` occupies the `tri` triangle (main diagonal included).
    pub fn b(tri: Triangle) -> TriMask {
        TriMask {
            on_b: true,
            tail: tri == Triangle::Lower,
            shift: 0,
        }
    }

    /// Moves the diagonal to the entries `(r, r + offset)` of the masked
    /// operand (rows `r`, columns `r + offset`): a lower mask then keeps
    /// `c <= r + offset`, an upper one `c >= r + offset`.
    pub fn with_diagonal(mut self, offset: isize) -> TriMask {
        self.shift = if self.on_b { -offset } else { offset };
        self
    }

    /// Whether the masked operand is `op(B)` (else `op(A)`).
    #[inline]
    pub(crate) fn on_b(self) -> bool {
        self.on_b
    }

    /// The inner indices `lo..hi`, clamped to `0..kdim`, outside which every
    /// entry with an outer index in `o0..o0 + len` is masked out.
    #[inline]
    pub(crate) fn k_range(self, o0: usize, len: usize, kdim: usize) -> (usize, usize) {
        let clamp = |v: isize| v.clamp(0, kdim as isize) as usize;
        if self.tail {
            (clamp(o0 as isize + self.shift), kdim)
        } else {
            (0, clamp((o0 + len) as isize + self.shift))
        }
    }

    /// The outer indices `lo..hi`, clamped to `0..extent`, at which inner
    /// index `p` is kept.
    #[inline]
    pub(crate) fn kept_outer(self, p: usize, extent: usize) -> (usize, usize) {
        let clamp = |v: isize| v.clamp(0, extent as isize) as usize;
        if self.tail {
            (0, clamp(p as isize - self.shift + 1))
        } else {
            (clamp(p as isize - self.shift), extent)
        }
    }

    /// Whether any entry with an outer index in `o0..o0 + len` and an inner
    /// index in `p0..p0 + kc` is kept.
    #[inline]
    pub(crate) fn live(self, o0: usize, len: usize, p0: usize, kc: usize) -> bool {
        let (lo, hi) = self.k_range(o0, len, p0 + kc);
        lo.max(p0) < hi
    }

    /// The same mask in the coordinates of a block whose outer indices start
    /// at `o0` and whose inner indices start at `p0`.
    #[inline]
    pub(crate) fn rebased(mut self, o0: usize, p0: usize) -> TriMask {
        self.shift += o0 as isize - p0 as isize;
        self
    }

    /// Stores zeros over the masked-out entries the macro-kernel would
    /// otherwise read from a packed block: within each `W`-wide micro-panel
    /// (`kc` deep, `extent` outer indices in all) the entries that fall
    /// inside the panel's [`TriMask::k_range`] but on the wrong side of the
    /// diagonal.  `self` must be [`TriMask::rebased`] to the block.
    pub(crate) fn zero_masked<const W: usize>(self, extent: usize, kc: usize, dst: &mut [f64]) {
        let panels = dst[..extent.div_ceil(W) * kc * W].chunks_exact_mut(kc * W);
        for (q, panel) in panels.enumerate() {
            let (lo, hi) = self.k_range(q * W, W, kc);
            for w in 0..W {
                let (keep_lo, keep_hi) = self.k_range(q * W + w, 1, kc);
                for k in (lo..keep_lo).chain(keep_hi..hi) {
                    panel[k * W + w] = 0.0;
                }
            }
        }
    }
}

/// `C += alpha · op(A) · op(B)` on borrowed views, where `a_trans` /
/// `b_trans` select `op(X) = Xᵀ` — implemented by walking the stored
/// operand with swapped strides during packing (see [`crate::pack`]), so a
/// transposed operand is never materialized, in scratch or anywhere else.
///
/// `threads` is the worker budget: with more than one worker (and a product
/// big enough to be packed, with enough panels of `C` to split) the
/// multithreaded driver runs the sequential packed kernel on one chunk of
/// `C` per worker; otherwise the sequential kernel runs on the calling
/// thread.  All paths produce **bitwise-identical** results — to each other
/// *and* to the same product on materialized transposes: the packed buffers
/// hold identical values either way, and the per-element accumulation order
/// (`pc` blocks ascending, `k` ascending within each tile) depends on
/// neither the partitioning of `C` nor the operand storage order.
///
/// `mask` declares one operand triangular (see [`TriMask`]); every path
/// honours it, and the path taken does not depend on it.
///
/// Callers must pre-validate conceptual dimensions (`op(a): m×k`,
/// `op(b): k×n`, `c: m×n`).
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
pub(crate) fn gemm_views_accumulate_opt(
    alpha: f64,
    a: MatRef<'_>,
    a_trans: bool,
    b: MatRef<'_>,
    b_trans: bool,
    c: &mut MatMut<'_>,
    mask: Option<TriMask>,
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
    if threads > 1 && madds >= PACK_THRESHOLD && (n >= 2 * NR || m >= 2 * MR) {
        gemm_parallel(alpha, a, a_trans, b, b_trans, c, mask, threads);
    } else {
        gemm_on_views(gemm_accumulate, alpha, a, a_trans, b, b_trans, c, mask);
    }
}

/// The multithreaded driver: the sequential [`gemm_packed`] run on one
/// chunk of `C` per worker on the [`threads`] pool.  `C` is split on `NR`
/// column panels via [`MatMut::split_cols_at_mut`], or — a tall-skinny
/// product with fewer than two column panels — on `MR` row panels via
/// [`MatMut::split_rows_at_mut`]; each worker multiplies the matching
/// columns of `op(B)` (or rows of `op(A)`) and packs into its own
/// thread-local arena.  Per element of `C` the accumulation order does not
/// depend on where a chunk starts, so the result is bitwise the sequential
/// one.  A mask on the split operand is rebased to each chunk's start.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn gemm_parallel(
    alpha: f64,
    a: MatRef<'_>,
    a_trans: bool,
    b: MatRef<'_>,
    b_trans: bool,
    c: &mut MatMut<'_>,
    mask: Option<TriMask>,
    threads: usize,
) {
    let (m, kdim) = op_dims(a, a_trans);
    let n = op_dims(b, b_trans).1;
    let by_cols = n >= 2 * NR;
    let _region = obs::span_with("dense", "gemm_parallel", "threads", threads as u64);
    let chunks = if by_cols {
        panel_chunks(n, NR, threads)
    } else {
        panel_chunks(m, MR, threads)
    };
    let mut jobs = Vec::with_capacity(chunks.len());
    let mut rest = c.reborrow();
    for (w, (start, len)) in chunks.into_iter().enumerate() {
        let (mut chunk, tail) = if by_cols {
            rest.split_cols_at_mut(len)
        } else {
            rest.split_rows_at_mut(len)
        };
        rest = tail;
        let (a, b) = if by_cols {
            (a, op_subview(b, b_trans, 0, start, kdim, len))
        } else {
            (op_subview(a, a_trans, start, 0, len, kdim), b)
        };
        let mask = mask.map(|mk| {
            if mk.on_b() == by_cols {
                mk.rebased(start, 0)
            } else {
                mk
            }
        });
        jobs.push(move || {
            let _worker = obs::span_with("dense", "gemm_worker", "worker", w as u64);
            // Always the packed kernel, never `gemm_small`: a chunk below
            // the pack threshold must not round differently from the whole
            // product, which was packed.
            gemm_on_views(gemm_packed, alpha, a, a_trans, b, b_trans, &mut chunk, mask)
        });
    }
    threads::join_all(jobs);
}

/// Splits `len` items grouped into `panel`-sized units across at most
/// `workers` contiguous chunks, returning each chunk's `(start, len)`.  The
/// first `panels % workers` chunks take one extra panel; only the last chunk
/// may end on a ragged (partial) panel.
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

/// Signature shared by [`gemm_accumulate`] and [`gemm_packed`].
type GemmFn = unsafe fn(
    usize,
    usize,
    usize,
    f64,
    *const f64,
    usize,
    usize,
    *const f64,
    usize,
    usize,
    *mut f64,
    usize,
    Option<TriMask>,
);

/// `kernel` ([`gemm_accumulate`] or [`gemm_packed`]) on borrowed views:
/// `C += alpha · op(A) · op(B)`, dimensions as validated by the caller.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
fn gemm_on_views(
    kernel: GemmFn,
    alpha: f64,
    a: MatRef<'_>,
    a_trans: bool,
    b: MatRef<'_>,
    b_trans: bool,
    c: &mut MatMut<'_>,
    mask: Option<TriMask>,
) {
    let (m, kdim) = op_dims(a, a_trans);
    let n = op_dims(b, b_trans).1;
    let (ai, ak) = op_strides(a, a_trans);
    let (bk, bj) = op_strides(b, b_trans);
    // SAFETY: the views describe in-bounds blocks of live allocations with
    // the dimensions the caller checked, and `c` is a mutable borrow — the
    // caller's own, or a worker's disjoint chunk of it — so it cannot alias
    // `a` or `b`.
    unsafe {
        kernel(
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
            mask,
        );
    }
}

/// Splits a mask into `(mask on op(A), mask on op(B))`; at most one is set.
#[inline]
fn split_mask(mask: Option<TriMask>) -> (Option<TriMask>, Option<TriMask>) {
    (mask.filter(|mk| !mk.on_b()), mask.filter(|mk| mk.on_b()))
}

/// Whether the `pc` block `pc..pc + kc` contributes anything to the `C`
/// columns `jc..jc + nc`: some row of the `m`-row `op(A)`, respectively
/// some of these columns of `op(B)`, must keep an entry there.
#[inline]
fn pc_block_live(
    a_mask: Option<TriMask>,
    b_mask: Option<TriMask>,
    m: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
) -> bool {
    a_mask.is_none_or(|mk| mk.live(0, m, pc, kc)) && b_mask.is_none_or(|mk| mk.live(jc, nc, pc, kc))
}

/// `C[m×n] += alpha · A[m×k] · B[k×n]` on raw strided storage, choosing the
/// packed path for large products and a register-tiled loop for small
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
    mask: Option<TriMask>,
) {
    if m == 0 || n == 0 || kdim == 0 || alpha == 0.0 {
        return;
    }
    let kernel = if m * n * kdim < PACK_THRESHOLD {
        kernels().small
    } else {
        gemm_packed
    };
    kernel(m, n, kdim, alpha, a, ai, ak, b, bk, bj, c, c_rs, mask);
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
    mask: Option<TriMask>,
) {
    let macro_kernel = kernels().macro_kernel;
    let (a_mask, b_mask) = split_mask(mask);
    // Pack-vs-microkernel attribution: local accumulators, two counter
    // events at the end, nothing in the hot loop.  When tracing is off the
    // only residue is a branch on a local bool.
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
                if !pc_block_live(a_mask, b_mask, m, jc, nc, pc, kc) {
                    pc += KC;
                    continue;
                }
                let b_local = b_mask.map(|mk| mk.rebased(jc, pc));
                let t0 = if tracing { obs::now_ns() } else { 0 };
                pack_b(b.add(pc * bk + jc * bj), bk, bj, kc, nc, bpack, b_local);
                if tracing {
                    pack_ns += obs::now_ns().saturating_sub(t0);
                }
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    if a_mask.is_some_and(|mk| !mk.live(ic, mc, pc, kc)) {
                        ic += MC;
                        continue;
                    }
                    let a_local = a_mask.map(|mk| mk.rebased(ic, pc));
                    let t1 = if tracing { obs::now_ns() } else { 0 };
                    let a_blk = a.add(ic * ai + pc * ak);
                    pack_a(alpha, a_blk, ai, ak, mc, kc, apack, a_local);
                    let t2 = if tracing { obs::now_ns() } else { 0 };
                    let c_blk = c.add(ic * c_rs + jc);
                    macro_kernel(mc, nc, kc, apack, bpack, c_blk, c_rs, a_local.or(b_local));
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
type MacroKernelFn =
    unsafe fn(usize, usize, usize, &[f64], &[f64], *mut f64, usize, Option<TriMask>);

/// The kernels of one [`kernel_class`]: the packed product's macro kernel
/// and the small product.
struct Kernels {
    macro_kernel: MacroKernelFn,
    small: GemmFn,
}

/// The kernels of this process's [`kernel_class`], picked once per process.
///
/// On x86-64 with AVX2+FMA the kernels are compiled with those features
/// enabled (the packed ones use `mul_add`, which lowers to `vfmadd`);
/// everywhere else the portable versions are used.  The small product never
/// fuses, so it rounds alike in both classes.
fn kernels() -> &'static Kernels {
    static PORTABLE: Kernels = Kernels {
        macro_kernel: macro_kernel_portable,
        small: gemm_small_portable,
    };
    #[cfg(target_arch = "x86_64")]
    {
        static AVX2: Kernels = Kernels {
            macro_kernel: macro_kernel_avx2,
            small: gemm_small_avx2,
        };
        static KERNELS: OnceLock<&Kernels> = OnceLock::new();
        KERNELS.get_or_init(|| match kernel_class() {
            "avx2_fma" => &AVX2,
            _ => &PORTABLE,
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        &PORTABLE
    }
}

/// The class of macro kernel the packed product runs in this process,
/// chosen once: `"avx2_fma"` on x86-64 with AVX2 and FMA, else
/// `"portable"`.  Setting the `DENSE_FORCE_SCALAR` environment variable (to
/// anything but `0` or the empty string) forces `"portable"` even where
/// AVX2+FMA are available — CI uses this to keep the scalar dispatch branch
/// exercised on AVX2 runners.  The two classes round differently (a fused
/// multiply-add rounds once), so results that pass through the packed
/// product are bitwise reproducible within a class, not across classes.
pub fn kernel_class() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        static CLASS: OnceLock<&str> = OnceLock::new();
        CLASS.get_or_init(|| {
            let forced_scalar = std::env::var("DENSE_FORCE_SCALAR")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            if !forced_scalar && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            {
                "avx2_fma"
            } else {
                "portable"
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable"
    }
}

/// AVX2+FMA instantiation of the macro kernel.
///
/// # Safety
/// Same contract as [`macro_kernel_impl`]; additionally the CPU must support
/// AVX2 and FMA (guaranteed by [`kernels`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
unsafe fn macro_kernel_avx2(
    mc: usize,
    nc: usize,
    kc: usize,
    apack: &[f64],
    bpack: &[f64],
    c: *mut f64,
    c_rs: usize,
    mask: Option<TriMask>,
) {
    match mask {
        None => macro_kernel_impl::<true, false>(mc, nc, kc, apack, bpack, c, c_rs, mask),
        Some(_) => macro_kernel_impl::<true, true>(mc, nc, kc, apack, bpack, c, c_rs, mask),
    }
}

/// Portable instantiation of the macro kernel.
///
/// # Safety
/// Same contract as [`macro_kernel_impl`].
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
unsafe fn macro_kernel_portable(
    mc: usize,
    nc: usize,
    kc: usize,
    apack: &[f64],
    bpack: &[f64],
    c: *mut f64,
    c_rs: usize,
    mask: Option<TriMask>,
) {
    match mask {
        None => macro_kernel_impl::<false, false>(mc, nc, kc, apack, bpack, c, c_rs, mask),
        Some(_) => macro_kernel_impl::<false, true>(mc, nc, kc, apack, bpack, c, c_rs, mask),
    }
}

/// Drives the microkernel over every `MR×NR` tile of one packed block pair.
///
/// `FMA` selects `mul_add` in the inner loop; it must only be `true` inside
/// a `target_feature(enable = "fma")` context, where it lowers to hardware
/// FMA instead of a libm call.
///
/// `mask` (already [`TriMask::rebased`] to this block pair) shortens each
/// tile's `k`-range to the part its rows of `op(A)` / columns of `op(B)`
/// keep; a tile that keeps nothing is skipped and its `C` entries are not
/// touched.  `MASKED` must say whether `mask` is set: the dense
/// instantiation then carries no trace of the mask, so an ordinary GEMM
/// runs the loop it always ran.
///
/// # Safety
/// `c` must be valid for reads/writes of the `mc×nc` block at row stride
/// `c_rs`; the packed slices must hold `⌈mc/MR⌉` / `⌈nc/NR⌉` panels of depth
/// `kc`.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
unsafe fn macro_kernel_impl<const FMA: bool, const MASKED: bool>(
    mc: usize,
    nc: usize,
    kc: usize,
    apack: &[f64],
    bpack: &[f64],
    c: *mut f64,
    c_rs: usize,
    mask: Option<TriMask>,
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
            let acc = match mask {
                Some(mk) if MASKED => {
                    let (k0, k1) = if mk.on_b() {
                        mk.k_range(jr, NR, kc)
                    } else {
                        mk.k_range(ir, MR, kc)
                    };
                    if k0 >= k1 {
                        ir += MR;
                        continue;
                    }
                    accumulate_tile::<FMA>(
                        k1 - k0,
                        &apanel[k0 * MR..k1 * MR],
                        &bpanel[k0 * NR..k1 * NR],
                    )
                }
                _ => accumulate_tile::<FMA>(kc, apanel, bpanel),
            };
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

/// Register-tiled i-k-j loop for products too small to be worth packing.
/// Each entry of `C` is updated as `c ← c + aik·b` (unfused) in ascending
/// `k` from its own value, a term skipped where `aik = alpha·A[i, k]` is
/// zero or masked out.  Where `op(B)` is unmasked with contiguous rows, `MR`
/// rows of `C` share each row of `op(B)`: an `MR×W` tile of `C` (`W` = `NR`,
/// 4, 2 and 1 along the row; the last `m mod MR` rows one at a time) stays
/// in registers across the `k` loop.  Otherwise `C` is updated through
/// memory.  Both add the same terms to an entry in the same order, and
/// nothing fuses, so every path rounds alike in both kernel classes.
///
/// # Safety
/// Same contract as [`gemm_accumulate`].
#[inline(always)]
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
unsafe fn gemm_small_impl(
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
    mask: Option<TriMask>,
) {
    let (a_mask, b_mask) = split_mask(mask);
    let range = |i: usize| a_mask.map_or((0, kdim), |mk| mk.k_range(i, 1, kdim));
    if bj != 1 || b_mask.is_some() {
        for i in 0..m {
            let (arow, crow) = (a.add(i * ai), c.add(i * c_rs));
            let (k0, k1) = range(i);
            for k in k0..k1 {
                let aik = alpha * *arow.add(k * ak);
                if aik == 0.0 {
                    continue;
                }
                let brow = b.add(k * bk);
                // The kept columns of row `k` of `op(B)`: the mask's
                // inequality read the other way round.
                let (j0, j1) = b_mask.map_or((0, n), |mk| mk.kept_outer(k, n));
                for j in j0..j1 {
                    *crow.add(j) += aik * *brow.add(j * bj);
                }
            }
        }
        return;
    }
    let tile = Small {
        n,
        alpha,
        ai,
        ak,
        b,
        bk,
        c_rs,
    };
    let mut i = 0;
    while i < m {
        let (arow, crow) = (a.add(i * ai), c.add(i * c_rs));
        if m - i >= MR {
            let ranges = std::array::from_fn(|r| range(i + r));
            match a_mask {
                None => tile.rows::<MR, false>(arow, crow, ranges),
                Some(_) => tile.rows::<MR, true>(arow, crow, ranges),
            }
            i += MR;
        } else {
            tile.rows::<1, true>(arow, crow, [range(i)]);
            i += 1;
        }
    }
}

/// What every tile of one small product shares: `n`, `alpha`, the strides
/// of `op(A)` and `C`, and `op(B)` with contiguous rows.
struct Small {
    n: usize,
    alpha: f64,
    ai: usize,
    ak: usize,
    b: *const f64,
    bk: usize,
    c_rs: usize,
}

impl Small {
    /// Rows `R` of `C` from `c`, and of `op(A)` from `a`, their kept
    /// `k`-ranges in `ranges` (read only when `MASKED`), cut into strips of
    /// `NR`, 4, 2 and 1 columns.
    ///
    /// # Safety
    /// The `R` rows must be inside the product [`gemm_small_impl`] runs.
    #[inline(always)]
    unsafe fn rows<const R: usize, const MASKED: bool>(
        &self,
        a: *const f64,
        c: *mut f64,
        ranges: [(usize, usize); R],
    ) {
        let lo = ranges.iter().map(|r| r.0).min().unwrap_or(0);
        let hi = ranges.iter().map(|r| r.1).max().unwrap_or(0);
        let mut j = 0;
        macro_rules! strips {
            ($($w:expr),*) => {$(
                while self.n - j >= $w {
                    self.tile::<R, $w, MASKED>(a, j, c.add(j), lo..hi, &ranges);
                    j += $w;
                }
            )*};
        }
        strips!(NR, 4, 2, 1);
    }

    /// The `R×W` tile of `C` at `c`, columns `j..j + W`, in registers
    /// across `ks`.  A `W`-strip at `j` has `j + W ≤ n`, so it lies inside
    /// these rows of `C` and row `k` of `op(B)`, which the contract makes
    /// valid and disjoint.
    ///
    /// # Safety
    /// As for [`Small::rows`], with `j + W ≤ n`.
    #[inline(always)]
    unsafe fn tile<const R: usize, const W: usize, const MASKED: bool>(
        &self,
        a: *const f64,
        j: usize,
        c: *mut f64,
        ks: Range<usize>,
        ranges: &[(usize, usize); R],
    ) {
        let mut acc: [[f64; W]; R] = std::array::from_fn(|i| *c.add(i * self.c_rs).cast());
        for k in ks {
            let bs = &*self.b.add(k * self.bk + j).cast::<[f64; W]>();
            for (i, row) in acc.iter_mut().enumerate() {
                let aik = self.alpha * *a.add(i * self.ai + k * self.ak);
                let kept = !MASKED || (ranges[i].0..ranges[i].1).contains(&k);
                if aik != 0.0 && kept {
                    row.iter_mut().zip(bs).for_each(|(v, bkj)| *v += aik * bkj);
                }
            }
        }
        for (i, row) in acc.iter().enumerate() {
            *c.add(i * self.c_rs).cast::<[f64; W]>() = *row;
        }
    }
}

/// AVX2 instantiation of the small product: wider registers, the same
/// unfused arithmetic.
///
/// # Safety
/// Same contract as [`gemm_small_impl`]; additionally the CPU must support
/// AVX2 and FMA (guaranteed by [`kernels`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
unsafe fn gemm_small_avx2(
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
    mask: Option<TriMask>,
) {
    gemm_small_impl(m, n, kdim, alpha, a, ai, ak, b, bk, bj, c, c_rs, mask)
}

/// Portable instantiation of the small product.
///
/// # Safety
/// Same contract as [`gemm_small_impl`].
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
unsafe fn gemm_small_portable(
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
    mask: Option<TriMask>,
) {
    gemm_small_impl(m, n, kdim, alpha, a, ai, ak, b, bk, bj, c, c_rs, mask)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    /// The small product as it was before its register tiles: every update
    /// through memory.  The oracle the tiles must match bit for bit.
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_small_through_memory(
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
        mask: Option<TriMask>,
    ) {
        let (a_mask, b_mask) = split_mask(mask);
        for i in 0..m {
            let arow = a.add(i * ai);
            let crow = c.add(i * c_rs);
            let (k0, k1) = a_mask.map_or((0, kdim), |mk| mk.k_range(i, 1, kdim));
            for k in k0..k1 {
                let aik = alpha * *arow.add(k * ak);
                if aik == 0.0 {
                    continue;
                }
                let brow = b.add(k * bk);
                let (j0, j1) = b_mask.map_or((0, n), |mk| mk.kept_outer(k, n));
                for j in j0..j1 {
                    *crow.add(j) += aik * *brow.add(j * bj);
                }
            }
        }
    }

    /// The small product of this process's kernel class.
    #[allow(clippy::too_many_arguments)]
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
        mask: Option<TriMask>,
    ) {
        (kernels().small)(m, n, kdim, alpha, a, ai, ak, b, bk, bj, c, c_rs, mask)
    }

    /// The register tiles round exactly like the memory loop: `m` off a
    /// multiple of `MR` (rows left to single-row tiles), ragged widths, a
    /// different kept range on each row of a tile (lower and upper masks on
    /// `A`, diagonals off the main one), zeros scattered in `A` and a whole
    /// zero row (skipped updates), `-0.0` in `C` (kept unless something is
    /// added), and the paths that stay in memory (a mask on `B`, a
    /// transposed `B`).
    #[test]
    fn small_products_are_bitwise_the_memory_loop() {
        let masks = [
            None,
            Some(TriMask::a(Triangle::Lower)),
            Some(TriMask::a(Triangle::Upper)),
            Some(TriMask::a(Triangle::Lower).with_diagonal(3)),
            Some(TriMask::a(Triangle::Upper).with_diagonal(-2)),
            Some(TriMask::b(Triangle::Lower)),
        ];
        for &(m, kdim, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (5, 8, 8),
            (16, 16, 16),
            (7, 9, 17),
            (4, 24, 31),
            (13, 11, 23),
            (9, 31, 15),
        ] {
            // Every third entry of A is zero, and all of row 2; values of
            // both signs.
            let a = Matrix::from_fn(m, kdim, |i, k| {
                if i == 2 || (i * 7 + k * 5) % 3 == 0 {
                    0.0
                } else {
                    ((i * 13 + k * 3) % 11) as f64 / 7.0 - 0.5
                }
            });
            // Square, so it reads as `op(B)` stored or transposed.
            let side = n.max(kdim);
            let b = Matrix::from_fn(side, side, |k, j| {
                ((k * 17 + j * 29) % 23) as f64 / 9.0 - 1.2
            });
            let c0 = Matrix::from_fn(m, n, |i, j| {
                if (i + j) % 2 == 0 {
                    -0.0
                } else {
                    0.25 * j as f64
                }
            });
            for mask in masks {
                for b_trans in [false, true] {
                    let (bk, bj) = if b_trans { (1, side) } else { (side, 1) };
                    let run = |through_memory: bool| {
                        let mut c = c0.clone();
                        let (ap, bp) = (a.as_slice().as_ptr(), b.as_slice().as_ptr());
                        let cp = c.as_mut_slice().as_mut_ptr();
                        let kernel = match through_memory {
                            true => gemm_small_through_memory,
                            false => gemm_small,
                        };
                        unsafe { kernel(m, n, kdim, 1.5, ap, kdim, 1, bp, bk, bj, cp, n, mask) };
                        c.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        run(false),
                        run(true),
                        "({m},{kdim},{n}) mask {mask:?} bᵀ {b_trans}"
                    );
                }
            }
        }
    }

    /// The plain (no-transpose) accumulate the pre-`_opt` tests were
    /// written against.
    fn gemm_views_accumulate(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        c: &mut MatMut<'_>,
        threads: usize,
    ) {
        gemm_views_accumulate_opt(alpha, a, false, b, false, c, None, threads);
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
                None,
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
                    None,
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
                    None,
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
                    None,
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
                    None,
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
                    None,
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
                    None,
                    threads,
                );
                assert!(
                    c_ref == c_both,
                    "AᵀBᵀ path diverged at ({m},{k},{n}) with {threads} threads"
                );
            }
        }
    }

    /// `x` with every entry outside the `tri` triangle (diagonal at
    /// `(r, r + offset)`) replaced by `fill`.
    fn outside_filled(x: &Matrix, tri: Triangle, offset: isize, fill: f64) -> Matrix {
        Matrix::from_fn(x.rows(), x.cols(), |r, c| {
            let d = c as isize - r as isize - offset;
            let kept = match tri {
                Triangle::Lower => d <= 0,
                Triangle::Upper => d >= 0,
            };
            if kept {
                x[(r, c)]
            } else {
                fill
            }
        })
    }

    #[test]
    fn masked_product_is_bitwise_the_product_on_zero_filled_operands() {
        // The contract of the triangle-aware product, on every path: the
        // small loop, the packed kernel (m and n off MR/NR multiples, m > MC,
        // kdim > KC so whole pc blocks and whole A blocks are skipped), the
        // column split and the row split (n < 2·NR) — for op(A) or op(B)
        // lower or upper, stored as multiplied or pack-transposed, with the
        // diagonal on and off the main one.  Whatever the other triangle
        // holds — arbitrary finite values, NaN — the result equals, element
        // for element, the unmasked product with that triangle zeroed.
        let shapes = [
            (5, 9, 17),
            (31, 33, 30),
            (MC + 37, KC + 45, 2 * NR + 29),
            (MC + 37, KC + 45, NR + 1),
            (2 * MR + 1, KC + 3, KC + NR + 2),
        ];
        for &(m, kdim, n) in &shapes {
            let a = Matrix::from_fn(m, kdim, |i, j| ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5);
            let b = Matrix::from_fn(kdim, n, |i, j| ((i * 7 + j * 41) % 19) as f64 / 19.0 - 0.5);
            for on_b in [false, true] {
                for tri in [Triangle::Lower, Triangle::Upper] {
                    for offset in [0isize, 5, -(KC as isize) - 2] {
                        let mask = if on_b {
                            TriMask::b(tri)
                        } else {
                            TriMask::a(tri)
                        }
                        .with_diagonal(offset);
                        let zeroed = outside_filled(if on_b { &b } else { &a }, tri, offset, 0.0);
                        let nan = outside_filled(if on_b { &b } else { &a }, tri, offset, f64::NAN);
                        for threads in [1usize, 3] {
                            let mut want = Matrix::zeros(m, n);
                            let (za, zb) = if on_b { (&a, &zeroed) } else { (&zeroed, &b) };
                            gemm_views_accumulate_opt(
                                -1.5,
                                za.as_view(),
                                false,
                                zb.as_view(),
                                false,
                                &mut want.as_view_mut(),
                                None,
                                threads,
                            );
                            for masked_operand in [if on_b { &b } else { &a }, &nan] {
                                for trans in [false, true] {
                                    // The masked operand as stored: itself, or
                                    // its transpose read back through the pack.
                                    let stored = if trans {
                                        masked_operand.transpose()
                                    } else {
                                        masked_operand.clone()
                                    };
                                    let (ma, mb) = if on_b { (&a, &stored) } else { (&stored, &b) };
                                    let mut got = Matrix::zeros(m, n);
                                    gemm_views_accumulate_opt(
                                        -1.5,
                                        ma.as_view(),
                                        trans && !on_b,
                                        mb.as_view(),
                                        trans && on_b,
                                        &mut got.as_view_mut(),
                                        Some(mask),
                                        threads,
                                    );
                                    assert!(
                                        got == want,
                                        "masked product diverged: ({m},{kdim},{n}) on_b={on_b} \
                                         {tri:?} offset={offset} trans={trans} threads={threads}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn masked_tiles_outside_the_triangle_leave_c_untouched() {
        // A skipped tile is not "multiplied by zero": its C entries are not
        // read or written at all.  With op(A) strictly below a far-away
        // diagonal nothing is kept, so a NaN-filled C survives.
        let (m, kdim, n) = (40, 48, 40);
        let a = Matrix::filled(m, kdim, 1.0);
        let b = Matrix::filled(kdim, n, 1.0);
        let mut c = Matrix::filled(m, n, f64::NAN);
        let mask = TriMask::a(Triangle::Upper).with_diagonal(kdim as isize);
        gemm_views_accumulate_opt(
            1.0,
            a.as_view(),
            false,
            b.as_view(),
            false,
            &mut c.as_view_mut(),
            Some(mask),
            1,
        );
        assert!(c.as_slice().iter().all(|v| v.is_nan()));
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
                None,
            );
        }
        let a_blk = big_a.block(2, 3, m, kdim);
        let b_blk = big_b.block(1, 2, kdim, n);
        let expect = crate::gemm::matmul(&a_blk, &b_blk);
        assert!(c.max_abs_diff(&expect).unwrap() < 1e-12);
    }
}
