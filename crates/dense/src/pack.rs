//! Panel packing and the thread-local scratch arena for the packed GEMM.
//!
//! The packed kernel (see [`crate::microkernel`]) never multiplies out of the
//! caller's matrices directly.  Instead each `MC×KC` block of `A` and each
//! `KC×NC` block of `B` is first copied into a scratch buffer in *micro-panel*
//! order:
//!
//! * `A` is packed into `⌈mc/MR⌉` panels of `MR` rows each; within a panel the
//!   storage is column-major (`k`-major), so the microkernel reads one
//!   contiguous `MR`-vector of `A` per `k` step;
//! * `B` is packed into `⌈nc/NR⌉` panels of `NR` columns each, row-major
//!   within the panel, so the microkernel reads one contiguous `NR`-vector of
//!   `B` per `k` step.
//!
//! Ragged edges are zero-padded to full `MR`/`NR` width so the microkernel
//! never branches on the panel interior; the write-back masks the padding.
//!
//! Both pack buffers live in a **thread-local arena** that grows to what the
//! largest call on that thread needed — `⌈min(MC,m)/MR⌉·MR·min(KC,k)` doubles
//! of `A` and `min(KC,k)·⌈min(NC,n)/NR⌉·NR` of `B`, never more than
//! `MC·KC + KC·NC` (≈2.3 MiB with the default tuning).  A thread that keeps
//! multiplying stops allocating once it has seen its largest shape; a fresh
//! thread — every scoped pool worker, every simulated rank — pays for the
//! blocks it multiplies, not for the tuning maximum.  A worker of the
//! multithreaded product is such a thread: it packs the blocks of its own
//! chunk of `C` into its own arena, and nothing is packed once and shared.
//!
//! The blocked triangular kernels keep their temporaries in a second
//! thread-local, `with_scratch`: a small pool of buffers, one per nesting
//! depth in use, so a kernel that holds scratch while calling another that
//! takes its own (the blocked TRSM holding an inverted diagonal block across
//! [`crate::trinv::tri_invert_in_place`]) allocates nothing in steady state.

use crate::matrix::MatRef;
use crate::microkernel::{TriMask, KC, MC, MR, NC, NR};
use std::cell::RefCell;

/// Conceptual dimensions of `op(v)`: `(rows, cols)` as stored, swapped
/// when transposed.  The one place the `op(X)` addressing convention is
/// spelled out, shared by every GEMM driver (see [`op_strides`]).
#[inline]
pub(crate) fn op_dims(v: MatRef<'_>, trans: bool) -> (usize, usize) {
    if trans {
        (v.cols(), v.rows())
    } else {
        v.dims()
    }
}

/// The `nr×nc` block of `op(v)` at `(r0, c0)`: a block of `v` itself, read
/// with the same `trans`.
#[inline]
pub(crate) fn op_subview(
    v: MatRef<'_>,
    trans: bool,
    r0: usize,
    c0: usize,
    nr: usize,
    nc: usize,
) -> MatRef<'_> {
    if trans {
        v.subview(c0, r0, nc, nr)
    } else {
        v.subview(r0, c0, nr, nc)
    }
}

/// `(outer, inner)` element strides of `op(v)`: `(stride, 1)` as stored,
/// `(1, stride)` transposed — so `op(v)[i, j]` sits at
/// `ptr + i·outer + j·inner` either way.
#[inline]
pub(crate) fn op_strides(v: MatRef<'_>, trans: bool) -> (usize, usize) {
    if trans {
        (1, v.stride())
    } else {
        (v.stride(), 1)
    }
}

thread_local! {
    /// `(A-pack, B-pack)` buffers, grown on first use and reused thereafter.
    static GEMM_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
    /// Idle general-purpose scratch buffers for the blocked kernels, most
    /// recently returned last (see [`with_scratch`]).
    static SCRATCH_POOL: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// The first `len` doubles of `buf`, grown to exactly `len` if it is shorter
/// (no amortised over-allocation: the arena should hold what a call needed,
/// not double it).
#[inline]
fn grown(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if buf.len() < len {
        buf.reserve_exact(len - buf.len());
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Doubles one packed block of an `m×k` `A` occupies: `min(MC, m)` rows
/// rounded up to whole `MR` panels, times `min(KC, k)`.
#[inline]
pub(crate) fn a_block_len(m: usize, k: usize) -> usize {
    MC.min(m).div_ceil(MR) * MR * KC.min(k)
}

/// Doubles one packed block of a `k×n` `B` occupies: `min(KC, k)` times
/// `min(NC, n)` columns rounded up to whole `NR` panels.
#[inline]
pub(crate) fn b_block_len(k: usize, n: usize) -> usize {
    KC.min(k) * NC.min(n).div_ceil(NR) * NR
}

/// Runs `f` with the thread-local `(A-pack, B-pack)` buffers, grown to at
/// least `a_len` / `b_len` doubles (see [`a_block_len`] / [`b_block_len`]).
///
/// Falls back to fresh allocations in the (unexpected) re-entrant case so a
/// nested GEMM can never observe a torn buffer.
pub(crate) fn with_gemm_scratch<R>(
    a_len: usize,
    b_len: usize,
    f: impl FnOnce(&mut [f64], &mut [f64]) -> R,
) -> R {
    GEMM_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut bufs) => {
            let (a, b) = &mut *bufs;
            f(grown(a, a_len), grown(b, b_len))
        }
        Err(_) => f(&mut vec![0.0; a_len], &mut vec![0.0; b_len]),
    })
}

/// Runs `f` with a thread-local scratch slice of `len` doubles.
///
/// The slice's contents are **unspecified** (stale data from earlier calls);
/// callers must fully overwrite it — e.g. via a `beta = 0` GEMM, which
/// zeroes its destination first.
///
/// Calls nest: the buffer is taken out of a thread-local pool for the
/// duration of `f` and put back afterwards, so a `with_scratch` inside `f`
/// takes the next idle buffer (a disjoint allocation) instead of a fresh
/// `Vec`.  The pool is last-in first-out, so the same call structure meets
/// the same buffers again, each grown to the largest request it has served.
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    let mut buf = SCRATCH_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    let out = f(grown(&mut buf, len));
    SCRATCH_POOL.with(|pool| pool.borrow_mut().push(buf));
    out
}

/// Packs the `mc×kc` block of `op(A)` at `a` — element `(i, k)` read from
/// `a + i·ai + k·ak` — scaled by `alpha`, into `MR`-row micro-panels in
/// `dst`, zero-padding the last panel.
///
/// `(ai, ak) = (row stride, 1)` packs the block as stored; `(1, row
/// stride)` packs its **transpose** straight out of the original storage,
/// which is how the `op(A) = Aᵀ` GEMM entry points avoid materializing
/// transposed panels in scratch: the packed buffer is bit-for-bit the one a
/// materialized transpose would have produced.
///
/// A `mask` on `op(A)` ([`TriMask::rebased`] to this block) then stores
/// zeros over the masked-out entries the macro-kernel will read
/// ([`TriMask::zero_masked`]); the packing itself is the same.
///
/// # Safety
/// `a` must be valid for reads of the `mc×kc` block at strides `(ai, ak)`,
/// and `dst` must hold at least `⌈mc/MR⌉·kc·MR` elements.
#[allow(clippy::too_many_arguments)] // BLAS-style kernel signature
pub(crate) unsafe fn pack_a(
    alpha: f64,
    a: *const f64,
    ai: usize,
    ak: usize,
    mc: usize,
    kc: usize,
    dst: &mut [f64],
    mask: Option<TriMask>,
) {
    let panels = mc.div_ceil(MR);
    debug_assert!(dst.len() >= panels * kc * MR);
    for p in 0..panels {
        let ir = p * MR;
        let rows = MR.min(mc - ir);
        let panel = &mut dst[p * kc * MR..(p + 1) * kc * MR];
        if rows == MR {
            for k in 0..kc {
                for i in 0..MR {
                    *panel.get_unchecked_mut(k * MR + i) = alpha * *a.add((ir + i) * ai + k * ak);
                }
            }
        } else {
            for k in 0..kc {
                for i in 0..MR {
                    let v = if i < rows {
                        *a.add((ir + i) * ai + k * ak)
                    } else {
                        0.0
                    };
                    *panel.get_unchecked_mut(k * MR + i) = alpha * v;
                }
            }
        }
    }
    if let Some(mk) = mask {
        mk.zero_masked::<MR>(mc, kc, dst);
    }
}

/// Packs the `kc×nc` block of `op(B)` at `b` — element `(k, j)` read from
/// `b + k·bk + j·bj` — into `NR`-column micro-panels in `dst`, zero-padding
/// the last panel.
///
/// `(bk, bj) = (row stride, 1)` packs the block as stored; `(1, row
/// stride)` packs its transpose, and a `mask` on `op(B)` zeroes the
/// masked-out entries the macro-kernel will read (see [`pack_a`]).
///
/// # Safety
/// `b` must be valid for reads of the `kc×nc` block at strides `(bk, bj)`,
/// and `dst` must hold at least `⌈nc/NR⌉·kc·NR` elements.
pub(crate) unsafe fn pack_b(
    b: *const f64,
    bk: usize,
    bj: usize,
    kc: usize,
    nc: usize,
    dst: &mut [f64],
    mask: Option<TriMask>,
) {
    let panels = nc.div_ceil(NR);
    debug_assert!(dst.len() >= panels * kc * NR);
    for q in 0..panels {
        let jr = q * NR;
        let cols = NR.min(nc - jr);
        let panel = &mut dst[q * kc * NR..(q + 1) * kc * NR];
        if cols == NR {
            for k in 0..kc {
                let src = b.add(k * bk + jr * bj);
                for j in 0..NR {
                    *panel.get_unchecked_mut(k * NR + j) = *src.add(j * bj);
                }
            }
        } else {
            for k in 0..kc {
                let src = b.add(k * bk + jr * bj);
                for j in 0..NR {
                    *panel.get_unchecked_mut(k * NR + j) =
                        if j < cols { *src.add(j * bj) } else { 0.0 };
                }
            }
        }
    }
    if let Some(mk) = mask {
        mk.zero_masked::<NR>(nc, kc, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_layout_and_padding() {
        // 5×3 block with MR=4: two panels, second padded with 3 zero rows.
        let (mc, kc) = (5usize, 3usize);
        let a: Vec<f64> = (0..mc * kc).map(|v| v as f64).collect();
        let mut dst = vec![f64::NAN; mc.div_ceil(MR) * kc * MR];
        unsafe { pack_a(1.0, a.as_ptr(), kc, 1, mc, kc, &mut dst, None) };
        // Panel 0, k=1 holds column 1 of rows 0..4 contiguously.
        for i in 0..MR {
            assert_eq!(dst[MR + i], a[i * kc + 1]);
        }
        // Panel 1 holds row 4 then zero padding.
        let p1 = &dst[kc * MR..];
        assert_eq!(p1[0], a[4 * kc]);
        for &v in &p1[1..MR] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn pack_a_applies_alpha() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let mut dst = vec![0.0; MR];
        unsafe { pack_a(-2.0, a.as_ptr(), 1, 1, 4, 1, &mut dst, None) };
        assert_eq!(dst, vec![-2.0, -4.0, -6.0, -8.0]);
    }

    #[test]
    fn pack_b_layout_and_padding() {
        // 2×10 block with NR=8: two panels, second padded to 8 columns.
        let (kc, nc) = (2usize, 10usize);
        let b: Vec<f64> = (0..kc * nc).map(|v| v as f64).collect();
        let mut dst = vec![f64::NAN; nc.div_ceil(NR) * kc * NR];
        unsafe { pack_b(b.as_ptr(), nc, 1, kc, nc, &mut dst, None) };
        // Panel 0, k=1 holds row 1, columns 0..8 contiguously.
        for j in 0..NR {
            assert_eq!(dst[NR + j], b[nc + j]);
        }
        // Panel 1, k=0 holds columns 8..10 then zeros.
        let p1 = &dst[kc * NR..];
        assert_eq!(p1[0], b[8]);
        assert_eq!(p1[1], b[9]);
        for &v in &p1[2..NR] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn transposed_packing_matches_materialize_then_pack() {
        // Packing op(A) = Aᵀ with swapped strides must produce bit-for-bit
        // the buffer a materialized transpose would have packed — across
        // ragged MR/NR edges.
        let (rows, cols) = (7usize, 5usize);
        let a: Vec<f64> = (0..rows * cols).map(|v| v as f64 * 0.5 - 3.0).collect();
        // Materialize aᵀ (cols×rows).
        let mut at = vec![0.0f64; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                at[j * rows + i] = a[i * cols + j];
            }
        }
        // As the A operand: conceptual (mc, kc) = (cols, rows).
        let plen = cols.div_ceil(MR) * rows * MR;
        let mut direct = vec![f64::NAN; plen];
        let mut via_mat = vec![f64::NAN; plen];
        unsafe {
            pack_a(1.5, a.as_ptr(), 1, cols, cols, rows, &mut direct, None);
            pack_a(1.5, at.as_ptr(), rows, 1, cols, rows, &mut via_mat, None);
        }
        assert_eq!(direct, via_mat);
        // As the B operand: conceptual (kc, nc) = (cols, rows).
        let plen = rows.div_ceil(NR) * cols * NR;
        let mut direct = vec![f64::NAN; plen];
        let mut via_mat = vec![f64::NAN; plen];
        unsafe {
            pack_b(a.as_ptr(), 1, cols, cols, rows, &mut direct, None);
            pack_b(at.as_ptr(), rows, 1, cols, rows, &mut via_mat, None);
        }
        assert_eq!(direct, via_mat);
    }

    /// `(A-pack, B-pack)` capacities of this thread's arena.
    fn arena_capacities() -> (usize, usize) {
        GEMM_SCRATCH.with(|c| {
            let bufs = c.borrow();
            (bufs.0.capacity(), bufs.1.capacity())
        })
    }

    #[test]
    fn arena_grows_to_the_call_not_to_the_tuning_maximum() {
        use crate::gemm::gemm_with_threads;
        use crate::matrix::Matrix;
        let multiply = |(m, k, n): (usize, usize, usize), threads: usize| {
            let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j) % 11) as f64 - 5.0);
            let b = Matrix::from_fn(k, n, |i, j| ((i + j * 3) % 7) as f64 - 3.0);
            let mut c = Matrix::zeros(m, n);
            gemm_with_threads(1.0, &a, &b, 0.0, &mut c, threads).unwrap();
        };
        // A fresh thread, as every scoped pool worker and simulated rank is.
        std::thread::spawn(move || {
            assert_eq!(arena_capacities(), (0, 0));
            // The caller of a 2-worker product is one of the workers: it
            // packs its own chunk of columns, at that chunk's block sizes.
            multiply((64, 64, 64), 2);
            assert_eq!(
                (a_block_len(64, 64), b_block_len(64, 32)),
                (64 * 64, 64 * 32)
            );
            assert_eq!(arena_capacities(), (64 * 64, 64 * 32));
            multiply((64, 64, 64), 1);
            assert_eq!(arena_capacities(), (64 * 64, 64 * 64));
            // Past every blocking dimension (as a 1024³ product is, at a
            // thirtieth of the flops) the arena stops at the tuning maximum.
            multiply((MC + 2, KC + 4, NC + 6), 1);
            assert_eq!(arena_capacities(), (MC * KC, KC * NC));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn nested_scratch_frames_are_disjoint_and_reused() {
        // An outer borrow held across an inner one (the blocked TRSM across
        // `tri_invert_in_place`): two live slices that do not overlap, and
        // the same two buffers again on the next call — no fresh `Vec`.
        let frames = || {
            with_scratch(64, |outer| {
                outer.fill(1.0);
                let inner_range = with_scratch(32, |inner| {
                    assert_eq!(inner.len(), 32);
                    inner.fill(2.0);
                    inner.as_ptr_range()
                });
                assert_eq!(outer.len(), 64);
                assert!(outer.iter().all(|&v| v == 1.0), "inner frame overlapped");
                let outer_range = outer.as_ptr_range();
                assert!(
                    inner_range.end <= outer_range.start || outer_range.end <= inner_range.start
                );
                (outer_range.start as usize, inner_range.start as usize)
            })
        };
        let first = frames();
        assert_eq!(frames(), first, "scratch buffers should be reused");
        // A smaller request is served from the grown buffer.
        let again = with_scratch(16, |buf| buf.as_ptr() as usize);
        assert_eq!(again, first.0);
    }
}
