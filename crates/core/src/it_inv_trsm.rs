//! Iterative inversion-based TRSM (`It-Inv-TRSM`, Sections VI–VII) — the
//! paper's main contribution.
//!
//! The algorithm runs on a `p1 × p1 × p2` processor grid.  The triangular
//! matrix lives on the square face (coordinates `(x, y, z = 0)`) in a cyclic
//! layout; the right-hand side is split into `p2` column slabs (one per
//! layer `z`) with its rows distributed cyclically over `x` and replicated
//! over `y`.  After the diagonal blocks `L(S_i, S_i)` are inverted
//! ([`crate::diag_inv`]), each of the `n/n0` iterations performs only
//! *multiplications* and *reductions* — no latency-bound small triangular
//! solves:
//!
//! 1. broadcast the inverted diagonal block piece along `z`,
//! 2. multiply it with the current right-hand-side block and **allreduce
//!    along `x`** to obtain `X(S_i)` — each piece of an inverted block is
//!    lower triangular, and only its triangle is multiplied,
//! 3. broadcast the trailing panel `L(T_{i+1}, S_i)` along `z`,
//! 4. multiply it with `X(S_i)` and accumulate into a **local** update
//!    buffer,
//! 5. **allreduce along `y`** only the next block row `S_{i+1}` of the update
//!    buffer (lazy reduction) and subtract it from the right-hand side.
//!
//! With `p2 = 1` the `z` axis has one member: steps 1 and 3 send nothing,
//! so the face's pieces and panels are read where they lie, uncopied.
//!
//! The paper iterates over `L̃`, which is `L` with its diagonal blocks
//! inverted; here `L̃` is never materialised.  The inverter returns only the
//! inverted blocks, stacked `n/p1 × n0/p1` per face rank
//! ([`crate::diag_inv::stacked_layout`]), and one redistribution hands each
//! face rank its transposed-coordinate pieces for step 1; the panels of step
//! 3 lie off the diagonal blocks, where `L̃` *is* `L`, and are read from the
//! face's `L`.  The messages are the paper's: the same entries cross the
//! same pairs of ranks as routing `L̃`'s diagonal blocks would.
//!
//! The measured per-phase costs (returned in [`PhaseBreakdown`]) track the
//! `W_Inv`, `W_Solve` and `W_Upd` expressions of Section VII
//! ([`ItInvConfig::phase_model`]), and the latency is
//! `O((n/n0)·log p + log² p)` instead of the recursive algorithm's
//! polynomial-in-`p` synchronisation cost.  [`predicted_cost`] walks the
//! solve without running it: the same layouts and decisions, every message
//! priced on simnet's schedules, so it charges every rank what the
//! executor charges it, phase by phase.
//!
//! Every block, panel and accumulator the solve works in is a buffer from
//! the machine's pool and goes back to it once used, so a repeated solve
//! reuses resident memory instead of allocating it again.

use crate::diag_inv::{block_columns, diagonal_inverter, stacked_layout};
use crate::error::{config_error, internal_error, TrsmError};
use crate::mm3d::strided_block_mask;
use crate::{walk, Result};
use costmodel::{itinv, Cost};
use dense::flops::{gemm_flops, masked_gemm_flops};
use dense::{FlopCount, MatRef, Matrix, Triangle};
use pgrid::redist::{move_counts, redistribute, Axis, Filter, Holders, Layout};
use pgrid::{pooled_zeros, DistMatrix, Grid2D, Grid3D};
use simnet::{coll, Communicator, CostCounters};
use std::borrow::Cow;

/// Configuration of the iterative inversion-based TRSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ItInvConfig {
    /// Square-face dimension of the `p1 × p1 × p2` processor grid.
    pub p1: usize,
    /// Depth of the processor grid (number of right-hand-side layers).
    pub p2: usize,
    /// Diagonal block size that is inverted (`n0`).
    pub n0: usize,
    /// Base-case size of the distributed triangular inversion.
    pub inv_base: usize,
}

impl ItInvConfig {
    /// The `r1 × r1 × r2` sub-grid the Section VII phase model prices each
    /// diagonal-block inversion on (Section VII-A) — the paper's sub-grid,
    /// over all `p` processors: the `q = p1²·p2·n0/n` processors per block
    /// form the largest square face that fits, `r1 = ⌊√q⌋`, with the
    /// remainder as depth, `r2 = q/r1²`; both are at least 1.  It is not
    /// the grid the executor inverts on: [`crate::diag_inv`] builds
    /// power-of-two square sub-grids on the `p1 × p1` face alone (at
    /// `p1 = 2`, `p2 = 4`, `n0 = n` this formula gives `4 × 4 × 1`, the
    /// executor `2 × 2`), and the walk a plan quotes
    /// ([`predicted_cost`]) prices the one the executor builds.
    pub fn inversion_grid(&self, n: usize) -> (f64, f64) {
        let (p1, p2) = (self.p1 as f64, self.p2 as f64);
        let q = (p1 * p1 * p2 * self.n0 as f64 / n as f64).max(1.0);
        let r1 = q.sqrt().floor().max(1.0);
        (r1, (q / (r1 * r1)).max(1.0))
    }

    /// Whether this configuration can solve an `n×n` system with `k`
    /// right-hand sides on `p` processors: the grid must use every
    /// processor, the blocks must tile `L` and its face layout, and the
    /// right-hand side must split into `p2` slabs.  Planning and execution
    /// both ask here, so the model is only ever evaluated where
    /// `n/n0` counts whole blocks.
    pub fn check(&self, n: usize, k: usize, p: usize) -> Result<()> {
        let (p1, p2, n0) = (self.p1, self.p2, self.n0);
        if p1 == 0 || p2 == 0 || p1 * p1 * p2 != p {
            return Err(config_error(
                "it_inv_trsm",
                format!(
                    "p1²·p2 = {} must equal the communicator size {p}",
                    p1 * p1 * p2
                ),
            ));
        }
        if n0 == 0 || !n.is_multiple_of(n0) || n0 % p1 != 0 || !n.is_multiple_of(p1) {
            return Err(config_error(
                "it_inv_trsm",
                format!("need n0 | n, p1 | n0 and p1 | n (n = {n}, n0 = {n0}, p1 = {p1})"),
            ));
        }
        if !k.is_multiple_of(p2) {
            return Err(config_error(
                "it_inv_trsm",
                format!("k = {k} must be divisible by p2 = {p2}"),
            ));
        }
        Ok(())
    }

    /// What Section VII predicts for each phase of an `n×n`, `k`-column
    /// solve under this configuration: the `costmodel::itinv` formulas at
    /// this `n0` and `p1 × p1 × p2`, the inversion on
    /// [`ItInvConfig::inversion_grid`].  The two layout changes are `None`:
    /// the model does not price them.  It is the paper's claim, printed by
    /// experiment E5 and held to a band by the tests; a plan quotes the walk
    /// of what the solve runs instead ([`predicted_cost`]).
    pub fn phase_model(&self, n: usize, k: usize) -> PhaseBreakdown<Option<Cost>> {
        let (nf, kf, n0) = (n as f64, k as f64, self.n0 as f64);
        let (p1, p2) = (self.p1 as f64, self.p2 as f64);
        let (r1, r2) = self.inversion_grid(n);
        PhaseBreakdown {
            setup: None,
            inversion: Some(itinv::inversion_phase(nf, n0, r1, r2)),
            solve: Some(itinv::solve_phase(nf, kf, n0, p1, p2)),
            update: Some(itinv::update_phase(nf, kf, n0, p1, p2)),
            finalize: None,
        }
    }
}

/// One value per phase of `It-Inv-TRSM`.
///
/// The default instantiation is what a rank measures: its cost counters,
/// split by phase.  Collect the breakdowns of all ranks (the machine returns
/// one result per rank) and take per-field maxima to obtain the
/// critical-path phase costs that experiment E5 compares against Section VII
/// of the paper — whose predictions are the same record over model costs
/// ([`ItInvConfig::phase_model`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown<T = CostCounters> {
    /// Initial redistribution of `L` and `B` onto the 3D grid.
    pub setup: T,
    /// Block-diagonal inversion (Section VII-A).
    pub inversion: T,
    /// Solve steps: diagonal-block broadcasts, multiplications, X reductions
    /// (Section VII-B).
    pub solve: T,
    /// Update steps: panel broadcasts, multiplications, lazy reductions
    /// (Section VII-C).
    pub update: T,
    /// Final redistribution of `X` into `B`'s layout.
    pub finalize: T,
}

impl<T> PhaseBreakdown<T> {
    /// The phases in execution order, each under its name — the one table
    /// of phase names: drift rows, experiment tables and the harness's
    /// per-phase reports all read theirs from here.
    pub fn named(self) -> [(&'static str, T); 5] {
        [
            ("setup", self.setup),
            ("inversion", self.inversion),
            ("solve", self.solve),
            ("update", self.update),
            ("finalize", self.finalize),
        ]
    }
}

impl PhaseBreakdown {
    /// Sum of all phases (this rank's total contribution).
    pub fn total(&self) -> CostCounters {
        self.setup
            .merge(&self.inversion)
            .merge(&self.solve)
            .merge(&self.update)
            .merge(&self.finalize)
    }
}

/// Solve `L·X = B` with the iterative inversion-based algorithm.
///
/// `L` (`n×n` lower triangular) and `B` (`n×k`) must be distributed over the
/// same 2D grid, whose communicator must have exactly `p1²·p2` ranks, in any
/// layouts: the setup phase moves them into the face and slab layouts, and
/// the diagonal-block inverter reads `L`'s diagonal kind.  The solution is
/// returned in `B`'s layout, together with this rank's per-phase cost
/// counters.
pub fn it_inv_trsm(
    l: &DistMatrix,
    b: &DistMatrix,
    cfg: &ItInvConfig,
) -> Result<(DistMatrix, PhaseBreakdown)> {
    let caller_grid = l.grid();
    let comm = caller_grid.comm();
    let p = comm.size();
    let n = l.rows();
    let k = b.cols();
    let (p1, p2, n0) = (cfg.p1, cfg.p2, cfg.n0);

    if l.cols() != n {
        return Err(config_error(
            "it_inv_trsm",
            format!("L must be square, got {}x{}", n, l.cols()),
        ));
    }
    if b.rows() != n {
        return Err(config_error(
            "it_inv_trsm",
            format!("dimension mismatch: L is {n}x{n}, B is {}x{k}", b.rows()),
        ));
    }
    if b.grid().rows() != caller_grid.rows() || b.grid().cols() != caller_grid.cols() {
        return Err(config_error(
            "it_inv_trsm",
            "L and B must be distributed over the same grid",
        ));
    }
    cfg.check(n, k, p)?;

    let mut breakdown = PhaseBreakdown::default();
    let mut last = comm.counters();
    let mut mark = |comm: &Communicator, slot: &mut CostCounters| {
        let now = comm.counters();
        let delta = now.since(&last);
        *slot = slot.accumulate(&delta);
        last = now;
    };

    // ------------------------------------------------------------------
    // Setup: build the 3D grid and move L and B into its layouts.
    // ------------------------------------------------------------------
    let grid3d = Grid3D::new(comm, p1, p1, p2)?;
    let (x, y, z) = grid3d.my_coords();
    let kw = k / p2; // right-hand-side slab width
    let nloc = n / p1; // rows of B/X owned per face row coordinate
    let nblocks = n / n0;
    let nb_loc = n0 / p1; // rows of one diagonal block per face coordinate

    // Face communicator (z = 0: every p2-th rank) and the face grid holding L.
    let face_members: Vec<usize> = (0..p).step_by(p2).collect();
    let face_comm = comm.subgroup(&face_members);
    let face_grid = match &face_comm {
        Ok(c) => Some(Grid2D::new(c, p1, p1)?),
        Err(_) => None,
    };

    // Route L onto the face (only the lower triangle carries information).
    // With p2 = 1 and L cyclic on a p1 × p1 caller grid the face *is* L's
    // layout: nothing is sent or copied, and the inversion runs on `l` where
    // it lies (its upper triangle is then the caller's, not zero; the
    // inverter reads only the lower triangles of the diagonal blocks).
    let face_layout = face_layout(n, p1, p2);
    let l_face: Option<Cow<'_, DistMatrix>> = if l.layout().same_placement(&face_layout) {
        Some(Cow::Borrowed(l))
    } else {
        let local = l.redistribute_to(&face_layout, Filter::Lower)?;
        match &face_grid {
            Some(fg) => {
                let face = DistMatrix::from_local(fg, n, n, local)?;
                Some(Cow::Owned(face.with_diag(l.diag())))
            }
            None => None,
        }
    };

    let mut b_rem = b.redistribute_to(&slab_layout(n, k, p1, p2), Filter::All)?;

    // Axis communicators used in every iteration.
    let x_comm = grid3d.axis_comm(0);
    let y_comm = grid3d.axis_comm(1);
    let z_comm = grid3d.axis_comm(2);

    mark(comm, &mut breakdown.setup);

    // ------------------------------------------------------------------
    // Inversion phase: invert the diagonal blocks on the face, then move
    // each inverted block to the transposed-coordinate owner so the solve
    // step's contraction index lines up.
    // ------------------------------------------------------------------
    // The inverted diagonal blocks, stacked: rows `g·nb_loc ..` hold
    // L(S_g, S_g)⁻¹ restricted to rows ≡ y, cols ≡ x (mod p1).  Held on the
    // face and, when p2 > 1, broadcast along z during the solve steps.
    let diag_t_face: Option<Matrix> = match &l_face {
        Some(lf) => {
            let inverses = diagonal_inverter(lf, n0, cfg.inv_base)?;
            let moved = redistribute(
                lf.grid().comm(),
                &stacked_layout(p1, n, n0),
                &inverses,
                &swapped_layout(n, n0, p1),
                Filter::DiagBlocksLower(n0),
            )?;
            comm.give_buffer(inverses.into_vec());
            Some(moved)
        }
        None => None,
    };
    // L's panels below the diagonal blocks feed the update steps; a single
    // block has none, and a moved copy of L goes back to the pool now.
    let l_face = l_face.filter(|_| nblocks > 1);

    mark(comm, &mut breakdown.inversion);

    // ------------------------------------------------------------------
    // Main loop over diagonal blocks.
    // ------------------------------------------------------------------
    // X rows ≡ y (mod p1) of this rank's slab, filled block by block.
    let mut x_result = pooled_zeros(comm, nloc, kw);
    // Locally accumulated trailing updates (rows ≡ x, slab z) of block rows
    // 1.. (block row 0 is never updated): block row i + 1 is stored at row
    // i·nb_loc.
    let mut b_update_acc = pooled_zeros(comm, nloc - nb_loc, kw);

    for i in 0..nblocks {
        // --- Solve step ------------------------------------------------
        // (a) the inverted diagonal piece: on a one-member z axis it is
        //     read where it lies on the face, else broadcast along z.
        let piece = nb_loc * nb_loc;
        let face_diag = || {
            let stacked = diag_t_face
                .as_ref()
                .ok_or_else(|| internal_error("it_inv_trsm", "face rank holds no diag blocks"))?;
            Ok::<_, TrsmError>(&stacked.as_slice()[i * piece..(i + 1) * piece])
        };
        let diag_copy = if p2 > 1 {
            let mine = if z == 0 { face_diag()? } else { &[] };
            let flat = coll::bcast(&z_comm, 0, mine, piece)?;
            Some(Matrix::from_vec(nb_loc, nb_loc, flat)?)
        } else {
            None
        };
        let diag_piece = match &diag_copy {
            Some(copy) => copy.as_view(),
            None => MatRef::from_slice(face_diag()?, nb_loc, nb_loc),
        };

        // (b) multiply with the current right-hand-side block, read in
        //     place, into this block's rows of X.  The piece holds row class
        //     y and column class x of a lower-triangular inverse, so it is a
        //     lower triangle itself, with zeros stored above it.
        let flops = dense::gemm_views(
            1.0,
            diag_piece,
            false,
            b_rem.view(i * nb_loc, 0, nb_loc, kw),
            false,
            0.0,
            &mut x_result.view_mut(i * nb_loc, 0, nb_loc, kw),
            Some(strided_block_mask(Triangle::Lower, y, x)),
        )?;
        comm.charge_flops(flops.get());
        if let Some(copy) = diag_copy {
            comm.give_buffer(copy.into_vec());
        }
        if i + 1 == nblocks {
            // B's last block is read: its storage can serve the reduction.
            comm.give_buffer(std::mem::replace(&mut b_rem, Matrix::zeros(0, 0)).into_vec());
        }

        // (c) sum the partial products over the x axis.  X is `kw` wide, so
        //     the block's rows are contiguous.
        let x_rows = i * nb_loc * kw..(i + 1) * nb_loc * kw;
        if p1 > 1 {
            let reduced = coll::allreduce(
                &x_comm,
                &x_result.as_slice()[x_rows.clone()],
                coll::ReduceOp::Sum,
            )?;
            x_result.as_mut_slice()[x_rows.clone()].copy_from_slice(&reduced);
            comm.give_buffer(reduced);
        }
        let x_block = x_result.view(i * nb_loc, 0, nb_loc, kw);

        mark(comm, &mut breakdown.solve);

        // --- Update step -------------------------------------------------
        if i + 1 < nblocks {
            // (d) the trailing panel L(T_{i+1}, S_i): on a one-member z
            //     axis it is read in place on the face, else copied out and
            //     broadcast along z.
            let panel_rows = nloc - (i + 1) * nb_loc;
            let (r0, c0) = ((i + 1) * nb_loc, i * nb_loc);
            let face_l = || {
                let lf = l_face
                    .as_ref()
                    .ok_or_else(|| internal_error("it_inv_trsm", "face rank holds no L"))?;
                Ok::<_, TrsmError>(lf.local())
            };
            let panel_copy = if p2 > 1 {
                let mut panel_flat = Vec::new();
                if z == 0 {
                    let buf = comm.take_buffer(panel_rows * nb_loc);
                    panel_flat = face_l()?
                        .block_into(r0, c0, panel_rows, nb_loc, buf)
                        .into_vec();
                }
                let panel_bcast = coll::bcast(&z_comm, 0, &panel_flat, panel_rows * nb_loc)?;
                comm.give_buffer(panel_flat);
                Some(Matrix::from_vec(panel_rows, nb_loc, panel_bcast)?)
            } else {
                None
            };
            let panel = match &panel_copy {
                Some(copy) => copy.as_view(),
                None => face_l()?.view(r0, c0, panel_rows, nb_loc),
            };

            // (e) accumulate the trailing update directly into the
            //     accumulator block (β = 1), with no intermediate matrix.
            let flops = dense::gemm_views(
                1.0,
                panel,
                false,
                x_block,
                false,
                1.0,
                &mut b_update_acc.view_mut(i * nb_loc, 0, panel_rows, kw),
                None,
            )?;
            comm.charge_flops(flops.get());
            if let Some(copy) = panel_copy {
                comm.give_buffer(copy.into_vec());
            }

            // (f) lazily reduce only the next block row over the y axis and
            //     subtract it from the remaining right-hand side.  The
            //     accumulator is `kw` wide too, and holds block row i + 1 at
            //     row i·nb_loc: the same words as X's block i.
            let next = &b_update_acc.as_slice()[x_rows];
            let mut b_next = b_rem.view_mut((i + 1) * nb_loc, 0, nb_loc, kw);
            if p1 == 1 {
                b_next.axpy(-1.0, MatRef::from_slice(next, nb_loc, kw));
            } else {
                let reduced = coll::allreduce(&y_comm, next, coll::ReduceOp::Sum)?;
                b_next.axpy(-1.0, MatRef::from_slice(&reduced, nb_loc, kw));
                comm.give_buffer(reduced);
            }
            comm.charge_flops((nb_loc * kw) as u64);

            mark(comm, &mut breakdown.update);
        }
    }
    // What the loop read goes back to the pool before X moves.
    for used in std::iter::once(b_update_acc).chain(diag_t_face) {
        comm.give_buffer(used.into_vec());
    }
    drop(l_face);

    // ------------------------------------------------------------------
    // Finalize: return X in B's layout.  x_result is replicated over the x
    // axis; ranks with x = 0 contribute it.
    // ------------------------------------------------------------------
    let x_layout = x_layout(n, k, p1, p2);
    let x_local = redistribute(comm, &x_layout, &x_result, b.layout(), Filter::All)?;
    let x_out = DistMatrix::from_layout(caller_grid, *b.layout(), x_local)?;
    comm.give_buffer(x_result.into_vec());
    mark(comm, &mut breakdown.finalize);

    Ok((x_out, breakdown))
}

// Rank `(x, y, z)` of the `p1 × p1 × p2` grid is `x·p1·p2 + y·p2 + z`, as
// `Grid3D` numbers it: each layout below is that sum over its classes.

/// `L` on the face `z = 0`, cyclic over `p1 × p1`: piece `(x, y)` on rank
/// `x·p1·p2 + y·p2`.
fn face_layout(n: usize, p1: usize, p2: usize) -> Layout {
    let cyclic = Axis::cyclic(n, p1);
    Layout::new(p1 * p1 * p2, cyclic, cyclic, Holders::strides(p1 * p2, p2))
}

/// `B` replicated for the solve: rows `≡ x (mod p1)` and slab `z` on every
/// `(x, y, z)` — piece `(x, z)` on rank `x·p1·p2 + z`, replicated over `y`
/// at stride `p2`, so that `y = 0` sends it.
fn slab_layout(n: usize, k: usize, p1: usize, p2: usize) -> Layout {
    let slabs = Holders::strides(p1 * p2, 1).replicated(p1, p2);
    Layout::new(p1 * p1 * p2, Axis::cyclic(n, p1), Axis::slabs(k, p2), slabs)
}

/// The inverted blocks where the solve step reads them: the face rank at
/// `(x, y)` holds their rows `≡ y` and columns `≡ x` — piece `(rc, cc)` on
/// rank `cc·p1 + rc`.
fn swapped_layout(n: usize, n0: usize, p1: usize) -> Layout {
    let (rows, cols) = (Axis::cyclic(n, p1), block_columns(n, n0, p1));
    Layout::new(p1 * p1, rows, cols, Holders::strides(1, p1))
}

/// `X` as the solve leaves it, contributed by the ranks with `x = 0`: rows
/// `≡ y (mod p1)` and slab `z` on `(0, y, z)`, rank `y·p2 + z`.
fn x_layout(n: usize, k: usize, p1: usize, p2: usize) -> Layout {
    let (rows, cols) = (Axis::cyclic(n, p1), Axis::slabs(k, p2));
    Layout::new(p1 * p1 * p2, rows, cols, Holders::strides(p2, 1))
}

/// The critical-path cost of each phase of [`it_inv_trsm`] for an `n × n`
/// triangle and `k` right-hand sides stored cyclically on a `pr × pc`
/// caller grid under `cfg`: the maximum over the ranks of what the solve
/// charges them in that phase, walked beside the executor with its layouts
/// and decisions, every message priced on simnet's schedules.  S and W are
/// exact, setup and finalize included.
pub fn predicted_cost(
    n: usize,
    k: usize,
    pr: usize,
    pc: usize,
    cfg: &ItInvConfig,
) -> PhaseBreakdown<Cost> {
    let ranks = walk(n, k, pr, pc, cfg);
    let phase = |of: fn(&PhaseBreakdown) -> CostCounters| walk::critical_path(ranks.iter().map(of));
    PhaseBreakdown {
        setup: phase(|r| r.setup),
        inversion: phase(|r| r.inversion),
        solve: phase(|r| r.solve),
        update: phase(|r| r.update),
        finalize: phase(|r| r.finalize),
    }
}

/// The critical-path cost of the whole of [`it_inv_trsm`], as
/// [`predicted_cost`] prices its phases: the maximum over the ranks of what
/// [`walk`] charges them in all five.  The phases' critical paths can add up
/// to more, as the busiest rank of one phase need not be the busiest of
/// another.
pub(crate) fn predicted_total(n: usize, k: usize, pr: usize, pc: usize, cfg: &ItInvConfig) -> Cost {
    walk::critical_path(walk(n, k, pr, pc, cfg).iter().map(PhaseBreakdown::total))
}

/// What [`it_inv_trsm`] charges each rank of the `pr × pc` caller grid,
/// phase by phase, walked with the executor's layouts and decisions:
///
/// * setup: the moves of `L` onto the face (none when the face is `L`'s
///   layout) and of `B` into the slabs;
/// * inversion: the diagonal inverter on the face ([`crate::diag_inv`]'s
///   walk) and the move of its output to the transposed owners;
/// * solve: per block, the broadcast of an inverted piece along `z`, the
///   product of its triangle and the allreduce of `X`'s block along `x` —
///   the same every block;
/// * update: per block but the last, the broadcast of the trailing panel
///   along `z`, shorter every block, its product, and the allreduce of the
///   next block row along `y` and its subtraction;
/// * finalize: the move of `X` into `B`'s layout.
fn walk(n: usize, k: usize, pr: usize, pc: usize, cfg: &ItInvConfig) -> Vec<PhaseBreakdown> {
    let (p1, p2, n0) = (cfg.p1, cfg.p2, cfg.n0);
    let p = p1 * p1 * p2;
    let (kw, nloc, nblocks, nb) = (k / p2, n / p1, n / n0, n0 / p1);
    let (l, b) = (
        Layout::cyclic_over(pr, pc, n, n),
        Layout::cyclic_over(pr, pc, n, k),
    );

    let mut setup = move_counts(&l, &face_layout(n, p1, p2), Filter::Lower);
    walk::add(
        &mut setup,
        &move_counts(&b, &slab_layout(n, k, p1, p2), Filter::All),
    );

    let mut face = crate::diag_inv::walk(n, n0, p1, cfg.inv_base);
    let to_solve = move_counts(
        &stacked_layout(p1, n, n0),
        &swapped_layout(n, n0, p1),
        Filter::DiagBlocksLower(n0),
    );
    walk::add(&mut face, &to_solve);
    let mut inversion = vec![CostCounters::default(); p];
    walk::add_members(&mut inversion, (0..p).step_by(p2), &face);

    let finalize = move_counts(&x_layout(n, k, p1, p2), &b, Filter::All);

    let allreduce = |me| match p1 {
        1 => CostCounters::default(),
        _ => coll::allreduce_counts(p1, nb * kw, me),
    };
    // The panel below block i − 1 has nloc − i·nb rows, for 0 < i < nblocks.
    let panels: Vec<CostCounters> = (0..p2)
        .map(|z| {
            let bcast = |i| coll::bcast_counts(p2, 0, (nloc - i * nb) * nb, z);
            (1..nblocks).fold(CostCounters::default(), |c, i| c.merge(&bcast(i)))
        })
        .collect();
    let panel_rows: usize = (1..nblocks).map(|i| nloc - i * nb).sum();
    (0..p)
        .map(|r| {
            let (x, y, z) = (r / (p1 * p2), r / p2 % p1, r % p2);
            let piece = Some(strided_block_mask(Triangle::Lower, y, x));
            let block = coll::bcast_counts(p2, 0, nb * nb, z)
                .merge(&allreduce(x))
                .merge(&walk::work(masked_gemm_flops(nb, nb, kw, piece)));
            let subtract = FlopCount::new((nb * kw) as u64);
            let reduce = allreduce(y).merge(&walk::work(subtract));
            PhaseBreakdown {
                setup: setup[r],
                inversion: inversion[r],
                solve: walk::times(block, nblocks),
                update: walk::times(reduce, nblocks.saturating_sub(1))
                    .merge(&panels[z])
                    .merge(&walk::work(gemm_flops(panel_rows, nb, kw))),
                finalize: finalize[r],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen;
    use simnet::{Machine, MachineParams};

    fn on_grid<T: Send>(
        pr: usize,
        pc: usize,
        f: impl Fn(&Grid2D) -> T + Send + Sync,
    ) -> (Vec<T>, simnet::CostReport) {
        let out = Machine::new(pr * pc, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, pr, pc).unwrap();
                f(&grid)
            })
            .unwrap();
        (out.results, out.report)
    }

    fn check(pr: usize, pc: usize, cfg: ItInvConfig, n: usize, k: usize) {
        let (results, _) = on_grid(pr, pc, move |grid| {
            let l_global = gen::well_conditioned_lower(n, 5);
            let x_true = gen::rhs(n, k, 6);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(grid, &l_global);
            let b = DistMatrix::from_global(grid, &b_global);
            let (x, _) = it_inv_trsm(&l, &b, &cfg).unwrap();
            dense::norms::rel_diff(&x.to_global(), &x_true)
        });
        for (rank, d) in results.into_iter().enumerate() {
            assert!(
                d < 1e-8,
                "grid {pr}x{pc} cfg {cfg:?} n={n} k={k} rank {rank}: rel diff {d}"
            );
        }
    }

    #[test]
    fn single_processor() {
        check(
            1,
            1,
            ItInvConfig {
                p1: 1,
                p2: 1,
                n0: 8,
                inv_base: 8,
            },
            32,
            8,
        );
    }

    #[test]
    fn one_d_layout_whole_matrix_inverted() {
        // p1 = 1, p2 = 4: the 1D regime of Figure 1, n0 = n.
        check(
            2,
            2,
            ItInvConfig {
                p1: 1,
                p2: 4,
                n0: 32,
                inv_base: 8,
            },
            32,
            16,
        );
    }

    #[test]
    fn two_d_layout_small_blocks() {
        // p1 = 2, p2 = 1: the 2D regime, several diagonal blocks.
        check(
            2,
            2,
            ItInvConfig {
                p1: 2,
                p2: 1,
                n0: 8,
                inv_base: 8,
            },
            32,
            8,
        );
    }

    #[test]
    fn three_d_layout() {
        // p1 = 2, p2 = 4 on 16 processors: the full 3D cuboid of Figure 1.
        check(
            4,
            4,
            ItInvConfig {
                p1: 2,
                p2: 4,
                n0: 16,
                inv_base: 8,
            },
            64,
            16,
        );
    }

    #[test]
    fn three_d_layout_larger_face() {
        check(
            4,
            4,
            ItInvConfig {
                p1: 4,
                p2: 1,
                n0: 16,
                inv_base: 8,
            },
            64,
            16,
        );
    }

    #[test]
    fn n0_extremes_generalise_both_classical_schemes() {
        // n0 = n (full inversion) and n0 = p1 (minimal blocks) both solve.
        check(
            2,
            2,
            ItInvConfig {
                p1: 2,
                p2: 1,
                n0: 64,
                inv_base: 8,
            },
            64,
            8,
        );
        check(
            2,
            2,
            ItInvConfig {
                p1: 2,
                p2: 1,
                n0: 2,
                inv_base: 8,
            },
            64,
            8,
        );
    }

    #[test]
    fn wide_right_hand_side() {
        check(
            2,
            2,
            ItInvConfig {
                p1: 1,
                p2: 4,
                n0: 16,
                inv_base: 8,
            },
            32,
            64,
        );
    }

    #[test]
    fn caller_grid_shape_does_not_matter() {
        // The caller may hold L and B on a rectangular grid; the algorithm
        // re-grids internally.
        check(
            1,
            4,
            ItInvConfig {
                p1: 2,
                p2: 1,
                n0: 8,
                inv_base: 8,
            },
            32,
            8,
        );
        check(
            4,
            1,
            ItInvConfig {
                p1: 2,
                p2: 1,
                n0: 8,
                inv_base: 8,
            },
            32,
            8,
        );
    }

    #[test]
    fn invalid_configurations_rejected() {
        let (results, _) = on_grid(2, 2, |grid| {
            let l = DistMatrix::zeros(grid, 32, 32);
            let b = DistMatrix::zeros(grid, 32, 8);
            let bad_grid = it_inv_trsm(
                &l,
                &b,
                &ItInvConfig {
                    p1: 2,
                    p2: 2,
                    n0: 8,
                    inv_base: 8,
                },
            )
            .is_err();
            let bad_n0 = it_inv_trsm(
                &l,
                &b,
                &ItInvConfig {
                    p1: 2,
                    p2: 1,
                    n0: 5,
                    inv_base: 8,
                },
            )
            .is_err();
            let bad_k = {
                let b_odd = DistMatrix::zeros(grid, 32, 6);
                it_inv_trsm(
                    &l,
                    &b_odd,
                    &ItInvConfig {
                        p1: 1,
                        p2: 4,
                        n0: 8,
                        inv_base: 8,
                    },
                )
                .is_err()
            };
            let rect_l = DistMatrix::zeros(grid, 32, 16);
            let bad_l = it_inv_trsm(
                &rect_l,
                &b,
                &ItInvConfig {
                    p1: 2,
                    p2: 1,
                    n0: 8,
                    inv_base: 8,
                },
            )
            .is_err();
            bad_grid && bad_n0 && bad_k && bad_l
        });
        assert!(results.into_iter().all(|v| v));
    }

    #[test]
    fn phase_breakdown_accounts_for_all_work() {
        let (results, report) = on_grid(2, 2, |grid| {
            let n = 64;
            let k = 16;
            let l_global = gen::well_conditioned_lower(n, 1);
            let x_true = gen::rhs(n, k, 2);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(grid, &l_global);
            let b = DistMatrix::from_global(grid, &b_global);
            let (_, phases) = it_inv_trsm(
                &l,
                &b,
                &ItInvConfig {
                    p1: 2,
                    p2: 1,
                    n0: 16,
                    inv_base: 8,
                },
            )
            .unwrap();
            phases
        });
        for (rank, phases) in results.into_iter().enumerate() {
            let total = phases.total();
            // The per-phase counters must add up to (almost all of) what the
            // machine reports for this rank; to_global in the test harness is
            // excluded, so compare against the phase total itself.
            assert!(total.flops > 0, "rank {rank} must do work");
            assert!(phases.solve.flops > 0);
            assert!(phases.update.flops > 0);
            assert!(phases.inversion.flops > 0);
            assert!(
                total.flops <= report.per_rank[rank].flops,
                "phase accounting cannot exceed the machine's counters"
            );
        }
    }

    /// Every rank's charges in every phase are what the walk says, on the
    /// inverter's three routes (round robin, one rank per block, sub-grids
    /// with `tri_inv`), with and without a setup move of `L`, and on
    /// rectangular caller grids.
    #[test]
    fn the_walk_is_what_every_rank_is_charged_in_every_phase() {
        let traffic = |c: &CostCounters| (c.msgs_sent, c.msgs_recv, c.words_sent, c.words_recv);
        // (pr, pc, p1, p2, n0, n, k)
        let cases = [
            (2, 2, 2, 1, 8, 64, 16),
            (4, 4, 2, 4, 16, 64, 16),
            (4, 4, 4, 1, 64, 128, 16),
            (4, 4, 4, 1, 16, 64, 8),
            (2, 8, 4, 1, 32, 128, 16),
            (2, 2, 1, 4, 32, 32, 16),
            (4, 4, 2, 4, 64, 128, 32),
            (2, 4, 2, 2, 16, 48, 12),
        ];
        for (pr, pc, p1, p2, n0, n, k) in cases {
            let cfg = ItInvConfig {
                p1,
                p2,
                n0,
                inv_base: 8,
            };
            let (phases, _) = on_grid(pr, pc, move |grid| {
                let l = DistMatrix::from_global(grid, &gen::well_conditioned_lower(n, 5));
                let b = DistMatrix::from_global(grid, &gen::rhs(n, k, 6));
                it_inv_trsm(&l, &b, &cfg).unwrap().1
            });
            let walked = walk(n, k, pr, pc, &cfg);
            for (rank, (measured, walked)) in phases.into_iter().zip(walked).enumerate() {
                for ((name, measured), (_, walked)) in
                    measured.named().into_iter().zip(walked.named())
                {
                    assert_eq!(
                        traffic(&measured),
                        traffic(&walked),
                        "{pr}x{pc} {cfg:?} n={n} k={k}: rank {rank}, {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn latency_is_dominated_by_block_count_not_matrix_size() {
        // Doubling n at fixed n0 roughly doubles the message count (the
        // n/n0·log p term); it must stay far below the O(n) of a wavefront.
        let run = |n: usize| {
            let (_, report) = on_grid(2, 2, move |grid| {
                let l_global = gen::well_conditioned_lower(n, 3);
                let b_global = gen::rhs(n, 8, 4);
                let l = DistMatrix::from_global(grid, &l_global);
                let b = DistMatrix::from_global(grid, &b_global);
                it_inv_trsm(
                    &l,
                    &b,
                    &ItInvConfig {
                        p1: 2,
                        p2: 1,
                        n0: n / 4,
                        inv_base: 8,
                    },
                )
                .unwrap();
            });
            report.max_messages()
        };
        let small = run(64);
        let large = run(128);
        // Same number of blocks (4) → similar message counts.
        assert!(
            (large as f64) < 1.5 * small as f64,
            "latency should depend on n/n0, not n ({small} vs {large})"
        );
    }
}
