//! Row-fan-out TRSM baseline (Heath & Romine, Section II-C3 of the paper).
//!
//! The classical distributed substitution algorithm for triangular systems:
//! the rows of `L`, `B` and `X` are distributed cyclically over all `p`
//! processors (a 1D layout); row `i` is solved by its owner and broadcast,
//! after which every processor updates its own later rows.  With `k`
//! right-hand sides this performs the optimal `n²k/p` flops but needs `Θ(n)`
//! broadcast rounds — the `Θ(n·log p)` synchronization cost that both the
//! recursive and the inversion-based algorithms of the paper improve on.
//! It is included as an independent sanity baseline for the experiments; the
//! conclusion-table comparison uses the paper's own recursive baseline.
//! [`predicted_cost`] walks what the executor runs — its layout moves and
//! broadcasts — and prices every message on the schedule simnet charges.

use crate::error::config_error;
use crate::rec_trsm::critical_path;
use crate::Result;
use costmodel::Cost;
use dense::Diag;
use pgrid::distmat::cyclic_local_count;
use pgrid::redist::{redistribute, Axis, Filter, Layout};
use pgrid::DistMatrix;
use simnet::{coll, CostCounters};

/// Solve `L·X = B` by row fan-out substitution.
///
/// `L` (`n×n` lower triangular) and `B` (`n×k`) may be distributed over any
/// 2D grid in any layout; they are redistributed internally to a 1D
/// row-cyclic layout over all `p` processors (of `L`, only the lower
/// triangle), and the solution is returned in `B`'s layout.  The pivots
/// read `L`'s diagonal kind.
pub fn wavefront_trsm(l: &DistMatrix, b: &DistMatrix) -> Result<DistMatrix> {
    let grid = l.grid();
    let comm = grid.comm();
    let p = comm.size();
    let n = l.rows();
    let k = b.cols();
    if l.cols() != n || b.rows() != n {
        let dims = format!("L {n}x{} is not square over B {}x{k}", l.cols(), b.rows());
        return Err(config_error("wavefront_trsm", dims));
    }
    let me = comm.rank();

    let l_local = l.redistribute_to(&by_rows(n, n, p), Filter::Lower)?;
    let mut b_local = b.redistribute_to(&by_rows(n, k, p), Filter::All)?;
    let my_rows = l_local.rows();

    // Forward substitution, one row at a time.
    for i in 0..n {
        let owner = i % p;
        let xi = if owner == me {
            let li = i / p;
            let pivot = match l.diag() {
                Diag::Unit => 1.0,
                Diag::NonUnit => l_local[(li, i)],
            };
            if pivot.abs() < 1e-300 {
                return Err(dense::DenseError::SingularPivot {
                    index: i,
                    value: pivot,
                }
                .into());
            }
            let row = b_local.row_mut(li);
            row.iter_mut().for_each(|v| *v /= pivot);
            comm.charge_flops(k as u64);
            row.to_vec()
        } else {
            Vec::new()
        };
        let xi = coll::bcast(comm, owner, &xi, k)?;
        // Update the rows this processor owns below row i.
        let first = cyclic_local_count(i + 1, p, me);
        for li in first..my_rows {
            let lij = l_local[(li, i)];
            if lij == 0.0 {
                continue;
            }
            for c in 0..k {
                b_local[(li, c)] -= lij * xi[c];
            }
        }
        comm.charge_flops(2 * ((my_rows - first) * k) as u64);
    }

    // Return X in B's layout.
    let x = redistribute(comm, &by_rows(n, k, p), &b_local, b.layout(), Filter::All)?;
    Ok(DistMatrix::from_layout(grid, b.layout().clone(), x)?)
}

/// The 1D layout the substitution runs in: row `i` of an `n × cols`
/// operand, whole, on rank `i mod p`.
fn by_rows(n: usize, cols: usize, p: usize) -> Layout {
    Layout::new(p, Axis::cyclic(n, p), Axis::whole(cols), |r, _| Some(r))
}

/// The critical-path cost [`wavefront_trsm`] charges for an `n × n` triangle
/// and `k` right-hand sides stored cyclically on a `pr × pc` grid, walked
/// on the schedules simnet charges: the entry moves of `L`'s lower triangle
/// and `B` to the 1D layout and the exit move of `X` ([`coll::bruck_counts`];
/// none when `pc = 1`, where the layouts are one), and a `k`-word broadcast
/// from rank `i mod p` per row ([`coll::bcast_counts`]).  S and W are
/// exact; flops count multiply-adds, as every `costmodel` formula does.
/// Nothing loops over `n`.
pub fn predicted_cost(n: usize, k: usize, pr: usize, pc: usize) -> Cost {
    let p = pr * pc;
    let rows = |d: usize| cyclic_local_count(n, p, d);
    let width = |y: usize| cyclic_local_count(k, pc, y);
    // Rank (x, y) holds the cyclic rows x and columns y, of which row
    // i = d + t·p has ⌊(d − y)/pc⌋ + 1 + t·p/pc in L's lower triangle and
    // lives on rank d ≡ x (mod pr) of the 1D layout.
    let lower =
        |d, y| rows(d) * ((d + pc - y) / pc) + p / pc * rows(d) * rows(d).saturating_sub(1) / 2;
    let dests = |s: usize| (s / pc..p).step_by(pr);
    let moves = match pc {
        1 => Vec::new(),
        _ => vec![
            coll::bruck_counts(p, |s| dests(s).map(move |d| (d, lower(d, s % pc)))),
            coll::bruck_counts(p, |s| dests(s).map(move |d| (d, rows(d) * width(s % pc)))),
            coll::bruck_counts(p, |d| {
                (0..pc).map(move |y| (d % pr * pc + y, rows(d) * width(y)))
            }),
        ],
    };
    // Root t charges rank d what root 0 charges member (d − t) mod p: sums
    // over the members, twice round, give each rank its partial cycle.
    let mut prefix = vec![CostCounters::default()];
    for rel in 0..2 * p {
        prefix.push(prefix[rel].merge(&coll::bcast_counts(p, 0, k, rel % p)));
    }
    let ranks = (0..p).map(|d| {
        let partial = prefix[p + d + 1].since(&prefix[p + d + 1 - n % p]);
        let mut rank = moves.iter().fold(partial, |rank, m| rank.merge(&m[d]));
        // Row g takes g multiply-adds and a division per right-hand side.
        rank.flops = (k * (rows(d) * (d + 1) + p * rows(d) * rows(d).saturating_sub(1) / 2)) as u64;
        rank
    });
    // A whole cycle receives what it sends on every rank.
    let cycle = Cost::new(prefix[p].msgs_sent as f64, prefix[p].words_sent as f64, 0.0);
    critical_path(ranks) + cycle.scaled((n / p) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gen;
    use pgrid::Grid2D;
    use simnet::{Machine, MachineParams};

    fn check(pr: usize, pc: usize, n: usize, k: usize) {
        let out = Machine::new(pr * pc, MachineParams::unit())
            .run(move |comm| {
                let grid = Grid2D::new(comm, pr, pc).unwrap();
                let l_global = gen::well_conditioned_lower(n, 31);
                let x_true = gen::rhs(n, k, 32);
                let b_global = dense::matmul(&l_global, &x_true);
                let l = DistMatrix::from_global(&grid, &l_global);
                let b = DistMatrix::from_global(&grid, &b_global);
                let x = wavefront_trsm(&l, &b).unwrap();
                dense::norms::rel_diff(&x.to_global(), &x_true)
            })
            .unwrap();
        for d in out.results {
            assert!(d < 1e-8, "pr={pr} pc={pc} n={n} k={k}: {d}");
        }
    }

    #[test]
    fn solves_on_various_grids() {
        check(1, 1, 24, 4);
        check(2, 2, 32, 8);
        check(1, 3, 21, 5);
    }

    #[test]
    fn latency_scales_linearly_with_n() {
        let run = |n: usize| {
            Machine::new(4, MachineParams::unit())
                .run(move |comm| {
                    let grid = Grid2D::new(comm, 2, 2).unwrap();
                    let l_global = gen::well_conditioned_lower(n, 1);
                    let b_global = gen::rhs(n, 4, 2);
                    let l = DistMatrix::from_global(&grid, &l_global);
                    let b = DistMatrix::from_global(&grid, &b_global);
                    wavefront_trsm(&l, &b).unwrap();
                })
                .unwrap()
                .report
                .max_messages()
        };
        let small = run(32);
        let large = run(64);
        assert!(
            large as f64 > 1.6 * small as f64,
            "wavefront latency must grow ~linearly in n"
        );
    }

    #[test]
    fn the_walk_is_what_the_executor_charges() {
        // Partial root cycles, a grid with pc = 1 (nothing moves), one
        // neither square nor a power of two, and ragged row counts.
        for (pr, pc, n, k) in [(2, 4, 37, 5), (1, 3, 21, 5), (3, 1, 20, 4), (2, 3, 29, 7)] {
            let out = Machine::new(pr * pc, MachineParams::unit())
                .run(move |comm| {
                    let grid = Grid2D::new(comm, pr, pc).unwrap();
                    let l = DistMatrix::from_global(&grid, &gen::well_conditioned_lower(n, 5));
                    let b = DistMatrix::from_global(&grid, &gen::rhs(n, k, 6));
                    wavefront_trsm(&l, &b).unwrap();
                })
                .unwrap();
            let walk = predicted_cost(n, k, pr, pc);
            let what = format!("{pr}x{pc} n={n} k={k}");
            assert_eq!(out.report.max_messages() as f64, walk.latency, "{what}: S");
            assert_eq!(out.report.max_words() as f64, walk.bandwidth, "{what}: W");
        }
    }

    #[test]
    fn the_walk_pays_a_broadcast_per_row_at_scale() {
        // Θ(n·log p) messages: far above both communication-avoiding
        // algorithms' Section IX latencies, and still quick to walk.
        let (n, k, p) = (65536, 1024, 4096);
        let walk = predicted_cost(n, k, 64, 64);
        let (nf, kf, pf) = (n as f64, k as f64, p as f64);
        let rev = costmodel::CostModelRev::Ipdps17;
        assert!(walk.latency >= nf * pf.log2());
        assert!(walk.latency > rev.standard_cost(nf, kf, pf).latency);
        assert!(walk.latency > rev.new_cost(nf, kf, pf).latency);
    }

    #[test]
    fn rejects_bad_shapes() {
        let out = Machine::new(4, MachineParams::unit())
            .run(|comm| {
                let grid = Grid2D::new(comm, 2, 2).unwrap();
                let rect = DistMatrix::zeros(&grid, 8, 6);
                let b = DistMatrix::zeros(&grid, 8, 4);
                let bad_l = wavefront_trsm(&rect, &b).is_err();
                let b_bad = DistMatrix::zeros(&grid, 6, 4);
                let l = DistMatrix::zeros(&grid, 8, 8);
                let bad_b = wavefront_trsm(&l, &b_bad).is_err();
                bad_l && bad_b
            })
            .unwrap();
        assert!(out.results.into_iter().all(|v| v));
    }
}
