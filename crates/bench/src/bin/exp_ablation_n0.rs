//! Experiment A1 (ablation) — effect of the inversion block size `n0`.
//!
//! The paper's algorithm "generalizes the usual way of TRSM computation and
//! the full matrix inversion approach": with `n0 = n` the whole matrix is
//! inverted (maximum parallelism in the solve, maximum inversion flops), with
//! small `n0` it degenerates towards a blocked substitution (many
//! synchronised iterations).  This sweep measures S/W/F for every feasible
//! `n0` at a fixed problem size, showing the latency/flop trade-off the
//! optimal `n0` of Section VIII balances.

use catrsm::it_inv_trsm::ItInvConfig;
use harness::{banner, run_trsm, write_csv, TrsmAlgo, TrsmInstance};
use simnet::MachineParams;

fn main() {
    banner("A1: ablation over the inversion block size n0");
    let n = 512;
    let k = 64;
    let (pr, pc) = (4usize, 4usize);
    let (p1, p2) = (4usize, 1usize);
    println!("n={n} k={k} p={} grid={p1}x{p1}x{p2}", pr * pc);
    println!(
        "{:>6} {:>8} | {:>8} {:>12} {:>14} {:>14}",
        "n0", "n/n0", "S", "W", "F", "virtual T"
    );
    let mut rows = Vec::new();
    let mut n0 = p1;
    let mut best: Option<(usize, f64)> = None;
    while n0 <= n {
        if n % n0 == 0 {
            let cfg = ItInvConfig {
                p1,
                p2,
                n0,
                inv_base: 16,
            };
            let inst = TrsmInstance {
                n,
                k,
                pr,
                pc,
                seed: 41,
            };
            let m = run_trsm(&inst, TrsmAlgo::Iterative(cfg), MachineParams::cluster());
            assert!(m.error < 1e-7);
            println!(
                "{:>6} {:>8} | {:>8} {:>12} {:>14} {:>14.5e}",
                n0,
                n / n0,
                m.latency,
                m.bandwidth,
                m.flops,
                m.time
            );
            rows.push(format!(
                "{n0},{},{},{},{},{}",
                n / n0,
                m.latency,
                m.bandwidth,
                m.flops,
                m.time
            ));
            if best.map(|(_, t)| m.time < t).unwrap_or(true) {
                best = Some((n0, m.time));
            }
        }
        n0 *= 2;
    }
    if let Some((n0_best, _)) = best {
        let model = costmodel::CostModelRev::Ipdps17.plan(n, k, pr * pc);
        println!(
            "\nBest measured n0 = {n0_best}; Section VIII recommends n0 = O(min(sqrt(nk), n)) = {:.0}.",
            model.n0
        );
    }
    let path = write_csv("exp_ablation_n0", "n0,blocks,S,W,F,virtual_time", &rows);
    println!("CSV written to {}", path.display());
    println!(
        "\nExpectation (paper): latency S falls as n0 grows (fewer synchronised\n\
         iterations) while the inversion flops rise; the virtual-time optimum\n\
         sits at an intermediate n0, consistent with the Section VIII choice."
    );
}
