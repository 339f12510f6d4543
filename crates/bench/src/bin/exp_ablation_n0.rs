//! Experiment A1 (ablation) — effect of the inversion block size `n0`.
//!
//! The paper's algorithm "generalizes the usual way of TRSM computation and
//! the full matrix inversion approach": with `n0 = n` the whole matrix is
//! inverted (maximum parallelism in the solve, maximum inversion flops), with
//! small `n0` it degenerates towards a blocked substitution (many
//! synchronised iterations).  This sweep measures S/W/F for every feasible
//! `n0` at a fixed problem size, showing the latency/flop trade-off the
//! optimal `n0` of Section VIII balances.

use catrsm::{Algorithm, ItInvConfig, SolveRequest};
use harness::{banner, run, swf, Table, TrsmInstance};
use simnet::MachineParams;

fn main() {
    banner("A1: ablation over the inversion block size n0");
    let n = 512;
    let k = 64;
    let (pr, pc) = (4usize, 4usize);
    let (p1, p2) = (4usize, 1usize);
    println!("n={n} k={k} p={} grid={p1}x{p1}x{p2}\n", pr * pc);
    let mut table = Table::new("n0,blocks,S,W,F,virtual_time");
    let inst = TrsmInstance {
        n,
        k,
        pr,
        pc,
        seed: 41,
    };
    let mut best: Option<(usize, f64)> = None;
    let mut n0 = p1;
    while n0 <= n {
        if n % n0 == 0 {
            let cfg = ItInvConfig {
                p1,
                p2,
                n0,
                inv_base: 16,
            };
            let request = SolveRequest::lower().algorithm(Algorithm::IterativeInversion(cfg));
            let m = run(&inst, request, MachineParams::cluster());
            let ((s, w, f), time) = (swf(&m.report), m.report.virtual_time());
            table.row(&[&n0, &(n / n0), &s, &w, &f, &time]);
            if best.is_none_or(|(_, t)| time < t) {
                best = Some((n0, time));
            }
        }
        n0 *= 2;
    }
    table.finish("exp_ablation_n0");
    if let Some((n0_best, _)) = best {
        let model = costmodel::CostModelRev::Ipdps17.plan(n, k, pr * pc);
        println!(
            "Best measured n0 = {n0_best}; Section VIII recommends n0 = O(min(sqrt(nk), n)) = {:.0}.",
            model.n0
        );
    }
    println!(
        "\nExpectation (paper): latency S falls as n0 grows (fewer synchronised\n\
         iterations) while the inversion flops rise; the virtual-time optimum\n\
         sits at an intermediate n0, consistent with the Section VIII choice."
    );
}
