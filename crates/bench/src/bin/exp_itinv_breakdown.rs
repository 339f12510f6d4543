//! Experiment E5 — per-phase cost breakdown of `It-Inv-TRSM`
//! (the tables of Section VII: inversion, solve and update costs).
//!
//! For each instance the critical-path counters of every phase are printed
//! next to the corresponding closed-form expressions `W_Inv`, `W_Solve`,
//! `W_Upd` (and their flop counterparts), showing that the inversion phase is
//! never of leading order and that the solve/update phases carry the
//! predicted `n/n0`-proportional costs.

use catrsm::{Algorithm, ItInvConfig, SolveRequest};
use harness::{banner, run, swf, Table, TrsmInstance};
use simnet::MachineParams;

fn main() {
    banner("E5: It-Inv-TRSM phase breakdown (paper Section VII)");
    let mut table =
        Table::new("n,k,p,p1,p2,n0,phase,S_measured,W_measured,F_measured,W_model,F_model");
    let cases = [
        // (n, k, pr, pc, p1, p2, n0)
        (256usize, 64usize, 2usize, 2usize, 2usize, 1usize, 32usize),
        (256, 64, 4, 4, 2, 4, 64),
        (256, 64, 4, 4, 4, 1, 32),
        (512, 128, 4, 4, 4, 1, 64),
        (128, 512, 4, 4, 1, 16, 128),
    ];
    println!("whole solve, and the two phases the model does not price:");
    for (n, k, pr, pc, p1, p2, n0) in cases {
        let inst = TrsmInstance {
            n,
            k,
            pr,
            pc,
            seed: 11,
        };
        let cfg = ItInvConfig {
            p1,
            p2,
            n0,
            inv_base: 16,
        };
        let request = SolveRequest::lower().algorithm(Algorithm::IterativeInversion(cfg));
        let measured = run(&inst, request, MachineParams::unit());
        let p = pr * pc;
        println!(
            "  n={n} k={k} p={p} grid={p1}x{p1}x{p2} n0={n0}: {}",
            measured.report.summary()
        );

        // The model prices the inversion on the r1 × r1 × r2 sub-grid each
        // diagonal block gets, and solve/update on the p1 × p1 × p2 solve grid.
        let phases = measured.phases.expect("It-Inv-TRSM reports its phases");
        for ((phase, report), (_, model)) in phases.into_iter().zip(cfg.phase_model(n, k).named()) {
            let Some(model) = model else {
                println!("    {phase:<9} {}", report.summary());
                continue;
            };
            let ((s, w, f), wm, fm) = (swf(&report), model.bandwidth, 2.0 * model.flops);
            table.row(&[&n, &k, &p, &p1, &p2, &n0, &phase, &s, &w, &f, &wm, &fm]);
        }
    }
    println!();
    table.finish("exp_itinv_breakdown");
    println!(
        "\nExpectation (paper): solve and update dominate bandwidth and flops\n\
         with the W_Solve / W_Upd shapes of Section VII; the inversion phase is\n\
         never of leading order; latency per phase is proportional to n/n0\n\
         (solve, update) or polylog (inversion)."
    );
}
