//! Experiment E6 — optimal parameter selection (Section VIII).
//!
//! Prints, for a sweep of `n/k` ratios and processor counts, the parameters
//! the cost model recommends (`p1`, `p2`, `n0`, `r1`, `r2`), the regime, and
//! the resulting model cost `T_IT`, next to the concrete integer plan the
//! planner produces and the measured cost of running that plan on the
//! simulated machine (for the sizes small enough to simulate).

use catrsm::planner;
use costmodel::CostModelRev;
use harness::{banner, run_trsm, write_csv, TrsmAlgo, TrsmInstance};
use simnet::MachineParams;

fn main() {
    banner("E6: parameter tuning (paper Section VIII)");
    println!(
        "{:>8} {:>8} {:>6} | {:>22} {:>8} {:>8} {:>8} {:>6} {:>6} | integer plan (p1,p2,n0)",
        "n", "k", "p", "regime", "p1*", "p2*", "n0*", "r1*", "r2*"
    );
    let mut rows = Vec::new();
    for p in [64usize, 4096, 65536] {
        for (n, k) in [
            (1usize << 10, 1usize << 20),
            (1 << 12, 1 << 16),
            (1 << 14, 1 << 14),
            (1 << 16, 1 << 12),
            (1 << 20, 1 << 10),
        ] {
            let model = CostModelRev::Ipdps17.plan(n, k, p);
            let plan = planner::plan(CostModelRev::Ipdps17, n, k, p);
            println!(
                "{:>8} {:>8} {:>6} | {:>22} {:>8.1} {:>8.1} {:>8.0} {:>6.1} {:>6.1} | ({}, {}, {})",
                n,
                k,
                p,
                format!("{:?}", model.regime),
                model.p1,
                model.p2,
                model.n0,
                model.r1,
                model.r2,
                plan.it_inv.p1,
                plan.it_inv.p2,
                plan.it_inv.n0
            );
            rows.push(format!(
                "{n},{k},{p},{:?},{},{},{},{},{},{},{},{}",
                model.regime,
                model.p1,
                model.p2,
                model.n0,
                model.r1,
                model.r2,
                plan.it_inv.p1,
                plan.it_inv.p2,
                plan.it_inv.n0
            ));
        }
    }

    banner("E6b: planned vs. hand-picked parameters on the simulator (p = 16)");
    println!(
        "{:>6} {:>6} | {:<26} | {:>8} {:>12} {:>12}",
        "n", "k", "configuration", "S", "W", "virtual T"
    );
    for (n, k) in [(256usize, 64usize), (512, 16), (64, 1024)] {
        let plan = planner::plan(CostModelRev::Ipdps17, n, k, 16);
        let inst = TrsmInstance {
            n,
            k,
            pr: 4,
            pc: 4,
            seed: 31,
        };
        let planned = run_trsm(
            &inst,
            TrsmAlgo::Iterative(plan.it_inv),
            MachineParams::cluster(),
        );
        println!(
            "{:>6} {:>6} | planner {:<18?} | {:>8} {:>12} {:>12.4e}",
            n,
            k,
            (plan.it_inv.p1, plan.it_inv.p2, plan.it_inv.n0),
            planned.latency,
            planned.bandwidth,
            planned.time
        );
        // A deliberately mis-shaped configuration for contrast: 1D layout.
        let naive = catrsm::it_inv_trsm::ItInvConfig {
            p1: 1,
            p2: 16,
            n0: n,
            inv_base: 16,
        };
        if k % 16 == 0 {
            let m = run_trsm(&inst, TrsmAlgo::Iterative(naive), MachineParams::cluster());
            println!(
                "{:>6} {:>6} | naive 1D (1, 16, {:>4})       | {:>8} {:>12} {:>12.4e}",
                n, k, n, m.latency, m.bandwidth, m.time
            );
        }
    }
    let path = write_csv(
        "exp_tuning",
        "n,k,p,regime,p1_model,p2_model,n0_model,r1_model,r2_model,p1_plan,p2_plan,n0_plan",
        &rows,
    );
    println!("\nCSV written to {}", path.display());
    println!(
        "\nExpectation (paper): the regime flips 1D → 3D → 2D as n/k grows; the\n\
         planner's integer parameters track the model's; and for the narrow\n\
         (2D-regime) instances the planned configuration beats the naive 1D\n\
         layout in measured bandwidth / virtual time."
    );
}
