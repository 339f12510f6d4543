//! Experiment E6 — optimal parameter selection (Section VIII).
//!
//! Prints, for a sweep of `n/k` ratios and processor counts, the parameters
//! the cost model recommends (`p1`, `p2`, `n0`, `r1`, `r2`), the regime, and
//! the resulting model cost `T_IT`, next to the concrete integer plan the
//! planner produces and the measured cost of running that plan on the
//! simulated machine (for the sizes small enough to simulate).

use catrsm::{planner, Algorithm, ItInvConfig, SolveRequest};
use costmodel::CostModelRev;
use harness::{banner, run, swf, Table, TrsmInstance};
use simnet::MachineParams;

fn main() {
    banner("E6: parameter tuning (paper Section VIII)");
    let mut table = Table::new(
        "n,k,p,regime,p1_model,p2_model,n0_model,r1_model,r2_model,p1_plan,p2_plan,n0_plan",
    );
    for p in [64usize, 4096, 65536] {
        for (n, k) in [
            (1usize << 10, 1usize << 20),
            (1 << 12, 1 << 16),
            (1 << 14, 1 << 14),
            (1 << 16, 1 << 12),
            (1 << 20, 1 << 10),
        ] {
            let model = CostModelRev::Ipdps17.plan(n, k, p);
            let plan = planner::plan(CostModelRev::Ipdps17, n, k, p).expect("a grid fits");
            let (regime, m) = (format!("{:?}", model.regime), &model);
            table.row(&[
                &n, &k, &p, &regime, &m.p1, &m.p2, &m.n0, &m.r1, &m.r2, &plan.p1, &plan.p2,
                &plan.n0,
            ]);
        }
    }
    table.finish("exp_tuning");

    banner("E6b: planned vs. hand-picked parameters on the simulator (p = 16)");
    let mut simulated = Table::new("n,k,configuration,S,W,virtual_T");
    for (n, k) in [(256usize, 64usize), (512, 16), (64, 1024)] {
        let inst = TrsmInstance {
            n,
            k,
            pr: 4,
            pc: 4,
            seed: 31,
        };
        let mut show = |label: String, request: SolveRequest| {
            let r = run(&inst, request, MachineParams::cluster()).report;
            let ((s, w, _), t) = (swf(&r), r.virtual_time());
            simulated.row(&[&n, &k, &label, &s, &w, &t]);
        };
        // The unpinned request runs what the planner picks.
        let plan = planner::plan(CostModelRev::Ipdps17, n, k, 16).expect("a grid fits");
        show(
            format!("planner p1={} p2={} n0={}", plan.p1, plan.p2, plan.n0),
            SolveRequest::lower(),
        );
        // A deliberately mis-shaped configuration for contrast: 1D layout.
        if k % 16 == 0 {
            let naive = Algorithm::IterativeInversion(ItInvConfig {
                p1: 1,
                p2: 16,
                n0: n,
                inv_base: 16,
            });
            show(
                format!("naive 1D p1=1 p2=16 n0={n}"),
                SolveRequest::lower().algorithm(naive),
            );
        }
    }
    print!("{}", simulated.text());
    println!(
        "\nExpectation (paper): the regime flips 1D → 3D → 2D as n/k grows; the\n\
         planner's integer parameters track the model's; and for the narrow\n\
         (2D-regime) instances the planned configuration beats the naive 1D\n\
         layout in measured bandwidth / virtual time."
    );
}
