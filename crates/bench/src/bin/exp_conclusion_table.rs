//! Experiment T1 — the conclusion table of Section IX: standard (recursive)
//! TRSM versus the new iterative inversion-based method, in all three
//! regimes.
//!
//! For every regime the two algorithms are run on the simulated machine with
//! the parameters the planner (Section VIII) selects, and the measured
//! critical-path S/W/F are printed next to the asymptotic entries of the
//! paper's table.  The paper's claims to check:
//!
//! * both algorithms move the same order of words (W) and do the same order
//!   of flops (F, at most 2× for the new method in the 3D regime);
//! * the new method needs far fewer messages (S) in the 2D and 3D regimes,
//!   with the gap growing as `(n/k)^{1/6}·p^{2/3}`;
//! * in the 1D regime the new method pays a modest extra `log p` in S.
//!
//! Every table is produced under both cost-model revisions — the source
//! paper's model (`ipdps17`) and the reexamined bandwidth bound (`tang24`,
//! after arXiv:2407.00871) — with a closing diff of where the predicted
//! regime and W change between the two.

use catrsm::{Algorithm, SolveRequest};
use costmodel::CostModelRev;
use harness::{banner, run, swf, Table, TrsmInstance};
use simnet::MachineParams;

fn main() {
    banner("T1: conclusion table (paper Section IX) — standard vs new method");
    let cases = [
        // (label, n, k, rec_base), each on a 4 × 4 grid
        ("1 large dim  (n < 4k/p)", 32usize, 2048usize, 16usize),
        ("3 large dims (4k/p<=n<=4k sqrt(p))", 256, 64, 32),
        ("3 large dims (4k/p<=n<=4k sqrt(p))", 512, 128, 64),
        ("2 large dims (n > 4k sqrt(p))", 512, 16, 64),
        ("2 large dims (n > 4k sqrt(p))", 1024, 16, 64),
    ];
    let (pr, pc) = (4, 4);
    let p = pr * pc;
    let mut table = Table::new(
        "rev,regime,n,k,p,S_std,W_std,F_std,S_new,W_new,F_new,model_S_ratio,measured_S_ratio",
    );
    println!("plans of the new method (its S/W/F are the *_new columns below):");
    for rev in CostModelRev::ALL {
        for (label, n, k, rec_base) in cases {
            let inst = TrsmInstance {
                n,
                k,
                pr,
                pc,
                seed: 29,
            };
            // The new method is the unpinned request: the planner's choice,
            // made under this revision of the model.
            let planned = SolveRequest::lower().cost_model(rev);
            let plan = planned.plan_distributed(n, k, p).expect("a grid fits");
            println!("  {:<8} {plan}", rev.name());
            let pinned = SolveRequest::lower().algorithm(Algorithm::Recursive {
                base_size: rec_base,
            });
            let std = run(&inst, pinned, MachineParams::unit());
            let new = run(&inst, planned, MachineParams::unit());
            let model = rev.conclusion_row(n as f64, k as f64, p as f64);
            let ((s_std, w_std, f_std), (s_new, w_new, f_new)) =
                (swf(&std.report), swf(&new.report));
            let s_model = model.standard.latency / model.new.latency;
            let (rev, ratio) = (rev.name(), s_std as f64 / s_new as f64);
            table.row(&[
                &rev, &label, &n, &k, &p, &s_std, &w_std, &f_std, &s_new, &w_new, &f_new, &s_model,
                &ratio,
            ]);
        }
    }
    println!();
    table.finish("exp_conclusion_table");

    banner("T1b: asymptotic model at paper scale (no simulation), both revisions");
    let mut paper_scale = Table::new(
        "n,k,p,S_std_i17,S_new_i17,S_ratio_i17,S_std_t24,S_new_t24,S_ratio_t24,\
         W_std_t24_vs_i17_%,W_new_t24_vs_i17_%,regime_i17,regime_t24",
    );
    let mut boundary_moves = 0usize;
    for (n, k, p) in [
        (1.0e6, 1.0e6, 1024.0),
        (1.0e6, 1.0e5, 4096.0),
        (1.0e6, 1.0e4, 16384.0),
        (1.0e7, 1.0e4, 65536.0),
        (1.0e5, 1.0e7, 1024.0),
    ] {
        let i17 = CostModelRev::Ipdps17.conclusion_row(n, k, p);
        let t24 = CostModelRev::Tang24.conclusion_row(n, k, p);
        boundary_moves += usize::from(i17.regime != t24.regime);
        let s = [&i17, &t24].map(|r| (r.standard.latency, r.new.latency));
        let ratios = s.map(|(std, new)| std / new);
        let w_std = 100.0 * (t24.standard.bandwidth / i17.standard.bandwidth - 1.0);
        let w_new = 100.0 * (t24.new.bandwidth / i17.new.bandwidth - 1.0);
        let [was, is] = [i17.regime, t24.regime].map(|r| format!("{r:?}"));
        paper_scale.row(&[
            &n, &k, &p, &s[0].0, &s[0].1, &ratios[0], &s[1].0, &s[1].1, &ratios[1], &w_std, &w_new,
            &was, &is,
        ]);
    }
    print!("{}", paper_scale.text());
    println!(
        "\n{boundary_moves} of 5 paper-scale points change regime under the tang24\n\
         boundary constant; within a fixed regime the corrected recursive W\n\
         bound only ever grows, so the new method's S advantage is preserved\n\
         or widened (a W drop only appears where the regime itself moves)."
    );
    println!(
        "\nExpectation (paper): in the 2D/3D rows the new method wins on S while\n\
         matching W and F (within 2x on F); in the 1D row it pays a small extra\n\
         S. At paper scale (T1b) the S ratio grows like (n/k)^(1/6)·p^(2/3)."
    );
}
