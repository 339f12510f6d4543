//! Experiment E3 — cost of the recursive TRSM (Section IV).
//!
//! Measures the "standard" baseline in the three regimes and compares
//! against `T_RT1D/2D/3D`.  The interesting columns are the latency (which
//! grows polynomially in `p` in the 2D/3D regimes) and the bandwidth (which
//! carries an extra `log p` factor in the 2D regime — the motivation the
//! paper gives for the iterative reformulation).

use catrsm::{Algorithm, SolveRequest};
use harness::{banner, run, swf, Table, TrsmInstance};
use simnet::MachineParams;

fn main() {
    banner("E3: recursive TRSM (the paper's baseline, Section IV)");
    let mut table = Table::new("regime,p,n,k,S_measured,W_measured,F_measured,S_model,W_model");
    let cases = [
        // (label, n, k, pr, pc, base)
        (
            "1 large dim (n < 4k/p)",
            32usize,
            2048usize,
            2usize,
            2usize,
            16usize,
        ),
        ("1 large dim (n < 4k/p)", 32, 4096, 4, 4, 16),
        ("3 large dims", 256, 64, 2, 2, 32),
        ("3 large dims", 256, 64, 4, 4, 32),
        ("3 large dims", 512, 128, 4, 4, 64),
        ("2 large dims (n > 4k√p)", 512, 16, 2, 2, 64),
        ("2 large dims (n > 4k√p)", 512, 16, 4, 4, 64),
        ("2 large dims (n > 4k√p)", 1024, 16, 4, 4, 64),
    ];
    for (label, n, k, pr, pc, base_size) in cases {
        let inst = TrsmInstance {
            n,
            k,
            pr,
            pc,
            seed: 3,
        };
        let request = SolveRequest::lower().algorithm(Algorithm::Recursive { base_size });
        let m = run(&inst, request, MachineParams::unit());
        let model =
            costmodel::CostModelRev::Ipdps17.rec_trsm_cost(n as f64, k as f64, (pr * pc) as f64);
        let ((s, w, f), sm, wm) = (swf(&m.report), model.latency, model.bandwidth);
        table.row(&[&label, &(pr * pc), &n, &k, &s, &w, &f, &sm, &wm]);
    }
    table.finish("exp_rec_trsm");
    println!(
        "\nExpectation (paper): latency grows with p (and with n/k in the 3D rows),\n\
         unlike the iterative algorithm of E5/T1; bandwidth tracks the model's\n\
         n², nk·log p/√p and (n²k/p)^(2/3) expressions per regime."
    );
}
