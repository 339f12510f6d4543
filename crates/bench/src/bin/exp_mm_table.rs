//! Experiment E2 — the matrix-multiplication cost table of Section III.
//!
//! Runs the 3D multiplication `MM(L, X)` from a 2D cyclic layout for several
//! `(n, k, p1)` combinations and compares the measured critical-path
//! bandwidth/flops with the paper's leading-order expression
//! `T_MM = β·(n²/p1²·1_{p2} + 2nk/(p1·p2)) + γ·n²k/p + O(α log p + β nk log p / p)`.

use dense::gen;
use harness::{banner, on_grid, swf, Table};
use pgrid::DistMatrix;
use simnet::{CostReport, MachineParams};

fn run_mm(q: usize, p1: usize, n: usize, k: usize) -> CostReport {
    on_grid(q, q, MachineParams::unit(), |grid| {
        let a_global = gen::uniform(n, n, 7);
        let x_global = gen::uniform(n, k, 8);
        let a = DistMatrix::from_global(grid, &a_global);
        let x = DistMatrix::from_global(grid, &x_global);
        let b = catrsm::mm3d::mm3d(&a, &x, p1).unwrap();
        let expect = DistMatrix::from_global(grid, &dense::matmul(&a_global, &x_global));
        (b.rel_diff(&expect).unwrap(), None)
    })
    .report
}

fn main() {
    banner("E2: 3D matrix multiplication from a 2D layout (paper Section III)");
    let mut table = Table::new("p,p1,p2,n,k,S_measured,W_measured,F_measured,W_model,F_model");
    for (q, n, k) in [
        (2usize, 128usize, 64usize),
        (4, 256, 64),
        (4, 256, 256),
        (8, 256, 64),
    ] {
        let mut p1 = 1;
        while p1 <= q {
            let s = q / p1;
            let p2 = s * s;
            if n % (p1 * p1) == 0 && k % p2 == 0 && n % q == 0 && k % q == 0 {
                let r = run_mm(q, p1, n, k);
                let model = costmodel::mm::mm_cost(
                    n as f64,
                    k as f64,
                    (q * q) as f64,
                    p1 as f64,
                    p2 as f64,
                );
                let ((s, w, f), wm, fm) = (swf(&r), model.bandwidth, 2.0 * model.flops);
                table.row(&[&(q * q), &p1, &p2, &n, &k, &s, &w, &f, &wm, &fm]);
            }
            p1 *= 2;
        }
    }
    table.finish("exp_mm_table");
    println!(
        "\nExpectation (paper): measured W tracks n²/p1² + 2nk/(p1·p2) (plus the\n\
         lower-order transpose term), flops are the load-balanced 2·n²k/p, and\n\
         S stays a few dozen messages (O(log p)) for every grid shape."
    );
}
