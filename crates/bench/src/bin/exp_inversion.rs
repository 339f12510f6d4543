//! Experiment E4 — cost of recursive triangular inversion (Section V).
//!
//! Measures the distributed inversion on the simulated machine and compares
//! with `T_RecTriInv`: bandwidth `ν·(n²/(8p1²) + n²/(2p1p2))`, flops
//! `ν·n³/(8p)` and — the key property — `O(log² p)` latency, in contrast to
//! the `Θ(n)`-round wavefront substitution or the `Θ(poly p)` recursive TRSM.

use dense::gen;
use harness::{banner, on_grid, swf, Table};
use pgrid::DistMatrix;
use simnet::{CostReport, MachineParams};

fn run_inv(q: usize, n: usize, base: usize) -> CostReport {
    on_grid(q, q, MachineParams::unit(), |grid| {
        let l = DistMatrix::from_global(grid, &gen::well_conditioned_lower(n, 5));
        let inv = catrsm::tri_inv::tri_inv(&l, base).unwrap();
        let prod = catrsm::mm3d::mm3d_auto(&inv, &l).unwrap();
        let id = DistMatrix::from_fn(grid, n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        (prod.rel_diff(&id).unwrap(), None)
    })
    .report
}

fn main() {
    banner("E4: recursive triangular inversion (paper Section V)");
    let mut table = Table::new("p,n,base,S_measured,W_measured,F_measured,S_model,W_model,F_model");
    for (q, n, base) in [
        (2usize, 128usize, 32usize),
        (2, 256, 32),
        (4, 128, 16),
        (4, 256, 16),
        (4, 512, 32),
    ] {
        let r = run_inv(q, n, base);
        // Model grid: the recursion effectively uses p = q² processors with a
        // square face; report the paper's formula for p1 = q, p2 = 1.
        let model = costmodel::inversion::rec_tri_inv_cost(n as f64, q as f64, 1.0);
        let (sm, wm, fm) = (model.latency, model.bandwidth, 2.0 * model.flops);
        let (s, w, f) = swf(&r);
        table.row(&[&(q * q), &n, &base, &s, &w, &f, &sm, &wm, &fm]);
    }
    table.finish("exp_inversion");

    // Scaling in n at fixed p: bandwidth should grow ~n², flops ~n³, latency ~constant.
    banner("E4b: scaling with n at fixed p = 16");
    let mut prev: Option<CostReport> = None;
    for n in [128usize, 256, 512] {
        let r = run_inv(4, n, 16);
        if let Some(p) = prev {
            println!(
                "n {:>4} -> {:>4}: S ratio {:>5.2} (expect ~1), W ratio {:>5.2} (expect ~4), F ratio {:>5.2} (expect ~8)",
                n / 2,
                n,
                r.max_messages() as f64 / p.max_messages() as f64,
                r.max_words() as f64 / p.max_words() as f64,
                r.max_flops() as f64 / p.max_flops() as f64
            );
        }
        prev = Some(r);
    }
    println!(
        "\nExpectation (paper): latency stays polylogarithmic in p and nearly flat\n\
         in n, while bandwidth grows ~n² and flops ~n³ — confirming that the\n\
         inversion can be used as a low-synchronization building block."
    );
}
