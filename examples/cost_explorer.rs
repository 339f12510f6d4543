//! Explore the paper's cost model interactively-ish: for a problem size given
//! on the command line, print the regime, the recommended parameters and the
//! predicted costs of the standard (recursive) and new (inversion-based)
//! algorithms — the "a priori" tuning workflow the paper advocates.
//!
//! ```text
//! cargo run --release --example cost_explorer -- [n] [k] [p]
//! cargo run --release --example cost_explorer -- 1048576 4096 16384
//! ```

use catrsm::{Algorithm, SolveRequest};
use costmodel::CostModelRev::Ipdps17;
use costmodel::{compare, Machine as ModelMachine};

fn parse_arg(idx: usize, default: usize) -> usize {
    std::env::args()
        .nth(idx)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n = parse_arg(1, 1 << 20);
    let k = parse_arg(2, 1 << 12);
    let p = parse_arg(3, 1 << 14);

    println!("cost explorer — L·X = B with n = {n}, k = {k}, p = {p}\n");

    let plan = Ipdps17.plan(n, k, p);
    println!("regime: {}", plan.regime.name());
    println!("recommended parameters (Section VIII):");
    println!(
        "  processor grid   p1 × p1 × p2 = {:.1} × {:.1} × {:.1}",
        plan.p1, plan.p1, plan.p2
    );
    println!(
        "  inverted blocks  n0 = {:.0}  ({} blocks along the diagonal)",
        plan.n0,
        (n as f64 / plan.n0).ceil()
    );
    println!(
        "  inversion grids  r1 × r1 × r2 = {:.1} × {:.1} × {:.1}",
        plan.r1, plan.r1, plan.r2
    );

    let row = Ipdps17.conclusion_row(n as f64, k as f64, p as f64);
    println!("\npredicted critical-path costs (leading order):");
    println!(
        "  {:<22} {:>14} {:>16} {:>16}",
        "algorithm", "S (messages)", "W (words)", "F (flops)"
    );
    println!(
        "  {:<22} {:>14.3e} {:>16.3e} {:>16.3e}",
        "standard (recursive)", row.standard.latency, row.standard.bandwidth, row.standard.flops
    );
    println!(
        "  {:<22} {:>14.3e} {:>16.3e} {:>16.3e}",
        "new (inversion-based)", row.new.latency, row.new.bandwidth, row.new.flops
    );
    println!(
        "\nlatency improvement: {:.1}×  (paper's asymptotic factor (n/k)^(1/6)·p^(2/3) = {:.1})",
        compare::latency_improvement(n as f64, k as f64, p as f64),
        compare::asymptotic_improvement_3d(n as f64, k as f64, p as f64)
    );

    println!("\npredicted execution times on reference machines:");
    for (name, machine) in [
        ("commodity cluster", ModelMachine::cluster()),
        ("supercomputer", ModelMachine::supercomputer()),
    ] {
        println!(
            "  {:<20} standard {:>12.4e} s   new {:>12.4e} s   speed-up {:>6.2}x",
            name,
            row.standard.time(&machine),
            row.new.time(&machine),
            row.standard.time(&machine) / row.new.time(&machine)
        );
    }

    println!(
        "\nregime boundaries at this p: 1D below n = {:.0}, 2D above n = {:.0}",
        4.0 * k as f64 / p as f64,
        4.0 * k as f64 * (p as f64).sqrt()
    );

    // The staged API: a plan carries its predicted cost, so the "a priori"
    // workflow is one `plan_distributed` away — and a shape no integer grid
    // fits is refused there, before anything runs.  Where the table above is
    // the regime's leading order, the plan quotes the Section VII phase model
    // at the integer grid and block size it resolved, constants included.
    println!("\nstaged API: SolveRequest::lower().plan_distributed({n}, {k}, {p})");
    match SolveRequest::lower().plan_distributed(n, k, p) {
        Ok(plan) => {
            println!("  {plan}");
            let predicted = plan.predicted_cost.expect("distributed plans predict");
            println!(
                "  predicted S/W/F: {:.3e} / {:.3e} / {:.3e}",
                predicted.latency, predicted.bandwidth, predicted.flops
            );
        }
        Err(e) => println!("  {e}"),
    }

    // And the wavefront baseline, priced by the same `Algorithm` — the
    // walk of its layout moves and one broadcast per row — for scale.
    let wf = Algorithm::Wavefront.predicted_cost(n, k, p);
    println!(
        "  wavefront baseline would pay S = {:.3e} messages (a broadcast per row)",
        wf.latency
    );
}
