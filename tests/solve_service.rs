//! A distributed plan depends only on the shape `(n, k, p)` and the request
//! options, so a caller may lower it once, outside the machine, and share
//! one `Arc<SolvePlan>` with every rank. Executing that shared plan must be
//! bitwise the solve a plan lowered on each rank performs.

use catrsm_suite::prelude::*;
use std::sync::Arc;

#[test]
fn cached_distributed_plan_executes_bitwise_like_fresh() {
    let n = 96;
    let k = 24;
    let p = 4;
    let req = SolveRequest::lower();

    let cached: Arc<SolvePlan> = Arc::new(req.plan_distributed(n, k, p).unwrap());
    // Lowering is a pure function of the shape and the request.
    let again = req.plan_distributed(n, k, p).unwrap();
    assert_eq!(*cached, again);

    // Execute the shared plan and a freshly lowered one inside the
    // machine: bitwise-identical solutions, and correct ones.
    let out = Machine::new(p, MachineParams::unit())
        .run(move |comm| {
            let grid = Grid2D::new(comm, 2, 2).unwrap();
            let l_global = gen::well_conditioned_lower(n, 901);
            let x_true = gen::rhs(n, k, 902);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(&grid, &l_global);
            let b = DistMatrix::from_global(&grid, &b_global);

            let fresh_plan = SolveRequest::lower()
                .plan_distributed(n, k, comm.size())
                .unwrap();
            let fresh = fresh_plan.execute(&l, &b).unwrap();
            let served = cached.execute(&l, &b).unwrap();
            (
                served.x.rel_diff(&fresh.x).unwrap(),
                dense::norms::rel_diff(&served.x.to_global(), &x_true),
            )
        })
        .unwrap();
    for (vs_fresh, vs_true) in out.results {
        assert_eq!(vs_fresh, 0.0, "a shared plan must run the identical solve");
        assert!(vs_true < 1e-8);
    }
}
