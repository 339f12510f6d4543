//! Allocation budget of a warm distributed solve.
//!
//! One op is the benchmark's `dist_cube` op at n = k = 192: distribute `L`
//! and `B` from replicated globals, plan, execute — 16 ranks on a 4×4 grid,
//! planned as It-Inv on a 2×2×4 cuboid.  Once the machine's buffer pool is
//! warm, the bytes the op allocates must stay within twice the bytes the
//! simulated network moved: a transient buffer is recycled, not allocated
//! and faulted in again.
//!
//! This file is its own test binary with a single test because the counting
//! allocator is process-wide and ranks are threads: any other test running
//! beside it would be counted too.

use catrsm::{Algorithm, PlanBackend};
use catrsm_suite::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `System`, counting every allocation and the bytes it asks for (a
/// `realloc` counts as an allocation of its new size).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 192;
const RANKS: usize = 16;

#[test]
fn a_warm_dist_cube_op_allocates_at_most_twice_the_bytes_it_moves() {
    let l = gen::well_conditioned_lower(N, 1);
    let x_true = gen::rhs(N, N, 2);
    let b = dense::matmul(&l, &x_true);
    let plan = SolveRequest::lower().plan_distributed(N, N, RANKS).unwrap();
    let PlanBackend::Distributed {
        algorithm: Algorithm::IterativeInversion(cfg),
        ..
    } = plan.backend
    else {
        panic!("n = k = {N} on {RANKS} ranks should plan It-Inv, got {plan}");
    };
    assert_eq!((cfg.p1, cfg.p2), (2, 4), "the dist_cube grid shape");

    let machine = Machine::new(RANKS, MachineParams::supercomputer()).with_rank_workers(1);
    let op = || {
        let before = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
        let out = machine
            .run(|comm| {
                let grid = Grid2D::new(comm, 4, 4).unwrap();
                let dl = DistMatrix::from_global(&grid, &l);
                let db = DistMatrix::from_global(&grid, &b);
                let plan = SolveRequest::lower()
                    .plan_distributed(dl.rows(), db.cols(), comm.size())
                    .unwrap();
                let sol = plan.execute_distributed(&dl, &db).unwrap();
                (grid.my_coords(), sol.x.local().clone())
            })
            .unwrap();
        let allocs = ALLOCS.load(Relaxed) - before.0;
        let bytes = BYTES.load(Relaxed) - before.1;
        (out, allocs, bytes)
    };

    for _ in 0..2 {
        op();
    }
    let (out, allocs, bytes) = op();
    for ((x, y), local) in &out.results {
        let err = dense::norms::rel_diff(local, &x_true.strided_block(*x, 4, *y, 4));
        assert!(err < 1e-10, "rank ({x}, {y}): relative error {err}");
    }
    let moved = out.report.total_words() * 8;
    let stats = machine.pool_stats();
    println!(
        "warm op: {allocs} allocations, {bytes} bytes allocated, {moved} bytes moved \
         ({:.2}x); pool {stats:?}",
        bytes as f64 / moved as f64
    );
    assert!(
        bytes <= 2 * moved,
        "a warm op allocated {bytes} bytes, more than twice the {moved} bytes it moved"
    );
}
