//! Allocation budget of a warm distributed solve.
//!
//! One op is the benchmark's `dist_cube` op at n = k = 192: distribute `L`
//! and `B` from replicated globals, plan, execute — 16 ranks on a 4×4 grid,
//! planned as It-Inv on a 2×2×4 cuboid.  Once the machine's buffer pool is
//! warm, the bytes the op allocates must stay within twice the bytes the
//! simulated network moved: a transient buffer is recycled, not allocated
//! and faulted in again.
//!
//! A few-RHS leg follows: the benchmark's `dist_few_rhs` op (n = 1024,
//! k = 16, It-Inv on a 4×4×1 grid, sixteen 64×64 diagonal blocks), once
//! warm, makes at most [`FEW_RHS_ALLOCS`] allocations — layouts are `Copy`
//! formulas that allocate nothing, redistributions copy runs, and a
//! collective on a one-member communicator never meets on the board — and
//! leaves the pool retaining
//! fewer than `2·n²` words: the operand's pieces and the solve's small
//! buffers, but no second copy of `L` for the diagonal inverter to write
//! its inverses into.
//!
//! A quote leg closes: every rank of an op walks its own quote, so a cold
//! `it_inv_trsm::predicted_cost` at each shape above makes at most
//! [`QUOTE_ALLOCS`] allocations — its layouts allocate nothing and its
//! moves allocate per move, never per rank.
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
const GRID: usize = 4;

/// Allocations a warm `dist_few_rhs` op may make, over all 16 ranks and the
/// machine run around them: the 1 816 it makes once layouts allocate
/// nothing and a replicated destination's copies come from the pool, and
/// about 5 % of headroom.
const FEW_RHS_ALLOCS: u64 = 1_900;

/// Allocations one cold It-Inv quote may make at a shape above: the 44 the
/// n = k = 192 quote makes once layouts allocate nothing (the n = 1 024
/// one makes 23), and four of headroom.
const QUOTE_ALLOCS: u64 = 48;

/// What one op hands back: every rank's grid coordinates and block of `X`.
type RankBlocks = simnet::RunOutput<((usize, usize), Matrix)>;

/// One op on `machine`: distribute `l` and `b` from replicated globals over
/// the 4×4 grid, plan, execute.  Returns the run, the allocations made
/// during it and the bytes they asked for.
fn op(machine: &Machine, l: &Matrix, b: &Matrix) -> (RankBlocks, u64, u64) {
    let before = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    let out = machine
        .run(|comm| {
            let grid = Grid2D::new(comm, GRID, GRID).unwrap();
            let dl = DistMatrix::from_global(&grid, l);
            let db = DistMatrix::from_global(&grid, b);
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
}

/// Every rank's block of `X` matches `x_true`'s.
fn assert_solved(out: &RankBlocks, x_true: &Matrix) {
    for ((x, y), local) in &out.results {
        let err = dense::norms::rel_diff(local, &x_true.strided_block(*x, GRID, *y, GRID));
        assert!(err < 1e-10, "rank ({x}, {y}): relative error {err}");
    }
}

/// The plan of an `n × n`, `k`-column solve on [`RANKS`] ranks, which must
/// be It-Inv.
fn it_inv_config(n: usize, k: usize) -> ItInvConfig {
    let plan = SolveRequest::lower().plan_distributed(n, k, RANKS).unwrap();
    let PlanBackend::Distributed {
        algorithm: Algorithm::IterativeInversion(cfg),
        ..
    } = plan.backend
    else {
        panic!("n = {n}, k = {k} on {RANKS} ranks should plan It-Inv, got {plan}");
    };
    cfg
}

/// The `p1 × p1 × p2` grid of [`it_inv_config`].
fn it_inv_grid(n: usize, k: usize) -> (usize, usize) {
    let cfg = it_inv_config(n, k);
    (cfg.p1, cfg.p2)
}

#[test]
fn a_warm_dist_cube_op_allocates_at_most_twice_the_bytes_it_moves() {
    let l = gen::well_conditioned_lower(N, 1);
    let x_true = gen::rhs(N, N, 2);
    let b = dense::matmul(&l, &x_true);
    assert_eq!(it_inv_grid(N, N), (2, 4), "the dist_cube grid shape");

    let machine = Machine::new(RANKS, MachineParams::supercomputer()).with_rank_workers(1);
    for _ in 0..2 {
        op(&machine, &l, &b);
    }
    let (out, allocs, bytes) = op(&machine, &l, &b);
    assert_solved(&out, &x_true);
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

    // The few-RHS and quote legs run here, after the budget and never beside
    // it: the counting allocator sees every thread of the process.
    a_warm_few_rhs_op_allocates_little_and_holds_no_second_copy_of_l();
    a_cold_quote_allocates_per_move_not_per_rank();
}

/// A warm `dist_few_rhs` op makes at most [`FEW_RHS_ALLOCS`] allocations and
/// leaves fewer than `2·n²` words in the pool.
fn a_warm_few_rhs_op_allocates_little_and_holds_no_second_copy_of_l() {
    let (n, k) = (1024, 16);
    assert_eq!(it_inv_grid(n, k), (GRID, 1), "the dist_few_rhs grid shape");
    let l = gen::well_conditioned_lower(n, 3);
    let x_true = gen::rhs(n, k, 4);
    let b = dense::matmul(&l, &x_true);
    let machine = Machine::new(RANKS, MachineParams::supercomputer()).with_rank_workers(1);
    op(&machine, &l, &b);
    let (out, allocs, _) = op(&machine, &l, &b);
    assert_solved(&out, &x_true);
    let retained = machine.pool_stats().retained_words;
    println!(
        "warm few-RHS op: {allocs} allocations; pool retains {retained} words ({:.2}·n²)",
        retained as f64 / (n * n) as f64
    );
    assert!(
        allocs <= FEW_RHS_ALLOCS,
        "a warm few-RHS op made {allocs} allocations, more than {FEW_RHS_ALLOCS}"
    );
    assert!(
        retained < 2 * n * n,
        "a warm few-RHS op left {retained} words in the pool, not under 2·n² = {}",
        2 * n * n
    );
}

/// At each shape above, a cold It-Inv quote on the 4×4 caller grid makes at
/// most [`QUOTE_ALLOCS`] allocations.
fn a_cold_quote_allocates_per_move_not_per_rank() {
    for (n, k) in [(N, N), (1024, 16)] {
        let cfg = it_inv_config(n, k);
        let before = ALLOCS.load(Relaxed);
        let quote = catrsm::it_inv_trsm::predicted_cost(n, k, GRID, GRID, &cfg);
        let allocs = ALLOCS.load(Relaxed) - before;
        println!("cold quote at n = {n}, k = {k}: {allocs} allocations; {quote:?}");
        assert!(
            allocs <= QUOTE_ALLOCS,
            "a cold quote at n = {n}, k = {k} made {allocs} allocations, more than {QUOTE_ALLOCS}"
        );
    }
}
