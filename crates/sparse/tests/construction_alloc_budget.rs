//! Allocation budget of building a never-seen factor.
//!
//! `SparseTri::from_csr` of an n = 5 000 factor with eight stored entries
//! per row (seven off the diagonal, the diagonal inline) sizes each output
//! array once: at most four allocations — the diagonal, the row pointer,
//! the column indices and the values — no `realloc`, and at most
//! `8·(2n + 1 + 2·nnz)` bytes.  A build's cost after its one scan per row
//! is first touch of those fresh pages, so an output array grown by `push`
//! past its capacity, or a scratch copy of the input, shows here.
//!
//! This file is its own test binary with a single test because the counting
//! allocator is process-wide: any other test running beside it would be
//! counted too.

use dense::{Diag, Triangle};
use sparse::SparseTri;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `System`, counting every allocation, every `realloc`, and the bytes
/// they ask for (a `realloc` counts as an allocation of its new size).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
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
        REALLOCS.fetch_add(1, Relaxed);
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 5_000;
const FILL: usize = 7;

/// Raw CSR arrays of `m` with its diagonal stored inline at the row's end
/// next to it: last for a lower factor, first for an upper one.
fn inline_diagonal(m: &SparseTri) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut row_ptr = vec![0];
    let (mut col_idx, mut values) = (Vec::new(), Vec::new());
    for i in 0..m.n() {
        let (cols, vals) = m.row_entries(i);
        if m.triangle() == Triangle::Upper {
            col_idx.push(i);
            values.push(m.diag_value(i));
        }
        col_idx.extend_from_slice(cols);
        values.extend_from_slice(vals);
        if m.triangle() == Triangle::Lower {
            col_idx.push(i);
            values.push(m.diag_value(i));
        }
        row_ptr.push(col_idx.len());
    }
    (row_ptr, col_idx, values)
}

#[test]
fn from_csr_sizes_each_output_array_once() {
    let lower = sparse::gen::random_lower(N, FILL, 11);
    for factor in [lower.transpose(), lower] {
        let tri = factor.triangle();
        let (row_ptr, col_idx, values) = inline_diagonal(&factor);

        let snapshot = || [&ALLOCS, &REALLOCS, &BYTES].map(|c| c.load(Relaxed));
        let before = snapshot();
        let built = SparseTri::from_csr(N, tri, Diag::NonUnit, &row_ptr, &col_idx, &values);
        let after = snapshot();
        let [allocs, reallocs, bytes] = [0, 1, 2].map(|k| after[k] - before[k]);
        let built = built.unwrap();

        let budget = 8 * (2 * N + 1 + 2 * col_idx.len()) as u64;
        println!("{tri:?}: {allocs} allocations, {reallocs} reallocs, {bytes} of {budget} bytes");
        assert!(allocs <= 4, "{tri:?}: {allocs} allocations, budget 4");
        assert_eq!(
            reallocs, 0,
            "{tri:?}: an output array grew past its capacity"
        );
        assert!(bytes <= budget, "{tri:?}: {bytes} bytes, budget {budget}");
        // What was built is the factor the arrays came from.
        assert_eq!(built.row_ptr(), factor.row_ptr());
        assert_eq!(built.col_idx(), factor.col_idx());
        assert_eq!(built.values(), factor.values());
        assert_eq!(built.diag_values(), factor.diag_values());
    }
}
