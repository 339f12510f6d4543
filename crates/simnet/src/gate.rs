//! Compute-concurrency gate for simulated ranks.
//!
//! A [`Machine`](crate::Machine) spawns one OS thread per rank, but the host
//! rarely has one core per simulated processor.  The gate is a counting
//! semaphore that bounds how many ranks *compute* at once to the dense worker
//! pool's width: a rank holds a permit while it runs user code and releases
//! it whenever it blocks on a receive, so waiting ranks never pin a core.
//!
//! The gate is a pure scheduling throttle.  It decides *when* a rank runs,
//! never *what* it computes — all numerics are derived from rank-local state
//! and message payloads, whose per-stream FIFO order the transport guarantees
//! independently of thread interleaving — so results are bitwise identical at
//! every permit count (asserted by the distributed determinism matrix in
//! `tests/proptest_distributed.rs` and the CI `distributed-parallel` job).
//!
//! Deadlock freedom: a blocked receiver always gives its permit back before
//! sleeping, so at least one runnable rank can always make progress.  The
//! whole forward-progress argument, failures included, is stated beside
//! `Endpoint::wait_for` in `comm.rs`.

use std::sync::{Condvar, Mutex};

/// Counting semaphore bounding the number of concurrently-computing ranks.
pub(crate) struct RankGate {
    permits: Mutex<usize>,
    available: Condvar,
}

impl RankGate {
    /// A gate with `permits` compute slots (clamped to at least one).
    pub(crate) fn new(permits: usize) -> Self {
        RankGate {
            permits: Mutex::new(permits.max(1)),
            available: Condvar::new(),
        }
    }

    /// Block until a compute slot is free and take it.
    pub(crate) fn acquire(&self) {
        let mut permits = self.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.available.wait(permits).unwrap();
        }
        *permits -= 1;
    }

    /// Give a compute slot back.
    pub(crate) fn release(&self) {
        let mut permits = self.permits.lock().unwrap();
        *permits += 1;
        drop(permits);
        self.available.notify_one();
    }

    /// RAII acquire: the slot is released on drop, including during a panic
    /// unwind, so a crashing rank can never strand the other ranks in
    /// [`RankGate::acquire`].
    pub(crate) fn acquire_permit(&self) -> Permit<'_> {
        self.acquire();
        Permit { gate: self }
    }
}

/// A held compute slot; gives the slot back when dropped.
pub(crate) struct Permit<'a> {
    gate: &'a RankGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn permits_bound_concurrency() {
        let gate = Arc::new(RankGate::new(2));
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (gate, active, peak) = (gate.clone(), active.clone(), peak.clone());
            handles.push(std::thread::spawn(move || {
                let _permit = gate.acquire_permit();
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::yield_now();
                active.fetch_sub(1, Ordering::SeqCst);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn zero_permits_clamps_to_one() {
        let gate = RankGate::new(0);
        let permit = gate.acquire_permit();
        drop(permit);
        gate.acquire();
        gate.release();
    }

    #[test]
    fn permit_released_on_panic() {
        let gate = Arc::new(RankGate::new(1));
        let g = gate.clone();
        let _ = std::thread::spawn(move || {
            let _permit = g.acquire_permit();
            panic!("rank died");
        })
        .join();
        // The panicking thread's permit must have been returned.
        gate.acquire();
        gate.release();
    }
}
