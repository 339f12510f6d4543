//! The machine's buffer pool: payloads and collective temporaries recycled
//! across ranks and across runs.
//!
//! A rank lives for one [`Machine::run`](crate::Machine::run), and so
//! would every buffer it allocated: freed when the run ends, a large one's
//! pages go back to the kernel, and the next run faults them in again.  The
//! pool outlives the runs: buffers given back during a run are handed out
//! again, in this run or the next, while their pages are still resident.
//!
//! A buffer is always handed out *empty* (length 0, capacity at least the
//! request), so no value ever travels from one use to the next: what a
//! caller reads is only what it wrote.
//!
//! **Retention.**  Buffers are counted per capacity.  The pool never holds
//! more free buffers of a capacity than it has seen out at once (a buffer
//! given back beyond that, or of a capacity it never handed out, is freed),
//! and at the end of a run it frees every buffer of a capacity the run did
//! not take.  A repeated workload therefore settles on its own working set
//! — no allocation, no page fault, no growth from one run to the next — and
//! a workload that changes shape releases the sizes it stopped using after
//! one run.  There is no size constant and no option.
//!
//! **Locking.**  One mutex guards the free lists.  At most
//! [`Machine::rank_workers`](crate::Machine::rank_workers) ranks compute at
//! once, and each critical section is a binary search and a push or pop, so
//! the lock is rarely contended.  No user code runs under it; a poisoned
//! lock (a panic inside a critical section, e.g. a failed allocation) is
//! recovered rather than propagated, because the state it guards is a set
//! of empty buffers and counters that stays valid at every step.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// What a machine's buffer pool has done since the machine was created
/// ([`Machine::pool_stats`](crate::Machine::pool_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served by a recycled buffer.
    pub reused: u64,
    /// Takes that had to allocate.
    pub fresh: u64,
    /// Words of capacity the pool holds right now, ready to be taken.
    pub retained_words: usize,
}

/// A free list of `f64` buffers shared by every rank of a machine.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    /// One entry per capacity the pool has handed out, ascending.
    classes: Vec<Class>,
    /// Total capacity of the free buffers.
    free_words: usize,
    reused: u64,
    fresh: u64,
}

/// The buffers of one capacity.
#[derive(Debug)]
struct Class {
    capacity: usize,
    /// Empty buffers of this capacity.
    free: Vec<Vec<f64>>,
    /// Handed out in this run and not given back.
    out: usize,
    /// The most ever out at once: `free` never holds more.
    peak: usize,
    /// Whether this run took one.
    taken: bool,
}

impl State {
    /// The index of the class of `capacity`, created if needed.
    fn class(&mut self, capacity: usize) -> usize {
        let at = self.classes.partition_point(|c| c.capacity < capacity);
        if self.classes.get(at).is_none_or(|c| c.capacity != capacity) {
            let class = Class {
                capacity,
                free: Vec::new(),
                out: 0,
                peak: 0,
                taken: false,
            };
            self.classes.insert(at, class);
        }
        at
    }
}

impl BufferPool {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty buffer with capacity for at least `len` values: the
    /// smallest free buffer that fits, if it is at most twice `len`,
    /// otherwise a fresh allocation.
    pub(crate) fn take(&self, len: usize) -> Vec<f64> {
        if len == 0 {
            return Vec::new();
        }
        let mut s = self.state();
        let first = s.classes.partition_point(|c| c.capacity < len);
        let fit = s.classes[first..]
            .iter()
            .take_while(|c| c.capacity <= 2 * len)
            .position(|c| !c.free.is_empty());
        let (at, recycled) = match fit {
            Some(i) => {
                let at = first + i;
                let b = s.classes[at].free.pop();
                s.free_words -= s.classes[at].capacity;
                s.reused += 1;
                (at, b)
            }
            None => {
                s.fresh += 1;
                (s.class(len), None)
            }
        };
        let class = &mut s.classes[at];
        class.out += 1;
        class.peak = class.peak.max(class.out);
        class.taken = true;
        drop(s);
        recycled.unwrap_or_else(|| Vec::with_capacity(len))
    }

    /// Keep `buf` for a later [`BufferPool::take`], or free it if the pool
    /// never handed out a buffer of its capacity, or already holds as many
    /// of them as were ever out at once.
    pub(crate) fn give(&self, mut buf: Vec<f64>) {
        let words = buf.capacity();
        let mut s = self.state();
        let at = s.classes.partition_point(|c| c.capacity < words);
        let Some(class) = s.classes.get_mut(at).filter(|c| c.capacity == words) else {
            drop(s);
            return;
        };
        class.out = class.out.saturating_sub(1);
        if class.free.len() + class.out >= class.peak {
            drop(s);
            return;
        }
        buf.clear();
        class.free.push(buf);
        s.free_words += words;
    }

    /// Close a run: free every buffer of a capacity it did not take, and
    /// forget what is still out.
    pub(crate) fn end_run(&self) {
        let mut s = self.state();
        let unused: Vec<Class> = s.classes.extract_if(.., |c| !c.taken).collect();
        s.free_words -= unused
            .iter()
            .map(|c| c.capacity * c.free.len())
            .sum::<usize>();
        for class in &mut s.classes {
            class.out = 0;
            class.taken = false;
        }
        drop(s);
        drop(unused);
    }

    pub(crate) fn stats(&self) -> PoolStats {
        let s = self.state();
        PoolStats {
            reused: s.reused,
            fresh: s.fresh,
            retained_words: s.free_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_are_empty_and_best_fit_within_twice_the_request() {
        let pool = BufferPool::default();
        let mut a = pool.take(100);
        a.extend_from_slice(&[7.0; 100]);
        let b = pool.take(300);
        pool.give(a);
        pool.give(b);
        // 100 fits 60 (≤ 2·60) and is chosen over 300.
        let c = pool.take(60);
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 100);
        // Nothing within 2× of 10 words: a fresh buffer.
        let d = pool.take(10);
        assert_eq!(d.capacity(), 10);
        assert_eq!(
            pool.stats(),
            PoolStats {
                reused: 1,
                fresh: 3,
                retained_words: 300
            }
        );
    }

    #[test]
    fn a_capacity_keeps_at_most_as_many_buffers_as_were_out_at_once() {
        let pool = BufferPool::default();
        let (a, b) = (pool.take(50), pool.take(50));
        pool.give(a);
        pool.give(b);
        // A third 50-word buffer, one the pool never handed out, is freed:
        // no more than two were ever out at once.
        pool.give(Vec::with_capacity(50));
        // So is one of a capacity the pool never handed out.
        pool.give(Vec::with_capacity(40));
        assert_eq!(pool.stats().retained_words, 100);
    }

    #[test]
    fn a_run_keeps_only_the_capacities_it_took() {
        let pool = BufferPool::default();
        let (a, b, c) = (pool.take(100), pool.take(50), pool.take(50));
        pool.give(a);
        pool.give(b);
        pool.give(c);
        pool.end_run();
        assert_eq!(pool.stats().retained_words, 200);
        // A run that takes one 50-word buffer keeps both, and frees the
        // 100-word one it never asked for.
        let d = pool.take(50);
        pool.give(d);
        pool.end_run();
        assert_eq!(pool.stats().retained_words, 100);
        // A buffer still out when its run ends is forgotten; a run that
        // takes nothing keeps nothing.
        let e = pool.take(50);
        pool.end_run();
        drop(e);
        pool.end_run();
        assert_eq!(pool.stats().retained_words, 0);
        assert_eq!(pool.take(50).capacity(), 50);
        assert_eq!(pool.stats().fresh, 4);
    }

    #[test]
    fn a_poisoned_lock_is_recovered() {
        let pool = std::sync::Arc::new(BufferPool::default());
        let p = std::sync::Arc::clone(&pool);
        let _ = std::thread::spawn(move || {
            let _guard = p.state.lock().unwrap();
            panic!("poison the pool");
        })
        .join();
        assert!(pool.state.is_poisoned());
        let buf = pool.take(8);
        pool.give(buf);
        assert_eq!(pool.stats().retained_words, 8);
    }
}
