//! Keeps the rank threads of a gated run on as many CPUs as the gate admits.
//!
//! With `w` compute slots for `p > w` ranks, a run is a long chain of
//! hand-offs: a rank sends, blocks in a receive, gives its slot back, and the
//! rank it woke carries on.  Left alone, the kernel places every woken rank
//! on an *idle* CPU, so with `w = 1` the one runnable rank hops between CPUs
//! at each of the thousands of hand-offs of a solve, and every hop wakes a
//! halted CPU with an inter-processor interrupt — on a virtual machine, a
//! trip through the hypervisor whose latency follows the host's load.  The
//! same solve then runs in one of two regimes, by the luck of placement:
//! 16 ranks, `n = 1024`, `k = 16`, `w = 1` on a 2-vCPU guest ran 57–60
//! solves a second while its threads happened to share a CPU and 30–38 while
//! they did not, switching between the two for seconds at a time.
//!
//! A gated run can use `w` CPUs at once and no more, so it is given exactly
//! `w`: [`confine_spawns`] narrows the spawning thread's affinity mask to `w`
//! of its allowed CPUs — the one it is running on first, where the caller's
//! data is warm — while the rank threads are created, which inherit the mask
//! for life, and widens it again when dropped.  Hand-offs then stay on
//! CPUs that are already awake.  This decides *where* ranks run, never what
//! they compute, like the gate itself.
//!
//! Linux only (`sched_setaffinity`, declared here because `std` has no
//! affinity API and the workspace takes no `libc` dependency); elsewhere,
//! and whenever the kernel refuses, nothing is narrowed.

/// Restores the spawning thread's affinity mask when dropped.
pub(crate) struct Confined {
    #[cfg(target_os = "linux")]
    original: Option<sys::Mask>,
}

/// Narrow the calling thread's affinity to `cpus` of its allowed CPUs until
/// the returned guard is dropped; threads spawned meanwhile keep the narrow
/// mask.  Does nothing when the thread is allowed no more than `cpus` CPUs.
pub(crate) fn confine_spawns(cpus: usize) -> Confined {
    #[cfg(target_os = "linux")]
    {
        let original = sys::allowed().filter(|allowed| {
            narrowed(allowed, sys::current_cpu(), cpus).is_some_and(|mask| sys::allow(&mask))
        });
        Confined { original }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        Confined {}
    }
}

#[cfg(target_os = "linux")]
impl Drop for Confined {
    fn drop(&mut self) {
        if let Some(original) = &self.original {
            sys::allow(original);
        }
    }
}

/// `count` of the CPUs in `allowed`, taken in order from `first` on and
/// wrapping round; `None` when `allowed` holds no more than `count`, so there
/// is nothing to narrow.
#[cfg(target_os = "linux")]
fn narrowed(allowed: &sys::Mask, first: usize, count: usize) -> Option<sys::Mask> {
    let cpus = sys::WORDS * sys::BITS;
    let is_allowed = |cpu: usize| (allowed[cpu / sys::BITS] >> (cpu % sys::BITS)) & 1 == 1;
    if (0..cpus).filter(|&cpu| is_allowed(cpu)).count() <= count {
        return None;
    }
    let mut mask = [0; sys::WORDS];
    for cpu in (0..cpus)
        .map(|i| (first + i) % cpus)
        .filter(|&cpu| is_allowed(cpu))
        .take(count)
    {
        mask[cpu / sys::BITS] |= 1 << (cpu % sys::BITS);
    }
    Some(mask)
}

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_ulong};

    pub const BITS: usize = c_ulong::BITS as usize;
    /// glibc's `cpu_set_t`: 1024 CPUs.
    pub const WORDS: usize = 1024 / BITS;
    pub type Mask = [c_ulong; WORDS];

    extern "C" {
        fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut c_ulong) -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const c_ulong) -> c_int;
        fn sched_getcpu() -> c_int;
    }

    /// The calling thread's affinity mask; `None` if the kernel's CPU mask
    /// does not fit `Mask`.
    pub fn allowed() -> Option<Mask> {
        let mut mask = [0; WORDS];
        // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Set the calling thread's affinity mask; `false` if the kernel refused.
    pub fn allow(mask: &Mask) -> bool {
        // SAFETY: `mask` is a readable buffer of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }

    /// The CPU the calling thread is running on (0 if the kernel won't say).
    pub fn current_cpu() -> usize {
        // SAFETY: takes no arguments and only reads scheduler state.
        usize::try_from(unsafe { sched_getcpu() }).unwrap_or(0)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn cpus_in(mask: &sys::Mask) -> usize {
        mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn mask_of(cpus: &[usize]) -> sys::Mask {
        let mut mask = [0; sys::WORDS];
        for &cpu in cpus {
            mask[cpu / sys::BITS] |= 1 << (cpu % sys::BITS);
        }
        mask
    }

    #[test]
    fn narrowing_starts_at_the_current_cpu_and_wraps() {
        let allowed = mask_of(&[0, 1, 2, 5, 70]);
        assert_eq!(narrowed(&allowed, 2, 1), Some(mask_of(&[2])));
        assert_eq!(narrowed(&allowed, 5, 3), Some(mask_of(&[5, 70, 0])));
        // A current CPU outside the mask: the next allowed one leads.
        assert_eq!(narrowed(&allowed, 3, 2), Some(mask_of(&[5, 70])));
        // Nothing to narrow when every allowed CPU would be kept.
        assert_eq!(narrowed(&allowed, 0, 5), None);
        assert_eq!(narrowed(&allowed, 0, 9), None);
    }

    #[test]
    fn spawned_threads_keep_the_narrow_mask_and_the_spawner_gets_its_own_back() {
        // On its own thread: the test harness's threads keep their masks.
        std::thread::spawn(|| {
            let before = sys::allowed().expect("affinity mask");
            let guard = confine_spawns(1);
            let child = std::thread::spawn(|| sys::allowed().expect("affinity mask"));
            drop(guard);
            let inherited = child.join().unwrap();
            assert_eq!(sys::allowed().expect("affinity mask"), before);
            if cpus_in(&before) > 1 {
                assert_eq!(cpus_in(&inherited), 1);
            } else {
                assert_eq!(inherited, before);
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn a_gated_run_keeps_its_ranks_on_as_many_cpus_as_it_has_slots() {
        use crate::{Machine, MachineParams};
        std::thread::spawn(|| {
            let before = sys::allowed().expect("affinity mask");
            let masks_at = |workers: usize| {
                Machine::new(6, MachineParams::unit())
                    .with_rank_workers(workers)
                    .run(|_| sys::allowed().expect("affinity mask"))
                    .unwrap()
                    .results
            };
            for workers in [1, 2] {
                let masks = masks_at(workers);
                let expect = if cpus_in(&before) > workers {
                    workers
                } else {
                    cpus_in(&before)
                };
                assert!(masks.iter().all(|m| *m == masks[0] && cpus_in(m) == expect));
            }
            // No gate, nothing narrowed; and the caller keeps its own mask.
            assert!(masks_at(6).iter().all(|m| *m == before));
            assert_eq!(sys::allowed().expect("affinity mask"), before);
        })
        .join()
        .unwrap();
    }
}
