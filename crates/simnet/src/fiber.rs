//! Fibers: the stackful coroutines ranks run on, and their stacks.
//!
//! A fiber is a function running on a stack of its own.  [`Fiber::resume`]
//! switches the calling thread onto the fiber's stack; the fiber runs until
//! it calls [`suspend`], which switches back to just after that `resume`.
//! A switch is one call into [`switch`]: it pushes the callee-saved
//! registers on the stack it leaves, stores the stack pointer, loads the
//! other stack's pointer and pops the registers saved there — a few dozen
//! instructions in user space, no system call.
//!
//! **Why the switch is sound.**  `switch` is an ordinary `extern "C"` call
//! as far as the compiler is concerned, so at the call every caller-saved
//! register is already spilled, and the callee-saved ones are exactly what
//! it saves: on x86_64 `rbx`, `rbp`, `r12`–`r15`, the MXCSR and the x87
//! control word (System V ABI); on aarch64 `x19`–`x29`, the link register
//! and `d8`–`d15` (AAPCS64).  The stack pointer is kept in the saved slot
//! and the return address is the one `call`/`bl` left.  When `switch`
//! returns on the other stack, that stack's owner sees a call to `switch`
//! that returned with every register the ABI promised intact.  A fresh
//! stack is given a frame shaped like a saved one whose return address is
//! [`trampoline`], which calls [`fiber_main`] and never returns.
//!
//! Three rules keep a suspended stack consistent:
//! * A fiber is resumed only on the thread that created it (the scheduler
//!   keeps each rank on one worker).  Thread-locals, whose addresses code
//!   may keep in callee-saved registers across the switch, therefore never
//!   change under a fiber.
//! * No unwind crosses a switch: [`fiber_main`] catches any panic of the
//!   fiber's body and aborts, and the scheduler's rank body catches every
//!   panic of a rank itself, so the one frame the unwinder cannot pass —
//!   the trampoline's — is never reached.
//! * A fiber's stack outlives every switch onto it, and every frame on it:
//!   a [`Fiber`] owns its [`Stack`], gives it back only once its body has
//!   returned ([`Fiber::done`]) or before it ever ran, and leaks it when
//!   dropped while suspended mid-body, since values on it may still be
//!   referred to.  Nothing on the stack refers to the `Fiber` value
//!   itself, which may move between resumes: every switch finds it through
//!   the thread's `RUNNING` pointer, set anew by each [`Fiber::resume`].
//!
//! **Stacks.**  Each stack is [`STACK_BYTES`] (std's default for a spawned
//! thread) mapped above [`GUARD_BYTES`] of inaccessible memory, so an
//! overflow faults instead of writing over a neighbour.  Mapping is lazy:
//! only the pages a fiber touches become resident.
//!
//! **ThreadSanitizer** tracks one shadow stack per thread.  Built with
//! `--cfg simnet_tsan` (the CI sanitizer leg sets it), each fiber is also a
//! TSan fiber and every switch is announced with `__tsan_switch_to_fiber`.
//!
//! Supported targets: x86_64 and aarch64 on Linux and macOS.  Anything else
//! fails to compile here.

#[cfg(not(all(
    any(target_os = "linux", target_os = "macos"),
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "simnet::fiber switches stacks on x86_64 and aarch64 Linux and macOS only: \
     simnet runs its ranks as fibers and has no thread-per-rank fallback"
);

use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::ptr;

/// Bytes of stack each fiber gets: what `std::thread::spawn` gives a thread.
pub(crate) const STACK_BYTES: usize = 2 << 20;

/// Inaccessible bytes below each stack: a whole number of pages at every
/// page size the supported targets use (4, 16 and 64 KiB).
pub(crate) const GUARD_BYTES: usize = 64 << 10;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 2;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: c_int = 0x20;
#[cfg(target_os = "macos")]
const MAP_ANONYMOUS: c_int = 0x1000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

/// One fiber stack: [`GUARD_BYTES`] of guard, then [`STACK_BYTES`] of
/// stack growing down from [`Stack::top`].
#[derive(Debug)]
pub(crate) struct Stack {
    base: *mut u8,
}

// SAFETY: a `Stack` is a private mapping that only its owner touches; moving
// the owner to another thread moves nothing but the address.
unsafe impl Send for Stack {}

impl Stack {
    /// Map a fresh stack.  Panics if the kernel refuses the mapping, as
    /// spawning a thread does when it cannot get a stack.
    pub(crate) fn new() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: an anonymous private mapping at an address of the kernel's
        // choosing aliases nothing; the guard is the mapping's first pages.
        unsafe {
            let base = mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            );
            if base == MAP_FAILED {
                panic!(
                    "simnet: mapping a rank's stack failed: {}",
                    std::io::Error::last_os_error()
                );
            }
            if mprotect(base, GUARD_BYTES, PROT_NONE) != 0 {
                let err = std::io::Error::last_os_error();
                munmap(base, len);
                panic!("simnet: protecting a rank stack's guard failed: {err}");
            }
            Stack { base: base.cast() }
        }
    }

    /// One past the stack's highest byte; 16-byte aligned.
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(GUARD_BYTES + STACK_BYTES)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is the start of a mapping of this length that no
        // fiber runs on any more (see the module doc's third rule).
        unsafe { munmap(self.base.cast(), GUARD_BYTES + STACK_BYTES) };
    }
}

/// Stacks kept for the next run: a machine's ranks take them at the start
/// of a run and give them back at its end, so a warm run maps none.  The
/// pool keeps every stack given back — as many as the machine's largest
/// run had ranks — until the machine is dropped.
#[derive(Debug, Default)]
pub(crate) struct StackPool {
    free: std::sync::Mutex<Vec<Stack>>,
}

impl StackPool {
    /// `n` stacks: pooled ones first, fresh mappings for the rest.
    pub(crate) fn take(&self, n: usize) -> Vec<Stack> {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        let from = free.len().saturating_sub(n);
        let mut stacks = free.split_off(from);
        drop(free);
        stacks.extend((stacks.len()..n).map(|_| Stack::new()));
        stacks
    }

    /// Keep `stacks` for a later [`StackPool::take`].
    pub(crate) fn give(&self, stacks: Vec<Stack>) {
        let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
        free.extend(stacks);
    }
}

thread_local! {
    /// The fiber running on this thread; null on the thread's own stack.
    static RUNNING: Cell<*const Fiber<'static>> = const { Cell::new(ptr::null()) };
}

/// A body running on its own stack: `body(index)`, once.
pub(crate) struct Fiber<'a> {
    /// `None` once given back by [`Fiber::into_stack`].
    stack: Option<Stack>,
    /// The fiber's stack pointer while it is suspended.
    sp: Cell<*mut u8>,
    /// The resumer's stack pointer while the fiber runs.
    back: Cell<*mut u8>,
    done: Cell<bool>,
    body: &'a (dyn Fn(usize) + Sync + 'a),
    index: usize,
    #[cfg(simnet_tsan)]
    tsan: tsan::Pair,
}

impl<'a> Fiber<'a> {
    /// A fiber that will run `body(index)` on `stack` when first resumed.
    pub(crate) fn new(stack: Stack, body: &'a (dyn Fn(usize) + Sync + 'a), index: usize) -> Self {
        let sp = arch::initial_frame(stack.top());
        Fiber {
            stack: Some(stack),
            sp: Cell::new(sp),
            back: Cell::new(ptr::null_mut()),
            done: Cell::new(false),
            body,
            index,
            #[cfg(simnet_tsan)]
            tsan: tsan::Pair::new(),
        }
    }

    /// Run the fiber on the calling thread until it suspends or its body
    /// returns.  Must be called on the thread that created the fiber, not
    /// from a fiber, and not after [`Fiber::done`].
    pub(crate) fn resume(&self) {
        assert!(!self.done.get(), "a finished fiber is never resumed");
        assert!(
            RUNNING.get().is_null(),
            "fibers are resumed from a thread's own stack"
        );
        RUNNING.set((self as *const Fiber<'a>).cast());
        #[cfg(simnet_tsan)]
        self.tsan.enter();
        // SAFETY: `sp` is this fiber's saved stack pointer (its initial frame
        // or a suspended `switch`), on a stack it owns; the module doc argues
        // the rest.
        unsafe { switch(self.back.as_ptr(), self.sp.get()) };
        RUNNING.set(ptr::null());
    }

    /// Whether the body has returned: the fiber can be dropped and its
    /// stack reused.
    pub(crate) fn done(&self) -> bool {
        self.done.get()
    }

    /// The stack of a fiber that finished or never ran, for the next fiber.
    pub(crate) fn into_stack(mut self) -> Stack {
        assert!(
            self.done.get() || self.back.get().is_null(),
            "a suspended fiber keeps its stack"
        );
        self.stack
            .take()
            .expect("a fiber gives its stack back once")
    }
}

impl Drop for Fiber<'_> {
    fn drop(&mut self) {
        let suspended = !self.done.get() && !self.back.get().is_null();
        if let (true, Some(stack)) = (suspended, self.stack.take()) {
            std::mem::forget(stack);
        }
    }
}

/// Switch from the fiber running on this thread back to its resumer, which
/// returns from [`Fiber::resume`]; returns when the fiber is resumed again.
///
/// Panics if called on a thread's own stack.
pub(crate) fn suspend() {
    let running = RUNNING.get();
    assert!(!running.is_null(), "suspend is called on a fiber");
    // SAFETY: `RUNNING` points at the fiber whose `resume` is on this
    // thread's own stack, which keeps it alive until that `resume` returns.
    let fiber = unsafe { &*running };
    #[cfg(simnet_tsan)]
    fiber.tsan.leave();
    // SAFETY: `back` holds the resumer's stack pointer, saved by the
    // `switch` in `resume` that this one returns from.
    unsafe { switch(fiber.sp.as_ptr(), fiber.back.get()) };
}

/// The first frame of every fiber: run the body, mark it done, and switch
/// back for good.
extern "C" fn fiber_main() -> ! {
    // SAFETY: `resume` set `RUNNING` to this fiber before switching here,
    // and its `resume` keeps it alive until the first suspension.
    let (body, index) = unsafe { ((*RUNNING.get()).body, (*RUNNING.get()).index) };
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(index))).is_err() {
        // An unwind must not reach the trampoline, which has no frame the
        // unwinder can pass.
        std::process::abort();
    }
    // SAFETY: as above, for the `resume` that ran the body to its end.
    unsafe { (*RUNNING.get()).done.set(true) };
    suspend();
    unreachable!("a finished fiber is never resumed");
}

/// Saves the callee-saved registers on the current stack, stores the stack
/// pointer at `save`, then loads `load` as the stack pointer and returns
/// through the registers saved there.
///
/// # Safety
/// `load` must be a stack pointer saved by `switch` (or built by
/// `arch::initial_frame`) on a stack that is alive and not running.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
    core::arch::naked_asm!(
        "sub sp, sp, #160",
        "stp x19, x20, [sp, #0]",
        "stp x21, x22, [sp, #16]",
        "stp x23, x24, [sp, #32]",
        "stp x25, x26, [sp, #48]",
        "stp x27, x28, [sp, #64]",
        "stp x29, x30, [sp, #80]",
        "stp d8, d9, [sp, #96]",
        "stp d10, d11, [sp, #112]",
        "stp d12, d13, [sp, #128]",
        "stp d14, d15, [sp, #144]",
        "mov x9, sp",
        "str x9, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0]",
        "ldp x21, x22, [sp, #16]",
        "ldp x23, x24, [sp, #32]",
        "ldp x25, x26, [sp, #48]",
        "ldp x27, x28, [sp, #64]",
        "ldp x29, x30, [sp, #80]",
        "ldp d8, d9, [sp, #96]",
        "ldp d10, d11, [sp, #112]",
        "ldp d12, d13, [sp, #128]",
        "ldp d14, d15, [sp, #144]",
        "add sp, sp, #160",
        "ret",
    )
}

/// Where a fresh fiber starts: `switch` "returns" here with the entry
/// function in a callee-saved register and the stack aligned for a call.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    core::arch::naked_asm!("call r12", "ud2")
}

#[cfg(target_arch = "aarch64")]
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    core::arch::naked_asm!("blr x19", "brk #1")
}

#[cfg(target_arch = "x86_64")]
mod arch {
    /// Build, below `top`, the frame `switch` pops on the first switch to a
    /// fiber, and return its stack pointer.
    pub(super) fn initial_frame(top: *mut u8) -> *mut u8 {
        // From the saved stack pointer up: MXCSR and x87 control word (their
        // power-on values), r15, r14, r13, r12 = the entry, rbx, rbp = 0,
        // the return address = the trampoline; then a zero return address
        // for the trampoline's frame and a pad.  `ret` leaves the stack
        // pointer 16-byte aligned at the trampoline's `call`, as the ABI
        // requires.
        let frame: [u64; 10] = [
            0x037f_u64 << 32 | 0x1f80,
            0,
            0,
            0,
            super::fiber_main as *const () as u64,
            0,
            0,
            super::trampoline as *const () as u64,
            0,
            0,
        ];
        write_frame(top, &frame)
    }

    pub(super) fn write_frame(top: *mut u8, frame: &[u64]) -> *mut u8 {
        let sp = top.wrapping_sub(std::mem::size_of_val(frame)).cast::<u64>();
        // SAFETY: the frame lies in the top bytes of a fresh stack mapping.
        unsafe { sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len()) };
        sp.cast()
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    /// Build, below `top`, the frame `switch` pops on the first switch to a
    /// fiber, and return its stack pointer.
    pub(super) fn initial_frame(top: *mut u8) -> *mut u8 {
        // x19 = the entry, x29 = 0 (the end of the frame chain), x30 = the
        // trampoline; everything else zero.  `add sp, sp, #160` leaves the
        // stack pointer at `top`, 16-byte aligned.
        let mut frame = [0u64; 20];
        frame[0] = super::fiber_main as *const () as u64;
        frame[11] = super::trampoline as *const () as u64;
        write_frame(top, &frame)
    }

    pub(super) fn write_frame(top: *mut u8, frame: &[u64]) -> *mut u8 {
        let sp = top.wrapping_sub(std::mem::size_of_val(frame)).cast::<u64>();
        // SAFETY: the frame lies in the top bytes of a fresh stack mapping.
        unsafe { sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len()) };
        sp.cast()
    }
}

#[cfg(simnet_tsan)]
mod tsan {
    use std::cell::Cell;
    use std::ffi::c_void;

    extern "C" {
        fn __tsan_get_current_fiber() -> *mut c_void;
        fn __tsan_create_fiber(flags: u32) -> *mut c_void;
        fn __tsan_destroy_fiber(fiber: *mut c_void);
        fn __tsan_switch_to_fiber(fiber: *mut c_void, flags: u32);
    }

    /// A fiber's TSan identity and its resumer's.
    pub(super) struct Pair {
        own: *mut c_void,
        back: Cell<*mut c_void>,
    }

    impl Pair {
        pub(super) fn new() -> Pair {
            // SAFETY: plain calls into the TSan runtime this build links.
            let own = unsafe { __tsan_create_fiber(0) };
            Pair {
                own,
                back: Cell::new(std::ptr::null_mut()),
            }
        }

        /// Announce the switch from the resumer into the fiber.
        pub(super) fn enter(&self) {
            // SAFETY: as above; `own` is alive until `drop`.
            unsafe {
                self.back.set(__tsan_get_current_fiber());
                __tsan_switch_to_fiber(self.own, 0);
            }
        }

        /// Announce the switch from the fiber back to its resumer.
        pub(super) fn leave(&self) {
            // SAFETY: `back` is the resumer's fiber, saved by `enter`.
            unsafe { __tsan_switch_to_fiber(self.back.get(), 0) };
        }
    }

    impl Drop for Pair {
        fn drop(&mut self) {
            // SAFETY: the fiber is not running (see `Fiber`'s contract).
            unsafe { __tsan_destroy_fiber(self.own) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn a_fiber_suspends_and_resumes_where_it_left_off() {
        let log = Mutex::new(Vec::new());
        let body = |i: usize| {
            for step in 0..3 {
                log.lock().unwrap().push((i, step));
                suspend();
            }
        };
        let fibers: Vec<_> = (0..2).map(|i| Fiber::new(Stack::new(), &body, i)).collect();
        let mut turns = 0;
        while fibers.iter().any(|f| !f.done()) {
            for f in fibers.iter().filter(|f| !f.done()) {
                f.resume();
                turns += 1;
            }
        }
        // Three suspensions and the final return, for each fiber.
        assert_eq!(turns, 8);
        let log = log.lock().unwrap().clone();
        assert_eq!(log, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn values_held_in_registers_survive_a_switch() {
        // Values live in registers across the suspension: if the switch lost
        // a callee-saved register, the sums would come out wrong.
        let sums = Mutex::new([0.0; 2]);
        let body = |i: usize| {
            let x = std::hint::black_box(1.5 + i as f64);
            let y = std::hint::black_box(x * 3.0);
            let k = std::hint::black_box(i as u64 * 7 + 1);
            suspend();
            sums.lock().unwrap()[i] = x + y + k as f64;
        };
        let a = Fiber::new(Stack::new(), &body, 0);
        let b = Fiber::new(Stack::new(), &body, 1);
        a.resume();
        b.resume();
        b.resume();
        a.resume();
        assert!(a.done() && b.done());
        assert_eq!(*sums.lock().unwrap(), [7.0, 18.0]);
    }

    #[test]
    fn a_fiber_dropped_mid_body_leaks_its_stack() {
        let local = Mutex::new(0usize);
        let body = |_: usize| {
            let value = std::hint::black_box(41u64 + 1);
            *local.lock().unwrap() = &value as *const u64 as usize;
            suspend();
        };
        let fiber = Fiber::new(Stack::new(), &body, 0);
        fiber.resume();
        drop(fiber);
        let at = local.into_inner().unwrap() as *const u64;
        // SAFETY: the suspended fiber's stack was leaked, not unmapped, so
        // the frame that held `value` is still mapped and untouched.
        assert_eq!(unsafe { at.read() }, 42);
    }

    #[test]
    fn a_warm_take_maps_no_stack() {
        let pool = StackPool::default();
        let first = pool.take(3);
        let bases: Vec<_> = first.iter().map(|s| s.base).collect();
        pool.give(first);
        let again = pool.take(2);
        assert!(again.iter().all(|s| bases.contains(&s.base)));
        let more = pool.take(2);
        assert_eq!(more.iter().filter(|s| bases.contains(&s.base)).count(), 1);
    }

    #[test]
    fn a_stack_can_be_reused_by_the_next_fiber() {
        let body = |_: usize| suspend();
        let first = Fiber::new(Stack::new(), &body, 0);
        first.resume();
        first.resume();
        let stack = first.into_stack();
        let base = stack.base;
        let second = Fiber::new(stack, &body, 0);
        second.resume();
        second.resume();
        assert!(second.done());
        assert_eq!(second.into_stack().base, base);
    }
}
