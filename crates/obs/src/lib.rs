//! # `obs` — solver-wide tracing & metrics
//!
//! A low-overhead observability substrate for the whole workspace: every
//! layer (planner, dense GEMM, sparse executors, the simulated machine)
//! records **spans** and **counters**, and whoever wants them holds a
//! [`Recorder`] and reads the results three ways —
//!
//! 1. an aggregated [`TraceReport`] ([`Recorder::report`]),
//! 2. a Chrome trace-event JSON file ([`chrome`]) loadable in
//!    `chrome://tracing` or [Perfetto](https://ui.perfetto.dev),
//! 3. raw event access ([`Recorder::dump`]) for custom analysis such as
//!    `costmodel`'s predicted-vs-measured drift tables.
//!
//! ## Design: a trace belongs to the solve that asked for it
//!
//! There is no process-wide switch.  [`Recorder::record`] installs the
//! recorder on the **calling thread** for the duration of a closure
//! (nestable: the previous one comes back on exit and on unwind), and
//! every instrumentation site in the workspace is guarded by [`enabled`] —
//! "is a recorder installed on this thread?", one const-initialised
//! thread-local load, no atomic and no lock.  With none installed nothing
//! else happens: solver results are **bitwise identical** with the
//! instrumentation compiled in, and the sparse executors stay bitwise
//! identical at every worker count, because tracing never reads or writes
//! floating-point data.
//!
//! Code that runs work for a caller elsewhere hands the caller's recorder
//! ([`current`]) to that work, which runs its body under
//! [`Recorder::record`]: the one spawn helper in `dense::threads` (under
//! both `run_region` and `join_all`, so the packed GEMM, the sparse level
//! sweep and a `serve` flush) for its threads, and `simnet::Machine::run`
//! for each simulated rank.  The ranks are fibers that share a few worker
//! threads, so a rank worker also keeps each rank's [`Installation`] while
//! the rank is switched out and swaps it back in ([`swap_installation`])
//! when the rank resumes: every rank records as if it had a thread of its
//! own.  A solve therefore lands, workers and ranks included, in the
//! recorder of whoever asked for it and in nobody else's: two threads
//! tracing two solves at once each see only their own spans, and a thread
//! with no recorder records nothing whatever its neighbours do.
//!
//! Each installation records into its own lanes (one wall lane, and one
//! sim lane for a simulated rank), created on the first event and **owned by the
//! recorder**: they are freed with it.  A lane reserves nothing before its
//! first event and grows to at most [`BUF_CAPACITY`] events; a full lane
//! drops and counts ([`TraceDump::dropped`]) instead of growing.  Span
//! `End` events get a small slack past the cap and go to the lane their
//! `Begin` went to, so a recorded `Begin` is always balanced by its `End`.
//! A lane's lock is taken by its one writer per event and by
//! [`Recorder::dump`]; writers never contend with each other.
//!
//! ## Timestamps: wall lane and virtual lane
//!
//! Wall-clock events are stamped in nanoseconds since a process-wide epoch
//! ([`now_ns`]).  The simulated machine (`simnet`) instead stamps its
//! send/recv/retry events with its **virtual α–β–γ clock**
//! ([`sim_instant`]); those land in a separate per-rank lane so the two
//! time bases never interleave in one timeline (the Chrome exporter puts
//! them under a different pid).  Within each lane timestamps are monotone
//! non-decreasing, which [`chrome::validate`] checks.
//!
//! ## Quick example
//!
//! ```
//! let rec = obs::Recorder::new();
//! rec.record(|| {
//!     let _span = obs::span("demo", "work");
//!     obs::counter("demo", "items", "count", 3, "worker", 0);
//! });
//! let report = rec.report();
//! assert!(report.spans.iter().any(|s| s.name == "work"));
//! let json = obs::chrome::to_chrome_json(&rec.dump());
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

pub mod chrome;
pub mod report;

pub use report::{CounterStat, SpanStat, TraceReport};

use std::cell::{Cell, OnceCell, RefCell};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};
use std::time::Instant;

/// Events a lane can hold before further pushes are dropped (and counted
/// in [`TraceDump::dropped`]).  A lane allocates as it fills, never past
/// this (plus the `End` slack).
pub const BUF_CAPACITY: usize = 1 << 16;

/// Extra slots past [`BUF_CAPACITY`] reserved for span `End` events, so a
/// `Begin` that made it into the buffer is always balanced by its `End`
/// even if the buffer filled in between.
const END_SLACK: usize = 1024;

/// Events a lane allocates room for on its first push.
const FIRST_CHUNK: usize = 64;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (the first call wins the
/// epoch).  All wall-lane events use this time base.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opening (Chrome phase `B`); balanced by an [`EventKind::End`].
    Begin,
    /// Span closing (Chrome phase `E`).
    End,
    /// A point-in-time marker (Chrome phase `i`), e.g. one simulated send.
    Instant,
    /// A metric sample (Chrome phase `C`), e.g. per-worker barrier-wait ns.
    Counter,
}

/// One recorded trace event.  All strings are `&'static str` so recording
/// never allocates; the two optional `(name, value)` argument pairs cover
/// every counter the workspace emits (an empty name means "no argument").
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Event kind (span begin/end, instant, counter).
    pub kind: EventKind,
    /// Category: the emitting layer (`"planner"`, `"dense"`, `"sparse"`,
    /// `"simnet"`, `"pgrid"`, `"solve"`).
    pub cat: &'static str,
    /// Event name within the category.
    pub name: &'static str,
    /// Timestamp in nanoseconds: wall time since [`now_ns`]'s epoch for
    /// wall-lane events, virtual α–β–γ clock for sim-lane events.
    pub ts_ns: u64,
    /// Name of the first argument (`""` = absent).
    pub arg_name: &'static str,
    /// First argument value.
    pub arg: u64,
    /// Name of the second argument (`""` = absent).
    pub arg2_name: &'static str,
    /// Second argument value.
    pub arg2: u64,
}

/// Which time base a lane records in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Wall-clock nanoseconds since the process epoch.
    Wall,
    /// The simulated machine's virtual clock, for the given world rank.
    Sim {
        /// World rank of the simulated processor the events belong to.
        rank: usize,
    },
}

#[derive(Default)]
struct LaneState {
    events: Vec<Event>,
    dropped: u64,
}

/// One installation's events in one time base.  Written by the thread it
/// was created on, read by [`Recorder::dump`].
struct LaneBuf {
    lane: Lane,
    tid: u64,
    // The one lock tracing takes per event.  It pairs the writer's pushes
    // with `Recorder::dump`'s copy: a dump sees a prefix of the lane, and
    // the writer only ever waits for a dump, never for another writer.
    state: Mutex<LaneState>,
}

impl LaneBuf {
    fn state(&self) -> MutexGuard<'_, LaneState> {
        // Pushing cannot panic half-way, so a poisoned lane is still whole.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, ev: Event) {
        let cap = if ev.kind == EventKind::End {
            BUF_CAPACITY + END_SLACK
        } else {
            BUF_CAPACITY
        };
        let mut state = self.state();
        let len = state.events.len();
        if len >= cap {
            state.dropped += 1;
            return;
        }
        if len == state.events.capacity() {
            // Double, but never past the cap.
            state
                .events
                .reserve_exact(len.max(FIRST_CHUNK).min(cap - len));
        }
        state.events.push(ev);
    }
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// A trace, held by whoever asked for it.
///
/// [`Recorder::record`] makes the instrumentation sites reached from a
/// closure — on the calling thread, and on every pool worker and rank
/// thread started on its behalf — write here; [`Recorder::dump`] and
/// [`Recorder::report`] read what they wrote.  Cloning yields another
/// handle to the same trace (that is what a spawn site hands its
/// children); the lanes are freed when the last handle is dropped.
#[derive(Clone, Default)]
pub struct Recorder {
    lanes: Arc<Mutex<Vec<Arc<LaneBuf>>>>,
}

/// What [`Recorder::record`] keeps installed while its closure runs: the
/// recorder and the lanes this installation created.
struct Installed {
    recorder: Recorder,
    wall: OnceCell<Arc<LaneBuf>>,
    sim: OnceCell<Arc<LaneBuf>>,
}

impl Installed {
    /// This installation's wall lane, created on first use.
    fn wall(&self) -> &Arc<LaneBuf> {
        self.wall.get_or_init(|| self.recorder.new_lane(Lane::Wall))
    }
}

thread_local! {
    /// Whether `INSTALLED` holds a recorder.  A thread-local of its own
    /// with no destructor, so `enabled()` is a single load.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// The innermost live `record` call of this thread.
    static INSTALLED: RefCell<Option<Installed>> = const { RefCell::new(None) };
}

/// Makes `next` this thread's installation and returns the one it replaces.
fn install(next: Option<Installed>) -> Option<Installed> {
    RECORDING.set(next.is_some());
    INSTALLED.with(|i| i.replace(next))
}

/// A thread's installation, detached from the thread.
///
/// A scheduler that runs several tasks on one thread — `simnet`'s rank
/// workers, each running many simulated ranks — keeps one per task and
/// swaps it in with [`swap_installation`] whenever the task resumes, so
/// each task records on its own lanes as if it had a thread of its own.
/// The default is "no recorder installed".
#[derive(Default)]
pub struct Installation(Option<Installed>);

/// Makes `next` the calling thread's installation and returns the one it
/// replaces.  Swapping the returned value back in restores the thread
/// exactly; a recorder installed by [`Recorder::record`] inside a task
/// stays with that task's installation.
#[inline]
pub fn swap_installation(next: Installation) -> Installation {
    if next.0.is_none() && !enabled() {
        return next;
    }
    Installation(install(next.0))
}

/// Runs `f` on this thread's installation, if there is one.
#[inline]
fn with_installed<T>(f: impl FnOnce(&Installed) -> T) -> Option<T> {
    if !enabled() {
        return None;
    }
    INSTALLED.with(|i| i.borrow().as_ref().map(f))
}

impl Recorder {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with this recorder installed on the calling thread and
    /// returns its result.  Nestable: a recorder installed further out
    /// sees nothing of `f` and is back in place when `f` returns or
    /// unwinds.  Each call records into fresh lanes.
    pub fn record<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<Installed>);
        impl Drop for Restore {
            fn drop(&mut self) {
                install(self.0.take());
            }
        }
        let _restore = Restore(install(Some(Installed {
            recorder: self.clone(),
            wall: OnceCell::new(),
            sim: OnceCell::new(),
        })));
        f()
    }

    fn lanes(&self) -> MutexGuard<'_, Vec<Arc<LaneBuf>>> {
        // Only ever pushed to, so the list is whole even if poisoned.
        self.lanes.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn new_lane(&self, lane: Lane) -> Arc<LaneBuf> {
        let mut lanes = self.lanes();
        let buf = Arc::new(LaneBuf {
            lane,
            tid: lanes.len() as u64 + 1,
            state: Mutex::default(),
        });
        lanes.push(buf.clone());
        buf
    }

    /// Copy out every event recorded so far (non-destructive; safe while
    /// recording is still going on).
    pub fn dump(&self) -> TraceDump {
        let mut dump = TraceDump::default();
        for buf in self.lanes().iter() {
            let state = buf.state();
            dump.dropped += state.dropped;
            if !state.events.is_empty() {
                dump.threads.push(ThreadEvents {
                    tid: buf.tid,
                    lane: buf.lane,
                    events: state.events.clone(),
                });
            }
        }
        dump
    }

    /// The aggregated view of [`Recorder::dump`].
    pub fn report(&self) -> TraceReport {
        TraceReport::from_dump(&self.dump())
    }

    /// Test hook: weak handles on the lanes this recorder holds now, to
    /// check that they die with it.
    #[doc(hidden)]
    pub fn lane_probe(&self) -> LaneProbe {
        LaneProbe(self.lanes().iter().map(Arc::downgrade).collect())
    }
}

/// See [`Recorder::lane_probe`].
#[doc(hidden)]
pub struct LaneProbe(Vec<Weak<LaneBuf>>);

impl LaneProbe {
    /// Lanes the probe was taken over.
    pub fn lanes(&self) -> usize {
        self.0.len()
    }

    /// How many of them are still allocated.
    pub fn alive(&self) -> usize {
        self.0.iter().filter(|l| l.strong_count() > 0).count()
    }
}

/// Is a recorder installed on the calling thread?
///
/// This is the gate every instrumentation site checks first: one
/// thread-local load.  When it returns `false` nothing else happens — no
/// clock read, no buffer touch.
#[inline(always)]
pub fn enabled() -> bool {
    RECORDING.get()
}

/// The recorder installed on the calling thread, if any: what a spawn site
/// captures before it starts threads, so each child can run its body under
/// [`Recorder::record`].
#[inline]
pub fn current() -> Option<Recorder> {
    with_installed(|i| i.recorder.clone())
}

fn push_wall(ev: Event) {
    with_installed(|i| i.wall().push(ev));
}

fn push_sim(rank: usize, ev: Event) {
    with_installed(|i| {
        i.sim
            .get_or_init(|| i.recorder.new_lane(Lane::Sim { rank }))
            .push(ev)
    });
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// RAII span: records `Begin` on creation (when a recorder is installed)
/// and the matching `End`, on the same lane, when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    cat: &'static str,
    name: &'static str,
    lane: Option<Arc<LaneBuf>>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(lane) = &self.lane {
            lane.push(Event {
                kind: EventKind::End,
                cat: self.cat,
                name: self.name,
                ts_ns: now_ns(),
                arg_name: "",
                arg: 0,
                arg2_name: "",
                arg2: 0,
            });
        }
    }
}

/// Open a wall-lane span.  A no-op returning an inactive guard when no
/// recorder is installed (one thread-local load).
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    span_with(cat, name, "", 0)
}

/// [`span`] with one argument recorded on the `Begin` event (e.g. the
/// worker index or problem size).
#[inline]
pub fn span_with(
    cat: &'static str,
    name: &'static str,
    arg_name: &'static str,
    arg: u64,
) -> SpanGuard {
    let lane = with_installed(|i| i.wall().clone());
    if let Some(lane) = &lane {
        lane.push(Event {
            kind: EventKind::Begin,
            cat,
            name,
            ts_ns: now_ns(),
            arg_name,
            arg,
            arg2_name: "",
            arg2: 0,
        });
    }
    SpanGuard { cat, name, lane }
}

/// Record a wall-lane instant event.  No-op when no recorder is
/// installed.
#[inline]
pub fn instant(cat: &'static str, name: &'static str, arg_name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    push_wall(Event {
        kind: EventKind::Instant,
        cat,
        name,
        ts_ns: now_ns(),
        arg_name,
        arg,
        arg2_name: "",
        arg2: 0,
    });
}

/// Record a wall-lane counter sample with up to two `(name, value)` pairs
/// (pass `""` to omit the second).  No-op when no recorder is
/// installed.
#[inline]
pub fn counter(
    cat: &'static str,
    name: &'static str,
    arg_name: &'static str,
    arg: u64,
    arg2_name: &'static str,
    arg2: u64,
) {
    if !enabled() {
        return;
    }
    push_wall(Event {
        kind: EventKind::Counter,
        cat,
        name,
        ts_ns: now_ns(),
        arg_name,
        arg,
        arg2_name,
        arg2,
    });
}

/// Record a sim-lane instant event stamped with the **virtual clock** (in
/// nanoseconds) of the given simulated rank.  No-op when no recorder is
/// installed.  Virtual clocks only move forward, so each rank's lane stays
/// monotone.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn sim_instant(
    rank: usize,
    cat: &'static str,
    name: &'static str,
    t_ns: u64,
    arg_name: &'static str,
    arg: u64,
    arg2_name: &'static str,
    arg2: u64,
) {
    if !enabled() {
        return;
    }
    push_sim(
        rank,
        Event {
            kind: EventKind::Instant,
            cat,
            name,
            ts_ns: t_ns,
            arg_name,
            arg,
            arg2_name,
            arg2,
        },
    );
}

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

/// One lane's events, as returned by [`Recorder::dump`].
#[derive(Debug, Clone)]
pub struct ThreadEvents {
    /// Per-lane id, unique within the recorder (lanes are numbered from 1
    /// in the order they recorded their first event).
    pub tid: u64,
    /// The lane's time base.
    pub lane: Lane,
    /// Events in recording order (timestamps are monotone within a lane).
    pub events: Vec<Event>,
}

/// A snapshot of every lane of one recorder.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// Per-lane event lists.
    pub threads: Vec<ThreadEvents>,
    /// Events dropped because their lane was full.  A non-zero value
    /// means timelines are incomplete — aggregate counters emitted at
    /// region end are far coarser than per-level spans and survive much
    /// longer workloads.
    pub dropped: u64,
}

impl TraceDump {
    /// Total number of events across all lanes.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Whether the dump holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let rec = Recorder::new();
        assert!(!enabled());
        drop(span("test", "nothing"));
        instant("test", "nothing", "", 0);
        counter("test", "nothing", "v", 1, "", 0);
        sim_instant(0, "test", "nothing", 5, "", 0, "", 0);
        assert!(current().is_none());
        assert!(rec.dump().is_empty());
    }

    #[test]
    fn spans_and_counters_round_trip() {
        let rec = Recorder::new();
        rec.record(|| {
            assert!(enabled());
            {
                let _outer = span("test", "outer");
                {
                    let _inner = span_with("test", "inner", "w", 3);
                }
                counter("test", "items", "count", 7, "worker", 1);
                instant("test", "tick", "", 0);
            }
            sim_instant(2, "test", "send", 1_000, "words", 64, "dst", 1);
        });
        assert!(!enabled());
        let dump = rec.dump();
        assert_eq!(dump.len(), 7); // 2 spans x B/E + counter + instant + sim
        assert_eq!(dump.dropped, 0);
        let wall: Vec<_> = dump
            .threads
            .iter()
            .filter(|t| t.lane == Lane::Wall)
            .collect();
        assert_eq!(wall.len(), 1);
        // Timestamps monotone within the lane.
        let ts: Vec<u64> = wall[0].events.iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        let sim: Vec<_> = dump
            .threads
            .iter()
            .filter(|t| t.lane == Lane::Sim { rank: 2 })
            .collect();
        assert_eq!(sim.len(), 1);
        assert_eq!(sim[0].events[0].ts_ns, 1_000);
        assert!(Recorder::new().dump().is_empty());
    }

    #[test]
    fn nested_recorders_scope_collection() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        outer.record(|| {
            counter("test", "before", "v", 1, "", 0);
            // A span that straddles the inner installation still closes on
            // the outer recorder's lane.
            let straddling = span("test", "straddle");
            inner.record(|| {
                counter("test", "inside", "v", 2, "", 0);
                drop(straddling);
            });
            counter("test", "after", "v", 3, "", 0);
        });
        let names = |r: &Recorder| -> Vec<&'static str> {
            let dump = r.dump();
            assert_eq!(dump.threads.len(), 1);
            dump.threads[0].events.iter().map(|e| e.name).collect()
        };
        assert_eq!(names(&inner), ["inside"]);
        assert_eq!(names(&outer), ["before", "straddle", "straddle", "after"]);
    }

    #[test]
    fn the_previous_recorder_comes_back_on_unwind() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        outer.record(|| {
            let caught = std::panic::catch_unwind(|| {
                inner.record(|| {
                    let _span = span("test", "doomed");
                    panic!("unwinding through an installation");
                })
            });
            assert!(caught.is_err());
            counter("test", "survivor", "v", 1, "", 0);
        });
        assert!(!enabled());
        assert_eq!(inner.report().span("test", "doomed").unwrap().count, 1);
        assert_eq!(outer.dump().len(), 1);
    }

    #[test]
    fn threads_get_distinct_buffers() {
        let rec = Recorder::new();
        rec.record(|| {
            let parent = current().expect("installed");
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let parent = parent.clone();
                    std::thread::spawn(move || {
                        // A fresh thread has nothing installed until the
                        // spawner's recorder is handed to it.
                        counter("test", "lost", "i", i, "", 0);
                        parent.record(|| counter("test", "thread", "i", i, "", 0));
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let dump = rec.dump();
        assert_eq!(dump.len(), 4);
        assert_eq!(dump.threads.len(), 4, "one lane per thread");
        let mut tids: Vec<u64> = dump.threads.iter().map(|t| t.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, [1, 2, 3, 4]);
    }

    #[test]
    fn a_lane_grows_to_the_cap_and_then_counts() {
        let rec = Recorder::new();
        let probe = rec.record(|| {
            let straddling = span("test", "open");
            for i in 0..BUF_CAPACITY as u64 + 10 {
                counter("test", "fill", "i", i, "", 0);
            }
            drop(straddling);
            rec.lane_probe()
        });
        let dump = rec.dump();
        assert_eq!(dump.len(), BUF_CAPACITY + 1, "the End rides the slack");
        assert_eq!(dump.dropped, 11);
        assert_eq!(dump.threads[0].events.last().unwrap().kind, EventKind::End);
        let lane = rec.lanes()[0].clone();
        assert!(lane.state().events.capacity() <= BUF_CAPACITY + END_SLACK);
        drop(lane);
        assert_eq!((probe.lanes(), probe.alive()), (1, 1));
        drop(rec);
        assert_eq!(probe.alive(), 0, "lanes are freed with their recorder");
    }
}
