//! # `obs` — solver-wide tracing & metrics
//!
//! A low-overhead observability substrate for the whole workspace: every
//! layer (planner, dense GEMM, sparse executors, the simulated machine)
//! records **spans** and **counters** into per-thread buffers, and the
//! results are exported three ways —
//!
//! 1. an aggregated [`TraceReport`] (attached to `catrsm::SolveReport` by
//!    the staged executors),
//! 2. a Chrome trace-event JSON file ([`chrome`]) loadable in
//!    `chrome://tracing` or [Perfetto](https://ui.perfetto.dev),
//! 3. raw event access ([`collect_all`] / [`collect_since`]) for custom
//!    analysis such as `costmodel`'s predicted-vs-measured drift tables.
//!
//! ## Design: one atomic gate, per-thread buffers
//!
//! Tracing is **disabled by default** and enabled at runtime with
//! [`set_enabled`].  Every instrumentation site in the workspace is guarded
//! by [`enabled`] — a single relaxed atomic load — so the disabled path
//! costs one predictable branch and touches no other shared state: solver
//! results are **bitwise identical** with the instrumentation compiled in,
//! and the sparse executors stay bitwise identical at every worker count,
//! because tracing never reads or writes floating-point data.
//!
//! When enabled, each thread records into its own pre-allocated buffer
//! ([`BUF_CAPACITY`] events, registered once per thread): pushes never
//! contend with other workers and **never block** — the buffer's lock is
//! uncontended in steady state (only a concurrent [`collect_since`] /
//! [`clear`] can hold it, in which case the event is dropped and counted
//! rather than waited for), and a full buffer likewise drops and counts
//! ([`dropped_events`]) instead of allocating.  Span `End` events get a
//! small slack reserve past the cap so a recorded `Begin` is always
//! balanced by its `End`.
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
//! obs::set_enabled(true);
//! {
//!     let _span = obs::span("demo", "work");
//!     obs::counter("demo", "items", "count", 3, "worker", 0);
//! }
//! obs::set_enabled(false);
//! let dump = obs::collect_all();
//! let report = obs::TraceReport::from_dump(&dump);
//! assert!(report.spans.iter().any(|s| s.name == "work"));
//! let json = obs::chrome::to_chrome_json(&dump);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! obs::clear();
//! ```

pub mod chrome;
pub mod report;

pub use report::{CounterStat, SpanStat, TraceReport};

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events each thread-lane buffer can hold before further pushes are
/// dropped (and counted in [`dropped_events`]).  Pre-allocated on the
/// thread's first recorded event, so steady-state recording is
/// allocation-free.
pub const BUF_CAPACITY: usize = 1 << 16;

/// Extra slots past [`BUF_CAPACITY`] reserved for span `End` events, so a
/// `Begin` that made it into the buffer is always balanced by its `End`
/// even if the buffer filled in between.
const END_SLACK: usize = 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is tracing currently enabled?
///
/// This is the gate every instrumentation site checks first: one relaxed
/// atomic load.  When it returns `false` nothing else happens — no clock
/// read, no buffer touch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on or off at runtime.
///
/// Enabling mid-run is safe (threads lazily register buffers on their
/// first event); disabling quiesces recording but keeps buffered events
/// for collection.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Enable tracing when the `CATRSM_TRACE` environment variable is set to a
/// non-empty value other than `0`.  Returns the resulting enabled state.
pub fn init_from_env() -> bool {
    if let Ok(v) = std::env::var("CATRSM_TRACE") {
        if !v.is_empty() && v != "0" {
            set_enabled(true);
        }
    }
    enabled()
}

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

/// Which time base a thread buffer records in.
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

struct ThreadBuf {
    lane: Lane,
    tid: u64,
    events: Mutex<Vec<Event>>,
    dropped: AtomicU64,
}

impl ThreadBuf {
    fn push(&self, ev: Event) {
        let cap = if ev.kind == EventKind::End {
            BUF_CAPACITY + END_SLACK
        } else {
            BUF_CAPACITY
        };
        match self.events.try_lock() {
            Ok(mut buf) => {
                if buf.len() < cap {
                    buf.push(ev);
                } else {
                    drop(buf);
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            // A collector holds the lock: never block a worker — drop.
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn new_buf(lane: Lane) -> Arc<ThreadBuf> {
    let buf = Arc::new(ThreadBuf {
        lane,
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Mutex::new(Vec::with_capacity(BUF_CAPACITY + END_SLACK)),
        dropped: AtomicU64::new(0),
    });
    registry()
        .lock()
        .expect("obs registry poisoned")
        .push(buf.clone());
    buf
}

thread_local! {
    static WALL_BUF: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
    static SIM_BUF: OnceCell<Arc<ThreadBuf>> = const { OnceCell::new() };
}

fn push_wall(ev: Event) {
    WALL_BUF.with(|cell| cell.get_or_init(|| new_buf(Lane::Wall)).push(ev));
}

fn push_sim(rank: usize, ev: Event) {
    SIM_BUF.with(|cell| cell.get_or_init(|| new_buf(Lane::Sim { rank })).push(ev));
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// RAII span: records `Begin` on creation (when tracing is enabled) and
/// the matching `End` when dropped.  Create and drop on the same thread.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    cat: &'static str,
    name: &'static str,
    active: bool,
}

impl SpanGuard {
    /// Whether this guard recorded a `Begin` (tracing was enabled).
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            push_wall(Event {
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

/// Open a wall-lane span.  A no-op returning an inactive guard when
/// tracing is disabled (one atomic load).
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
    if !enabled() {
        return SpanGuard {
            cat,
            name,
            active: false,
        };
    }
    push_wall(Event {
        kind: EventKind::Begin,
        cat,
        name,
        ts_ns: now_ns(),
        arg_name,
        arg,
        arg2_name: "",
        arg2: 0,
    });
    SpanGuard {
        cat,
        name,
        active: true,
    }
}

/// Record a wall-lane instant event.  No-op when tracing is disabled.
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
/// (pass `""` to omit the second).  No-op when tracing is disabled.
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
/// nanoseconds) of the given simulated rank.  No-op when tracing is
/// disabled.  Virtual clocks only move forward, so each rank's lane stays
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

/// One thread-lane's events, as returned by [`collect_all`] /
/// [`collect_since`].
#[derive(Debug, Clone)]
pub struct ThreadEvents {
    /// Stable per-buffer id (one per thread per lane, in registration
    /// order).
    pub tid: u64,
    /// The buffer's time base.
    pub lane: Lane,
    /// Events in recording order (timestamps are monotone within a lane).
    pub events: Vec<Event>,
}

/// A snapshot of every thread's buffered events.
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// Per-thread event lists.
    pub threads: Vec<ThreadEvents>,
    /// Events dropped so far (buffer full or collector contention).
    pub dropped: u64,
}

impl TraceDump {
    /// Total number of events across all threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Whether the dump holds no events at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A position watermark used to collect only the events recorded after a
/// point in time; see [`mark`] and [`collect_since`].
#[derive(Debug, Clone)]
pub struct Mark(Vec<(u64, usize)>);

/// Snapshot the current per-buffer lengths.  [`collect_since`] with this
/// mark returns only events recorded afterwards (including events from
/// threads that registered after the mark).
pub fn mark() -> Mark {
    let reg = registry().lock().expect("obs registry poisoned");
    Mark(
        reg.iter()
            .map(|b| {
                let len = b.events.lock().map(|e| e.len()).unwrap_or(0);
                (b.tid, len)
            })
            .collect(),
    )
}

fn collect(from: Option<&Mark>) -> TraceDump {
    let reg = registry().lock().expect("obs registry poisoned");
    let mut dropped = 0;
    let mut threads = Vec::new();
    for buf in reg.iter() {
        dropped += buf.dropped.load(Ordering::Relaxed);
        let start = from
            .and_then(|m| m.0.iter().find(|(tid, _)| *tid == buf.tid))
            .map(|(_, len)| *len)
            .unwrap_or(0);
        let events = match buf.events.lock() {
            Ok(e) => e.get(start..).unwrap_or(&[]).to_vec(),
            Err(_) => Vec::new(),
        };
        if !events.is_empty() {
            threads.push(ThreadEvents {
                tid: buf.tid,
                lane: buf.lane,
                events,
            });
        }
    }
    TraceDump { threads, dropped }
}

/// Copy out every buffered event (non-destructive; [`clear`] resets).
pub fn collect_all() -> TraceDump {
    collect(None)
}

/// Copy out the events recorded since `mark` (non-destructive).  This is
/// what the staged executors use to attach a per-solve `TraceReport`
/// without consuming the longer timeline a caller may be accumulating for
/// a Chrome trace export.
pub fn collect_since(mark: &Mark) -> TraceDump {
    collect(Some(mark))
}

/// Empty every thread buffer and reset the dropped-event count.  Buffers
/// keep their allocation.  Call this between independent traced runs; any
/// worker recording concurrently drops (and counts) its events instead of
/// blocking.
pub fn clear() {
    let reg = registry().lock().expect("obs registry poisoned");
    for buf in reg.iter() {
        if let Ok(mut e) = buf.events.lock() {
            e.clear();
        }
        buf.dropped.store(0, Ordering::Relaxed);
    }
}

/// Events dropped so far across all buffers (buffer full, or a push that
/// raced a collector).  A non-zero value means timelines are incomplete —
/// aggregate counters emitted at region end are far coarser than per-level
/// spans and survive much longer workloads.
pub fn dropped_events() -> u64 {
    let reg = registry().lock().expect("obs registry poisoned");
    reg.iter().map(|b| b.dropped.load(Ordering::Relaxed)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that mutate the global enabled flag / registry.
    fn lock_global() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = lock_global();
        clear();
        set_enabled(false);
        {
            let s = span("test", "nothing");
            assert!(!s.is_active());
        }
        instant("test", "nothing", "", 0);
        counter("test", "nothing", "v", 1, "", 0);
        sim_instant(0, "test", "nothing", 5, "", 0, "", 0);
        assert!(collect_all().is_empty());
    }

    #[test]
    fn spans_and_counters_round_trip() {
        let _g = lock_global();
        clear();
        set_enabled(true);
        {
            let _outer = span("test", "outer");
            {
                let _inner = span_with("test", "inner", "w", 3);
            }
            counter("test", "items", "count", 7, "worker", 1);
            instant("test", "tick", "", 0);
        }
        sim_instant(2, "test", "send", 1_000, "words", 64, "dst", 1);
        set_enabled(false);
        let dump = collect_all();
        assert_eq!(dump.len(), 7); // 2 spans x B/E + counter + instant + sim
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
        clear();
        assert!(collect_all().is_empty());
    }

    #[test]
    fn mark_scopes_collection() {
        let _g = lock_global();
        clear();
        set_enabled(true);
        counter("test", "before", "v", 1, "", 0);
        let m = mark();
        counter("test", "after", "v", 2, "", 0);
        set_enabled(false);
        let since = collect_since(&m);
        assert_eq!(since.len(), 1);
        assert_eq!(since.threads[0].events[0].name, "after");
        let all = collect_all();
        assert_eq!(all.len(), 2);
        clear();
    }

    #[test]
    fn threads_get_distinct_buffers() {
        let _g = lock_global();
        clear();
        set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    counter("test", "thread", "i", i, "", 0);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_enabled(false);
        let dump = collect_all();
        assert_eq!(dump.len(), 4);
        assert!(dump.threads.len() >= 4, "one buffer per thread");
        let mut tids: Vec<u64> = dump.threads.iter().map(|t| t.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), dump.threads.len());
        clear();
    }
}
