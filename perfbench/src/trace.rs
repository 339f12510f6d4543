//! In-memory span recorder for the traced pass.
//!
//! The benchmark measures every layer from outside: a span is recorded
//! around each public call the benchmark itself makes, never inside the
//! library (`obs` stays disabled).  Spans are kept in memory and written out
//! once, after the last op.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every span name a trace may contain; `self_share.<name>` is reported for
/// each, so a name that is missing from a workload's trace reads as 0.
pub const SPAN_NAMES: [&str; 13] = [
    "op",
    "core.plan_dense",
    "core.execute_dense",
    "sparse.from_csr",
    "core.plan_sparse",
    "core.execute_sparse",
    "serve.submit",
    "serve.flush",
    "simnet.run",
    "pgrid.grid_new",
    "pgrid.from_global",
    "core.plan_distributed",
    "core.execute_distributed",
];

/// One recorded call.  `lane` 0 is the client thread; lane `1 + r` is
/// simulated rank `r`, whose spans overlap in time with other ranks'.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the clocked unit (op) this span belongs to.
    pub op: u32,
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an `op` span.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of a span, returned by [`Recorder::begin`]; empty when the
/// recorder is off.
#[must_use = "pass the token to Recorder::end"]
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Records the client thread's spans as a stack; rank-side spans are
/// recorded by [`Lane`] inside the rank closures and attached afterwards.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    op: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            on,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// The instant every `start_ns`/`end_ns` counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.  Costs nothing when the
    /// recorder is off.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            lane: 0,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            self.spans[id].end_ns = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Attach what one rank recorded as children of `parent` (which may
    /// already be closed: ranks hand their spans back after the run).
    pub fn attach_lane(&mut self, parent: Open, rank: usize, lane: Lane) {
        let Open(parent) = parent;
        for (name, start_ns, end_ns) in lane.spans {
            self.spans.push(Span {
                name,
                op: self.op,
                lane: 1 + rank as u32,
                start_ns,
                end_ns,
                parent,
            });
        }
    }

    /// Advance to the next op: later spans carry the next op index.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Rank-side recorder: a flat list of `(name, start, end)` on one rank,
/// stamped against the client recorder's epoch.
pub struct Lane {
    epoch: Instant,
    on: bool,
    spans: Vec<(&'static str, u64, u64)>,
}

impl Lane {
    pub fn new(epoch: Instant, on: bool) -> Lane {
        Lane {
            epoch,
            on,
            spans: Vec::new(),
        }
    }

    /// Run `f`, recording a span around it when tracing is on.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push((name, start, end));
        out
    }
}

/// Total length covered by a set of intervals, counting overlaps once.
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Self time per span name.
///
/// A client-thread span's self time is its duration minus the **union** of
/// its children's intervals: rank closures run on other threads and overlap
/// in time, so subtracting their durations one by one would go negative.
/// Rank-side spans of one name under one parent are themselves reported as
/// the union of their intervals — the wall time during which at least one
/// rank was inside that call — so a share never exceeds the op it is part
/// of.  On a single-threaded tree the per-name self times sum to the `op`
/// total exactly.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut rank_side: BTreeMap<(usize, &'static str), Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        let Some(p) = s.parent else { continue };
        let clipped = (
            s.start_ns.max(spans[p].start_ns),
            s.end_ns.min(spans[p].end_ns),
        );
        children[p].push(clipped);
        if s.lane != 0 {
            rank_side.entry((p, s.name)).or_default().push(clipped);
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        if s.lane == 0 {
            *out.entry(s.name).or_default() += s.duration() - union_len(kids);
        }
    }
    for ((_, name), intervals) in rank_side {
        *out.entry(name).or_default() += union_len(intervals);
    }
    out
}

/// Durations of every span with this name, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .collect()
}

/// Per op, the longest span of this name (the slowest rank sets the op's
/// time), in op order.
pub fn max_per_op(spans: &[Span], name: &str) -> Vec<u64> {
    let mut by_op: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let slot = by_op.entry(s.op).or_default();
        *slot = (*slot).max(s.duration());
    }
    by_op.into_values().collect()
}

/// The trace file: every span plus the self time per name (from
/// [`self_times`]) and the summed duration of the `op` spans.
pub fn to_json(
    workload: &str,
    spans: &[Span],
    selfs: &BTreeMap<&'static str, u64>,
    op_total: u64,
) -> Value {
    Value::Obj(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("op_total_ns".into(), Value::Num(op_total as f64)),
        (
            "self_ns".into(),
            Value::Obj(
                selfs
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "spans".into(),
            Value::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(s.name.into())),
                            ("op".into(), Value::Num(s.op as f64)),
                            ("lane".into(), Value::Num(s.lane as f64)),
                            ("start_ns".into(), Value::Num(s.start_ns as f64)),
                            ("end_ns".into(), Value::Num(s.end_ns as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        lane: u32,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            op: 0,
            lane,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(vec![(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(vec![(0, 100), (10, 20), (30, 40)]), 100);
    }

    #[test]
    fn self_time_on_a_single_thread_sums_to_the_op() {
        let spans = vec![
            span("op", 0, 0, 100, None),
            span("core.plan_dense", 0, 5, 15, Some(0)),
            span("core.execute_dense", 0, 20, 90, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["op"], 20);
        assert_eq!(selfs["core.plan_dense"], 10);
        assert_eq!(selfs["core.execute_dense"], 70);
        assert_eq!(selfs.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_with_overlapping_children_on_other_threads() {
        // Two ranks overlap in time: their durations sum to 110 > 100, so
        // the parent's self time must come from the union (20..90 = 70).
        let spans = vec![
            span("op", 0, 0, 110, None),
            span("simnet.run", 0, 10, 110, Some(0)),
            span("core.execute_distributed", 1, 20, 80, Some(1)),
            span("core.execute_distributed", 2, 40, 90, Some(1)),
            span("pgrid.grid_new", 1, 12, 14, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["op"], 10);
        assert_eq!(selfs["simnet.run"], 100 - 70 - 2);
        assert_eq!(selfs["core.execute_distributed"], 70);
        assert_eq!(selfs["pgrid.grid_new"], 2);
    }

    #[test]
    fn recorder_nests_and_attaches_lanes() {
        let mut rec = Recorder::new(true);
        let op = rec.begin("op");
        let run = rec.begin("simnet.run");
        let mut lane = Lane::new(rec.epoch(), true);
        lane.time("pgrid.grid_new", || ());
        rec.end(run);
        rec.end(op);
        rec.attach_lane(run, 3, lane);
        rec.next_op();
        let op = rec.begin("op");
        rec.end(op);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].lane, spans[2].parent), (4, Some(1)));
        assert_eq!((spans[3].op, spans[3].parent), (1, None));
        assert_eq!(max_per_op(spans, "op").len(), 2);
    }

    #[test]
    fn a_recorder_that_is_off_records_nothing() {
        let mut rec = Recorder::new(false);
        let op = rec.begin("op");
        let mut lane = Lane::new(rec.epoch(), false);
        assert_eq!(lane.time("pgrid.grid_new", || 7), 7);
        rec.end(op);
        rec.attach_lane(op, 0, lane);
        assert!(rec.spans().is_empty());
    }
}
