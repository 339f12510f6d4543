//! Aggregation of a raw [`TraceDump`] into a structured
//! [`TraceReport`]: per-span timing statistics, counter totals, and the
//! solver-specific convenience views (barrier wait, plan-cache and batching
//! counters).

use crate::{EventKind, TraceDump};
use std::collections::BTreeMap;

/// Timing statistics for one span name within one category, aggregated
/// over every occurrence on every thread.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// Category the span was recorded under (e.g. `"dense"`).
    pub cat: String,
    /// Span name (e.g. `"pack_b"`).
    pub name: String,
    /// Number of completed (begin/end balanced) occurrences.
    pub count: u64,
    /// Total nanoseconds across all occurrences (threads sum, so this can
    /// exceed wall time inside parallel regions).
    pub total_ns: u64,
    /// Longest single occurrence in nanoseconds.
    pub max_ns: u64,
}

/// Sum/count/max statistics for one counter name within one category.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterStat {
    /// Category the counter was recorded under.
    pub cat: String,
    /// Counter name (e.g. `"barrier_wait_ns"`).
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of the first argument over all samples.
    pub total: u64,
    /// Maximum first-argument value over all samples.
    pub max: u64,
}

/// Aggregated view of one trace: what [`crate::Recorder::report`]
/// returns.
///
/// The convenience fields at the end pull out the solver-wide counter
/// conventions so callers don't need to know event names:
/// `barrier_wait_ns` from the sparse level sweep, and the serve crate's
/// cache/batching conventions
/// (`plan_cache_hit` / `plan_cache_miss` / `plan_cache_evict` /
/// `batch_width`), so Chrome traces of a running solve service expose
/// cache and fusion behavior per request window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    /// Per-(category, name) span statistics, sorted by category then name.
    pub spans: Vec<SpanStat>,
    /// Per-(category, name) counter statistics, sorted by category then
    /// name.
    pub counters: Vec<CounterStat>,
    /// Total nanoseconds workers spent waiting at sense-reversing
    /// barriers (sum of `"barrier_wait_ns"` counters).
    pub barrier_wait_ns: u64,
    /// Plan-cache hits in the window (sum of the serve crate's
    /// `"plan_cache_hit"` counters).
    pub plan_cache_hits: u64,
    /// Plan-cache misses in the window (`"plan_cache_miss"` counters —
    /// each one paid a fresh `planner` lowering).
    pub plan_cache_misses: u64,
    /// Plan-cache LRU evictions in the window (`"plan_cache_evict"`
    /// counters).
    pub plan_cache_evictions: u64,
    /// Width of every fused batch executed in the window, in submission
    /// order per thread (from `"batch_width"` counters: arg = requests
    /// fused into one execute).
    pub batch_widths: Vec<u64>,
    /// Events dropped because their lane was full; non-zero means the
    /// timeline is incomplete.
    pub dropped: u64,
}

impl TraceReport {
    /// Aggregate a raw dump.  Begin/end events are paired per thread with
    /// a LIFO stack (spans nest); an unbalanced `Begin` (its `End` was
    /// dropped or lies outside the window) is ignored.
    pub fn from_dump(dump: &TraceDump) -> Self {
        let mut spans: BTreeMap<(&str, &str), SpanStat> = BTreeMap::new();
        let mut counters: BTreeMap<(&str, &str), CounterStat> = BTreeMap::new();
        let mut barrier_wait_ns = 0u64;
        let mut plan_cache_hits = 0u64;
        let mut plan_cache_misses = 0u64;
        let mut plan_cache_evictions = 0u64;
        let mut batch_widths: Vec<u64> = Vec::new();

        for thread in &dump.threads {
            let mut stack: Vec<(&str, &str, u64)> = Vec::new();
            for ev in &thread.events {
                match ev.kind {
                    EventKind::Begin => stack.push((ev.cat, ev.name, ev.ts_ns)),
                    EventKind::End => {
                        // Pop to the matching begin; drops any begins whose
                        // ends were lost (keeps nesting consistent).
                        while let Some((cat, name, t0)) = stack.pop() {
                            if cat == ev.cat && name == ev.name {
                                let dur = ev.ts_ns.saturating_sub(t0);
                                let s = spans.entry((cat, name)).or_insert_with(|| SpanStat {
                                    cat: cat.to_string(),
                                    name: name.to_string(),
                                    count: 0,
                                    total_ns: 0,
                                    max_ns: 0,
                                });
                                s.count += 1;
                                s.total_ns += dur;
                                s.max_ns = s.max_ns.max(dur);
                                break;
                            }
                        }
                    }
                    EventKind::Counter | EventKind::Instant => {
                        let c = counters
                            .entry((ev.cat, ev.name))
                            .or_insert_with(|| CounterStat {
                                cat: ev.cat.to_string(),
                                name: ev.name.to_string(),
                                count: 0,
                                total: 0,
                                max: 0,
                            });
                        c.count += 1;
                        c.total += ev.arg;
                        c.max = c.max.max(ev.arg);
                        match ev.name {
                            "barrier_wait_ns" => barrier_wait_ns += ev.arg,
                            "plan_cache_hit" => plan_cache_hits += ev.arg,
                            "plan_cache_miss" => plan_cache_misses += ev.arg,
                            "plan_cache_evict" => plan_cache_evictions += ev.arg,
                            "batch_width" => batch_widths.push(ev.arg),
                            _ => {}
                        }
                    }
                }
            }
        }

        TraceReport {
            spans: spans.into_values().collect(),
            counters: counters.into_values().collect(),
            barrier_wait_ns,
            plan_cache_hits,
            plan_cache_misses,
            plan_cache_evictions,
            batch_widths,
            dropped: dump.dropped,
        }
    }

    /// Look up one span's statistics by category and name.
    pub fn span(&self, cat: &str, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.cat == cat && s.name == name)
    }

    /// Look up one counter's statistics by category and name.
    pub fn counter(&self, cat: &str, name: &str) -> Option<&CounterStat> {
        self.counters
            .iter()
            .find(|c| c.cat == cat && c.name == name)
    }

    /// Render a compact human-readable table of the top spans and
    /// counters, for logging and examples.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("spans (cat/name: count, total ms, max ms):\n");
        for s in &self.spans {
            out.push_str(&format!(
                "  {}/{}: {} x, {:.3} ms total, {:.3} ms max\n",
                s.cat,
                s.name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.max_ns as f64 / 1e6
            ));
        }
        out.push_str("counters (cat/name: count, total, max):\n");
        for c in &self.counters {
            out.push_str(&format!(
                "  {}/{}: {} x, {} total, {} max\n",
                c.cat, c.name, c.count, c.total, c.max
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("dropped events: {}\n", self.dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Lane, ThreadEvents};

    fn ev(kind: EventKind, name: &'static str, ts: u64, arg: u64, arg2: u64) -> Event {
        Event {
            kind,
            cat: "t",
            name,
            ts_ns: ts,
            arg_name: "a",
            arg,
            arg2_name: "b",
            arg2,
        }
    }

    #[test]
    fn aggregates_nested_spans_and_counters() {
        let dump = TraceDump {
            threads: vec![ThreadEvents {
                tid: 1,
                lane: Lane::Wall,
                events: vec![
                    ev(EventKind::Begin, "outer", 0, 0, 0),
                    ev(EventKind::Begin, "inner", 10, 0, 0),
                    ev(EventKind::End, "inner", 40, 0, 0),
                    ev(EventKind::Counter, "barrier_wait_ns", 50, 100, 0),
                    ev(EventKind::Counter, "other", 55, 7, 0),
                    ev(EventKind::Counter, "plan_cache_hit", 70, 1, 0),
                    ev(EventKind::Counter, "plan_cache_hit", 72, 1, 0),
                    ev(EventKind::Counter, "plan_cache_miss", 74, 1, 0),
                    ev(EventKind::Counter, "plan_cache_evict", 76, 1, 0),
                    ev(EventKind::Counter, "batch_width", 80, 4, 0),
                    ev(EventKind::Counter, "batch_width", 85, 7, 0),
                    ev(EventKind::End, "outer", 100, 0, 0),
                ],
            }],
            dropped: 0,
        };
        let r = TraceReport::from_dump(&dump);
        assert_eq!(r.span("t", "outer").unwrap().total_ns, 100);
        assert_eq!(r.span("t", "inner").unwrap().total_ns, 30);
        assert_eq!(r.barrier_wait_ns, 100);
        assert_eq!(r.plan_cache_hits, 2);
        assert_eq!(r.plan_cache_misses, 1);
        assert_eq!(r.plan_cache_evictions, 1);
        assert_eq!(r.batch_widths, vec![4, 7]);
        assert_eq!(r.counter("t", "other").unwrap().max, 7);
        assert!(r.summary().contains("outer"));
    }

    #[test]
    fn unbalanced_begin_is_ignored() {
        let dump = TraceDump {
            threads: vec![ThreadEvents {
                tid: 1,
                lane: Lane::Wall,
                events: vec![
                    ev(EventKind::Begin, "lost", 0, 0, 0),
                    ev(EventKind::Begin, "ok", 5, 0, 0),
                    ev(EventKind::End, "ok", 9, 0, 0),
                ],
            }],
            dropped: 1,
        };
        let r = TraceReport::from_dump(&dump);
        assert!(r.span("t", "lost").is_none());
        assert_eq!(r.span("t", "ok").unwrap().count, 1);
        assert_eq!(r.dropped, 1);
    }
}
