//! Per-rank cost counters, the charges that advance them, and machine-wide
//! cost reports.
//!
//! A point-to-point send or receive and every round a collective replays
//! are charged by the same three functions (`CostCounters::charge_send`,
//! `charge_recv` and `charge_flops`), so a
//! collective's counters, clock and sim-lane events are exactly those of
//! the messages it models.

use crate::fault::SendFaults;
use crate::params::MachineParams;
use std::fmt;

/// Raw communication / computation counters accumulated by one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostCounters {
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_recv: u64,
    /// Words (f64 values) sent.
    pub words_sent: u64,
    /// Words (f64 values) received.
    pub words_recv: u64,
    /// Floating-point operations charged.
    pub flops: u64,
    /// Resend attempts made by the transport after injected message drops,
    /// one per dropped attempt.
    pub retries: u64,
    /// Sends that exhausted the retry budget and surfaced as timeouts.
    pub timeouts: u64,
    /// Final value of the rank's virtual clock (seconds in model time).
    pub time: f64,
}

impl CostCounters {
    /// Latency count `S` for this rank: the larger of messages sent and
    /// received (they overlap in the full-duplex model the paper assumes).
    pub fn latency(&self) -> u64 {
        self.msgs_sent.max(self.msgs_recv)
    }

    /// Bandwidth count `W` for this rank: the larger of words sent and
    /// received.
    pub fn bandwidth(&self) -> u64 {
        self.words_sent.max(self.words_recv)
    }

    /// Element-wise sum of two counter sets (virtual time takes the max,
    /// since times on different ranks do not add).
    pub fn merge(&self, other: &CostCounters) -> CostCounters {
        CostCounters {
            msgs_sent: self.msgs_sent + other.msgs_sent,
            msgs_recv: self.msgs_recv + other.msgs_recv,
            words_sent: self.words_sent + other.words_sent,
            words_recv: self.words_recv + other.words_recv,
            flops: self.flops + other.flops,
            retries: self.retries + other.retries,
            timeouts: self.timeouts + other.timeouts,
            time: self.time.max(other.time),
        }
    }

    /// Element-wise sum of two counter deltas from the *same* rank, where the
    /// time components add (unlike [`CostCounters::merge`], which takes the
    /// max because times on different ranks do not add).
    pub fn accumulate(&self, delta: &CostCounters) -> CostCounters {
        CostCounters {
            time: self.time + delta.time,
            ..self.merge(delta)
        }
    }

    /// Difference of two counter snapshots taken on the *same* rank
    /// (`self` must be the later snapshot).  Used to attribute costs to a
    /// phase of an algorithm.
    pub fn since(&self, earlier: &CostCounters) -> CostCounters {
        CostCounters {
            msgs_sent: self.msgs_sent - earlier.msgs_sent,
            msgs_recv: self.msgs_recv - earlier.msgs_recv,
            words_sent: self.words_sent - earlier.words_sent,
            words_recv: self.words_recv - earlier.words_recv,
            flops: self.flops - earlier.flops,
            retries: self.retries - earlier.retries,
            timeouts: self.timeouts - earlier.timeouts,
            time: self.time - earlier.time,
        }
    }

    /// Charge one send of `words` under the faults drawn for it, and return
    /// the time the delivered message becomes available to its receiver.
    ///
    /// A stall idles the sender first.  A message dropped `d` times is
    /// charged `d` failed attempts, each `α + β·words` plus the backoff
    /// `retry_timeout · 2ᵏ` before resend `k`, and then the delivered
    /// attempt `α + β·words`; the receiver sees it `delay` later.  A drop
    /// chain longer than the retry budget charges its failed attempts and
    /// one timeout and returns [`SendFailure::Timeout`]; a crash charges
    /// nothing.  Events go to `lane`'s sim lane, if given and tracing.
    pub(crate) fn charge_send(
        &mut self,
        params: &MachineParams,
        words: usize,
        faults: SendFaults,
        lane: Option<usize>,
    ) -> Result<f64, SendFailure> {
        if faults.crash {
            return Err(SendFailure::Crash);
        }
        if faults.stall > 0.0 {
            self.time += faults.stall;
        }
        let lost = faults.drops.min(params.max_retries + 1);
        for attempt in 0..lost {
            self.msgs_sent += 1;
            self.words_sent += words as u64;
            self.retries += 1;
            let backoff = params.retry_timeout * (1u64 << attempt.min(30)) as f64;
            self.time += params.alpha + params.beta * words as f64 + backoff;
            self.event(lane, "retry", "attempt", attempt as u64 + 1, "words", words);
            self.event(lane, "backoff", "backoff_ns", (backoff * 1e9) as u64, "", 0);
        }
        if faults.drops > params.max_retries {
            self.timeouts += 1;
            return Err(SendFailure::Timeout { attempts: lost });
        }
        self.msgs_sent += 1;
        self.words_sent += words as u64;
        self.time += params.alpha + params.beta * words as f64;
        self.event(lane, "send", "words", words as u64, "", 0);
        Ok(self.time + faults.delay)
    }

    /// Charge the receipt of a message of `words` that became available at
    /// `avail_time`: the clock catches up to it, since the sender already
    /// paid for the transfer.
    pub(crate) fn charge_recv(&mut self, words: usize, avail_time: f64, lane: Option<usize>) {
        self.msgs_recv += 1;
        self.words_recv += words as u64;
        if avail_time > self.time {
            self.time = avail_time;
        }
        self.event(lane, "recv", "words", words as u64, "", 0);
    }

    /// Charge `flops` floating-point operations, `γ` each.
    pub(crate) fn charge_flops(&mut self, params: &MachineParams, flops: u64) {
        self.flops += flops;
        self.time += params.gamma * flops as f64;
    }

    /// One sim-lane instant at the current clock, on `lane`'s lane.
    fn event(
        &self,
        lane: Option<usize>,
        name: &'static str,
        arg_name: &'static str,
        arg: u64,
        arg2_name: &'static str,
        arg2: usize,
    ) {
        if let Some(rank) = lane.filter(|_| obs::enabled()) {
            let t_ns = (self.time * 1e9) as u64;
            obs::sim_instant(
                rank,
                "simnet",
                name,
                t_ns,
                arg_name,
                arg,
                arg2_name,
                arg2 as u64,
            );
        }
    }
}

/// Why a send could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendFailure {
    /// The sender crashed instead of sending.
    Crash,
    /// Every attempt the retry budget allows was dropped.
    Timeout {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

/// Aggregated cost report for a whole machine run.
///
/// The paper's quantities are the *critical-path* values: the maximum over
/// ranks of S, W and F, and the virtual execution time
/// `T = α·S + β·W + γ·F` accumulated along the slowest dependency chain.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Counters of every rank, indexed by rank.
    pub per_rank: Vec<CostCounters>,
    /// Machine parameters the run used.
    pub params: MachineParams,
}

impl CostReport {
    /// Create a report from per-rank counters.
    pub fn new(per_rank: Vec<CostCounters>, params: MachineParams) -> Self {
        CostReport { per_rank, params }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// Critical-path latency count `S` (max over ranks).
    pub fn max_messages(&self) -> u64 {
        self.per_rank.iter().map(|c| c.latency()).max().unwrap_or(0)
    }

    /// Critical-path bandwidth count `W` (max over ranks).
    pub fn max_words(&self) -> u64 {
        self.per_rank
            .iter()
            .map(|c| c.bandwidth())
            .max()
            .unwrap_or(0)
    }

    /// Critical-path flop count `F` (max over ranks).
    pub fn max_flops(&self) -> u64 {
        self.per_rank.iter().map(|c| c.flops).max().unwrap_or(0)
    }

    /// Virtual execution time: the maximum final clock over all ranks.
    pub fn virtual_time(&self) -> f64 {
        self.per_rank.iter().map(|c| c.time).fold(0.0, f64::max)
    }

    /// Total words sent by all ranks (communication volume).
    pub fn total_words(&self) -> u64 {
        self.per_rank.iter().map(|c| c.words_sent).sum()
    }

    /// Total messages sent by all ranks.
    pub fn total_messages(&self) -> u64 {
        self.per_rank.iter().map(|c| c.msgs_sent).sum()
    }

    /// Total flops over all ranks.
    pub fn total_flops(&self) -> u64 {
        self.per_rank.iter().map(|c| c.flops).sum()
    }

    /// Total resend attempts over all ranks (non-zero only under a fault
    /// plan that injects drops).
    pub fn total_retries(&self) -> u64 {
        self.per_rank.iter().map(|c| c.retries).sum()
    }

    /// Total sends that exhausted the retry budget over all ranks.
    pub fn total_timeouts(&self) -> u64 {
        self.per_rank.iter().map(|c| c.timeouts).sum()
    }

    /// One-line summary used by the experiment binaries.
    pub fn summary(&self) -> String {
        format!(
            "p={:4}  S={:10}  W={:12}  F={:14}  T={:.6e}",
            self.num_ranks(),
            self.max_messages(),
            self.max_words(),
            self.max_flops(),
            self.virtual_time()
        )
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CostReport over {} ranks", self.num_ranks())?;
        writeln!(
            f,
            "  critical path: S = {} messages, W = {} words, F = {} flops",
            self.max_messages(),
            self.max_words(),
            self.max_flops()
        )?;
        writeln!(f, "  virtual time:  {:.6e} s (model)", self.virtual_time())?;
        writeln!(
            f,
            "  totals:        {} messages, {} words, {} flops",
            self.total_messages(),
            self.total_words(),
            self.total_flops()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(s: u64, r: u64, ws: u64, wr: u64, f: u64, t: f64) -> CostCounters {
        CostCounters {
            msgs_sent: s,
            msgs_recv: r,
            words_sent: ws,
            words_recv: wr,
            flops: f,
            time: t,
            ..CostCounters::default()
        }
    }

    #[test]
    fn latency_and_bandwidth_take_max_direction() {
        let x = c(3, 5, 10, 2, 0, 0.0);
        assert_eq!(x.latency(), 5);
        assert_eq!(x.bandwidth(), 10);
    }

    #[test]
    fn merge_adds_counts_and_maxes_time() {
        let a = c(1, 1, 10, 10, 100, 2.0);
        let b = c(2, 2, 20, 20, 200, 5.0);
        let m = a.merge(&b);
        assert_eq!(m.msgs_sent, 3);
        assert_eq!(m.words_recv, 30);
        assert_eq!(m.flops, 300);
        assert_eq!(m.time, 5.0);
    }

    #[test]
    fn since_subtracts() {
        let before = c(1, 1, 10, 10, 100, 2.0);
        let after = c(3, 4, 30, 15, 150, 6.0);
        let d = after.since(&before);
        assert_eq!(d.msgs_sent, 2);
        assert_eq!(d.msgs_recv, 3);
        assert_eq!(d.words_sent, 20);
        assert_eq!(d.words_recv, 5);
        assert_eq!(d.flops, 50);
        assert_eq!(d.time, 4.0);
    }

    #[test]
    fn report_maxima_and_totals() {
        let report = CostReport::new(
            vec![c(1, 2, 10, 20, 5, 1.0), c(4, 3, 40, 30, 50, 3.0)],
            MachineParams::unit(),
        );
        assert_eq!(report.num_ranks(), 2);
        assert_eq!(report.max_messages(), 4);
        assert_eq!(report.max_words(), 40);
        assert_eq!(report.max_flops(), 50);
        assert_eq!(report.virtual_time(), 3.0);
        assert_eq!(report.total_messages(), 5);
        assert_eq!(report.total_words(), 50);
        assert_eq!(report.total_flops(), 55);
        assert!(report.to_string().contains("2 ranks"));
        assert!(report.summary().contains("p="));
    }

    #[test]
    fn empty_report_is_zero() {
        let report = CostReport::new(vec![], MachineParams::unit());
        assert_eq!(report.max_messages(), 0);
        assert_eq!(report.virtual_time(), 0.0);
        assert_eq!(report.total_retries(), 0);
        assert_eq!(report.total_timeouts(), 0);
    }

    #[test]
    fn fault_counters_merge_accumulate_and_subtract() {
        let a = CostCounters {
            retries: 2,
            timeouts: 0,
            time: 1.0,
            ..CostCounters::default()
        };
        let b = CostCounters {
            retries: 3,
            timeouts: 1,
            time: 2.0,
            ..CostCounters::default()
        };
        let m = a.merge(&b);
        assert_eq!(m.retries, 5);
        assert_eq!(m.timeouts, 1);
        assert_eq!(m.time, 2.0);
        let acc = a.accumulate(&b);
        assert_eq!(acc.retries, 5);
        assert_eq!(acc.time, 3.0);
        let d = m.since(&a);
        assert_eq!(d.retries, 3);
        assert_eq!(d.timeouts, 1);
        let report = CostReport::new(vec![a, b], MachineParams::unit());
        assert_eq!(report.total_retries(), 5);
        assert_eq!(report.total_timeouts(), 1);
    }
}
