//! Deterministic fault injection for the simulated machine.
//!
//! A [`FaultPlan`] describes *which* faults a run should experience: message
//! drops (recovered by the transport's timeout/resend protocol), in-flight
//! delays, rank stalls and rank crashes.  Each is a charge in the α–β–γ
//! model — resent attempts, a later availability time, idle time on the
//! sender — or the end of a rank.  Every fault is drawn from a seeded
//! [`SplitMix64`] stream that is derived from `(plan.seed, world_rank)` and
//! advanced once per send operation, so the fault schedule of a rank depends
//! only on the plan and on that rank's own operation order — never on thread
//! interleaving.  Running the same program twice under the same plan
//! therefore injects *exactly* the same faults.
//!
//! Faults split into two classes:
//!
//! * **transient** faults (drops within the retry budget, delays, stalls)
//!   are absorbed by the transport layer in [`crate::comm`]: they cost
//!   virtual time and bump the fault counters, but every payload is still
//!   delivered exactly once, in order per match key — so any program,
//!   collectives included, computes bit-identical results;
//! * **permanent** faults (a crashed rank, a retry budget exhausted) surface
//!   as [`crate::SimError::RankFailure`] / [`crate::SimError::Timeout`] from
//!   the communication call and make the failing endpoint broadcast a failure
//!   notification, so every other rank unblocks with a typed error instead of
//!   hanging.

use crate::params::MachineParams;
use dense::gen::SplitMix64;

/// Uniform integer in `[1, max]`; a `max` of 0 counts as 1.
fn next_in_1_to(rng: &mut SplitMix64, max: u32) -> u32 {
    1 + rng.below(max.max(1) as u64) as u32
}

/// A rank crash scheduled by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// World rank that crashes.
    pub rank: usize,
    /// Number of send operations the rank completes before crashing (the
    /// crash happens *instead of* send number `after_sends`, zero-based).
    pub after_sends: u64,
}

/// A seeded description of the faults injected into one machine run.
///
/// All probabilities are per *send operation*.  The default plan injects
/// nothing; use the builder methods to enable fault classes.  Plans are plain
/// data: the same plan given to the same program always produces the same
/// fault schedule (see [`FaultInjector`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every rank's fault stream is derived.
    pub seed: u64,
    /// Probability that a send is dropped at least once and must be resent.
    pub drop_prob: f64,
    /// Maximum number of consecutive drops of one message.  If this exceeds
    /// [`MachineParams::max_retries`], the plan can exhaust the retry budget
    /// and becomes a *permanent* fault plan.
    pub max_drops_per_msg: u32,
    /// Probability that a delivered message is delayed in flight.
    pub delay_prob: f64,
    /// Maximum in-flight delay (virtual seconds), drawn uniformly.
    pub max_delay: f64,
    /// Probability that the sender stalls before a send operation.
    pub stall_prob: f64,
    /// Maximum stall duration (virtual seconds), drawn uniformly.
    pub max_stall: f64,
    /// Ranks that crash permanently at a given operation index.
    pub crashes: Vec<CrashPoint>,
}

impl FaultPlan {
    /// A plan that injects no faults (useful as a builder starting point).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            max_drops_per_msg: 1,
            delay_prob: 0.0,
            max_delay: 0.0,
            stall_prob: 0.0,
            max_stall: 0.0,
            crashes: Vec::new(),
        }
    }

    /// Enable message drops: each send is dropped (and resent by the
    /// transport) with probability `prob`, between 1 and `max_drops` times.
    pub fn with_drops(mut self, prob: f64, max_drops: u32) -> Self {
        self.drop_prob = prob;
        self.max_drops_per_msg = max_drops.max(1);
        self
    }

    /// Enable in-flight delays of up to `max_delay` virtual seconds (a
    /// negative maximum counts as 0).
    pub fn with_delays(mut self, prob: f64, max_delay: f64) -> Self {
        self.delay_prob = prob;
        self.max_delay = max_delay.max(0.0);
        self
    }

    /// Enable sender stalls of up to `max_stall` virtual seconds (a negative
    /// maximum counts as 0, so a stall never runs the clock backwards).
    pub fn with_stalls(mut self, prob: f64, max_stall: f64) -> Self {
        self.stall_prob = prob;
        self.max_stall = max_stall.max(0.0);
        self
    }

    /// Schedule a permanent crash of `rank` before its send number
    /// `after_sends` (zero-based).
    pub fn with_crash(mut self, rank: usize, after_sends: u64) -> Self {
        self.crashes.push(CrashPoint { rank, after_sends });
        self
    }

    /// Whether this plan is *transient* under the given retry budget: no rank
    /// crashes, and no message can be dropped more often than the transport
    /// will resend it.  Programs run under a transient plan complete with
    /// bit-identical results; non-transient (permanent) plans make at least
    /// one communication call return a typed error.
    pub fn is_transient(&self, params: &MachineParams) -> bool {
        self.crashes.is_empty()
            && (self.drop_prob <= 0.0 || self.max_drops_per_msg <= params.max_retries)
    }
}

/// The faults drawn for one send operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendFaults {
    /// Number of times the message is dropped before getting through
    /// (each drop charges one failed attempt plus a backoff wait).
    pub drops: u32,
    /// Extra in-flight delay added to the message's availability time.
    pub delay: f64,
    /// Stall charged to the sender before the operation.
    pub stall: f64,
    /// Whether the rank crashes at this operation instead of sending.
    pub crash: bool,
}

impl SendFaults {
    /// No faults at all.
    pub fn none() -> Self {
        SendFaults {
            drops: 0,
            delay: 0.0,
            stall: 0.0,
            crash: false,
        }
    }
}

/// Per-rank deterministic fault source.
///
/// One injector is created per rank per run, seeded from the plan seed and
/// the world rank.  [`FaultInjector::next_send`] advances the stream by one
/// send operation; the sequence of [`SendFaults`] it returns depends only on
/// `(plan, world_rank)` and the call count — never on wall-clock time, thread
/// scheduling or other ranks.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    sends: u64,
    crash_after: Option<u64>,
}

impl FaultInjector {
    /// Create the injector for `world_rank` under `plan`.
    pub fn new(plan: &FaultPlan, world_rank: usize) -> Self {
        // Decorrelate per-rank streams: mix the rank into the seed through
        // one SplitMix64 step (a common stream-splitting idiom).
        let mut seeder =
            SplitMix64::new(plan.seed ^ (world_rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let rng = SplitMix64::new(seeder.next_u64());
        let crash_after = plan
            .crashes
            .iter()
            .filter(|c| c.rank == world_rank)
            .map(|c| c.after_sends)
            .min();
        FaultInjector {
            plan: plan.clone(),
            rng,
            sends: 0,
            crash_after,
        }
    }

    /// Draw the faults for the next send operation.
    ///
    /// Every probability consumes exactly one PRNG draw whether or not it
    /// triggers, so fault schedules for different fault classes stay aligned
    /// across plans that differ only in probabilities.
    pub fn next_send(&mut self) -> SendFaults {
        let op = self.sends;
        self.sends += 1;
        if self.crash_after.is_some_and(|after| op >= after) {
            return SendFaults {
                crash: true,
                ..SendFaults::none()
            };
        }
        let drop_roll = self.rng.next_f64();
        let drops = if drop_roll < self.plan.drop_prob {
            next_in_1_to(&mut self.rng, self.plan.max_drops_per_msg)
        } else {
            0
        };
        let delay_roll = self.rng.next_f64();
        let delay = if delay_roll < self.plan.delay_prob {
            self.rng.next_f64() * self.plan.max_delay
        } else {
            0.0
        };
        let stall_roll = self.rng.next_f64();
        let stall = if stall_roll < self.plan.stall_prob {
            self.rng.next_f64() * self.plan.max_stall
        } else {
            0.0
        };
        SendFaults {
            drops,
            delay,
            stall,
            crash: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_uniformish() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SplitMix64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn injector_schedules_are_reproducible() {
        let plan = FaultPlan::new(1234)
            .with_drops(0.3, 2)
            .with_delays(0.2, 5.0)
            .with_stalls(0.05, 3.0);
        for rank in 0..4 {
            let mut a = FaultInjector::new(&plan, rank);
            let mut b = FaultInjector::new(&plan, rank);
            for _ in 0..200 {
                assert_eq!(a.next_send(), b.next_send());
            }
        }
    }

    #[test]
    fn different_ranks_get_different_streams() {
        let plan = FaultPlan::new(99).with_drops(0.5, 3);
        let sched = |rank: usize| -> Vec<SendFaults> {
            let mut inj = FaultInjector::new(&plan, rank);
            (0..50).map(|_| inj.next_send()).collect()
        };
        assert_ne!(sched(0), sched(1));
    }

    #[test]
    fn crash_point_fires_at_the_right_op() {
        let plan = FaultPlan::new(5).with_crash(2, 3);
        let mut inj = FaultInjector::new(&plan, 2);
        for _ in 0..3 {
            assert!(!inj.next_send().crash);
        }
        assert!(inj.next_send().crash);
        assert!(inj.next_send().crash, "crash is sticky");
        let mut other = FaultInjector::new(&plan, 1);
        for _ in 0..10 {
            assert!(!other.next_send().crash);
        }
    }

    #[test]
    fn transience_depends_on_retry_budget() {
        let params = MachineParams::unit(); // max_retries = 6
        assert!(FaultPlan::new(1).is_transient(&params));
        assert!(FaultPlan::new(1).with_drops(0.5, 3).is_transient(&params));
        assert!(!FaultPlan::new(1).with_drops(0.5, 9).is_transient(&params));
        assert!(!FaultPlan::new(1).with_crash(0, 5).is_transient(&params));
        assert!(FaultPlan::new(1)
            .with_delays(1.0, 10.0)
            .with_stalls(1.0, 4.0)
            .is_transient(&params));
    }

    #[test]
    fn a_zero_drop_maximum_draws_one_drop() {
        let mut plan = FaultPlan::new(8).with_drops(1.0, 1);
        plan.max_drops_per_msg = 0;
        assert!(plan.is_transient(&MachineParams::unit()));
        let mut inj = FaultInjector::new(&plan, 0);
        for _ in 0..10 {
            assert_eq!(inj.next_send().drops, 1);
        }
    }

    #[test]
    fn probabilities_actually_fire() {
        let plan = FaultPlan::new(2024)
            .with_drops(0.5, 2)
            .with_delays(0.5, 1.0)
            .with_stalls(0.5, 1.0);
        let mut inj = FaultInjector::new(&plan, 0);
        let mut saw = SendFaults::none();
        for _ in 0..200 {
            let f = inj.next_send();
            saw.drops += f.drops;
            saw.delay += f.delay;
            saw.stall += f.stall;
        }
        assert!(saw.drops > 0);
        assert!(saw.delay > 0.0);
        assert!(saw.stall > 0.0);
    }
}
