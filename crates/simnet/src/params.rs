//! The α–β–γ machine parameters.

/// Machine parameters of the α–β–γ execution-time model (Section II-A of the
/// paper): per-message latency `alpha`, per-word inverse bandwidth `beta` and
/// per-flop time `gamma`.
///
/// The absolute values only matter for the virtual execution time
/// `T = α·S + β·W + γ·F`; the S/W/F counters themselves are independent of
/// them.  Presets are provided for a "unit" machine (α = β = γ = 1, useful in
/// tests), a commodity cluster and a supercomputer-like machine where the
/// α/β/γ ratios are large — the regime in which communication avoidance pays
/// off and which the paper targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Latency charged per message (seconds per message).
    pub alpha: f64,
    /// Inverse bandwidth charged per word (seconds per 8-byte word).
    pub beta: f64,
    /// Time charged per floating-point operation (seconds per flop).
    pub gamma: f64,
    /// Base receive-timeout before the transport resends a dropped message
    /// (seconds of model time); attempt `k` waits `retry_timeout · 2ᵏ`.
    /// Only exercised when a fault plan injects drops.
    pub retry_timeout: f64,
    /// Maximum number of resends before a dropped message surfaces as
    /// [`crate::SimError::Timeout`].
    pub max_retries: u32,
    /// When `true`, a posted send occupies the network *in the background*:
    /// its `α + β·w` transfer time advances an in-flight horizon instead of
    /// the sender's clock, and subsequent local computation hides under it —
    /// the rank is charged `max(comm, comp)` instead of `comm + comp` for
    /// such phases.  Hidden time is surfaced in
    /// [`crate::CostCounters::overlap`].  Defaults to `false`, which keeps
    /// the strict sequential charging of the paper's α–β–γ model.
    pub overlap: bool,
}

impl MachineParams {
    /// Default retry budget shared by the presets.
    const DEFAULT_MAX_RETRIES: u32 = 6;

    /// All three constants equal to one; time then equals `S + W + F`.
    pub fn unit() -> Self {
        MachineParams {
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0,
            retry_timeout: 8.0,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            overlap: false,
        }
    }

    /// A commodity-cluster-like machine: ~1 µs latency, ~1 GB/s per-word
    /// bandwidth for 8-byte words, ~10 Gflop/s per processor.
    pub fn cluster() -> Self {
        MachineParams {
            alpha: 1.0e-6,
            beta: 8.0e-9,
            gamma: 1.0e-10,
            retry_timeout: 8.0e-6,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            overlap: false,
        }
    }

    /// A supercomputer-like machine (higher bandwidth and flop rate, similar
    /// latency): the α ≫ β ≫ γ regime in which latency avoidance matters most.
    pub fn supercomputer() -> Self {
        MachineParams {
            alpha: 2.0e-6,
            beta: 8.0e-10,
            gamma: 2.0e-11,
            retry_timeout: 8.0e-6,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            overlap: false,
        }
    }

    /// A machine where only latency is charged (β = γ = 0): isolates the
    /// synchronization cost `S` in measured virtual time.
    pub fn latency_only() -> Self {
        MachineParams {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
            retry_timeout: 8.0,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            overlap: false,
        }
    }

    /// Custom α–β–γ parameters with the default retry budget.
    pub fn new(alpha: f64, beta: f64, gamma: f64) -> Self {
        MachineParams {
            alpha,
            beta,
            gamma,
            retry_timeout: 1.0,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            overlap: false,
        }
    }

    /// Override the retry budget (timeout base and maximum resends).
    pub fn with_retry(mut self, retry_timeout: f64, max_retries: u32) -> Self {
        self.retry_timeout = retry_timeout;
        self.max_retries = max_retries;
        self
    }

    /// Enable (or disable) communication/computation overlap: posted sends
    /// run in the background and local flops hide under them, charging
    /// `max(comm, comp)` per overlappable phase instead of `comm + comp`.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Execution time of `(s, w, f)` counts under these parameters.
    pub fn time(&self, s: u64, w: u64, f: u64) -> f64 {
        self.alpha * s as f64 + self.beta * w as f64 + self.gamma * f as f64
    }
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams::cluster()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_sensibly() {
        let c = MachineParams::cluster();
        let s = MachineParams::supercomputer();
        assert!(c.alpha > c.beta && c.beta > c.gamma);
        assert!(s.alpha > s.beta && s.beta > s.gamma);
        assert!(s.beta < c.beta);
    }

    #[test]
    fn unit_time_is_sum() {
        let u = MachineParams::unit();
        assert_eq!(u.time(1, 2, 3), 6.0);
    }

    #[test]
    fn latency_only_ignores_words_and_flops() {
        let l = MachineParams::latency_only();
        assert_eq!(l.time(5, 1000, 1000), 5.0);
    }

    #[test]
    fn default_is_cluster() {
        assert_eq!(MachineParams::default(), MachineParams::cluster());
    }

    #[test]
    fn overlap_defaults_off_and_is_overridable() {
        assert!(!MachineParams::unit().overlap);
        assert!(!MachineParams::cluster().overlap);
        assert!(MachineParams::unit().with_overlap(true).overlap);
        assert!(
            !MachineParams::unit()
                .with_overlap(true)
                .with_overlap(false)
                .overlap
        );
    }

    #[test]
    fn retry_budget_is_overridable() {
        let p = MachineParams::unit().with_retry(2.5, 3);
        assert_eq!(p.retry_timeout, 2.5);
        assert_eq!(p.max_retries, 3);
        assert!(MachineParams::cluster().max_retries > 0);
    }
}
