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
        }
    }

    /// Override the retry budget (timeout base and maximum resends).
    pub fn with_retry(mut self, retry_timeout: f64, max_retries: u32) -> Self {
        self.retry_timeout = retry_timeout;
        self.max_retries = max_retries;
        self
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
        // T = α·S + β·W + γ·F reads S + W + F.
        let u = MachineParams::unit();
        assert_eq!((u.alpha, u.beta, u.gamma), (1.0, 1.0, 1.0));
    }

    #[test]
    fn default_is_cluster() {
        assert_eq!(MachineParams::default(), MachineParams::cluster());
    }

    #[test]
    fn retry_budget_is_overridable() {
        let p = MachineParams::unit().with_retry(2.5, 3);
        assert_eq!(p.retry_timeout, 2.5);
        assert_eq!(p.max_retries, 3);
        assert!(MachineParams::cluster().max_retries > 0);
    }
}
