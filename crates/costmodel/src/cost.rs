//! The cost record and machine description used by all formulas.

use std::fmt;
use std::ops::Add;

/// A leading-order α–β–γ cost: `latency` messages, `bandwidth` words and
/// `flops` floating-point operations along the critical path — flops as
/// `dense::flops` counts them, two per multiply–add.
///
/// Values are `f64` because the formulas are leading-order expressions
/// (`(n²k/p)^{2/3}`, `log² p`, …), not exact integer counts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Number of messages (the coefficient of α).
    pub latency: f64,
    /// Number of words moved (the coefficient of β).
    pub bandwidth: f64,
    /// Number of floating-point operations (the coefficient of γ).
    pub flops: f64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost {
        latency: 0.0,
        bandwidth: 0.0,
        flops: 0.0,
    };

    /// Construct a cost record.
    pub fn new(latency: f64, bandwidth: f64, flops: f64) -> Self {
        Cost {
            latency,
            bandwidth,
            flops,
        }
    }

    /// Scale every component by `factor` (e.g. the number of iterations of a
    /// loop that incurs this cost).
    pub fn scaled(self, factor: f64) -> Cost {
        Cost {
            latency: self.latency * factor,
            bandwidth: self.bandwidth * factor,
            flops: self.flops * factor,
        }
    }

    /// Evaluate the execution time `α·S + β·W + γ·F` on `machine`.
    pub fn time(&self, machine: &Machine) -> f64 {
        machine.alpha * self.latency + machine.beta * self.bandwidth + machine.gamma * self.flops
    }
}

impl Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        Cost {
            latency: self.latency + rhs.latency,
            bandwidth: self.bandwidth + rhs.bandwidth,
            flops: self.flops + rhs.flops,
        }
    }
}

impl std::iter::Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S = {:.3e}, W = {:.3e}, F = {:.3e}",
            self.latency, self.bandwidth, self.flops
        )
    }
}

/// α–β–γ machine constants for turning a [`Cost`] into a predicted time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// Seconds per message.
    pub alpha: f64,
    /// Seconds per word.
    pub beta: f64,
    /// Seconds per flop.
    pub gamma: f64,
}

impl Machine {
    /// α = β = γ = 1.
    pub fn unit() -> Self {
        Machine {
            alpha: 1.0,
            beta: 1.0,
            gamma: 1.0,
        }
    }

    /// Same constants as `simnet::MachineParams::cluster()`.
    pub fn cluster() -> Self {
        Machine {
            alpha: 1.0e-6,
            beta: 8.0e-9,
            gamma: 1.0e-10,
        }
    }

    /// Same constants as `simnet::MachineParams::supercomputer()`.
    pub fn supercomputer() -> Self {
        Machine {
            alpha: 2.0e-6,
            beta: 8.0e-10,
            gamma: 2.0e-11,
        }
    }
}

/// Base-2 logarithm clamped below at 1 (the paper's `log p` terms are always
/// at least one round once any communication happens).
pub fn log2c(x: f64) -> f64 {
    if x <= 2.0 {
        1.0
    } else {
        x.log2()
    }
}

/// The indicator `1_x` of the paper: 1 when `x > 1`, 0 otherwise.
pub fn indicator(x: f64) -> f64 {
    if x > 1.0 {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_arithmetic() {
        let a = Cost::new(1.0, 10.0, 100.0);
        let b = Cost::new(2.0, 20.0, 200.0);
        let s = a + b;
        assert_eq!(s, Cost::new(3.0, 30.0, 300.0));
        assert_eq!(a.scaled(3.0), Cost::new(3.0, 30.0, 300.0));
        let total: Cost = vec![a, b].into_iter().sum();
        assert_eq!(total, s);
        assert_eq!(Cost::ZERO + a, a);
    }

    #[test]
    fn time_evaluation() {
        let c = Cost::new(1.0, 2.0, 3.0);
        let m = Machine {
            alpha: 100.0,
            beta: 10.0,
            gamma: 1.0,
        };
        assert_eq!(c.time(&m), 123.0);
        assert_eq!(c.time(&Machine::unit()), 6.0);
    }

    #[test]
    fn helpers() {
        assert_eq!(log2c(1.0), 1.0);
        assert_eq!(log2c(2.0), 1.0);
        assert_eq!(log2c(8.0), 3.0);
        assert_eq!(indicator(0.5), 0.0);
        assert_eq!(indicator(1.0), 0.0);
        assert_eq!(indicator(2.0), 1.0);
    }

    #[test]
    fn display_contains_components() {
        let s = Cost::new(1.0, 2.0, 3.0).to_string();
        assert!(s.contains("S ="));
        assert!(s.contains("W ="));
        assert!(s.contains("F ="));
    }

    #[test]
    fn machine_presets() {
        assert!(Machine::cluster().alpha > Machine::cluster().beta);
        assert!(Machine::supercomputer().beta < Machine::cluster().beta);
    }
}
