//! Predicted-vs-measured cost drift reports.
//!
//! The paper's workflow is *a priori*: pick algorithms and parameters from
//! the closed-form α–β–γ formulas, then run.  That workflow is only
//! trustworthy while the formulas keep tracking reality, so this module
//! provides the bookkeeping to line the two up: each [`DriftRow`] pairs a
//! phase's **predicted** [`Cost`] (from the formulas in this crate) with the
//! **measured** counts for the same phase (message/word/flop counters from
//! `simnet`, or wall-clock time from the tracing layer), and
//! [`DriftReport::render`] prints them side by side with a drift ratio.
//!
//! The module is deliberately passive — plain data plus formatting, no
//! dependencies — so both the staged solver (`catrsm`) and the experiment
//! harness can build reports from whatever measurements they have.
//!
//! ```
//! use costmodel::drift::{DriftReport, DriftRow};
//! use costmodel::{Cost, Machine};
//!
//! let mut report = DriftReport::new(Machine::cluster());
//! report.push(DriftRow::new(
//!     "recursive trsm",
//!     Cost::new(100.0, 5.0e5, 1.0e8),
//!     Cost::new(128.0, 5.4e5, 1.1e8),
//! ));
//! let table = report.render();
//! assert!(table.contains("recursive trsm"));
//! ```

use crate::cost::{Cost, Machine};
use std::fmt;

/// One phase's predicted-vs-measured cost pair.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Phase label (algorithm or executor name).
    pub phase: String,
    /// The model's predicted leading-order cost.
    pub predicted: Cost,
    /// The measured counts for the same phase (messages, words, flops).
    pub measured: Cost,
    /// Measured wall-clock (or virtual-clock) seconds, when a timing source
    /// was available; `None` when only counters were measured.
    pub measured_seconds: Option<f64>,
}

impl DriftRow {
    /// Build a row from predicted and measured counts.
    pub fn new(phase: impl Into<String>, predicted: Cost, measured: Cost) -> Self {
        DriftRow {
            phase: phase.into(),
            predicted,
            measured,
            measured_seconds: None,
        }
    }

    /// Attach a measured time in seconds to the row.
    pub fn with_seconds(mut self, seconds: f64) -> Self {
        self.measured_seconds = Some(seconds);
        self
    }

    /// The predicted execution time `α·S + β·W + γ·F` on `machine`.
    pub fn predicted_time(&self, machine: &Machine) -> f64 {
        self.predicted.time(machine)
    }

    /// The measured counts priced on the same machine — the apples-to-apples
    /// time the model *would* predict if its counts were exactly the measured
    /// ones.  Comparing this against [`DriftRow::predicted_time`] isolates
    /// count drift from machine-constant drift.
    pub fn measured_time(&self, machine: &Machine) -> f64 {
        self.measured_seconds
            .unwrap_or_else(|| self.measured.time(machine))
    }

    /// Drift ratio `measured / predicted` of the phase time on `machine`
    /// (`1.0` = the model is exact, `> 1` = the model under-predicts).
    /// Returns [`f64::INFINITY`] when the prediction is zero but the
    /// measurement is not.
    pub fn drift(&self, machine: &Machine) -> f64 {
        ratio(self.measured_time(machine), self.predicted_time(machine))
    }
}

/// `measured / predicted`, with `0/0 = 1` and `x/0 = ∞`.
fn ratio(measured: f64, predicted: f64) -> f64 {
    if predicted != 0.0 {
        measured / predicted
    } else if measured == 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}

/// A predicted-vs-measured comparison over the phases of one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// The machine constants used to price both sides.
    pub machine: Machine,
    /// One row per phase, in execution order.
    pub rows: Vec<DriftRow>,
    /// The predicted total, when it is not the sum of the rows: a critical
    /// path whose phases peak on different ranks costs less than the sum of
    /// the phases' own critical paths.  `None` totals the rows.
    pub predicted_total: Option<Cost>,
}

impl DriftReport {
    /// Create an empty report priced on `machine`.
    pub fn new(machine: Machine) -> Self {
        DriftReport {
            machine,
            rows: Vec::new(),
            predicted_total: None,
        }
    }

    /// Append a phase row.
    pub fn push(&mut self, row: DriftRow) {
        self.rows.push(row);
    }

    /// The predicted total: [`DriftReport::predicted_total`] when set, else
    /// the sum of the predicted costs over all rows.
    pub fn total_predicted(&self) -> Cost {
        let sum = || self.rows.iter().map(|r| r.predicted).sum();
        self.predicted_total.unwrap_or_else(sum)
    }

    /// Sum of the measured costs over all rows.
    pub fn total_measured(&self) -> Cost {
        self.rows.iter().map(|r| r.measured).sum()
    }

    /// Sums of the rows' predicted and measured times on the report's
    /// machine; the predicted one is the set total's time, if any.
    fn total_times(&self) -> (f64, f64) {
        let m = &self.machine;
        let (predicted, measured) =
            self.rows
                .iter()
                .fold((0.0, 0.0), |(predicted, measured), r| {
                    (
                        predicted + r.predicted_time(m),
                        measured + r.measured_time(m),
                    )
                });
        let total = self.predicted_total.map(|total| total.time(m));
        (total.unwrap_or(predicted), measured)
    }

    /// Render the report as an aligned plain-text table: one line per phase
    /// with predicted and measured `S`/`W`/`F`, both times, and the drift
    /// ratio, followed by a totals line.  The rows partition the solve — no
    /// row contains another — so the totals line is the solve: its measured
    /// side the rows' sum, its predicted side [`DriftReport::total_predicted`].
    pub fn render(&self) -> String {
        let width = self
            .rows
            .iter()
            .map(|r| r.phase.len())
            .chain(std::iter::once("TOTAL".len()))
            .max()
            .unwrap_or(5);
        let mut out = format!(
            "{:<width$}  {:>9} {:>9}  {:>9} {:>9}  {:>9} {:>9}  {:>10} {:>10}  {:>6}\n",
            "phase",
            "S pred",
            "S meas",
            "W pred",
            "W meas",
            "F pred",
            "F meas",
            "t pred",
            "t meas",
            "drift",
        );
        let mut line = |name: &str, p: Cost, m: Cost, (tp, tm): (f64, f64)| {
            out.push_str(&format!(
                "{name:<width$}  {:>9.2e} {:>9.2e}  {:>9.2e} {:>9.2e}  {:>9.2e} {:>9.2e}  {tp:>10.3e} {tm:>10.3e}  {:>6.2}\n",
                p.latency,
                m.latency,
                p.bandwidth,
                m.bandwidth,
                p.flops,
                m.flops,
                ratio(tm, tp),
            ));
        };
        for r in &self.rows {
            let times = (
                r.predicted_time(&self.machine),
                r.measured_time(&self.machine),
            );
            line(&r.phase, r.predicted, r.measured, times);
        }
        line(
            "TOTAL",
            self.total_predicted(),
            self.total_measured(),
            self.total_times(),
        );
        out
    }
}

impl fmt::Display for DriftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_ratio_is_measured_over_predicted() {
        let m = Machine::unit();
        let row = DriftRow::new("p", Cost::new(1.0, 2.0, 3.0), Cost::new(2.0, 4.0, 6.0));
        assert_eq!(row.predicted_time(&m), 6.0);
        assert_eq!(row.measured_time(&m), 12.0);
        assert_eq!(row.drift(&m), 2.0);
        // An attached wall time overrides the counter-priced estimate.
        let timed = row.clone().with_seconds(3.0);
        assert_eq!(timed.measured_time(&m), 3.0);
        assert_eq!(timed.drift(&m), 0.5);
        // Zero-predicted phases do not divide by zero.
        let zero = DriftRow::new("z", Cost::ZERO, Cost::ZERO);
        assert_eq!(zero.drift(&m), 1.0);
        let inf = DriftRow::new("i", Cost::ZERO, Cost::new(1.0, 0.0, 0.0));
        assert_eq!(inf.drift(&m), f64::INFINITY);
    }

    #[test]
    fn report_totals_and_render() {
        let mut rep = DriftReport::new(Machine::unit());
        rep.push(DriftRow::new(
            "alpha",
            Cost::new(1.0, 0.0, 0.0),
            Cost::new(1.0, 0.0, 0.0),
        ));
        rep.push(DriftRow::new(
            "beta",
            Cost::new(0.0, 10.0, 0.0),
            Cost::new(0.0, 20.0, 0.0),
        ));
        assert_eq!(rep.total_predicted(), Cost::new(1.0, 10.0, 0.0));
        assert_eq!(rep.total_measured(), Cost::new(1.0, 20.0, 0.0));
        let table = rep.render();
        assert!(table.contains("alpha"));
        assert!(table.contains("beta"));
        assert!(table.contains("TOTAL"));
        assert!(table.lines().count() == 4);
        assert_eq!(rep.to_string(), table);
        // A set total is the predicted side of the totals line.
        rep.predicted_total = Some(Cost::new(1.0, 8.0, 0.0));
        assert_eq!(rep.total_predicted(), Cost::new(1.0, 8.0, 0.0));
        assert_eq!(rep.total_measured(), Cost::new(1.0, 20.0, 0.0));
    }
}
