//! Predicted against measured: the cost-drift report of a plan.

use super::plan::{PlanBackend, SolvePlan};
use super::report::SolveReport;
use crate::api::Algorithm;
use costmodel::{Cost, DriftRow};
use simnet::CostCounters;

impl SolvePlan {
    /// Line up this plan's *predicted* α–β–γ cost against what `report`
    /// measured, priced on `machine`.
    ///
    /// The rows partition the solve, so the TOTAL line is the solve and its
    /// predicted side is the plan's `predicted_cost`.  An iterative
    /// inversion-based solve contributes one row per phase of
    /// [`crate::PhaseBreakdown`], with the walk's critical path of that
    /// phase on the predicted side ([`crate::it_inv_trsm::predicted_cost`],
    /// the layout changes included); the phases' critical paths can add up
    /// to more than the solve's, whose busiest rank need not be every
    /// phase's.  An upper-triangular or transposed request is a relabelling
    /// of the lower solve that moves no word, so the phases cover the whole
    /// solve for every triangle and transpose.  Every other plan is one
    /// row.
    ///
    /// Distributed rows measure messages, words and flops from this rank's
    /// communication-counter delta, with the virtual-clock advance attached
    /// as the measured time — so predicted and measured times are in the
    /// same model seconds whenever `machine` matches the simulated
    /// `MachineParams`.  Dense and sparse rows are flops only: the plan's
    /// flops against the report's.
    pub fn drift_report(
        &self,
        report: &SolveReport,
        machine: costmodel::Machine,
    ) -> costmodel::DriftReport {
        let mut out = costmodel::DriftReport::new(machine);
        let flops = |f: dense::FlopCount| Cost::new(0.0, 0.0, f.get() as f64);
        let predicted = self.predicted_cost.unwrap_or(flops(self.predicted_flops));
        match &self.backend {
            PlanBackend::Dense { .. } | PlanBackend::Sparse { .. } => {
                out.push(DriftRow::new(
                    self.algorithm_name(),
                    predicted,
                    flops(report.flops),
                ));
            }
            PlanBackend::Distributed { algorithm, p } => match (algorithm, &report.phases) {
                (Algorithm::IterativeInversion(cfg), Some(measured)) => {
                    let (pr, pc) = Algorithm::caller_grid(*p);
                    let walked = crate::it_inv_trsm::predicted_cost(self.n, self.k, pr, pc, cfg);
                    for ((name, walked), (_, measured)) in
                        walked.named().into_iter().zip(measured.named())
                    {
                        out.push(counters_row(format!("itinv: {name}"), walked, &measured));
                    }
                    out.predicted_total = Some(predicted);
                }
                _ => out.push(counters_row(
                    self.algorithm_name(),
                    predicted,
                    &report.comm.unwrap_or_default(),
                )),
            },
        }
        out
    }
}

/// A row measured by one rank's communication-counter delta: the full-duplex
/// message maximum, the word maximum and the charged flops, with the
/// virtual-clock advance as the measured time.
fn counters_row(name: impl Into<String>, predicted: Cost, c: &CostCounters) -> DriftRow {
    let measured = Cost::new(c.latency() as f64, c.bandwidth() as f64, c.flops as f64);
    DriftRow::new(name, predicted, measured).with_seconds(c.time)
}
