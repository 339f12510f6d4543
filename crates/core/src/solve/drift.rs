//! Predicted against measured: the cost-drift report of a plan.

use super::plan::{PlanBackend, SolvePlan};
use super::report::SolveReport;
use crate::api::Algorithm;
use costmodel::Cost;
use simnet::CostCounters;

impl SolvePlan {
    /// Line up this plan's *predicted* α–β–γ cost against what `report`
    /// measured, priced on `machine`.
    ///
    /// Every backend contributes a total row.  Distributed reports measure
    /// messages, words and flops from this rank's communication-counter
    /// delta, with the virtual-clock advance attached as the measured time
    /// — so predicted and measured times are in the same model seconds
    /// whenever `machine` matches the simulated `MachineParams`.  Sparse
    /// reports measure the barriers actually crossed and each worker's
    /// flop share; dense reports measure flops only.  Iterative
    /// inversion-based solves additionally contribute one row per Section
    /// VII phase (inversion / solve / update), with the per-phase formulas
    /// of `costmodel::itinv` on the predicted side.
    pub fn drift_report(
        &self,
        report: &SolveReport,
        machine: costmodel::Machine,
    ) -> costmodel::DriftReport {
        let mut out = costmodel::DriftReport::new(machine);
        let predicted = self.predicted_cost.unwrap_or(Cost {
            latency: 0.0,
            bandwidth: 0.0,
            flops: self.predicted_flops.get() as f64,
        });
        match &self.backend {
            PlanBackend::Dense { .. } => {
                out.push(costmodel::DriftRow::new(
                    self.algorithm_name(),
                    predicted,
                    Cost::new(0.0, 0.0, report.flops.get() as f64),
                ));
            }
            PlanBackend::Sparse { workers, .. } => {
                let (barriers, w) = report.levels.map_or((0.0, *workers as f64), |lr| {
                    (lr.barriers as f64, lr.workers as f64)
                });
                let w = w.max(1.0);
                let measured = Cost::new(
                    barriers * costmodel::cost::log2c(w),
                    barriers * self.k as f64,
                    report.flops.get() as f64 / w,
                );
                out.push(costmodel::DriftRow::new(
                    self.algorithm_name(),
                    predicted,
                    measured,
                ));
            }
            PlanBackend::Distributed { algorithm, .. } => {
                let mut row = costmodel::DriftRow::new(
                    self.algorithm_name(),
                    predicted,
                    report.comm.as_ref().map_or(Cost::ZERO, counters_cost),
                );
                if let Some(c) = report.comm {
                    row = row.with_seconds(c.time);
                }
                out.push(row);
                if let (Algorithm::IterativeInversion(cfg), Some(ph)) = (algorithm, &report.phases)
                {
                    let (n, k) = (self.n as f64, self.k as f64);
                    let (p1, p2, n0) = (cfg.p1 as f64, cfg.p2 as f64, cfg.n0 as f64);
                    let (r1, r2) = cfg.inversion_grid(self.n);
                    for (name, pred, meas) in [
                        (
                            "itinv: inversion",
                            costmodel::itinv::inversion_phase(n, n0, r1, r2),
                            &ph.inversion,
                        ),
                        (
                            "itinv: solve",
                            costmodel::itinv::solve_phase(n, k, n0, p1, p2),
                            &ph.solve,
                        ),
                        (
                            "itinv: update",
                            costmodel::itinv::update_phase(n, k, n0, p1, p2),
                            &ph.update,
                        ),
                    ] {
                        out.push(
                            costmodel::DriftRow::new(name, pred, counters_cost(meas))
                                .with_seconds(meas.time),
                        );
                    }
                }
            }
        }
        out
    }
}

/// Measured α–β–γ counts of one rank's communication-counter delta: the
/// full-duplex message maximum, the word maximum, and the charged flops.
fn counters_cost(c: &CostCounters) -> Cost {
    Cost::new(c.latency() as f64, c.bandwidth() as f64, c.flops as f64)
}
