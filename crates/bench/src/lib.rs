//! Experiment harness shared by the `exp_*` binaries.
//!
//! Every experiment follows the same pattern: build a TRSM instance on the
//! simulated machine, run one of the algorithms, collect the critical-path
//! counters (`S`, `W`, `F`, virtual time) from the [`simnet::CostReport`],
//! verify the solution, and print the measurement next to the corresponding
//! prediction of the `costmodel` crate.  The helpers here remove the
//! boilerplate so each binary reads like the experiment it reproduces.

use catrsm::it_inv_trsm::{it_inv_trsm, ItInvConfig, PhaseBreakdown};
use catrsm::rec_trsm::{rec_trsm, RecTrsmConfig};
use catrsm::wavefront::wavefront_trsm;
use dense::gen;
use pgrid::{DistMatrix, Grid2D};
use simnet::{CostCounters, Machine, MachineParams};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Critical-path measurement of one algorithm run on the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    /// Messages along the critical path (max over ranks of max(sent, recv)).
    pub latency: u64,
    /// Words along the critical path.
    pub bandwidth: u64,
    /// Flops along the critical path.
    pub flops: u64,
    /// Virtual execution time under the machine parameters used.
    pub time: f64,
    /// Relative error of the computed solution against the known one.
    pub error: f64,
}

impl Measured {
    /// Render as a compact table cell group.
    pub fn row(&self) -> String {
        format!(
            "S={:>9}  W={:>12}  F={:>14}  T={:>12.4e}  err={:.1e}",
            self.latency, self.bandwidth, self.flops, self.time, self.error
        )
    }
}

/// Which TRSM algorithm an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrsmAlgo {
    /// The recursive baseline of Section IV ("standard").
    Recursive {
        /// Base-case size.
        base: usize,
    },
    /// The iterative inversion-based algorithm of Section VI ("new method").
    Iterative(ItInvConfig),
    /// The row-fan-out baseline.
    Wavefront,
}

/// A TRSM problem instance for the experiments.
#[derive(Debug, Clone, Copy)]
pub struct TrsmInstance {
    /// Triangular matrix dimension.
    pub n: usize,
    /// Number of right-hand sides.
    pub k: usize,
    /// Processor-grid rows.
    pub pr: usize,
    /// Processor-grid columns.
    pub pc: usize,
    /// Random seed for the matrices.
    pub seed: u64,
}

impl TrsmInstance {
    /// Total number of processors.
    pub fn procs(&self) -> usize {
        self.pr * self.pc
    }
}

/// Run one TRSM algorithm on the simulated machine and return the
/// critical-path measurement.
pub fn run_trsm(inst: &TrsmInstance, algo: TrsmAlgo, params: MachineParams) -> Measured {
    let TrsmInstance { n, k, pr, pc, seed } = *inst;
    let machine = Machine::new(pr * pc, params);
    let out = machine
        .run(move |comm| {
            let grid = Grid2D::new(comm, pr, pc).expect("grid shape");
            let l_global = gen::well_conditioned_lower(n, seed);
            let x_true = gen::rhs(n, k, seed ^ 0xabcd);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(&grid, &l_global);
            let b = DistMatrix::from_global(&grid, &b_global);
            let x = match algo {
                TrsmAlgo::Recursive { base } => {
                    rec_trsm(&l, &b, &RecTrsmConfig { base_size: base }).expect("recursive TRSM")
                }
                TrsmAlgo::Iterative(cfg) => it_inv_trsm(&l, &b, &cfg).expect("iterative TRSM").0,
                TrsmAlgo::Wavefront => wavefront_trsm(&l, &b).expect("wavefront TRSM"),
            };
            let x_ref = DistMatrix::from_global(&grid, &x_true);
            x.rel_diff(&x_ref).expect("conformal")
        })
        .expect("machine run");
    let error = out.results.iter().copied().fold(0.0, f64::max);
    Measured {
        latency: out.report.max_messages(),
        bandwidth: out.report.max_words(),
        flops: out.report.max_flops(),
        time: out.report.virtual_time(),
        error,
    }
}

/// Run the iterative algorithm and additionally return the per-phase
/// critical-path counters (max over ranks, per phase).
pub fn run_itinv_with_phases(
    inst: &TrsmInstance,
    cfg: ItInvConfig,
    params: MachineParams,
) -> (Measured, PhaseSummary) {
    let TrsmInstance { n, k, pr, pc, seed } = *inst;
    let machine = Machine::new(pr * pc, params);
    let out = machine
        .run(move |comm| {
            let grid = Grid2D::new(comm, pr, pc).expect("grid shape");
            let l_global = gen::well_conditioned_lower(n, seed);
            let x_true = gen::rhs(n, k, seed ^ 0xabcd);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(&grid, &l_global);
            let b = DistMatrix::from_global(&grid, &b_global);
            let (x, phases) = it_inv_trsm(&l, &b, &cfg).expect("iterative TRSM");
            let x_ref = DistMatrix::from_global(&grid, &x_true);
            (x.rel_diff(&x_ref).expect("conformal"), phases)
        })
        .expect("machine run");
    let error = out.results.iter().map(|(e, _)| *e).fold(0.0, f64::max);
    let phases: Vec<PhaseBreakdown> = out.results.iter().map(|(_, p)| *p).collect();
    let measured = Measured {
        latency: out.report.max_messages(),
        bandwidth: out.report.max_words(),
        flops: out.report.max_flops(),
        time: out.report.virtual_time(),
        error,
    };
    (measured, PhaseSummary::from_breakdowns(&phases))
}

/// Critical-path (max over ranks) counters per phase of `It-Inv-TRSM`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseSummary {
    /// Setup redistribution.
    pub setup: PhaseCost,
    /// Diagonal-block inversion.
    pub inversion: PhaseCost,
    /// Solve steps.
    pub solve: PhaseCost,
    /// Update steps.
    pub update: PhaseCost,
    /// Final redistribution.
    pub finalize: PhaseCost,
}

/// One phase's maxima over ranks.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCost {
    /// Messages.
    pub latency: u64,
    /// Words.
    pub bandwidth: u64,
    /// Flops.
    pub flops: u64,
}

impl PhaseCost {
    fn update_with(&mut self, c: &CostCounters) {
        self.latency = self.latency.max(c.latency());
        self.bandwidth = self.bandwidth.max(c.bandwidth());
        self.flops = self.flops.max(c.flops);
    }

    /// Render as a compact table cell group.
    pub fn row(&self) -> String {
        format!(
            "S={:>8}  W={:>12}  F={:>14}",
            self.latency, self.bandwidth, self.flops
        )
    }
}

impl PhaseSummary {
    /// Aggregate per-rank breakdowns into per-phase critical-path maxima.
    pub fn from_breakdowns(breakdowns: &[PhaseBreakdown]) -> Self {
        let mut s = PhaseSummary::default();
        for b in breakdowns {
            s.setup.update_with(&b.setup);
            s.inversion.update_with(&b.inversion);
            s.solve.update_with(&b.solve);
            s.update.update_with(&b.update);
            s.finalize.update_with(&b.finalize);
        }
        s
    }
}

/// Write a CSV file under `results/` (relative to the current directory),
/// creating the directory if needed.  Returns the path written.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    let path = dir.join(format!("{name}.csv"));
    if let Ok(mut f) = fs::File::create(&path) {
        let _ = writeln!(f, "{header}");
        for row in rows {
            let _ = writeln!(f, "{row}");
        }
    }
    path
}

/// Print a section banner so the experiment output is easy to scan.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_trsm_produces_consistent_measurements() {
        let inst = TrsmInstance {
            n: 32,
            k: 8,
            pr: 2,
            pc: 2,
            seed: 1,
        };
        let rec = run_trsm(
            &inst,
            TrsmAlgo::Recursive { base: 8 },
            MachineParams::unit(),
        );
        assert!(rec.error < 1e-8);
        assert!(rec.latency > 0 && rec.bandwidth > 0 && rec.flops > 0);
        let it = run_trsm(
            &inst,
            TrsmAlgo::Iterative(ItInvConfig {
                p1: 2,
                p2: 1,
                n0: 8,
                inv_base: 8,
            }),
            MachineParams::unit(),
        );
        assert!(it.error < 1e-8);
        let wf = run_trsm(&inst, TrsmAlgo::Wavefront, MachineParams::unit());
        assert!(wf.error < 1e-8);
        // The wavefront baseline must pay far more messages than either paper
        // algorithm at this size.
        assert!(wf.latency > it.latency);
    }

    #[test]
    fn phase_summary_aggregates() {
        let inst = TrsmInstance {
            n: 32,
            k: 8,
            pr: 2,
            pc: 2,
            seed: 2,
        };
        let (m, phases) = run_itinv_with_phases(
            &inst,
            ItInvConfig {
                p1: 2,
                p2: 1,
                n0: 8,
                inv_base: 8,
            },
            MachineParams::unit(),
        );
        assert!(m.error < 1e-8);
        assert!(phases.solve.flops > 0);
        assert!(phases.update.flops > 0);
        assert!(phases.inversion.flops > 0);
        let sum = phases.setup.flops
            + phases.inversion.flops
            + phases.solve.flops
            + phases.update.flops
            + phases.finalize.flops;
        assert!(
            sum <= m.flops * 2,
            "phase sums should be comparable to the total"
        );
    }

    #[test]
    fn measured_row_formats() {
        let m = Measured {
            latency: 1,
            bandwidth: 2,
            flops: 3,
            time: 4.0,
            error: 1e-12,
        };
        assert!(m.row().contains("S="));
        assert!(PhaseCost::default().row().contains("W="));
    }
}
