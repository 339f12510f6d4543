//! The reproduction's oracle: every experiment table and the checksum rows,
//! one registry of named entries.
//!
//! [`ENTRIES`] names each output the repository commits as evidence: the
//! paper's experiment tables (Sections II–IX measured on the simulated
//! machine next to the `costmodel` prediction, both model revisions where
//! they differ) and the [`checksums`] of a fixed workload of dense, sparse
//! and distributed solves.  An entry's output is its golden file's exact
//! bytes: `crates/bench/golden/NAME.csv` for a table,
//! `determinism.<class>.txt` (keyed by [`dense::kernel_class`]) for the
//! checksums.  `crates/bench/tests/golden.rs` regenerates every entry in
//! process and compares it with its file byte for byte; the `exp` binary
//! prints an entry by name (`exp NAME`), which is the one way to rewrite a
//! golden file:
//!
//! ```text
//! cargo run --release -p bench --bin exp -- NAME > crates/bench/golden/NAME.csv
//! ```
//!
//! Every experiment follows the same pattern: build an instance on the
//! simulated machine through the one grid fixture ([`on_grid`]), run it
//! through the staged API the repository reproduces the paper with
//! (`SolveRequest → SolvePlan → Solution`), count what the measured call
//! alone charges ([`window`]), check the result after the window has
//! closed, and put the critical-path counters (`S`, `W`, `F`, virtual time)
//! next to the model in one [`Table`].

mod checksums;
mod tables;

pub use checksums::checksums;

use catrsm::{PhaseBreakdown, SolveRequest};
use dense::gen;
use pgrid::{DistMatrix, Grid2D};
use simnet::{CostCounters, CostReport, Machine, MachineParams};
use std::fmt::{Display, Write as _};
use std::fs;
use std::path::PathBuf;

/// A registry entry: its name and what it prints, which is its golden file.
pub type Entry = (&'static str, fn() -> String);

/// Every entry of the registry.
pub const ENTRIES: [Entry; 16] = [
    ("collectives", || tables::collectives().csv()),
    ("mm_table", || tables::mm_table().csv()),
    ("rec_trsm", || tables::rec_trsm().csv()),
    ("inversion", || tables::inversion().csv()),
    ("inversion_scaling", || tables::inversion_scaling().csv()),
    ("itinv_breakdown", || tables::itinv_breakdown().csv()),
    ("tuning", || tables::tuning().csv()),
    ("tuning_simulated", || tables::tuning_simulated().csv()),
    ("conclusion_table", || tables::conclusion_table().csv()),
    ("conclusion_paper_scale", || {
        tables::conclusion_paper_scale().csv()
    }),
    ("figure1", || tables::figure1().csv()),
    ("figure1_moves", || tables::figure1_moves().csv()),
    ("ablation_n0", || tables::ablation_n0().csv()),
    ("ablation_grid", || tables::ablation_grid().csv()),
    ("op_costs", || tables::op_costs().csv()),
    ("determinism", || checksums(dense::dense_threads())),
];

/// The output of the entry called `name`, if there is one.
pub fn entry(name: &str) -> Option<String> {
    let (_, print) = ENTRIES.iter().find(|(entry, _)| *entry == name)?;
    Some(print())
}

/// What one measured call on the simulated machine charged.
#[derive(Debug, Clone)]
pub struct Run {
    /// Every rank's counters for the measured call alone; the paper's
    /// `S`/`W`/`F`/`T` are its `max_messages` / `max_words` / `max_flops` /
    /// `virtual_time`.
    pub report: CostReport,
    /// Per phase of `It-Inv-TRSM` (when that is what ran, named and ordered
    /// as [`PhaseBreakdown::named`] does), the ranks' phase counters as a
    /// report of their own, so a phase's critical-path maxima read the same
    /// way as the total's.
    pub phases: Option<[(&'static str, CostReport); 5]>,
    /// Largest relative error any rank found in its result.
    pub error: f64,
}

/// The one grid fixture: run `body` on every rank of a `pr × pc` grid of a
/// fresh simulated machine and return what each rank returned, in rank
/// order.
pub fn on_grid<T: Send>(
    pr: usize,
    pc: usize,
    params: MachineParams,
    body: impl Fn(&Grid2D) -> T + Send + Sync,
) -> Vec<T> {
    Machine::new(pr * pc, params)
        .run(|comm| body(&Grid2D::new(comm, pr, pc).expect("grid shape")))
        .expect("machine run")
        .results
}

/// Run `call` on this rank and return its result with the counters it
/// charged: the measured window, opened and closed around the call alone,
/// as `execute_distributed` measures a solve.
pub fn window<T>(grid: &Grid2D, call: impl FnOnce() -> T) -> (T, CostCounters) {
    let comm = grid.comm();
    let before = comm.counters();
    let out = call();
    (out, comm.counters().since(&before))
}

/// One rank's part of a measurement.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// What the measured call charged on this rank (its [`window`]).
    pub counters: CostCounters,
    /// The call's phase breakdown, if it ran `It-Inv-TRSM`.
    pub phases: Option<PhaseBreakdown>,
    /// The relative error of the call's result, checked outside the window.
    pub error: f64,
}

/// [`on_grid`] for a measurement: each rank's `body` measures one call and
/// checks its result.  An experiment whose result is wrong measures
/// nothing, so the error must stay below `1e-7` on every rank.
pub fn measure(
    pr: usize,
    pc: usize,
    params: MachineParams,
    body: impl Fn(&Grid2D) -> Measured + Send + Sync,
) -> Run {
    let ranks = on_grid(pr, pc, params, body);
    let error = ranks.iter().map(|m| m.error).fold(0.0, f64::max);
    assert!(
        error < 1e-7,
        "wrong result on the {pr} × {pc} grid: {error}"
    );
    let per_rank: Option<Vec<_>> = ranks.iter().map(|m| m.phases.map(|p| p.named())).collect();
    let phases = per_rank.map(|ranks| {
        std::array::from_fn(|i| {
            let per_rank = ranks.iter().map(|phases| phases[i].1).collect();
            (ranks[0][i].0, CostReport::new(per_rank, params))
        })
    });
    let counters = ranks.iter().map(|m| m.counters).collect();
    Run {
        report: CostReport::new(counters, params),
        phases,
        error,
    }
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
    /// Distribute this instance's `L` and `B = L·X` over the grid, measure
    /// `solve` on them, and check its result against the known `X`.
    pub fn solve_with(
        &self,
        params: MachineParams,
        solve: impl Fn(&DistMatrix, &DistMatrix) -> (DistMatrix, Option<PhaseBreakdown>) + Send + Sync,
    ) -> Run {
        let TrsmInstance { n, k, pr, pc, seed } = *self;
        measure(pr, pc, params, |grid| {
            let l_global = gen::well_conditioned_lower(n, seed);
            let x_true = gen::rhs(n, k, seed ^ 0xabcd);
            let b_global = dense::matmul(&l_global, &x_true);
            let l = DistMatrix::from_global(grid, &l_global);
            let b = DistMatrix::from_global(grid, &b_global);
            let ((x, phases), counters) = window(grid, || solve(&l, &b));
            let x_ref = DistMatrix::from_global(grid, &x_true);
            let error = x.rel_diff(&x_ref).expect("conformal");
            Measured {
                counters,
                phases,
                error,
            }
        })
    }
}

/// Solve `inst` as `request` describes — pinned to one of the paper's
/// algorithms, or left to the Section VIII planner — on a machine with the
/// given parameters.  The report is the solve's own window, which is what
/// `execute_distributed` reports as `sol.report.comm`; the result check
/// stays outside it.
pub fn run(inst: &TrsmInstance, request: SolveRequest, params: MachineParams) -> Run {
    inst.solve_with(params, |l, b| {
        let sol = request.solve_distributed(l, b).expect("distributed solve");
        (sol.x, sol.report.phases)
    })
}

/// The paper's critical-path counts of a report: `(S, W, F)`.
pub fn swf(report: &CostReport) -> (u64, u64, u64) {
    (
        report.max_messages(),
        report.max_words(),
        report.max_flops(),
    )
}

/// An experiment's result table: the columns are named once (the CSV header),
/// every row is given once, and the CSV and the aligned text are made from
/// the same cells.
#[derive(Debug, Clone)]
pub struct Table {
    header: &'static str,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table under the comma-separated `header`.
    pub fn new(header: &'static str) -> Table {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Append one row: each cell is the value as `{}` prints it, with a
    /// label's commas turned into `;` so the line stays one CSV record.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        let cells = cells.iter().map(|c| c.to_string().replace(',', ";"));
        self.rows.push(cells.collect());
    }

    /// The CSV: the header, then one line per row.
    pub fn csv(&self) -> String {
        let mut out = format!("{}\n", self.header);
        for row in &self.rows {
            out += &(row.join(",") + "\n");
        }
        out
    }

    /// The text: the same cells under the same header, columns aligned
    /// (labels to the left, numbers to the right) and long fractions
    /// shortened to what a column can show.
    pub fn text(&self) -> String {
        let shown = |cell: &String| match cell.parse::<f64>() {
            Ok(v) if cell.len() > 9 && (0.1..1e6).contains(&v.abs()) => (format!("{v:.3}"), true),
            Ok(v) if cell.len() > 9 && v.fract() != 0.0 => (format!("{v:.4e}"), true),
            parsed => (cell.clone(), parsed.is_ok()),
        };
        let mut lines: Vec<Vec<(String, bool)>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(shown).collect())
            .collect();
        // A column's name sits where its first cell does.
        let side = |c: usize| {
            lines
                .first()
                .and_then(|l| l.get(c))
                .is_none_or(|(_, number)| *number)
        };
        let header = self.header.split(',').enumerate();
        let header = header
            .map(|(c, name)| (name.to_string(), side(c)))
            .collect();
        lines.insert(0, header);
        let width = |c: usize| {
            let cells = lines.iter().filter_map(|line| line.get(c));
            cells
                .map(|(cell, _)| cell.chars().count())
                .max()
                .unwrap_or(0)
        };
        let widths: Vec<usize> = (0..lines[0].len()).map(width).collect();
        let mut out = String::new();
        for line in &lines {
            let mut text = String::new();
            for ((cell, number), &w) in line.iter().zip(&widths) {
                let _ = match number {
                    true => write!(text, "{cell:>w$}  "),
                    false => write!(text, "{cell:<w$}  "),
                };
            }
            out += text.trim_end();
            out.push('\n');
        }
        out
    }

    /// Print the text and write the CSV to `results/<name>.csv` (relative to
    /// the current directory, created if needed).
    pub fn finish(self, name: &str) {
        print!("{}", self.text());
        let dir = PathBuf::from("results");
        let path = dir.join(format!("{name}.csv"));
        match fs::create_dir_all(&dir).and_then(|()| fs::write(&path, self.csv())) {
            Ok(()) => println!("\nCSV written to {}", path.display()),
            Err(e) => println!("\nCSV not written to {}: {e}", path.display()),
        }
    }
}

/// Print a section banner so the experiment output is easy to scan.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

#[cfg(test)]
mod tests {
    use super::*;
    use catrsm::{Algorithm, ItInvConfig};

    const IT_INV: ItInvConfig = ItInvConfig {
        p1: 2,
        p2: 1,
        n0: 8,
        inv_base: 8,
    };

    fn instance(seed: u64) -> TrsmInstance {
        TrsmInstance {
            n: 32,
            k: 8,
            pr: 2,
            pc: 2,
            seed,
        }
    }

    #[test]
    fn run_trsm_produces_consistent_measurements() {
        let inst = instance(1);
        let pinned = |alg| {
            run(
                &inst,
                SolveRequest::lower().algorithm(alg),
                MachineParams::unit(),
            )
        };
        let rec = pinned(Algorithm::Recursive { base_size: 8 });
        assert!(rec.error < 1e-8);
        let r = &rec.report;
        assert!(r.max_messages() > 0 && r.max_words() > 0 && r.max_flops() > 0);
        assert!(rec.phases.is_none());
        let it = pinned(Algorithm::IterativeInversion(IT_INV));
        assert!(it.error < 1e-8);
        let wf = pinned(Algorithm::Wavefront);
        assert!(wf.error < 1e-8);
        // The wavefront baseline must pay far more messages than either paper
        // algorithm at this size.
        assert!(wf.report.max_messages() > it.report.max_messages());
        // No pin: the planner's choice runs, and it is the iterative one.
        let auto = run(&inst, SolveRequest::lower(), MachineParams::unit());
        assert!(auto.error < 1e-8 && auto.phases.is_some());
    }

    #[test]
    fn phase_summary_aggregates() {
        let request = SolveRequest::lower().algorithm(Algorithm::IterativeInversion(IT_INV));
        let m = run(&instance(2), request, MachineParams::unit());
        assert!(m.error < 1e-8);
        let phases = m.phases.expect("It-Inv-TRSM reports its phases");
        let names: Vec<&str> = phases.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["setup", "inversion", "solve", "update", "finalize"]);
        let flops = |name: &str| {
            let (_, report) = phases.iter().find(|(n, _)| *n == name).unwrap();
            assert_eq!(report.num_ranks(), 4, "one counter set per rank");
            report.max_flops()
        };
        assert!(flops("solve") > 0 && flops("update") > 0 && flops("inversion") > 0);
        let sum: u64 = names.iter().map(|name| flops(name)).sum();
        assert!(
            sum <= m.report.max_flops() * 2,
            "phase sums should be comparable to the total"
        );
    }

    #[test]
    fn run_measures_exactly_what_the_direct_calls_measure() {
        use catrsm::{it_inv_trsm::it_inv_trsm, rec_trsm::rec_trsm, wavefront::wavefront_trsm};
        type Direct = fn(&DistMatrix, &DistMatrix) -> (DistMatrix, Option<PhaseBreakdown>);
        let cases: [(Algorithm, Direct); 3] = [
            (Algorithm::Recursive { base_size: 8 }, |l, b| {
                (rec_trsm(l, b, 8).unwrap(), None)
            }),
            (Algorithm::IterativeInversion(IT_INV), |l, b| {
                let (x, phases) = it_inv_trsm(l, b, &IT_INV).unwrap();
                (x, Some(phases))
            }),
            (Algorithm::Wavefront, |l, b| {
                (wavefront_trsm(l, b).unwrap(), None)
            }),
        ];
        let inst = instance(3);
        for (alg, direct) in cases {
            let params = MachineParams::cluster();
            let staged = run(&inst, SolveRequest::lower().algorithm(alg), params);
            let direct = inst.solve_with(params, direct);
            assert_eq!(staged.report.per_rank, direct.report.per_rank, "{alg:?}");
            assert_eq!(staged.error, direct.error, "{alg:?}");
            let per_phase = |run: &Run| {
                let phases = run.phases.clone()?;
                Some(phases.map(|(_, report)| report.per_rank))
            };
            assert_eq!(per_phase(&staged), per_phase(&direct), "{alg:?}");
        }
    }

    #[test]
    fn the_window_is_what_execute_distributed_measures() {
        let inst = instance(4);
        let windows = on_grid(2, 2, MachineParams::cluster(), |grid| {
            let l = gen::well_conditioned_lower(inst.n, inst.seed);
            let l = DistMatrix::from_global(grid, &l);
            let b = DistMatrix::from_global(grid, &gen::rhs(inst.n, inst.k, 5));
            let (sol, window) = window(grid, || SolveRequest::lower().solve_distributed(&l, &b));
            (sol.unwrap().report.comm, window)
        });
        for (solve, window) in windows {
            assert_eq!(solve, Some(window));
        }
    }

    #[test]
    fn table_text_and_csv_come_from_the_same_cells() {
        let mut t = Table::new("regime,p,W_model,ratio");
        t.row(&[
            &"3 large dims (4k/p<=n, n<=4k sqrt(p))",
            &16,
            &2048.0,
            &(1.0 / 3.0),
        ]);
        t.row(&[&"short", &4u64, &1.5e-7]);
        assert_eq!(
            t.csv(),
            "regime,p,W_model,ratio\n\
             3 large dims (4k/p<=n; n<=4k sqrt(p)),16,2048,0.3333333333333333\n\
             short,4,0.00000015\n"
        );
        // Cell for cell the CSV's values, long fractions shortened.
        assert_eq!(
            t.text(),
            "regime                                  p    W_model  ratio\n\
             3 large dims (4k/p<=n; n<=4k sqrt(p))  16       2048  0.333\n\
             short                                   4  1.5000e-7\n"
        );
    }
}
