//! Experiment — where the sparse level sweep starts to pay.
//!
//! Sweeps a shape × level-width zoo and times, per row, the sequential
//! sweep, the level sweep *forced* onto the full worker budget (through
//! `SparseTri::level_sweep_forced`, so it is timed exactly where the rule
//! declines it) and the default plan — interleaved, so drift in the host's
//! speed moves all three together.  `sparse::PAR_MIN_RUN_WEIGHT` is read off
//! this table — the `entries_per_run` at which `forced_ms` drops below
//! `seq_ms`, plus margin — and `sparse::ANALYZE_REUSE_MIN` off its
//! `analyse_ms` column; re-run it on a host with more cores to re-derive
//! both.
//!
//! The budget is the `DENSE_THREADS` pool: run with `DENSE_THREADS=2` on a
//! 2-core host (oversubscribed workers only measure the scheduler).

use dense::{dense_threads, Matrix};
use harness::{banner, Table};
use sparse::{gen, Schedule, SolveOpts, SparseTri};
use std::time::Instant;

fn median(ms: &mut [f64]) -> f64 {
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

fn main() {
    let budget = dense_threads();
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    banner(&format!(
        "sparse go-parallel rule: sequential vs level sweep, budget {budget}, {cpus} cpus"
    ));
    let mut zoo: Vec<(String, SparseTri)> = Vec::new();
    for n in [5_000usize, 8_000, 200_000] {
        zoo.push((format!("random n={n}"), gen::random_lower(n, 8, 1)));
    }
    zoo.push(("banded n=20000".into(), gen::banded_lower(20_000, 4, 2)));
    for n in [20_000usize, 200_000] {
        let blocks = gen::block_diagonal_lower(n, 10, 6, 5);
        zoo.push((format!("block-diag n={n}"), blocks));
        zoo.push((format!("power-law n={n}"), gen::power_law_lower(n, 3, 6)));
    }
    for n in [8_000usize, 20_000, 200_000] {
        for width in [4usize, 64, 256, 512, 1024, 2048, 8192] {
            if 2 * width <= n {
                let name = format!("deep-narrow n={n} w={width}");
                zoo.push((name, gen::deep_narrow_lower(n, width, 6, 3)));
            }
        }
    }
    let mut table = Table::new("shape,k,levels,entries_per_level,entries_per_run,analyse_ms,seq_ms,forced_ms,default_ms,workers");
    let mut won = Vec::new();
    let (default, seq_opts) = (SolveOpts::new(), SolveOpts::new().threads(1));
    for (name, m) in &zoo {
        for k in [1usize, 4] {
            let b = Matrix::from_fn(m.n(), k, |i, j| ((i * 7 + j * 13 + 1) % 19) as f64 / 9.5);
            let mut x = b.clone();
            let mut analyse: Vec<f64> = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(Schedule::analyze(m));
                    t0.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            let shape = m.execution_shape(&default, k);
            let reps = (8_000_000 / (m.nnz() * k)).clamp(15, 201) | 1;
            let mut ms = [Vec::new(), Vec::new(), Vec::new()];
            let mut reference = None;
            for _ in 0..reps {
                for (variant, ms) in ms.iter_mut().enumerate() {
                    x.as_mut_slice().copy_from_slice(b.as_slice());
                    let t0 = Instant::now();
                    match variant {
                        0 => drop(m.solve_multi_with(&seq_opts, &mut x).expect("sequential")),
                        1 => m.level_sweep_forced(budget, &mut x).expect("forced sweep"),
                        _ => {
                            let ran = m.solve_multi_shaped(&default, &mut x).expect("default");
                            assert_eq!(ran, shape, "{name}: the executor ran what the rule said");
                        }
                    }
                    ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    let want = reference.get_or_insert_with(|| x.clone());
                    assert!(x == *want, "{name}: variant {variant} moved a bit");
                }
            }
            let [seq, forced, plan] = ms.map(|mut v| median(&mut v));
            if shape.workers > 1 {
                won.push(seq / plan);
            }
            let (levels, runs) = (m.schedule().num_levels(), m.schedule().num_runs());
            let (per_level, per_run) = (m.nnz() * k / levels, m.nnz() * k / runs);
            let analyse = median(&mut analyse);
            let [t0, t1, t2, t3] = [analyse, seq, forced, plan].map(|t| format!("{t:.4}"));
            let workers = shape.workers;
            table.row(&[
                name, &k, &levels, &per_level, &per_run, &t0, &t1, &t2, &t3, &workers,
            ]);
        }
    }
    table.finish("exp_sparse_gate");
    match won.len() {
        0 => println!("\nrule went parallel on no row (budget {budget})"),
        n => println!(
            "\nrule went parallel on {n} rows: median speed-up over threads(1) {:.2}x",
            median(&mut won)
        ),
    }
}
