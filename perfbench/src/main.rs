//! `perfbench`: the repository's layered benchmark.  See `README.md`.

mod check;
mod child;
mod compare;
mod gen;
mod json;
mod metrics;
mod runner;
mod stats;
mod trace;
mod workloads;

use runner::{Passes, RunOpts};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Params, Scale};

const USAGE: &str = "\
usage:
  perfbench run [--seed S] [--seconds N] [--workload W] [--traced | --trace 0|1]
                [--out FILE] [--smoke] [--corrupt-reference]
      Run every workload (or W), check every output, print every metric.
      --trace 0 (default) measures end to end with tracing off, --trace 1 runs
      the traced pass for the per-layer metrics, --traced runs both.
      --out appends the run to a ledger file, one run per line.
      --corrupt-reference is for testing the checks: every op must then fail.
  perfbench compare A B
      Compare ledger B against ledger A, metric by metric, against the bounds.
  perfbench manifest
      Print BENCHMARK.json as generated from the metric table.";

/// Default of `--seed`: fixed, so two plain runs measure the same inputs.
const DEFAULT_SEED: u64 = 20170529;

struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let raw = self.0.next().ok_or(format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot read {raw:?}"))
    }
}

fn run_opts(mut args: Args) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS,
        passes: Passes::Untraced,
        workload: None,
        out: None,
        smoke: false,
        corrupt_reference: false,
    };
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--seed" => opts.seed = args.value(&flag)?,
            "--seconds" => opts.seconds = args.value(&flag)?,
            "--workload" => opts.workload = Some(args.value(&flag)?),
            "--out" => opts.out = Some(args.value::<PathBuf>(&flag)?),
            "--traced" => opts.passes = Passes::Both,
            "--trace" => {
                opts.passes = match args.value::<u8>(&flag)? {
                    0 => Passes::Untraced,
                    1 => Passes::Traced,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--corrupt-reference" => opts.corrupt_reference = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if !(1..=60).contains(&opts.seconds) {
        return Err("--seconds takes 1 to 60".into());
    }
    Ok(opts)
}

/// The internal subcommand the runner starts per workload and pass.
fn child(mut args: Args) -> Result<(), String> {
    let (mut workload, mut seed, mut seconds, mut threads) = (None, None, None, None);
    let (mut par_threads, mut trace_file) = (None, None);
    let (mut smoke, mut corrupt_reference) = (false, false);
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--workload" => workload = Some(args.value::<String>(&flag)?),
            "--seed" => seed = Some(args.value(&flag)?),
            "--seconds" => seconds = Some(args.value(&flag)?),
            "--threads" => threads = Some(args.value(&flag)?),
            "--par-threads" => par_threads = Some(args.value(&flag)?),
            "--trace-file" => trace_file = Some(args.value::<PathBuf>(&flag)?),
            "--smoke" => smoke = true,
            "--corrupt-reference" => corrupt_reference = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let workload = workload.ok_or("child needs --workload")?;
    let params = Params {
        seed: seed.ok_or("child needs --seed")?,
        threads: threads.ok_or("child needs --threads")?,
        par_threads: par_threads.ok_or("child needs --par-threads")?,
        scale: if smoke {
            Scale::Smoke
        } else {
            Scale::Full {
                seconds: seconds.ok_or("child needs --seconds")?,
            }
        },
        corrupt_reference,
    };
    let result = match trace_file {
        None => child::untraced(&workload, &params)?,
        Some(file) => child::traced(&workload, &params, &file)?,
    };
    println!("{}", result.to_json());
    Ok(())
}

fn dispatch() -> Result<(), String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return Err(USAGE.into());
    }
    let command = argv.remove(0);
    let mut args = Args(argv.into_iter());
    match command.as_str() {
        "run" => runner::run(&run_opts(args)?),
        "child" => child(args),
        "compare" => {
            let a: PathBuf = args.value("compare A")?;
            let b: PathBuf = args.value("compare B")?;
            compare::compare(&a, &b)
        }
        "manifest" => {
            print!("{}", metrics::manifest().pretty());
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}
