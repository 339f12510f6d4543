//! The `run` subcommand: start one child per workload and pass, check and
//! print what they measured, keep a ledger.

use crate::json::{self, Value};
use crate::metrics::{self, Kind, MetricDef};
use crate::stats;
use crate::workloads::WORKLOADS;
use std::collections::BTreeSet;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Environment variables that change what the library does; the runner sets
/// `DENSE_THREADS` itself and refuses to inherit any of them.
const RESERVED_ENV: [&str; 3] = ["DENSE_THREADS", "DENSE_FORCE_SCALAR", "CATRSM_TRACE"];

/// Which passes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Passes {
    Untraced,
    Traced,
    Both,
}

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: u32,
    pub passes: Passes,
    pub workload: Option<String>,
    pub out: Option<PathBuf>,
    pub smoke: bool,
    pub corrupt_reference: bool,
}

/// Worker threads `T = min(nproc − 1, 4)`, at least 1, used everywhere the API
/// takes a count.  One hardware thread is left to the kernel, the harness and
/// the hypervisor: with `T = nproc` on a 2-vCPU virtual machine, workers that
/// meet at a barrier need both vCPUs scheduled at once, and ten-seed spreads
/// reached 26 % of the median — wider than the widest bound a metric may have.
///
/// The one-against-many probes (`*.par_speedup`, the cold parallel sparse
/// paths) use `min(nproc, 4)` workers on their parallel side whatever `T` is.
struct Threads {
    workers: usize,
    par: usize,
    nproc: usize,
}

fn worker_threads() -> Threads {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Threads {
        workers: (nproc - 1).clamp(1, 4),
        par: nproc.min(4),
        nproc,
    }
}

/// First line of a command's output, or "unknown" (the driver's checkout is
/// not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where a run's trace files go: `perfbench/results/<run>/`.
fn results_dir(opts: &RunOpts) -> PathBuf {
    let run = if opts.smoke {
        format!("smoke-seed{}", opts.seed)
    } else {
        format!("seed{}", opts.seed)
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(run)
}

/// Start a child for one workload and pass, wait for it, and parse the
/// result it prints as its last line.
fn run_child(
    opts: &RunOpts,
    workload: &str,
    traced: bool,
    threads: &Threads,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--threads", &threads.workers.to_string()])
        .args(["--par-threads", &threads.par.to_string()])
        .env("DENSE_THREADS", threads.workers.to_string())
        .stderr(Stdio::inherit());
    if traced {
        let file = results_dir(opts).join(format!("trace-{workload}.json"));
        cmd.arg("--trace-file").arg(file);
    }
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if opts.corrupt_reference {
        cmd.arg("--corrupt-reference");
    }
    // `output` collects the child's stdout and waits for it to end.
    let output = cmd.output().map_err(|e| format!("starting a child: {e}"))?;
    let pass = if traced { "traced" } else { "untraced" };
    if !output.status.success() {
        return Err(format!(
            "{workload} ({pass}): child ended with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} ({pass}): child printed nothing"))?;
    json::parse(line).map_err(|e| format!("{workload} ({pass}): {e}"))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// The metrics of one child as `{name: {value, unit}}`, in table order.
/// `Err` names a metric that is not in the table or not a finite number.
fn named_metrics(child: &Value, defs: &[MetricDef]) -> Result<Vec<(String, Value)>, String> {
    let got = child.get("metrics").map_or(&[][..], Value::fields);
    for (name, value) in got {
        let known = defs.iter().any(|d| d.name == name);
        if !known || !value.as_f64().is_some_and(f64::is_finite) {
            return Err(format!("metric {name} is unknown or not a finite number"));
        }
    }
    Ok(defs
        .iter()
        .filter_map(|d| {
            let v = got.iter().find(|(k, _)| k == d.name)?.1.as_f64()?;
            Some((d.name.to_string(), json::metric(v, d.unit)))
        })
        .collect())
}

/// A value for the tables people read; the ledger and the result line keep
/// every digit.
fn human(v: f64) -> String {
    if v != 0.0 && !(1e-3..1e7).contains(&v.abs()) {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

fn print_table(title: &str, rows: &[(String, Value)]) {
    println!("  {title}");
    for (name, m) in rows {
        let def = metrics::find(name).expect("named_metrics only yields known metrics");
        let note = match def.kind {
            Kind::Timed { bound } if metrics::NOT_GATED.contains(&def.name) => {
                format!("bound {:.0} %, not gated", bound * 100.0)
            }
            Kind::Timed { bound } => format!("bound {:.0} %", bound * 100.0),
            Kind::Exact => "exact".to_string(),
            Kind::Layer => String::new(),
        };
        println!(
            "    {:<38} {:>16} {:<6} {note}",
            name,
            human(num(m, "value")),
            def.unit
        );
    }
}

/// The last line the driver reads: every metric of the table, 0 for one this
/// workload does not exercise.
fn driver_line(child: &Value, rows: &[(String, Value)], defs: &[MetricDef]) -> Value {
    let failed = num(child, "failed");
    Value::Obj(vec![
        ("correct".into(), Value::Bool(failed == 0.0)),
        ("attempted".into(), Value::Num(num(child, "attempted"))),
        ("failed".into(), Value::Num(failed)),
        (
            "metrics".into(),
            Value::Obj(
                defs.iter()
                    .map(|d| {
                        let m = rows
                            .iter()
                            .find(|(k, _)| k == d.name)
                            .map_or_else(|| json::metric(0.0, d.unit), |(_, m)| m.clone());
                        (d.name.to_string(), m)
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn run(opts: &RunOpts) -> Result<(), String> {
    for var in RESERVED_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; the benchmark sets DENSE_THREADS itself and measures \
                 the default kernels with tracing off — unset it"
            ));
        }
    }
    let selected: Vec<(&str, &str)> = match &opts.workload {
        Some(name) => vec![*WORKLOADS
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?],
        None => WORKLOADS.to_vec(),
    };
    let threads = worker_threads();
    let stamp = Value::Obj(vec![
        ("seed".into(), Value::Num(opts.seed as f64)),
        ("seconds".into(), Value::Num(opts.seconds as f64)),
        ("smoke".into(), Value::Bool(opts.smoke)),
        ("threads".into(), Value::Num(threads.workers as f64)),
        ("par_threads".into(), Value::Num(threads.par as f64)),
        ("nproc".into(), Value::Num(threads.nproc as f64)),
        ("cpu".into(), Value::Str(cpu_model())),
        (
            "rustc".into(),
            Value::Str(first_line_of("rustc", &["--version"])),
        ),
        (
            "commit".into(),
            Value::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
    ]);
    println!("perfbench {stamp}");

    let e2e_defs = metrics::END_TO_END.to_vec();
    let gated_defs = metrics::driver_end_to_end();
    let layer_defs = metrics::driver_per_layer();
    let mut ledger = Vec::new();
    let mut layer_seen = BTreeSet::new();
    let mut any_failed_op = false;
    let mut last_line = None;
    for (workload, why) in selected {
        println!("\n== {workload} == {why}");
        let mut entry = vec![];
        let mut exact_seen: Option<Value> = None;
        for traced in [false, true] {
            let wanted = match opts.passes {
                Passes::Both => true,
                Passes::Untraced => !traced,
                Passes::Traced => traced,
            };
            if !wanted {
                continue;
            }
            let child = run_child(opts, workload, traced, &threads)?;
            let (title, defs, driver_defs, key) = if traced {
                (
                    "per layer (traced pass)",
                    &layer_defs,
                    &layer_defs,
                    "per_layer",
                )
            } else {
                (
                    "end to end (tracing off)",
                    &e2e_defs,
                    &gated_defs,
                    "end_to_end",
                )
            };
            let rows = named_metrics(&child, defs).map_err(|e| format!("{workload}: {e}"))?;
            print_table(title, &rows);
            if traced {
                layer_seen.extend(rows.iter().map(|(name, _)| name.clone()));
            } else if let Some(d) = e2e_defs.iter().find(|d| {
                metrics::measured_on(d, workload) && !rows.iter().any(|(name, _)| name == d.name)
            }) {
                return Err(format!("{workload}: metric {} is missing", d.name));
            }
            println!(
                "    ops attempted {}, failed {}",
                num(&child, "attempted"),
                num(&child, "failed")
            );
            if !traced {
                let samples = num(&child, "samples") as usize;
                let beyond = stats::samples_beyond(samples, 90.0);
                println!(
                    "    {samples} samples, {beyond} beyond the p90 rank{}",
                    if beyond < 10 {
                        " (fewer than ten: p90 is not a tail figure in this run)"
                    } else {
                        ""
                    }
                );
            }
            any_failed_op |= num(&child, "failed") != 0.0;
            // The exact figures must agree between the two passes.
            let exact = child.get("exact").cloned().unwrap_or(Value::Null);
            match &exact_seen {
                Some(first) if *first != exact => {
                    return Err(format!(
                        "{workload}: exact figures differ between the untraced and \
                         traced pass: {first} then {exact}"
                    ));
                }
                _ => exact_seen = Some(exact),
            }
            last_line = Some(driver_line(&child, &rows, driver_defs));
            entry.push((key.to_string(), Value::Obj(rows)));
            entry.push((
                format!("{key}_attempted"),
                Value::Num(num(&child, "attempted")),
            ));
            entry.push((format!("{key}_failed"), Value::Num(num(&child, "failed"))));
        }
        ledger.push((workload.to_string(), Value::Obj(entry)));
    }

    // Every per-layer metric is some workload's to print.
    if opts.workload.is_none() && opts.passes != Passes::Untraced {
        if let Some(d) = layer_defs.iter().find(|d| !layer_seen.contains(d.name)) {
            return Err(format!("no workload printed the metric {}", d.name));
        }
    }

    let record = Value::Obj(vec![
        ("schema".into(), Value::Str("perfbench/1".into())),
        ("stamp".into(), stamp),
        ("workloads".into(), Value::Obj(ledger)),
    ]);
    if let Some(path) = &opts.out {
        // One record per line, appended: a file holds a set of runs.
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{record}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if matches!(opts.passes, Passes::Traced | Passes::Both) {
        println!("\ntraces: {}", results_dir(opts).display());
    }
    // With one workload and one pass the last line is the driver's result.
    if let (Some(_), Some(line), true) = (&opts.workload, last_line, opts.passes != Passes::Both) {
        println!("{line}");
    }
    if any_failed_op && (opts.smoke || opts.corrupt_reference) {
        return Err("at least one op failed its check".into());
    }
    Ok(())
}
