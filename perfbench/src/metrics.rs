//! Every metric the benchmark prints: name, unit, direction, and how two
//! runs of it are compared.  `BENCHMARK.json` is generated from this table
//! (`perfbench manifest`) and a test keeps the two in step.

use crate::json::Value;
use crate::trace::SPAN_NAMES;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A measurement with run-to-run spread.  `bound` is the share of the
    /// baseline's median by which it may worsen before that counts as a
    /// regression.
    Timed { bound: f64 },
    /// A count that repeats exactly for a given seed; any difference counts.
    Exact,
    /// A per-layer measurement: reported, compared, never gated.
    Layer,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub kind: Kind,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    kind: Kind,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind,
    }
}

/// Seconds the driver's run measures for, and the default of `--seconds`.
pub const RUN_SECONDS: u32 = 10;

/// The nine end-to-end metrics, measured with tracing off.  The `sim_*`
/// three exist on `dist_*` only; `fail_ratio` has an absolute bound of 0.
///
/// The issue proposed 10 % for `op_p50_ms` and `ops_per_s` and 20 % for
/// `op_p90_ms`.  On the shared 2-vCPU box this was written on, ten runs on ten
/// seeds spread (interquartile, as a share of the median) by up to 15 % /
/// 13 % / 18 % in a quiet hour and more in a noisy one, so the three carry
/// the widest bound a metric may have.
pub const END_TO_END: [MetricDef; 9] = [
    def("setup_s", "s", "lower", Kind::Timed { bound: 0.25 }),
    def("op_p50_ms", "ms", "lower", Kind::Timed { bound: 0.25 }),
    def("op_p90_ms", "ms", "lower", Kind::Timed { bound: 0.25 }),
    def("ops_per_s", "1/s", "higher", Kind::Timed { bound: 0.25 }),
    def("fail_ratio", "ratio", "lower", Kind::Exact),
    def("peak_rss_mb", "MB", "lower", Kind::Timed { bound: 0.10 }),
    def("sim_time_s", "s", "lower", Kind::Exact),
    def("sim_msgs", "count", "lower", Kind::Exact),
    def("sim_words", "count", "lower", Kind::Exact),
];

/// Per-layer metrics of the traced run, `self_share.*` aside.
const LAYER: [MetricDef; 46] = [
    def("dense.trsm_gflops", "GF/s", "higher", Kind::Layer),
    def("dense.gemm_gflops", "GF/s", "higher", Kind::Layer),
    def("dense.trsm_frac_of_gemm", "ratio", "higher", Kind::Layer),
    def("dense.gemm_par_speedup", "ratio", "higher", Kind::Layer),
    def("dense.flops", "count", "lower", Kind::Exact),
    def("dense.trinv_gflops", "GF/s", "higher", Kind::Layer),
    def("sparse.solve_ms", "ms", "lower", Kind::Layer),
    def("sparse.gflops", "GF/s", "higher", Kind::Layer),
    def("sparse.gbytes_s_computed", "GB/s", "higher", Kind::Layer),
    def("sparse.par_speedup", "ratio", "higher", Kind::Layer),
    def("sparse.levels", "count", "lower", Kind::Exact),
    def("sparse.barriers", "count", "lower", Kind::Exact),
    def("sparse.from_csr_ms", "ms", "lower", Kind::Layer),
    def("sparse.analysis_ms", "ms", "lower", Kind::Layer),
    def("sparse.syncfree_ms", "ms", "lower", Kind::Layer),
    def("sparse.level_cold_ms", "ms", "lower", Kind::Layer),
    def("core.plan_dense_us", "us", "lower", Kind::Layer),
    def("core.plan_sparse_us", "us", "lower", Kind::Layer),
    def("core.plan_distributed_us", "us", "lower", Kind::Layer),
    def("core.dense_overhead_ratio", "ratio", "lower", Kind::Layer),
    def("core.sparse_overhead_ratio", "ratio", "lower", Kind::Layer),
    def("core.execute_distributed_ms", "ms", "lower", Kind::Layer),
    def("costmodel.drift_time", "ratio", "lower", Kind::Exact),
    def("costmodel.drift_msgs", "ratio", "lower", Kind::Exact),
    def("costmodel.drift_words", "ratio", "lower", Kind::Exact),
    def("simnet.spawn_ms", "ms", "lower", Kind::Layer),
    def("simnet.pingpong_us", "us", "lower", Kind::Layer),
    def("simnet.mb_per_s", "MB/s", "higher", Kind::Layer),
    def("simnet.run_self_ms", "ms", "lower", Kind::Layer),
    def("simnet.total_msgs", "count", "lower", Kind::Exact),
    def("simnet.total_words", "count", "lower", Kind::Exact),
    def("simnet.sim_flops", "count", "lower", Kind::Exact),
    def("pgrid.grid_new_us", "us", "lower", Kind::Layer),
    def("pgrid.from_global_ms", "ms", "lower", Kind::Layer),
    def("serve.fingerprint_us", "us", "lower", Kind::Layer),
    def("serve.submit_hit_us", "us", "lower", Kind::Layer),
    def("serve.submit_miss_us", "us", "lower", Kind::Layer),
    def("serve.flush_ms", "ms", "lower", Kind::Layer),
    def("serve.overhead_ratio", "ratio", "lower", Kind::Layer),
    def("serve.hit_ratio", "ratio", "higher", Kind::Exact),
    def("serve.plan_builds", "count", "lower", Kind::Exact),
    def("serve.evictions", "count", "lower", Kind::Exact),
    def("serve.mean_batch_width", "ratio", "higher", Kind::Exact),
    def("serve.analysis_count", "count", "lower", Kind::Exact),
    def("trace.overhead_ratio", "ratio", "lower", Kind::Layer),
    def("max_rel_err", "ratio", "lower", Kind::Layer),
];

/// Every per-layer metric, `self_share.<span>` included.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = LAYER.to_vec();
    defs.extend(
        SHARE_NAMES
            .iter()
            .map(|name| def(name, "ratio", "lower", Kind::Layer)),
    );
    defs
}

/// `self_share.<span>` for each span name, in `SPAN_NAMES` order.
pub const SHARE_NAMES: [&str; SPAN_NAMES.len()] = [
    "self_share.op",
    "self_share.core.plan_dense",
    "self_share.core.execute_dense",
    "self_share.sparse.from_csr",
    "self_share.core.plan_sparse",
    "self_share.core.execute_sparse",
    "self_share.serve.submit",
    "self_share.serve.flush",
    "self_share.simnet.run",
    "self_share.pgrid.grid_new",
    "self_share.pgrid.from_global",
    "self_share.core.plan_distributed",
    "self_share.core.execute_distributed",
];

/// Whether an end-to-end metric exists on this workload: the `sim_*` three
/// need a simulated machine.
pub fn measured_on(def: &MetricDef, workload: &str) -> bool {
    !def.name.starts_with("sim_") || workload.starts_with("dist_")
}

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .copied()
        .chain(per_layer())
        .find(|d| d.name == name)
}

/// Printed by every run and judged by `compare`, but left out of the
/// driver's gate: on the shared host this was written on, whole phases of a
/// run are slowed down, so a percentile lands inside or outside them from one
/// run to the next (over seven runs in a noisy hour `op_p50_ms` spread 29 % of
/// its median and `op_p90_ms` 55 %, where best-round `ops_per_s` held 10 %).
pub const NOT_GATED: [&str; 2] = ["op_p50_ms", "op_p90_ms"];

/// What the driver reads with `--trace 0` and gates later changes on: the
/// end-to-end metrics that are measured on every workload, are never 0, and
/// repeat on the box this was written on.  `fail_ratio` travels as the
/// result line's `failed`/`attempted`; the `sim_*` counts exist on `dist_*`
/// only and repeat exactly, so the driver gets them with `--trace 1`.
pub fn driver_end_to_end() -> Vec<MetricDef> {
    END_TO_END
        .iter()
        .copied()
        .filter(|d| matches!(d.kind, Kind::Timed { .. }) && !NOT_GATED.contains(&d.name))
        .collect()
}

/// What the driver reads with `--trace 1`.
pub fn driver_per_layer() -> Vec<MetricDef> {
    END_TO_END
        .iter()
        .copied()
        .filter(|d| d.name.starts_with("sim_"))
        .chain(per_layer())
        .collect()
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let s = |s: &str| Value::Str(s.into());
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|i| s(i)).collect());
    let metric = |d: &MetricDef| {
        let mut fields = vec![
            ("name".to_string(), s(d.name)),
            ("unit".to_string(), s(d.unit)),
            ("better".to_string(), s(d.better)),
        ];
        if let Kind::Timed { bound } = d.kind {
            fields.push(("bound".to_string(), Value::Num(bound)));
        }
        Value::Obj(fields)
    };
    Value::Obj(vec![
        (
            "command".into(),
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths".into(), strings(&["perfbench"])),
        ("run_seconds".into(), Value::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::Obj(vec![("name".into(), s(name)), ("why".into(), s(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Arr(driver_end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer".into(),
            Value::Arr(driver_per_layer().iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn share_names_follow_the_span_names() {
        for (share, span) in SHARE_NAMES.iter().zip(SPAN_NAMES) {
            assert_eq!(*share, format!("self_share.{span}"));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<MetricDef> = driver_end_to_end()
            .into_iter()
            .chain(driver_per_layer())
            .collect();
        let names: BTreeSet<&str> = all.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(driver_per_layer().len() <= 128);
        assert!(driver_end_to_end().len() <= 16);
        let ok = |c: char, extra: &str| c.is_ascii_alphanumeric() || extra.contains(c);
        for d in &all {
            assert!(d.name.len() <= 64 && d.name.chars().all(|c| ok(c, "_.-")));
            assert!(d.unit.len() <= 16 && d.unit.chars().all(|c| ok(c, "_/%.-")));
            assert!(matches!(d.better, "lower" | "higher"));
            if let Kind::Timed { bound } = d.kind {
                assert!(bound > 0.0 && bound <= 0.25);
            }
        }
        for (name, why) in WORKLOADS {
            assert!(name.len() <= 64 && why.len() <= 200 && !why.contains('\n'));
        }
        // Set-up time carries the widest bound.
        let setup = find("setup_s").unwrap();
        assert!(all.iter().all(|d| match (d.kind, setup.kind) {
            (Kind::Timed { bound }, Kind::Timed { bound: widest }) => bound <= widest,
            _ => true,
        }));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            crate::json::parse(&on_disk).unwrap(),
            manifest(),
            "regenerate with `perfbench manifest > BENCHMARK.json`"
        );
    }
}
