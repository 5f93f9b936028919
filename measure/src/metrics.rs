//! The metric catalog. `BENCHMARK.json` at the repository root restates it
//! (a unit test keeps the two in step).

use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the solver sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports all of these from its untraced run. An "op" is
/// one solve, one time to solution (build + solve), one session step or
/// one served request, by workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "op_ms.p50", unit: "ms", better: Better::Lower, bound: 0.2 },
    EndToEnd { name: "op_ms.tail", unit: "ms", better: Better::Lower, bound: 0.24 },
    EndToEnd { name: "throughput_per_s", unit: "1/s", better: Better::Higher, bound: 0.2 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.15 },
];

/// Per-layer metrics of the traced run, `(name, unit)`. The layer is the
/// name's first component and names a workspace crate.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("sparse.spmv_us", "us"),
    ("sparse.blas_us", "us"),
    ("sparse.spmv_flop_per_byte", "flop/B"),
    ("wavefront.tri_lower_us", "us"),
    ("wavefront.tri_upper_us", "us"),
    ("wavefront.levels", "count"),
    ("wavefront.level_build_ms", "ms"),
    ("precond.apply_us", "us"),
    ("precond.apply_us.seq", "us"),
    ("precond.apply_us.barrier", "us"),
    ("precond.apply_us.blocks", "us"),
    ("precond.apply_us.mixed", "us"),
    ("precond.ilu0_ms", "ms"),
    ("precond.fsai_build_ms", "ms"),
    ("precond.refresh_ms", "ms"),
    ("core.sparsify_ms", "ms"),
    ("core.algorithm2_ms", "ms"),
    ("core.plan_build_ms", "ms"),
    ("core.kind_search_ms", "ms"),
    ("core.reorder_ms", "ms"),
    ("core.kind_chosen.ilu", "count"),
    ("core.kind_chosen.fsai", "count"),
    ("core.kind_chosen.spai", "count"),
    ("core.kind_chosen.jacobi", "count"),
    ("core.ordering_chosen.natural", "count"),
    ("core.ordering_chosen.rcm", "count"),
    ("core.ordering_chosen.coloring", "count"),
    ("core.plan_bytes", "B"),
    ("solver.iterations", "count"),
    ("solver.iter_us", "us"),
    ("solver.relres_max", "ratio"),
    ("solver.phase_share.spmv", "ratio"),
    ("solver.phase_share.precond", "ratio"),
    ("solver.phase_share.blas", "ratio"),
    ("solver.loop_overhead_us", "us"),
    ("gpusim.pred_iter_us", "us"),
    ("gpusim.meas_over_pred", "ratio"),
    ("serve.submit_us.p50", "us"),
    ("serve.wait_ms.p50", "ms"),
    ("serve.wait_ms.p99", "ms"),
    ("serve.cache_hit_frac", "ratio"),
    ("serve.batched_frac", "ratio"),
    ("serve.shed", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Per-executor rows: `(label, metric)`, the label parsed with
/// `ExecutionStrategy::parse`. Workloads themselves only ever run the
/// default executor, so collapsing executors leaves their numbers
/// comparable and merely drops a row here.
pub const EXEC_ROWS: [(&str, &str); 3] = [
    ("seq", "precond.apply_us.seq"),
    ("barrier", "precond.apply_us.barrier"),
    ("blocks", "precond.apply_us.blocks"),
];

/// Per-precision rows, the label parsed with `PrecisionPolicy::parse`
/// (full precision is the `seq` row).
pub const PRECISION_ROWS: [(&str, &str); 1] = [("mixed", "precond.apply_us.mixed")];

/// Preconditioner and ordering labels `Auto` can pick.
pub const KIND_LABELS: [&str; 4] = ["ilu", "fsai", "spai", "jacobi"];
pub const ORDERING_LABELS: [&str; 3] = ["natural", "rcm", "coloring"];

/// Unit of a cataloged metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

/// Metric values of one run, in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Records `name`, which must be in the catalog.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the catalog");
        self.values.retain(|(n, _)| n != name);
        self.values.push((name.to_string(), value));
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.values.iter().map(|(n, _)| n.as_str())
    }

    /// `{"name": {"value": v, "unit": u}, …}`.
    pub fn to_json(&self) -> Value {
        Value::Map(
            self.values
                .iter()
                .map(|(n, v)| {
                    let unit = unit_of(n).expect("checked on insert");
                    let entry = Value::Map(vec![
                        ("value".into(), Value::F64(*v)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]);
                    (n.clone(), entry)
                })
                .collect(),
        )
    }

    /// One `name value unit` line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.values
            .iter()
            .map(|(n, v)| {
                let unit = unit_of(n).expect("cataloged");
                if *v != 0.0 && v.abs() < 1e-3 {
                    format!("{n:<32} {v:>16.6e} {unit}")
                } else {
                    format!("{n:<32} {v:>16.6} {unit}")
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        serde::map_get(v.as_map().expect("object"), key).expect("key present")
    }

    fn number(v: &Value) -> f64 {
        match v {
            Value::F64(x) => *x,
            Value::U64(x) => *x as f64,
            Value::I64(x) => *x as f64,
            _ => panic!("not a number: {v:?}"),
        }
    }

    /// `BENCHMARK.json` at the repository root states the same metrics,
    /// units, directions and bounds as this catalog.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let e2e = field(&doc, "end_to_end").as_seq().expect("list");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, j) in END_TO_END.iter().zip(e2e) {
            assert_eq!(field(j, "name").as_str(), Some(m.name));
            assert_eq!(field(j, "unit").as_str(), Some(m.unit));
            assert_eq!(field(j, "better").as_str(), Some(m.better.label()));
            assert_eq!(number(field(j, "bound")), m.bound);
        }
        let layer = field(&doc, "per_layer").as_seq().expect("list");
        assert_eq!(layer.len(), PER_LAYER.len());
        for ((name, unit), j) in PER_LAYER.iter().zip(layer) {
            assert_eq!(field(j, "name").as_str(), Some(*name));
            assert_eq!(field(j, "unit").as_str(), Some(*unit));
        }
        let setup_bound = END_TO_END.iter().find(|m| m.name == "setup_s").map(|m| m.bound);
        assert!(END_TO_END.iter().all(|m| Some(m.bound) <= setup_bound && m.bound <= 0.25));
    }
}
