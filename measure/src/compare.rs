//! `measure compare <dir-a> <dir-b>`: two sets of runs, each a directory
//! of `--out` files, compared metric by metric. Runs are only ever
//! compared with runs, never with a committed number.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regression,
    /// A side's own quartile spread exceeds the bound, so a shift of the
    /// bound's size could be noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartile spread (as a share of the median) of one side.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self { median: median(values), q1, q3 }
    }

    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// Classifies B against A for one metric. The shift is B's median against
/// A's, signed so that positive is worse; it counts when it exceeds the
/// metric's bound. A side whose own spread exceeds the bound leaves the
/// metric unresolved unless every run of B beats every run of A.
pub fn classify(a: &[f64], b: &[f64], metric: &EndToEnd) -> (Side, Side, f64, Verdict) {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse = sign * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    let b_always_better = match metric.better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    let verdict = if b_always_better && worse < 0.0 {
        Verdict::Improved
    } else if sa.spread() > metric.bound || sb.spread() > metric.bound {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regression
    } else if -worse > metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (sa, sb, worse, verdict)
}

/// Workload → metric → one value per run, read from a directory of
/// `--out` files.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<RunSet, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut set = RunSet::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let get =
            |v: &'_ Value, k: &str| v.as_map().and_then(|m| serde::map_get(m, k).ok()).cloned();
        let bad = || format!("{}: not a `measure --out` file", path.display());
        let workload =
            get(&doc, "workload").and_then(|w| w.as_str().map(String::from)).ok_or_else(bad)?;
        let metrics = get(&doc, "result").and_then(|r| get(&r, "metrics")).ok_or_else(bad)?;
        let runs = set.entry(workload).or_default();
        for (name, entry) in metrics.as_map().ok_or_else(bad)? {
            let v = match get(entry, "value") {
                Some(Value::F64(v)) => v,
                Some(Value::U64(v)) => v as f64,
                Some(Value::I64(v)) => v as f64,
                _ => continue,
            };
            runs.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(set)
}

/// Prints the comparison; `Ok(true)` when nothing regressed or stayed
/// unresolved.
pub fn run(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    println!(
        "{:<15} {:<17} {:>4} {:>12} {:>7} {:>4} {:>12} {:>7} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "n_a",
        "median_a",
        "iqr_a",
        "n_b",
        "median_b",
        "iqr_b",
        "shift",
        "bound"
    );
    let mut clean = true;
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else { continue };
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (runs_a.get(metric.name), runs_b.get(metric.name)) else {
                continue;
            };
            let (sa, sb, worse, verdict) = classify(va, vb, metric);
            clean &= matches!(verdict, Verdict::Unchanged | Verdict::Improved);
            println!(
                "{workload:<15} {:<17} {:>4} {:>12.4} {:>6.1}% {:>4} {:>12.4} {:>6.1}% {:>+7.1}% {:>5.0}%  {}",
                metric.name,
                va.len(),
                sa.median,
                100.0 * sa.spread(),
                vb.len(),
                sb.median,
                100.0 * sb.spread(),
                100.0 * worse,
                100.0 * metric.bound,
                verdict.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P50: EndToEnd =
        EndToEnd { name: "op_ms.p50", unit: "ms", better: Better::Lower, bound: 0.10 };
    const RATE: EndToEnd =
        EndToEnd { name: "throughput_per_s", unit: "1/s", better: Better::Higher, bound: 0.10 };

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10).map(|i| center * (1.0 + jitter * (i as f64 / 9.0 - 0.5))).collect()
    }

    #[test]
    fn steady_sides_within_the_bound_are_unchanged() {
        let (_, _, worse, v) = classify(&around(100.0, 0.02), &around(104.0, 0.02), &P50);
        assert_eq!(v, Verdict::Unchanged);
        assert!((worse - 0.04).abs() < 1e-9);
    }

    #[test]
    fn a_worse_median_beyond_the_bound_is_a_regression_in_either_direction() {
        assert_eq!(
            classify(&around(100.0, 0.02), &around(115.0, 0.02), &P50).3,
            Verdict::Regression
        );
        assert_eq!(
            classify(&around(100.0, 0.02), &around(85.0, 0.02), &RATE).3,
            Verdict::Regression
        );
        // Overlapping sides that are better beyond the bound count as improved.
        let mut b = around(85.0, 0.02);
        b[0] = 200.0;
        assert_eq!(classify(&around(100.0, 0.02), &b, &P50).3, Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        // Quartile spread ≈ 25% on side A: even a 15% shift is unresolved.
        let wide = around(100.0, 0.5);
        assert!(Side::of(&wide).spread() > P50.bound);
        assert_eq!(classify(&wide, &around(115.0, 0.02), &P50).3, Verdict::Unresolved);
        assert_eq!(classify(&around(100.0, 0.02), &wide, &P50).3, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(classify(&wide, &around(50.0, 0.02), &P50).3, Verdict::Improved);
    }
}
