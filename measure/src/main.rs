//! `measure`: the SPCG workspace's wall-clock benchmark.
//!
//! ```text
//! measure --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//!         [--out <file.json>] [--spans <file.json>]
//! measure compare <dir-a> <dir-b>
//! ```
//!
//! One invocation runs one workload in its own process. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reruns the workload with
//! spans around every library call and reports the per-layer metrics. The
//! last line of standard output is the result as one JSON object. Ops
//! that fail are counted, never fatal: the exit code is non-zero only when
//! the harness itself cannot run. See README.md for the workloads and
//! metrics.

mod compare;
mod host;
mod inputs;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use serde::Value;
use stats::{median, nearest_rank, sorted, tail_percentile};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: measure --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] \
[--out <file.json>] [--spans <file.json>]\n       measure compare <dir-a> <dir-b>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)).map(|clean| {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            _ => Err(USAGE.to_string()),
        },
        _ => Args::parse(&args).and_then(|a| measure(&a)).map(|()| ExitCode::SUCCESS),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("measure: {e}");
        ExitCode::from(2)
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 25.0,
            trace: false,
            out: None,
            spans: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
            let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
            match flag.as_str() {
                "--workload" => a.workload = value.clone(),
                "--seed" => a.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    a.seconds = value.parse().map_err(|_| bad())?;
                    if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    a.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--out" => a.out = Some(value.clone()),
                "--spans" => a.spans = Some(value.clone()),
                _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
            }
        }
        if !workloads::NAMES.contains(&a.workload.as_str()) {
            return Err(format!("--workload must be one of {:?}\n{USAGE}", workloads::NAMES));
        }
        Ok(a)
    }
}

fn measure(args: &Args) -> Result<(), String> {
    let stamp = host::stamp(args.seed);
    println!(
        "measure {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &stamp {
        println!("  {k:<18} {v}");
    }
    let (metrics, out) = if args.trace { traced(args)? } else { untraced(args)? };
    let (attempted, failed) = (out.attempted, out.failed);
    for (reason, n) in &out.failures {
        println!("  failed ({n}): {reason}");
    }
    for line in metrics.lines() {
        println!("{line}");
    }
    let expected: &[&str] =
        if args.trace { &PER_LAYER.map(|(n, _)| n) } else { &END_TO_END.map(|m| m.name) };
    let absent: Vec<&str> =
        expected.iter().copied().filter(|n| !metrics.names().any(|m| m == *n)).collect();
    if !absent.is_empty() {
        println!("absent: {}", absent.join(" "));
    }
    println!("ops: {attempted} attempted, {failed} failed");
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics.to_json()),
    ]);
    if let Some(path) = &args.out {
        let doc = Value::Map(vec![
            ("workload".into(), Value::Str(args.workload.clone())),
            ("seed".into(), Value::U64(args.seed)),
            ("seconds".into(), Value::F64(args.seconds)),
            ("trace".into(), Value::Bool(args.trace)),
            ("host".into(), host::stamp_json(&stamp)),
            ("result".into(), result.clone()),
        ]);
        write_json(path, &doc)?;
    }
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(())
}

/// End-to-end metrics, from a run with tracing off.
fn untraced(args: &Args) -> Result<(Metrics, workloads::Outcome), String> {
    let out = workloads::run(&args.workload, args.seed, args.seconds, &mut Tracer::off())?;
    for note in &out.notes {
        println!("  {note}");
    }
    let mut m = Metrics::default();
    m.set("setup_s", median(&out.setup_s));
    let ops = sorted(&out.op_ms);
    let (p50, tail) = if ops.is_empty() {
        // Every op failed; `correct` is false and the numbers are moot.
        (0.0, 0.0)
    } else {
        let p = tail_percentile(ops.len());
        println!("  op_ms.tail is p{:.0} of {} op samples", 100.0 * p, ops.len());
        (nearest_rank(&ops, 0.5), nearest_rank(&ops, p))
    };
    m.set("op_ms.p50", p50);
    m.set("op_ms.tail", tail);
    m.set("throughput_per_s", out.throughput_per_s);
    m.set("peak_rss_mb", host::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?);
    Ok((m, out))
}

/// Per-layer metrics: half the time untraced, half traced, so the same
/// process also prices the tracing itself.
fn traced(args: &Args) -> Result<(Metrics, workloads::Outcome), String> {
    let half = args.seconds / 2.0;
    let plain = workloads::run(&args.workload, args.seed, half, &mut Tracer::off())?;
    let mut tr = Tracer::new(Instant::now());
    let mut out = workloads::run(&args.workload, args.seed, half, &mut tr)?;
    for note in &out.notes {
        println!("  {note}");
    }
    let p50 = |v: &[f64]| if v.is_empty() { f64::NAN } else { nearest_rank(&sorted(v), 0.5) };
    let overhead = (p50(&out.op_ms) - p50(&plain.op_ms)) / p50(&plain.op_ms);
    let m = layers::layer_metrics(&tr, &out.ops, overhead);
    if let Some(path) = &args.spans {
        write_json(path, &tr.to_json())?;
    }
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    for (reason, n) in plain.failures {
        *out.failures.entry(reason).or_default() += n;
    }
    Ok((m, out))
}

fn write_json(path: &str, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))
}
