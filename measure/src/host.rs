//! The host stamp every run carries, and the process's peak memory.

use serde::Value;
use std::fs;

/// What a number measured here depends on besides the code.
pub fn stamp(seed: u64) -> Vec<(&'static str, String)> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc", threads.to_string()),
        (
            "rayon_num_threads",
            std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        ("cpu_model", cpu_model().unwrap_or_else(|| "unknown".into())),
        ("llc", llc_size().unwrap_or_else(|| "unknown".into())),
        ("git_rev", git_rev().unwrap_or_else(|| "unknown".into())),
        ("seed", seed.to_string()),
    ]
}

pub fn stamp_json(stamp: &[(&'static str, String)]) -> Value {
    Value::Map(stamp.iter().map(|(k, v)| (k.to_string(), Value::Str(v.clone()))).collect())
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Size of the highest cache level sysfs reports for CPU 0.
fn llc_size() -> Option<String> {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    (0..8).rev().find_map(|i| {
        let size = fs::read_to_string(format!("{dir}/index{i}/size")).ok()?;
        let level = fs::read_to_string(format!("{dir}/index{i}/level")).ok()?;
        Some(format!("L{} {}", level.trim(), size.trim()))
    })
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `None` outside a clone.
fn git_rev() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        .filter(|rev| !rev.is_empty())
}
