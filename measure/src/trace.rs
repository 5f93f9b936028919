//! Spans recorded from the benchmark's own code, around each public call it
//! makes into the library. Spans live in memory and are written out once,
//! at exit; nothing here runs inside the library.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `name` is `<layer>.<call>`; the layer is the part before
/// the first dot and names one of the workspace's crates (or `bench` for
/// the harness itself).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The op (solve, request, step, …) this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder. Spans nest through a stack, so a span opened
/// inside another's closure becomes its child. A disabled recorder runs
/// the closures and records nothing: the untraced run uses one.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counts: BTreeMap<String, u64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; give every thread of
    /// one run the same epoch so their spans share a clock.
    pub fn new(epoch: Instant) -> Self {
        Self {
            enabled: true,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn off() -> Self {
        Self { enabled: false, ..Self::new(Instant::now()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self) -> Self {
        Self { enabled: self.enabled, ..Self::new(self.epoch) }
    }

    /// Tags the spans that follow with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &str, n: u64) {
        if self.enabled {
            *self.counts.entry(name.to_string()).or_default() += n;
        }
    }

    /// Records one observation of a value that is not a time (a size, a
    /// model prediction).
    pub fn sample(&mut self, name: &str, v: f64) {
        if self.enabled {
            self.samples.entry(name.to_string()).or_default().push(v);
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }

    /// Appends another thread's spans and counts, re-basing its parent
    /// links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }

    /// Self time of every span named `name`, in ns.
    pub fn self_ns_of(&self, name: &str) -> Vec<f64> {
        let own = self_times_ns(&self.spans);
        self.spans.iter().zip(own).filter(|(s, _)| s.name == name).map(|(_, t)| t as f64).collect()
    }

    /// Self time of each named span, keyed by op.
    pub fn self_ns_by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let own = self_times_ns(&self.spans);
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            if s.name == name {
                *out.entry(s.op).or_default() += t as f64;
            }
        }
        out
    }

    /// The spans as JSON: one object per span with its layer and self time.
    pub fn to_json(&self) -> Value {
        let own = self_times_ns(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                Value::Map(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("layer".into(), Value::Str(s.layer().into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    ("self_ns".into(), Value::U64(self_ns)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::U64(p as u64))),
                    ("op".into(), Value::U64(s.op)),
                ])
            })
            .collect();
        let counts =
            self.counts.iter().map(|(k, v)| (k.clone(), Value::U64(*v))).collect::<Vec<_>>();
        Value::Map(vec![("spans".into(), Value::Seq(spans)), ("counts".into(), Value::Map(counts))])
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = vec![
            span("bench.op", 0, 100, None),
            span("core.solve", 10, 60, Some(0)),
            span("sparse.spmv", 20, 30, Some(1)),
            // Overlaps the first child: only 60..70 is new coverage.
            span("sparse.blas", 50, 70, Some(0)),
            span("bench.check", 90, 120, Some(0)), // clipped at the parent's end
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50 - 10 - 10, 40, 10, 20, 30]);
    }

    #[test]
    fn nested_closures_record_parents_and_ops() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        t.span("bench.op", |t| {
            t.span("core.solve", |t| t.span("sparse.spmv", |_| ()));
            t.span("sparse.blas", |_| ());
        });
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert!(s.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(s[2].layer(), "sparse");
        let own = self_times_ns(s);
        assert_eq!(own[1], s[1].duration_ns() - s[2].duration_ns());
        assert!(own[0] <= s[0].duration_ns() - s[1].duration_ns());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("bench.op", |_| ());
        let mut b = Tracer::new(epoch);
        b.span("serve.wait", |t| t.span("bench.check", |_| ()));
        b.count("x", 2);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.counts()["x"], 2);
    }
}
