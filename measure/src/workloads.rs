//! The four workloads. Each runs its set-up, then ops until `seconds` have
//! passed, checking every answer independently. With an enabled tracer it
//! also records spans around each library call and, after the op, runs
//! the per-layer probes of `layers` on the op's own operands.

use crate::inputs::{self, mix, rhs, Drift, ServeMix};
use crate::layers::{self, OpRecord};
use crate::stats::{nearest_rank, sorted};
use crate::trace::Tracer;
use spcg_core::{OrderingKind, PrecondKind, SpcgOptions, SpcgPlan};
use spcg_serve::{Priority, RequestPolicy, ServiceConfig, SolveRequest, SolveService, Ticket};
use spcg_solver::{PhaseTimings, StopReason};
use spcg_sparse::spmv::spmv;
use spcg_sparse::CsrMatrix;
use spcg_suite::collection::standard_collection;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["amortized-hard", "fresh-auto", "drift-session", "serve-mixed"];

/// An answer passes when `‖b − A x‖₂ / ‖b‖₂` recomputed here is at most
/// this (the solver's own tolerance is 1e-12).
pub const RELRES_LIMIT: f64 = 1e-8;

/// Relative residual of `x`, recomputed with the library's plain SpMV.
pub fn relres(a: &CsrMatrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    if x.len() != b.len() || a.n_rows() != b.len() {
        return f64::INFINITY;
    }
    let mut ax = vec![0.0; b.len()];
    spmv(a, x, &mut ax);
    let r: f64 = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai) * (bi - ai)).sum();
    let nb: f64 = b.iter().map(|v| v * v).sum();
    (r / nb.max(f64::MIN_POSITIVE)).sqrt()
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Individual set-up times, s.
    pub setup_s: Vec<f64>,
    /// Op latencies behind `op_ms.*`, ms.
    pub op_ms: Vec<f64>,
    pub throughput_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Solver facts of the ops the trace attributes.
    pub ops: Vec<OpRecord>,
    /// Diagnostics printed with the run (not metrics).
    pub notes: Vec<String>,
    /// Failed ops by reason.
    pub failures: BTreeMap<String, u64>,
}

impl Outcome {
    /// Counts one op: `Ok` when it returned, converged and passed the
    /// residual check, else the reason it failed.
    fn tally(&mut self, check: Check) {
        self.attempted += 1;
        match check {
            Ok(rec) => self.ops.push(rec),
            Err(reason) => {
                self.failed += 1;
                *self.failures.entry(reason).or_default() += 1;
            }
        }
    }
}

/// An op that returned, converged and passed the residual check, or the
/// reason it did not.
type Check = Result<OpRecord, String>;

/// Checks an answer and packages it as an op record.
#[allow(clippy::too_many_arguments)]
fn checked(
    op: u64,
    a: &CsrMatrix<f64>,
    b: &[f64],
    x: &[f64],
    stop: StopReason,
    iterations: usize,
    solve_ns: f64,
    timings: PhaseTimings,
) -> Check {
    if stop != StopReason::Converged {
        return Err(format!("not converged: {stop:?}"));
    }
    let relres = relres(a, x, b);
    if relres > RELRES_LIMIT {
        return Err(format!("residual above {RELRES_LIMIT:e}"));
    }
    Ok(OpRecord { op, iterations, solve_ns, timings, relres })
}

pub fn run(name: &str, seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "amortized-hard" => amortized_hard(seed, seconds, tr),
        "fresh-auto" => fresh_auto(seed, seconds, tr),
        "drift-session" => drift_session(seed, seconds, tr),
        "serve-mixed" => serve_mixed(seed, seconds, tr),
        _ => Err(format!("unknown workload {name:?}; expected one of {NAMES:?}")),
    }
}

/// Probes a traced run makes on build-side calls, per representative
/// operator.
const BUILD_PROBES: u64 = 3;

/// Times one set-up sample. Workloads take these across the run rather
/// than in one burst, so a slow spell of the host moves only some of them.
fn timed<R>(setup_s: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    setup_s.push(t.elapsed().as_secs_f64());
    out
}

/// One plan, many right-hand sides: the solve loop, where triangular
/// sweeps dominate. Set-up is the median plan build, one timed before the
/// solves and one after every `BUILD_EVERY`-th solve.
fn amortized_hard(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Outcome, String> {
    const BUILD_EVERY: u64 = 6;
    const WARMUP: u64 = 3;
    let a = inputs::amortized_operator();
    let n = a.n_rows();
    let opts = SpcgOptions::default();
    let build = || SpcgPlan::build(&a, opts.clone()).map_err(|e| format!("plan build: {e}"));
    let mut out = Outcome::default();
    let plan = timed(&mut out.setup_s, build)?;
    let mut ws = plan.make_workspace();
    for k in 0..WARMUP {
        plan.solve_with_workspace(&rhs(n, mix(seed, u64::MAX - k)), &mut ws)
            .map_err(|e| format!("warm-up solve: {e}"))?;
    }
    let start = Instant::now();
    let mut op = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let b = rhs(n, mix(seed, op));
        tr.set_op(op);
        let t = Instant::now();
        let res = tr.span("core.solve", |_| plan.solve_with_workspace(&b, &mut ws));
        let ns = t.elapsed().as_nanos() as f64;
        out.op_ms.push(ns / 1e6);
        let rec = res
            .map_err(|e| e.to_string())
            .and_then(|r| checked(op, &a, &b, &r.x, r.stop, r.iterations, ns, r.timings));
        if tr.enabled() {
            layers::attribute(tr, &plan, &b, ws.solution());
        }
        out.tally(rec);
        op += 1;
        if op % BUILD_EVERY == 0 {
            timed(&mut out.setup_s, build)?;
        }
    }
    out.throughput_per_s = per_second(&out.op_ms);
    if tr.enabled() {
        for k in 0..BUILD_PROBES {
            layers::probe_build(tr, u64::MAX - k, &a, &opts)?;
        }
        let (att, failed) = layers::probe_serve(tr, &[Arc::new(a)], 4, seed);
        out.attempted += att;
        out.failed += failed;
    }
    Ok(out)
}

/// Ops per second of op time.
fn per_second(op_ms: &[f64]) -> f64 {
    op_ms.len() as f64 / (op_ms.iter().sum::<f64>() / 1e3).max(1e-12)
}

/// Every suite matrix in turn: `Auto` plan build, one solve, drop. The op
/// is the time to solution; set-up is its build part. Passes repeat the
/// collection with identical inputs and each system reports its best pass,
/// so a slow spell of the host hits a system only if it hits every pass;
/// the mix is the whole collection whatever the pass count (one full pass
/// always runs).
fn fresh_auto(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Outcome, String> {
    /// Every `PROBE_EVERY`-th recipe also gets the build-side probes.
    const PROBE_EVERY: usize = 10;
    let specs = standard_collection();
    let opts =
        SpcgOptions::default().with_precond(PrecondKind::Auto).with_ordering(OrderingKind::Auto);
    let mut op_ms = vec![Vec::new(); specs.len()];
    let mut build_s = vec![Vec::new(); specs.len()];
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut op = 0;
    'passes: for pass in 0.. {
        for (k, spec) in specs.iter().enumerate() {
            if pass > 0 && start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let a = spec.build();
            let b = inputs::fresh_rhs(spec, a.n_rows(), seed);
            tr.set_op(op);
            let t0 = Instant::now();
            let plan = tr.span("core.plan_build", |_| SpcgPlan::build(&a, opts.clone()));
            let t1 = Instant::now();
            let res = match &plan {
                Ok(p) => tr.span("core.solve", |_| p.solve(&b)).map_err(|e| e.to_string()),
                Err(e) => Err(format!("plan build: {e}")),
            };
            let t2 = Instant::now();
            build_s[k].push((t1 - t0).as_secs_f64());
            op_ms[k].push((t2 - t0).as_secs_f64() * 1e3);
            let rec = res.and_then(|r| {
                let ns = (t2 - t1).as_nanos() as f64;
                checked(op, &a, &b, &r.x, r.stop, r.iterations, ns, r.timings)
            });
            if let (true, Ok(plan)) = (tr.enabled(), &plan) {
                tr.count(&format!("core.kind_chosen.{}", plan.precond_kind().label()), 1);
                let ordering = plan.reorder().map_or(OrderingKind::Natural, |d| d.chosen);
                tr.count(&format!("core.ordering_chosen.{}", ordering.label()), 1);
                // The solve's iterate is not kept; any vector of the right
                // length prices the same SpMV.
                layers::attribute(tr, plan, &b, &b);
            }
            out.tally(rec);
            op += 1;
        }
    }
    out.op_ms = best_of(&op_ms);
    out.setup_s = best_of(&build_s);
    out.throughput_per_s = per_second(&out.op_ms);
    out.notes.push(format!("{} systems, {op} builds+solves", out.op_ms.len()));
    if tr.enabled() {
        let mut probed = Vec::new();
        for (k, spec) in specs.iter().enumerate().step_by(PROBE_EVERY) {
            let a = spec.build();
            layers::probe_build(tr, u64::MAX - k as u64, &a, &opts)?;
            probed.push(Arc::new(a));
        }
        let (att, failed) = layers::probe_serve(tr, &probed, 2, seed);
        out.attempted += att;
        out.failed += failed;
    }
    Ok(out)
}

/// A served session over a drifting operator: each step refreshes the
/// factors numerically, then warm-starts PCG from the last solution. The
/// same drift path is replayed in fresh sessions and each step reports its
/// best replay, so a slow spell of the host must hit a step in every replay
/// to show. Set-up is the median session open, timed in a few fresh
/// services before, between and after the replays.
fn drift_session(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Outcome, String> {
    const OPENS: usize = 3;
    const REPLAYS: usize = 2;
    let new_service =
        || SolveService::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let base = Drift::new(seed).base().clone();
    let b = rhs(base.n_rows(), mix(seed, 3));
    let mut out = Outcome::default();
    let sample_opens = |setup_s: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..OPENS {
            // A fresh service per open, so every open builds its plan.
            let service = new_service();
            timed(setup_s, || service.open_session(&base))
                .map_err(|e| format!("open session: {e}"))?;
        }
        Ok(())
    };
    // The first replay runs for its share of the time; the others replay
    // exactly as many steps.
    let mut step_ms: Vec<Vec<f64>> = Vec::new();
    let mut a = base.clone();
    let mut op = 0;
    for replay in 0..REPLAYS {
        sample_opens(&mut out.setup_s)?;
        let service = new_service();
        let mut session = service.open_session(&base).map_err(|e| format!("open session: {e}"))?;
        let mut drift = Drift::new(seed);
        let start = Instant::now();
        for k in 0.. {
            let done = match replay {
                0 => start.elapsed().as_secs_f64() >= seconds / REPLAYS as f64,
                _ => k == step_ms.len(),
            };
            if done {
                break;
            }
            a = drift.step();
            tr.set_op(op);
            let t = Instant::now();
            let res = tr.span("serve.session_step", |_| session.step(&a, &b));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match step_ms.get_mut(k) {
                Some(v) => v.push(ms),
                None => step_ms.push(vec![ms]),
            }
            let rec = res.map_err(|e| e.to_string()).and_then(|s| {
                let ns = s.timings.total.as_nanos() as f64;
                checked(op, &a, &b, session.solution(), s.stop, s.iterations, ns, s.timings)
            });
            if tr.enabled() {
                let x = session.solution().to_vec();
                layers::attribute(tr, session.plan(), &b, &x);
            }
            out.tally(rec);
            op += 1;
        }
        if replay + 1 == REPLAYS && tr.enabled() {
            let opts = session.plan().options().clone();
            for k in 0..BUILD_PROBES {
                layers::probe_build(tr, u64::MAX - k, &a, &opts)?;
            }
        }
    }
    sample_opens(&mut out.setup_s)?;
    out.op_ms = best_of(&step_ms);
    out.throughput_per_s = per_second(&out.op_ms);
    if tr.enabled() {
        let (att, failed) = layers::probe_serve(tr, &[Arc::new(a)], 4, seed);
        out.attempted += att;
        out.failed += failed;
    }
    Ok(out)
}

/// Each unit's fastest repeat.
fn best_of(repeats: &[Vec<f64>]) -> Vec<f64> {
    repeats
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| r.iter().copied().fold(f64::MAX, f64::min))
        .collect()
}

/// Hot systems the service keeps plans for.
const HOT: usize = 12;
/// Open-loop offered rate, about a fifth of what the closed loop sustains
/// on a two-core host (1.3–1.6k req/s). At 600 and 900 req/s a slow spell
/// of the host turned queueing on and off, and p99 spread 12–49% between
/// runs.
const RATE_PER_S: f64 = 300.0;
/// Share of the measured time spent in the open-loop phase; the closed
/// loop takes the rest.
const OPEN_SHARE: f64 = 0.6;
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Threads redeeming open-loop tickets. More than one, so a slow request
/// does not hold up timing the ones that finished behind it.
const COLLECTORS: usize = 4;
const DEADLINE: Duration = Duration::from_millis(250);

/// Served traffic: an open-loop Poisson phase at a fixed rate (latency
/// from each request's due time) and a closed-loop phase of two clients
/// (throughput). A fixed 5% of requests hit never-seen systems, so the
/// tail prices plan builds under load. Set-up is the median hot-plan
/// build while warming a cache: the service's own before the traffic, and
/// a fresh service's between the phases and after them.
fn serve_mixed(seed: u64, seconds: f64, tr: &mut Tracer) -> Result<Outcome, String> {
    let mix_ = ServeMix::new(HOT, seed);
    let new_service =
        || SolveService::new(ServiceConfig { workers: WORKERS, ..ServiceConfig::default() });
    let warm = |service: &SolveService, setup_s: &mut Vec<f64>| -> Result<(), String> {
        for h in &mix_.hot {
            timed(setup_s, || service.plan_for(h)).map_err(|e| format!("hot plan build: {e}"))?;
        }
        Ok(())
    };
    let service = new_service();
    let mut out = Outcome::default();
    warm(&service, &mut out.setup_s)?;
    for (i, h) in mix_.hot.iter().enumerate() {
        service
            .solve(h, &rhs(h.n_rows(), mix(seed, 50 + i as u64)))
            .map_err(|e| format!("warm-up solve: {e}"))?;
    }
    let policy = RequestPolicy::default().with_deadline(DEADLINE).with_priority(Priority::Normal);
    let before = service.stats();

    // Open loop.
    let schedule = inputs::poisson_schedule(RATE_PER_S, seconds * OPEN_SHARE, mix(seed, 9));
    let (tx, rx) = mpsc::channel::<(u64, Instant, Ticket<f64>, inputs::Request)>();
    let rx = Mutex::new(rx);
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let collected = std::thread::scope(|s| {
        let collectors: Vec<_> = (0..COLLECTORS)
            .map(|_| {
                let (rx, mut t) = (&rx, tr.fork());
                s.spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let msg = rx.lock().expect("collector lock").recv();
                        let Ok((i, due, ticket, req)) = msg else { break };
                        t.set_op(i);
                        let res = t.span("serve.wait", |_| ticket.wait());
                        let latency_ms = due.elapsed().as_secs_f64() * 1e3;
                        got.push((latency_ms, req.cold, served(i, &req, res)));
                    }
                    (t, got)
                })
            })
            .collect();
        let start = Instant::now();
        for (i, offset) in schedule.iter().enumerate() {
            let i = i as u64;
            let req = mix_.request(i);
            let due = start + Duration::from_secs_f64(*offset);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            tr.set_op(i);
            let sent = SolveRequest::new(Arc::clone(&req.a), req.b.clone()).policy(policy);
            match tr.span("serve.submit", |_| service.submit(sent)) {
                Ok(ticket) => tx.send((i, due, ticket, req)).expect("collectors alive"),
                Err(e) => out.tally(Err(e.to_string())),
            }
        }
        drop(tx);
        collectors.into_iter().map(|h| h.join().expect("collector panicked")).collect::<Vec<_>>()
    });
    let mut cold_ms = Vec::new();
    for (t, got) in collected {
        tr.absorb(t);
        for (latency_ms, cold, rec) in got {
            if rec.is_ok() {
                out.op_ms.push(latency_ms);
                if cold {
                    cold_ms.push(latency_ms);
                }
            }
            out.tally(rec);
        }
    }
    let open_requests = schedule.len() as u64;
    let p = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { nearest_rank(&sorted(v), q) };
    out.notes.push(format!(
        "open loop: {open_requests} requests at {RATE_PER_S} req/s; generator lag p99 {:.3} ms; \
         {} cold requests, latency p50 {:.3} ms",
        p(&lag_ms, 0.99),
        cold_ms.len(),
        p(&cold_ms, 0.5)
    ));

    warm(&new_service(), &mut out.setup_s)?;

    // Closed loop.
    let next = AtomicU64::new(open_requests);
    let closed_s = seconds * (1.0 - OPEN_SHARE);
    let start = Instant::now();
    let clients: Vec<(Tracer, Vec<Check>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (service, next, mix_, mut t) = (&service, &next, &mix_, tr.fork());
                s.spawn(move || {
                    let mut got = Vec::new();
                    while start.elapsed().as_secs_f64() < closed_s {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let req = mix_.request(i);
                        t.set_op(i);
                        let sent =
                            SolveRequest::new(Arc::clone(&req.a), req.b.clone()).policy(policy);
                        let res = t
                            .span("serve.submit", |_| service.submit(sent))
                            .and_then(|ticket| t.span("serve.wait", |_| ticket.wait()));
                        got.push(served(i, &req, res));
                    }
                    (t, got)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut completed = 0;
    for (t, got) in clients {
        tr.absorb(t);
        for rec in got {
            completed += u64::from(rec.is_ok());
            out.tally(rec);
        }
    }
    out.throughput_per_s = completed as f64 / elapsed;
    let after = service.stats();
    out.notes.push(format!(
        "admission: {} offered, {} admitted, {} downgraded, {} shed; cache {} hits, {} misses",
        after.offered - before.offered,
        after.admitted - before.admitted,
        after.downgraded - before.downgraded,
        after.shed - before.shed,
        after.cache.hits - before.cache.hits,
        after.cache.misses - before.cache.misses,
    ));
    warm(&new_service(), &mut out.setup_s)?;
    if tr.enabled() {
        layers::record_serve_stats(tr, &before, &after);
        // Solver and layer attribution on the hot systems, solved directly.
        let opts = service.config().options.clone();
        for (k, h) in mix_.hot.iter().enumerate() {
            let op = u64::MAX - k as u64;
            let plan = SpcgPlan::build(h, opts.clone()).map_err(|e| format!("plan build: {e}"))?;
            let b = rhs(h.n_rows(), mix(seed, op));
            tr.set_op(op);
            let t = Instant::now();
            let res = tr.span("core.solve", |_| plan.solve(&b));
            let ns = t.elapsed().as_nanos() as f64;
            let rec = res.map_err(|e| e.to_string()).and_then(|r| {
                layers::attribute(tr, &plan, &b, &r.x);
                checked(op, h, &b, &r.x, r.stop, r.iterations, ns, r.timings)
            });
            out.tally(rec);
            layers::probe_build(tr, op, h, &opts)?;
        }
    }
    Ok(out)
}

/// Checks a served reply.
fn served(
    op: u64,
    req: &inputs::Request,
    reply: Result<spcg_serve::ServeOutcome<f64>, spcg_serve::ServeError>,
) -> Check {
    let r = reply.map_err(|e| e.to_string())?.result;
    let ns = r.timings.total.as_nanos() as f64;
    checked(op, &req.a, &req.b, &r.x, r.stop, r.iterations, ns, r.timings)
}
