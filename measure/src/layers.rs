//! Per-layer attribution from outside the library. Each probe times one
//! public call of one layer on the operands an op just used; the traced
//! run turns the spans into the per-layer metrics of the catalog.

use crate::inputs::{mix, rhs};
use crate::metrics::{Metrics, EXEC_ROWS, KIND_LABELS, ORDERING_LABELS, PRECISION_ROWS};
use crate::stats::{median, nearest_rank, sorted};
use crate::trace::Tracer;
use crate::workloads::relres;
use spcg_core::{
    sparsify_by_magnitude, wavefront_aware_sparsify, OrderingKind, PrecisionPolicy, PrecondKind,
    SpcgOptions, SpcgPlan,
};
use spcg_gpusim::{plan_iteration_cost, DeviceSpec};
use spcg_precond::{
    ilu0, ilu_refresh, ExecutionStrategy, FsaiPreconditioner, IluFactors, MixedPrecisionIlu,
    Preconditioner,
};
use spcg_serve::{ServiceConfig, SolveRequest, SolveService};
use spcg_solver::PhaseTimings;
use spcg_sparse::blas::{axpy, dot, xpby};
use spcg_sparse::spmv::spmv;
use spcg_sparse::CsrMatrix;
use spcg_wavefront::{solve_lower_seq, solve_upper_seq, LevelSchedule, Triangle};
use std::hint::black_box;
use std::sync::Arc;

/// What one op told us about the solver layer.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub op: u64,
    pub iterations: usize,
    /// Time of the solve. Where the op is a bare solve call it is timed
    /// from outside; for session steps and served requests, whose call
    /// also refreshes or queues, it is the library's own solve-loop timer.
    pub solve_ns: f64,
    pub timings: PhaseTimings,
    pub relres: f64,
}

/// The scratch a preconditioner apply needs, allocated before timing.
struct ApplyBuf {
    scratch: Vec<f64>,
    staging: Vec<f32>,
}

impl ApplyBuf {
    fn new(p: &dyn Preconditioner<f64>) -> Self {
        Self { scratch: vec![0.0; p.scratch_len()], staging: vec![0.0; p.staging_len()] }
    }

    /// `z = M⁻¹ r` through the allocation-free entry PCG itself uses.
    fn apply(&mut self, p: &dyn Preconditioner<f64>, r: &[f64], z: &mut [f64]) {
        p.apply_staged(r, z, &mut self.scratch, &mut self.staging);
    }
}

/// The preconditioner a plan applies in its solve loop.
fn plan_precond(plan: &SpcgPlan<f64>) -> &dyn Preconditioner<f64> {
    if let Some(ainv) = plan.ainv() {
        ainv
    } else if let Some(m) = plan.mixed_factors() {
        m
    } else {
        plan.factors()
    }
}

/// Times one iteration's worth of each layer on an op's operands: SpMV on
/// the operator, the BLAS-1 set, the plan's preconditioner, and both
/// triangular sweeps (on the plan's ILU factors, or on ILU(0) of its
/// operator when the plan is level-free). The attribution stays outside
/// the op's own timing.
pub fn attribute(tr: &mut Tracer, plan: &SpcgPlan<f64>, b: &[f64], x: &[f64]) {
    let a = plan.operator();
    let fallback;
    let factors = match plan.ilu_factors() {
        Some(f) => f,
        None => match ilu0(a, ExecutionStrategy::Sequential) {
            Ok(f) => {
                fallback = f;
                &fallback
            }
            Err(_) => return,
        },
    };
    let n = plan.n();
    let (mut y, mut z) = (vec![0.0; n], vec![0.0; n]);
    let (mut r, mut p, mut xx) = (b.to_vec(), x.to_vec(), x.to_vec());
    let precond = plan_precond(plan);
    let mut buf = ApplyBuf::new(precond);
    // The first pass is not recorded: it takes the page faults of fresh
    // buffers and warms the caches, as the solve loop's earlier iterations
    // did for it.
    for t in [&mut Tracer::off(), tr] {
        t.span("bench.attrib", |t| {
            t.span("sparse.spmv", |_| spmv(a, x, &mut y));
            t.span("precond.apply", |_| buf.apply(precond, b, &mut z));
            t.span("sparse.blas", |_| {
                let rz = dot(&r, &z);
                let pw = dot(&p, &y);
                let alpha = rz / pw.max(f64::MIN_POSITIVE);
                axpy(alpha, &p, &mut xx);
                axpy(-alpha, &y, &mut r);
                xpby(&z, 0.5, &mut p);
            });
            t.span("wavefront.tri_lower", |_| solve_lower_seq(factors.l(), b, &mut y));
            t.span("wavefront.tri_upper", |_| solve_upper_seq(factors.u(), &y, &mut z));
        });
    }
    black_box((&xx, &r, &p, &z));
    let levels = factors.l_schedule().n_levels() + factors.u_schedule().n_levels();
    tr.sample("wavefront.levels", levels as f64);
    tr.sample("gpusim.pred_iter_us", plan_iteration_cost(&DeviceSpec::a100(), plan).total_us());
    // CSR SpMV moves values + column indices + row pointers + x + y once.
    let bytes = a.storage_bytes(8) + 2 * 8 * n;
    tr.sample("sparse.spmv_flop_per_byte", 2.0 * a.nnz() as f64 / bytes as f64);
}

/// Times the build-side calls on one operator under the workload's
/// options: the plan build itself, the `Auto` kind and ordering searches
/// (each against the fixed choice on the same matrix), Algorithm 2,
/// magnitude sparsification, ILU(0), its level schedules and numeric
/// refresh, FSAI construction, and one preconditioner apply per executor
/// and precision label.
pub fn probe_build(
    tr: &mut Tracer,
    op: u64,
    a: &CsrMatrix<f64>,
    opts: &SpcgOptions,
) -> Result<(), String> {
    let build = |o: SpcgOptions| SpcgPlan::build(a, o).map_err(|e| format!("plan build: {e}"));
    tr.set_op(op);
    tr.span("bench.build_probe", |tr| {
        let plan = tr.span("core.plan_build", |_| build(opts.clone()))?;
        tr.sample("core.plan_bytes", plan.approx_bytes() as f64);
        let ilu = tr.span("core.build.ilu", |_| {
            build(opts.clone().with_precond(PrecondKind::IluSparsified))
        })?;
        let auto = tr.span("core.build.kind_auto", |_| {
            build(opts.clone().with_precond(PrecondKind::Auto))
        })?;
        tr.count(&format!("core.kind_chosen.{}", auto.precond_kind().label()), 1);
        tr.span("core.build.natural", |_| {
            build(opts.clone().with_ordering(OrderingKind::Natural))
        })?;
        let ordered = tr.span("core.build.ordering_auto", |_| {
            build(opts.clone().with_ordering(OrderingKind::Auto))
        })?;
        let chosen = ordered.reorder().map_or(OrderingKind::Natural, |d| d.chosen);
        tr.count(&format!("core.ordering_chosen.{}", chosen.label()), 1);

        let operator = ilu.operator();
        let params = opts.sparsify.clone().unwrap_or_default();
        tr.span("core.algorithm2", |_| black_box(wavefront_aware_sparsify(operator, &params)));
        let ratio = ilu.decision().map_or(params.ratios[0], |d| d.chosen_ratio);
        tr.span("core.sparsify", |_| black_box(sparsify_by_magnitude(operator, ratio)));

        let m = ilu.factored_matrix();
        let f = tr
            .span("precond.ilu0", |_| ilu0(m, ExecutionStrategy::Sequential))
            .map_err(|e| format!("ilu0: {e}"))?;
        tr.span("wavefront.level_build", |_| {
            black_box(LevelSchedule::build(f.l(), Triangle::Lower));
            black_box(LevelSchedule::build(f.u(), Triangle::Upper));
        });
        tr.span("precond.refresh", |_| ilu_refresh(m, &f)).map_err(|e| format!("refresh: {e}"))?;
        tr.span("precond.fsai_build", |_| FsaiPreconditioner::new(operator))
            .map_err(|e| format!("fsai: {e}"))?;
        probe_rows(tr, &f, &rhs(m.n_rows(), mix(op, 5)));
        Ok(())
    })
}

/// One apply per executor and precision label. A label the library no
/// longer parses leaves its row absent.
fn probe_rows(tr: &mut Tracer, f: &IluFactors<f64>, r: &[f64]) {
    const REPEATS: usize = 3;
    let mut z = vec![0.0; r.len()];
    let mut buf = ApplyBuf::new(f);
    for (label, span) in EXEC_ROWS {
        let Some(exec) = ExecutionStrategy::parse(label) else { continue };
        let g = f.clone().with_exec(exec);
        buf.apply(&g, r, &mut z); // first call sizes the executor's buffers
        for _ in 0..REPEATS {
            tr.span(span, |_| buf.apply(&g, r, &mut z));
        }
    }
    for (label, span) in PRECISION_ROWS {
        if PrecisionPolicy::parse(label) != Some(PrecisionPolicy::MixedF32) {
            continue;
        }
        let g = MixedPrecisionIlu::from_full(f);
        let mut buf = ApplyBuf::new(&g);
        buf.apply(&g, r, &mut z);
        for _ in 0..REPEATS {
            tr.span(span, |_| buf.apply(&g, r, &mut z));
        }
    }
    black_box(&z);
}

/// Pushes `systems` through a fresh two-worker service whose cache already
/// holds their plans, `per_system` requests each from two closed-loop
/// clients, timing `submit` and `Ticket::wait`. Workloads that do not serve
/// use it to price the serve layer on their own systems. Returns
/// (attempted, failed).
pub fn probe_serve(
    tr: &mut Tracer,
    systems: &[Arc<CsrMatrix<f64>>],
    per_system: usize,
    seed: u64,
) -> (u64, u64) {
    const CLIENTS: usize = 2;
    let service = SolveService::new(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let mut failed = 0;
    for a in systems {
        failed += u64::from(service.plan_for(a).is_err());
    }
    let before = service.stats();
    let jobs: Vec<(u64, &Arc<CsrMatrix<f64>>)> = systems
        .iter()
        .flat_map(|s| std::iter::repeat_n(s, per_system))
        .enumerate()
        .map(|(i, s)| (i as u64, s))
        .collect();
    let results: Vec<(Tracer, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (service, jobs, mut t) = (&service, &jobs, tr.fork());
                scope.spawn(move || {
                    let (mut attempted, mut failed) = (0, 0);
                    for &(i, a) in jobs.iter().skip(c).step_by(CLIENTS) {
                        let b = rhs(a.n_rows(), mix(seed, 7_000 + i));
                        t.set_op(i);
                        attempted += 1;
                        let req = SolveRequest::new(Arc::clone(a), b.clone());
                        let ok = match t.span("serve.submit", |_| service.submit(req)) {
                            Ok(ticket) => match t.span("serve.wait", |_| ticket.wait()) {
                                Ok(out) => {
                                    out.result.converged()
                                        && relres(a, &out.result.x, &b)
                                            <= crate::workloads::RELRES_LIMIT
                                }
                                Err(_) => false,
                            },
                            Err(_) => false,
                        };
                        failed += u64::from(!ok);
                    }
                    (t, attempted, failed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("serve probe client panicked")).collect()
    });
    let mut attempted = systems.len() as u64;
    for (t, a, f) in results {
        tr.absorb(t);
        attempted += a;
        failed += f;
    }
    record_serve_stats(tr, &before, &service.stats());
    (attempted, failed)
}

/// Cache-hit share, batched share and shed count between two snapshots.
pub fn record_serve_stats(
    tr: &mut Tracer,
    before: &spcg_serve::ServiceStats,
    after: &spcg_serve::ServiceStats,
) {
    let hits = after.cache.hits - before.cache.hits;
    let lookups = hits + after.cache.misses - before.cache.misses;
    let completed = after.completed - before.completed;
    tr.sample("serve.cache_hit_frac", hits as f64 / lookups.max(1) as f64);
    tr.sample(
        "serve.batched_frac",
        (after.batched_rhs - before.batched_rhs) as f64 / completed.max(1) as f64,
    );
    tr.count("serve.shed", after.shed - before.shed);
}

/// Assembles the per-layer metrics from a traced run's spans, counts,
/// samples and op records. A metric with no observation is left out
/// (reported as absent), never invented.
pub fn layer_metrics(tr: &Tracer, ops: &[OpRecord], trace_overhead: f64) -> Metrics {
    let mut m = Metrics::default();
    let mut put = |name: &str, v: Option<f64>| {
        if let Some(v) = v.filter(|v| v.is_finite()) {
            m.set(name, v);
        }
    };
    let med = |v: Vec<f64>| (!v.is_empty()).then(|| median(&v));
    let us = |span: &str| med(tr.self_ns_of(span)).map(|ns| ns / 1e3);
    let ms = |span: &str| med(tr.self_ns_of(span)).map(|ns| ns / 1e6);
    let sample = |name: &str| med(tr.samples(name).to_vec());
    let count = |name: &str| Some(tr.counts().get(name).copied().unwrap_or(0) as f64);
    // Paired difference of two builds of the same matrix, per probe.
    let delta_ms = |with: &str, without: &str| {
        let base = tr.self_ns_by_op(without);
        let d: Vec<f64> = tr
            .self_ns_by_op(with)
            .into_iter()
            .filter_map(|(op, ns)| base.get(&op).map(|b| (ns - b) / 1e6))
            .collect();
        med(d)
    };

    put("sparse.spmv_us", us("sparse.spmv"));
    put("sparse.blas_us", us("sparse.blas"));
    put("sparse.spmv_flop_per_byte", sample("sparse.spmv_flop_per_byte"));
    put("wavefront.tri_lower_us", us("wavefront.tri_lower"));
    put("wavefront.tri_upper_us", us("wavefront.tri_upper"));
    put("wavefront.levels", sample("wavefront.levels"));
    put("wavefront.level_build_ms", ms("wavefront.level_build"));
    put("precond.apply_us", us("precond.apply"));
    for (_, row) in EXEC_ROWS.iter().chain(&PRECISION_ROWS) {
        put(row, us(row));
    }
    put("precond.ilu0_ms", ms("precond.ilu0"));
    put("precond.fsai_build_ms", ms("precond.fsai_build"));
    put("precond.refresh_ms", ms("precond.refresh"));
    put("core.sparsify_ms", ms("core.sparsify"));
    put("core.algorithm2_ms", ms("core.algorithm2"));
    put("core.plan_build_ms", ms("core.plan_build"));
    put("core.kind_search_ms", delta_ms("core.build.kind_auto", "core.build.ilu"));
    put("core.reorder_ms", delta_ms("core.build.ordering_auto", "core.build.natural"));
    for label in KIND_LABELS {
        let name = format!("core.kind_chosen.{label}");
        put(&name, count(&name));
    }
    for label in ORDERING_LABELS {
        let name = format!("core.ordering_chosen.{label}");
        put(&name, count(&name));
    }
    put("core.plan_bytes", sample("core.plan_bytes"));

    let of = |f: &dyn Fn(&OpRecord) -> f64| med(ops.iter().map(f).collect());
    let share = |f: fn(&PhaseTimings) -> std::time::Duration| {
        of(&|o| f(&o.timings).as_secs_f64() / o.timings.total.as_secs_f64().max(1e-12))
    };
    let iter_us = of(&|o| o.solve_ns / 1e3 / o.iterations.max(1) as f64);
    put("solver.iterations", of(&|o| o.iterations as f64));
    put("solver.iter_us", iter_us);
    put("solver.relres_max", ops.iter().map(|o| o.relres).reduce(f64::max));
    put("solver.phase_share.spmv", share(|t| t.spmv));
    put("solver.phase_share.precond", share(|t| t.precond));
    put("solver.phase_share.blas", share(|t| t.blas));
    // Whatever iterations × (one SpMV + one apply + one BLAS set) does not
    // explain is the solve loop's own overhead.
    let per_call: Vec<_> =
        ["sparse.spmv", "precond.apply", "sparse.blas"].map(|s| tr.self_ns_by_op(s)).into();
    let overhead: Vec<f64> = ops
        .iter()
        .filter_map(|o| {
            let calls: Option<f64> = per_call.iter().map(|m| m.get(&o.op).copied()).sum();
            calls.map(|c| (o.solve_ns - o.iterations as f64 * c) / 1e3)
        })
        .collect();
    put("solver.loop_overhead_us", med(overhead));
    let pred = sample("gpusim.pred_iter_us");
    put("gpusim.pred_iter_us", pred);
    put("gpusim.meas_over_pred", iter_us.zip(pred).map(|(m, p)| m / p));

    let submit = sorted(&tr.self_ns_of("serve.submit"));
    let wait = sorted(&tr.self_ns_of("serve.wait"));
    put("serve.submit_us.p50", (!submit.is_empty()).then(|| nearest_rank(&submit, 0.5) / 1e3));
    put("serve.wait_ms.p50", (!wait.is_empty()).then(|| nearest_rank(&wait, 0.5) / 1e6));
    put("serve.wait_ms.p99", (!wait.is_empty()).then(|| nearest_rank(&wait, 0.99) / 1e6));
    put("serve.cache_hit_frac", sample("serve.cache_hit_frac"));
    put("serve.batched_frac", sample("serve.batched_frac"));
    put("serve.shed", count("serve.shed"));
    put("bench.trace_overhead_frac", Some(trace_overhead));
    m
}
