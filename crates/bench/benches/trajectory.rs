//! Bench trajectory — a small, fixed, deterministic recipe set that pins
//! the repo's headline numerics PR over PR.
//!
//! Unlike the figure benches (which sweep the full 107-matrix collection
//! and write into `target/spcg-results/`), this target runs in seconds and
//! writes `BENCH_10.json` **at the repo root as a tracked artifact**: per
//! variant, the real iteration counts and the simulated A100 costs for
//! each fixed system, an ordering study comparing the natural and
//! `auto`-reordered plan at the *same* sparsify ratio, a precision
//! study comparing the full-f64 plan against the `MixedF32` tier (real
//! iterations, refinement restarts, and the simulated preconditioner-apply
//! bytes the demotion saves), a sync study comparing the barrier-per-level
//! and counter-release dependency-block executors on the same factors
//! (synchronizations per iteration and simulated sweep time), a
//! preconditioner study comparing the ILU(0)-sparsified plan against the
//! level-free FSAI plan (iterations, priced per-iteration cost, measured
//! syncs per apply) and recording which kind the `Auto` search commits to
//! and at what priced total, a serve
//! study replaying a 2×-overload
//! Poisson arrival schedule through the admission controller in virtual
//! time (per-priority latency quantiles, shed/downgrade rates), and a
//! sequence study pricing a value-only plan refresh against a full
//! rebuild and measuring the iterations a warm start saves over a seeded
//! drifting sequence. Committing the JSON turns the bench into a
//! trajectory — `git log -p BENCH_10.json` shows exactly when and how the
//! numbers moved. Only deterministic fields are serialized (iteration
//! counts, simulated µs/bytes, chosen ratios, level counts, virtual-time
//! latencies); wall-clock
//! timings are excluded so re-running on any machine reproduces the file
//! byte for byte.
//!
//! `scripts/fill_experiments.py` consumes this JSON to refresh the
//! trajectory tables in EXPERIMENTS.md, and
//! `scripts/check_bench_regression.py` gates CI on it: any regression in
//! per-iteration cost or iteration count — the mixed tier's apply-bytes
//! win dropping below its 1.5× floor, the dependency-block executor's
//! sync reduction hitting zero on a multi-level fixture, a nonzero FSAI
//! sync count, an `Auto` kind pick pricing worse than always-ILU, or the
//! level-free crossover disappearing from every fixture — against the
//! committed file fails the build.

use serde::Serialize;
use spcg_bench::stats::gmean;
use spcg_bench::{bench_solver_config, compare, ComparisonRow, Variant};
use spcg_core::{
    ExecutionStrategy, IluFill, OrderingKind, PrecisionPolicy, PrecondKind, SparsifyParams,
    SpcgOptions, SpcgPlan,
};
use spcg_gpusim::{
    dot_cost, elementwise_cost, plan_iteration_cost, plan_rebuild_cost_us, plan_refresh_cost_us,
    spmv_cost, trisolve_block_cost_of, trisolve_cost_of, DeviceSpec,
};
use spcg_probe::{Counter, HistogramProbe, RecordingProbe, Span};
use spcg_serve::{
    decide, Admission, LoadSnapshot, Priority, RequestPolicy, SolveTier, TierCost, TierCosts,
};
use spcg_solver::SolveCtx;
use spcg_sparse::Rng;
use spcg_suite::{Ordering, Recipe};
use std::time::Duration;

/// The fixed systems. Small enough to run in seconds, varied enough to
/// notice a regression in any of the three regimes the paper cares about:
/// regular grids, wavefront-rich layered media, and irregular patterns.
fn fixtures() -> Vec<(&'static str, Recipe, f64, Ordering)> {
    vec![
        ("poisson2d-32", Recipe::Poisson2D { nx: 32, ny: 32 }, 5.0, Ordering::Natural),
        (
            "layered2d-28",
            Recipe::Layered2D { nx: 28, ny: 28, period: 7, weak: 0.02 },
            1.0,
            Ordering::Natural,
        ),
        ("aniso-30", Recipe::Anisotropic { nx: 30, ny: 30, eps: 0.05 }, 4.0, Ordering::Natural),
        (
            "banded-800",
            Recipe::Banded { n: 800, band: 12, density: 0.5, dominance: 1.8 },
            3.0,
            Ordering::Natural,
        ),
        (
            "graphlap-700",
            Recipe::GraphLaplacian { n: 700, degree: 6, shift: 0.6 },
            2.0,
            Ordering::Scrambled,
        ),
    ]
}

/// One variant's deterministic outcome on one system.
#[derive(Serialize)]
struct VariantPoint {
    variant: String,
    iterations: usize,
    converged: bool,
    per_iteration_us: f64,
    end_to_end_us: f64,
    factorization_us: f64,
    chosen_ratio: Option<f64>,
    wavefronts_factors: usize,
    factor_nnz: usize,
}

impl VariantPoint {
    fn of(e: &spcg_bench::EvalResult) -> Self {
        VariantPoint {
            variant: e.variant.clone(),
            iterations: e.iterations,
            converged: e.converged,
            per_iteration_us: round3(e.per_iteration_us),
            end_to_end_us: round3(e.end_to_end_us),
            factorization_us: round3(e.factorization_us),
            chosen_ratio: e.chosen_ratio,
            wavefronts_factors: e.wavefronts_factors,
            factor_nnz: e.factor_nnz,
        }
    }
}

/// Natural vs `auto`-reordered plan at the *same* sparsify ratio: the
/// ordering is the only lever that moves between the two columns, so the
/// level counts isolate exactly what reordering buys.
#[derive(Serialize)]
struct OrderingPoint {
    /// Ordering the joint search committed to (`natural`/`rcm`/`coloring`).
    chosen: String,
    /// L+U factor levels of the natural-ordering plan.
    levels_natural: usize,
    /// L+U factor levels of the `auto` plan.
    levels_auto: usize,
    /// Percent reduction in factor levels, natural → auto.
    level_reduction_percent: f64,
    /// Simulated per-iteration cost of the natural plan, µs.
    per_iteration_us_natural: f64,
    /// Simulated per-iteration cost of the `auto` plan, µs.
    per_iteration_us_auto: f64,
    /// Real iteration count of the `auto` plan (natural's is `spcg`'s).
    iterations_auto: usize,
}

/// Full-f64 plan vs the `MixedF32` tier on the *same* default-options
/// pipeline: precision is the only lever that moves, so the iteration
/// delta and the apply-bytes ratio isolate exactly what demotion costs
/// and buys.
#[derive(Serialize)]
struct PrecisionPoint {
    /// Real iteration count of the full-precision plan.
    iterations_full: usize,
    /// Real iteration count of the mixed plan (refinement included).
    iterations_mixed: usize,
    /// Iterative-refinement restarts the mixed solve needed (0 = the
    /// narrow applies converged in one inner run).
    refine_restarts: usize,
    /// Simulated preconditioner-apply (L+U trisolve) bytes per iteration,
    /// full-width factors.
    apply_bytes_full: f64,
    /// Same traffic with f32-stored factors and staged vectors.
    apply_bytes_mixed: f64,
    /// `apply_bytes_full / apply_bytes_mixed` — the bandwidth win the
    /// demotion buys on the memory-bound triangular sweeps. CI gates this
    /// at a 1.5× floor per fixture.
    apply_bytes_ratio: f64,
    /// Simulated per-iteration cost of the full plan, µs.
    per_iteration_us_full: f64,
    /// Simulated per-iteration cost of the mixed plan, µs.
    per_iteration_us_mixed: f64,
}

/// ILU(0)-sparsified vs level-free FSAI on the same system, plus the kind
/// `Auto`'s joint search commits to. The ILU sync column is the
/// level-barrier executor's per-apply synchronization count (L + U
/// wavefronts — the structural price of the sweeps on a GPU); the FSAI
/// column is *measured* by running the solve under a recording probe and
/// totalling [`Counter::Syncs`] — the approximate-inverse apply is pure
/// SpMV, nothing in the loop emits one, and CI gates on that zero staying
/// zero. The Auto columns record the search's own end-to-end pricing
/// (setup + estimated iterations × per-iteration), whose argmin over
/// admissible candidates makes "Auto never prices worse than always-ILU"
/// a property CI can assert per fixture.
#[derive(Serialize)]
struct PrecondPoint {
    /// Real iteration count of the default ILU(0)-sparsified plan.
    iterations_ilu: usize,
    /// Real iteration count of the FSAI plan on the same system.
    iterations_fsai: usize,
    /// Simulated per-iteration cost of the ILU plan, µs.
    per_iteration_us_ilu: f64,
    /// Simulated per-iteration cost of the FSAI plan, µs.
    per_iteration_us_fsai: f64,
    /// Level-barrier synchronizations per preconditioner apply, ILU plan.
    syncs_per_iter_ilu: usize,
    /// Measured synchronizations across the whole probed FSAI solve —
    /// gated at zero.
    syncs_per_iter_fsai: usize,
    /// Kind the `Auto` search chose (`ilu`/`fsai`/`spai`/`jacobi`).
    auto_chose: String,
    /// The search's priced end-to-end total for its winner, µs.
    auto_total_us: f64,
    /// Same pricing for the always-admissible ILU candidate, µs.
    ilu_total_us: f64,
}

/// Solves the fixture under the default ILU plan and the FSAI plan with a
/// recording probe (for the measured sync counts), then reruns the build
/// with `PrecondKind::Auto` to capture what the joint kind search picks
/// and how it priced the field.
fn precond_study(
    a: &spcg_sparse::CsrMatrix<f64>,
    b: &[f64],
    device: &DeviceSpec,
    solver: &spcg_solver::SolverConfig,
) -> PrecondPoint {
    let base =
        SpcgOptions { ilu_fill: IluFill::Ilu0, solver: solver.clone(), ..Default::default() };
    let measured = |opts: &SpcgOptions| {
        let plan = SpcgPlan::build(a, opts).expect("precond-study plan builds");
        let mut probe = RecordingProbe::new();
        let mut ws = plan.make_workspace();
        let r = plan
            .solve_in_place(b, &mut ws, SolveCtx::probed(&mut probe))
            .expect("precond-study fixture must solve");
        assert!(r.converged(), "precond-study fixture stopped converging");
        let syncs = probe.finish().counter_total(Counter::Syncs) as usize;
        (plan, r.iterations, syncs)
    };
    let (ilu_plan, iterations_ilu, _) =
        measured(&base.clone().with_exec(ExecutionStrategy::LevelBarrier));
    let f = ilu_plan.factors();
    let syncs_ilu = f.l_schedule().n_levels() + f.u_schedule().n_levels();
    let (fsai_plan, iterations_fsai, syncs_fsai) =
        measured(&base.clone().with_precond(PrecondKind::Fsai));
    let per_ilu = plan_iteration_cost(device, &ilu_plan).total_us();
    let per_fsai = plan_iteration_cost(device, &fsai_plan).total_us();

    let auto_plan =
        SpcgPlan::build(a, base.with_precond(PrecondKind::Auto)).expect("auto-precond plan builds");
    let d = auto_plan.kind_decision().expect("auto plan records its kind decision");
    let winner = d.winner().expect("kind decision records its winner");
    let ilu_cand = d.ilu().expect("the ILU candidate is always priced");
    PrecondPoint {
        iterations_ilu,
        iterations_fsai,
        per_iteration_us_ilu: round3(per_ilu),
        per_iteration_us_fsai: round3(per_fsai),
        syncs_per_iter_ilu: syncs_ilu,
        syncs_per_iter_fsai: syncs_fsai,
        auto_chose: d.chosen.label().to_string(),
        auto_total_us: round3(winner.total_us),
        ilu_total_us: round3(ilu_cand.total_us),
    }
}

/// Barrier-per-level vs counter-release dependency blocks on the *same*
/// sparsified factors: the executor is the only lever that moves, so the
/// sync counts and the simulated L+U sweep times isolate exactly what
/// killing the per-level barrier buys. CI gates `sync_reduction_percent`
/// strictly above zero on every multi-level fixture.
#[derive(Serialize)]
struct SyncPoint {
    /// Synchronizations per iteration under the level-barrier executor:
    /// one barrier per wavefront, L and U sweeps combined.
    syncs_barrier: usize,
    /// Synchronizations per iteration under dependency blocks: one counter
    /// release per block, L and U sweeps combined.
    syncs_blocks: usize,
    /// Percent reduction in per-iteration synchronizations, barrier → blocks.
    sync_reduction_percent: f64,
    /// Simulated L+U triangular-sweep time per iteration, barrier executor, µs.
    sweep_us_barrier: f64,
    /// Simulated L+U triangular-sweep time per iteration, block executor, µs.
    sweep_us_blocks: f64,
    /// Real iteration count of the dependency-block plan — asserted
    /// bitwise-identical to the barrier plan's solve every run.
    iterations_blocks: usize,
}

/// Builds the default-options plan under both parallel executors and
/// solves each; the factors are structurally identical, so the sync counts
/// and priced sweeps compare the executors alone. The bitwise assert is
/// the torture suite's headline property riding along in the bench: if the
/// counter-release schedule ever reorders a row's accumulation, the
/// committed artifact run fails before CI even reaches the gate script.
fn sync_study(
    a: &spcg_sparse::CsrMatrix<f64>,
    b: &[f64],
    device: &DeviceSpec,
    solver: &spcg_solver::SolverConfig,
) -> SyncPoint {
    let base =
        SpcgOptions { ilu_fill: IluFill::Ilu0, solver: solver.clone(), ..Default::default() };
    let barrier = SpcgPlan::build(a, base.clone().with_exec(ExecutionStrategy::LevelBarrier))
        .expect("barrier plan builds");
    let blocks = SpcgPlan::build(a, base.with_exec(ExecutionStrategy::DependencyBlocks))
        .expect("block plan builds");

    let f = barrier.factors();
    let syncs_barrier = f.l_schedule().n_levels() + f.u_schedule().n_levels();
    let syncs_blocks = f.l_blocks().n_blocks() + f.u_blocks().n_blocks();
    let sweep_us_barrier = trisolve_cost_of(device, f.l(), f.l_schedule()).time_us
        + trisolve_cost_of(device, f.u(), f.u_schedule()).time_us;
    let fb = blocks.factors();
    let sweep_us_blocks = trisolve_block_cost_of(device, fb.l(), fb.l_blocks()).time_us
        + trisolve_block_cost_of(device, fb.u(), fb.u_blocks()).time_us;

    let rb = barrier.solve(b).expect("barrier fixture must solve");
    let rk = blocks.solve(b).expect("block fixture must solve");
    assert!(rb.converged() && rk.converged(), "sync-study fixture stopped converging");
    assert_eq!(rb.x, rk.x, "dependency-block solve must be bitwise-identical to barrier");
    assert_eq!(rb.iterations, rk.iterations);

    SyncPoint {
        syncs_barrier,
        syncs_blocks,
        sync_reduction_percent: round3(
            (syncs_barrier as f64 - syncs_blocks as f64) / syncs_barrier as f64 * 100.0,
        ),
        sweep_us_barrier: round3(sweep_us_barrier),
        sweep_us_blocks: round3(sweep_us_blocks),
        iterations_blocks: rk.iterations,
    }
}

/// One priority class's fate under the overload replay.
#[derive(Serialize)]
struct ServeClassPoint {
    priority: String,
    offered: u64,
    /// Admitted at full quality.
    admitted: u64,
    /// Admitted at a degraded tier (Light or Jacobi).
    downgraded: u64,
    /// Refused at admission.
    shed: u64,
    /// Admitted requests the deadline watchdog cut short: the queue wait
    /// ate their budget, so the modeled solve was truncated at the
    /// deadline instead of running to completion.
    watchdog_killed: u64,
    /// Virtual-time completion latency quantiles for admitted requests
    /// (queue wait + modeled service time, watchdog-truncated), µs. The
    /// watchdog makes `deadline_us` a hard ceiling — CI gates on it.
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Admission-control study: a fixed Poisson arrival schedule offered at
/// 2× the modeled service capacity, replayed through the *real*
/// [`spcg_serve::decide`] policy against a virtual-time worker pool. No
/// wall clock anywhere — arrivals come from a seeded generator and service
/// times from the A100 cost model — so the latency quantiles and shed
/// counts are bit-reproducible and CI can gate on them: high-priority p99
/// must stay under the deadline, and shedding must fall on the lower
/// classes first.
#[derive(Serialize)]
struct ServeStudy {
    workers: usize,
    queue_capacity: usize,
    requests: usize,
    seed: u64,
    /// Per-request deadline, µs of virtual time.
    deadline_us: f64,
    /// Offered arrival rate (2× capacity), requests per second.
    arrival_rate_per_s: f64,
    /// Modeled full-tier service capacity, requests per second.
    capacity_per_s: f64,
    shed_rate_percent: f64,
    degraded_rate_percent: f64,
    classes: Vec<ServeClassPoint>,
}

/// Prices the degradation ladder for the grid fixture the way the service
/// prices a warm cache hit: the Full and Light tiers from their actual
/// plans, Jacobi from the kernel model (SpMV + diagonal scale + BLAS-1).
/// Expected iteration counts use the service's √n heuristic so the study
/// exercises the same closed world the admission controller lives in.
fn serve_tier_costs(
    a: &spcg_sparse::CsrMatrix<f64>,
    device: &DeviceSpec,
    solver: &spcg_solver::SolverConfig,
) -> TierCosts {
    let n = a.n_rows();
    let ilu_iters = (n as f64).sqrt().ceil() as usize;
    let base =
        SpcgOptions { ilu_fill: IluFill::Ilu0, solver: solver.clone(), ..Default::default() };
    let full_plan = SpcgPlan::build(a, &base).expect("serve-study full plan builds");
    let light_plan =
        SpcgPlan::build(a, base.clone().with_sparsify(None)).expect("serve-study light plan");
    let warm = |plan: &SpcgPlan<f64>| TierCost {
        build_us: 0.0,
        per_iteration_us: plan_iteration_cost(device, plan).total_us(),
        expected_iterations: ilu_iters,
    };
    let spmv_us = spmv_cost(device, a).time_us;
    let diag_us = elementwise_cost::<f64>(device, n, 3.0).time_us;
    let blas_us = 2.0 * dot_cost::<f64>(device, n).time_us
        + 3.0 * elementwise_cost::<f64>(device, n, 3.0).time_us;
    TierCosts {
        full: warm(&full_plan),
        light: warm(&light_plan),
        jacobi: TierCost {
            build_us: elementwise_cost::<f64>(device, n, 2.0).time_us,
            per_iteration_us: spmv_us + diag_us + blas_us,
            expected_iterations: 3 * ilu_iters,
        },
    }
}

/// Discrete-event replay: Poisson arrivals hit `decide()` against a live
/// queue snapshot; admitted requests occupy the earliest-free virtual
/// worker for their tier's modeled service time.
fn serve_study(device: &DeviceSpec, solver: &spcg_solver::SolverConfig) -> ServeStudy {
    let a = Recipe::Poisson2D { nx: 32, ny: 32 }.build(7, 5.0, Ordering::Natural);
    let costs = serve_tier_costs(&a, device, solver);

    let workers = 4usize;
    let queue_capacity = 16usize;
    let requests = 600usize;
    let seed = 0x5ECC_u64;
    let full_service_us = costs.full.expected_total_us();
    // 2× overload: the point of the study is what the controller does when
    // the offered rate cannot possibly be served at full quality.
    let lambda_per_us = 2.0 * workers as f64 / full_service_us;
    let deadline_us = 3.0 * full_service_us;
    let deadline = Duration::from_nanos((deadline_us * 1000.0).round() as u64);

    let mut rng = Rng::new(seed);
    let mut worker_free = vec![0.0f64; workers];
    // Admitted-but-not-yet-started requests: (virtual start time, cost µs).
    let mut waiting: Vec<(f64, f64)> = Vec::new();
    let mut t_us = 0.0f64;
    let mut offered = [0u64; 3];
    let mut admitted = [0u64; 3];
    let mut downgraded = [0u64; 3];
    let mut shed = [0u64; 3];
    let mut killed = [0u64; 3];
    let mut latencies: Vec<HistogramProbe> = (0..3).map(|_| HistogramProbe::new()).collect();

    for i in 0..requests {
        t_us += -(1.0 - rng.uniform()).ln() / lambda_per_us;
        waiting.retain(|(start, _)| *start > t_us);
        let load = LoadSnapshot {
            queue_depth: waiting.len(),
            queue_capacity,
            queued_cost_us: waiting.iter().map(|(_, c)| c).sum(),
            workers,
        };
        let priority = Priority::ALL[i % 3];
        let class = priority.tag() as usize;
        offered[class] += 1;
        let policy = RequestPolicy::default().with_deadline(deadline).with_priority(priority);
        match decide(&policy, &load, &costs) {
            Admission::Admit { tier, .. } => {
                let cost_us = costs.at(tier).expected_total_us();
                let w = (0..workers)
                    .min_by(|&x, &y| worker_free[x].partial_cmp(&worker_free[y]).unwrap())
                    .unwrap();
                let start = worker_free[w].max(t_us);
                // The worker re-derives the iteration budget from the wall
                // clock at dequeue, so queue wait shrinks the watchdog: a
                // solve never runs past the request's deadline.
                let budget_us = (t_us + deadline_us - start).max(0.0);
                let ran_us = cost_us.min(budget_us);
                if cost_us > budget_us {
                    killed[class] += 1;
                }
                worker_free[w] = start + ran_us;
                waiting.push((start, ran_us));
                if tier == SolveTier::Full {
                    admitted[class] += 1;
                } else {
                    downgraded[class] += 1;
                }
                let latency_us = start + ran_us - t_us;
                latencies[class]
                    .record_duration_ns(Span::ServeRequest, (latency_us * 1000.0).round() as u64);
            }
            Admission::Shed(_) => shed[class] += 1,
        }
    }

    let classes = Priority::ALL
        .iter()
        .map(|p| {
            let class = p.tag() as usize;
            let q = |q: f64| {
                latencies[class]
                    .quantile(Span::ServeRequest, q)
                    .map_or(0.0, |ns| round3(ns as f64 / 1000.0))
            };
            ServeClassPoint {
                priority: p.label().to_string(),
                offered: offered[class],
                admitted: admitted[class],
                downgraded: downgraded[class],
                shed: shed[class],
                watchdog_killed: killed[class],
                p50_us: q(0.50),
                p95_us: q(0.95),
                p99_us: q(0.99),
            }
        })
        .collect();
    let total_offered: u64 = offered.iter().sum();
    let total_shed: u64 = shed.iter().sum();
    let total_downgraded: u64 = downgraded.iter().sum();
    ServeStudy {
        workers,
        queue_capacity,
        requests,
        seed,
        deadline_us: round3(deadline_us),
        arrival_rate_per_s: round3(lambda_per_us * 1e6),
        capacity_per_s: round3(workers as f64 / full_service_us * 1e6),
        shed_rate_percent: round3(100.0 * total_shed as f64 / total_offered as f64),
        degraded_rate_percent: round3(100.0 * total_downgraded as f64 / total_offered as f64),
        classes,
    }
}

/// Time-varying sequence study for one fixture: the modeled plan-cost
/// asymmetry (full rebuild vs value-only refresh on the serial host path)
/// and the real iteration counts of warm-started vs cold solves over a
/// seeded, symmetry-preserving drifting sequence. Everything here is
/// deterministic: drift scales come from a fixed-seed generator and the
/// solves are real f64 PCG runs.
#[derive(Serialize)]
struct SequencePoint {
    name: String,
    /// Drift steps past the opening solve.
    steps: usize,
    /// Relative per-step value perturbation amplitude.
    drift: f64,
    /// Modeled cost of a full re-plan (analysis + numeric factorization), µs.
    rebuild_us: f64,
    /// Modeled cost of the value-only numeric refresh, µs.
    refresh_us: f64,
    /// `rebuild_us / refresh_us` — CI gates this at a 2× floor.
    refresh_speedup: f64,
    /// Total iterations over the drift steps, warm-started from the
    /// previous step's solution.
    iterations_warm: usize,
    /// Total iterations over the same steps from x₀ = 0. CI gates
    /// `iterations_warm <= iterations_cold`.
    iterations_cold: usize,
    /// Percent of cold iterations the warm start saves.
    warm_saved_percent: f64,
}

/// Drifts each fixture's values through 4 steps (uniform seeded scale per
/// step, preserving symmetry), refreshing the plan numerics at every step
/// and solving the same right-hand side twice: warm (from the chained
/// workspace) and cold (fresh solve).
fn sequence_study(device: &DeviceSpec, solver: &spcg_solver::SolverConfig) -> Vec<SequencePoint> {
    let steps = 4usize;
    let drift = 0.002f64;
    fixtures()
        .into_iter()
        .map(|(name, recipe, spread, ordering)| {
            let a = recipe.build(7, spread, ordering);
            let b = vec![1.0; a.n_rows()];
            let opts = SpcgOptions {
                ilu_fill: IluFill::Ilu0,
                solver: solver.clone(),
                ..Default::default()
            };
            let plan = SpcgPlan::build(&a, &opts).expect("sequence fixture plan builds");
            let rebuild_us = plan_rebuild_cost_us(device, &plan);
            let refresh_us = plan_refresh_cost_us(device, &plan);

            let mut rng = Rng::new(0x5e9 ^ a.n_rows() as u64);
            let mut current = a.clone();
            let mut ws = plan.make_workspace();
            let warm_start = SolveCtx { warm: true, ..SolveCtx::default() };
            let opening = plan.solve_in_place(&b, &mut ws, warm_start).expect("opening solve");
            assert!(opening.converged(), "sequence fixture {name} opening solve diverged");
            let mut active = plan;
            let (mut iterations_warm, mut iterations_cold) = (0usize, 0usize);
            for step in 0..steps {
                let scale = 1.0 + drift * rng.range(-1.0, 1.0);
                current = current.map_values(|v| v * scale);
                let refreshed = active
                    .refresh_values(&current)
                    .unwrap_or_else(|e| panic!("{name} step {step}: refresh failed: {e}"));
                let cold = refreshed
                    .solve(&b)
                    .unwrap_or_else(|e| panic!("{name} step {step}: cold solve failed: {e}"));
                let warm = refreshed
                    .solve_in_place(&b, &mut ws, warm_start)
                    .unwrap_or_else(|e| panic!("{name} step {step}: warm solve failed: {e}"));
                assert!(
                    cold.converged() && warm.converged(),
                    "sequence fixture {name} stopped converging — investigate before committing"
                );
                iterations_warm += warm.iterations;
                iterations_cold += cold.iterations;
                active = refreshed;
            }
            SequencePoint {
                name: name.into(),
                steps,
                drift,
                rebuild_us: round3(rebuild_us),
                refresh_us: round3(refresh_us),
                refresh_speedup: round3(rebuild_us / refresh_us),
                iterations_warm,
                iterations_cold,
                warm_saved_percent: round3(
                    (1.0 - iterations_warm as f64 / iterations_cold.max(1) as f64) * 100.0,
                ),
            }
        })
        .collect()
}

#[derive(Serialize)]
struct TrajectoryRow {
    name: String,
    n: usize,
    nnz: usize,
    baseline: VariantPoint,
    spcg: VariantPoint,
    ordering: OrderingPoint,
    precision: PrecisionPoint,
    sync: SyncPoint,
    precond: PrecondPoint,
    per_iteration_speedup: f64,
    end_to_end_speedup: f64,
}

#[derive(Serialize)]
struct Trajectory {
    bench: &'static str,
    device: &'static str,
    precond: &'static str,
    tolerance: f64,
    rows: Vec<TrajectoryRow>,
    gmean_per_iteration_speedup: f64,
    gmean_end_to_end_speedup: f64,
    /// Geometric-mean reduction in total factor levels from `auto`
    /// reordering at fixed ratio: `(1 - 1/gmean(nat/auto)) * 100`.
    gmean_level_reduction_percent: f64,
    /// Geometric mean of the per-fixture full/mixed apply-bytes ratios.
    gmean_apply_bytes_ratio: f64,
    /// Geometric-mean reduction in per-iteration synchronizations from the
    /// dependency-block executor: `(1 - 1/gmean(barrier/blocks)) * 100`.
    gmean_sync_reduction_percent: f64,
    /// Geometric mean of the per-fixture rebuild/refresh cost ratios.
    gmean_refresh_speedup: f64,
    /// Virtual-time admission-control replay at 2× offered load.
    serve: ServeStudy,
    /// Refresh-vs-rebuild and warm-vs-cold study over drifting sequences.
    sequence: Vec<SequencePoint>,
}

/// Three decimals are stable across platforms; more would commit noise.
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Builds the natural and `auto`-reordered plan at the ratio the heuristic
/// already picked: `ratios = [r]`, `tau = MAX`, `omega = 0` pin both arms
/// to the same sparsification, and `ordering_omega = 0` lets `auto` accept
/// any level reduction — so the two plans differ *only* in ordering.
fn ordering_study(
    a: &spcg_sparse::CsrMatrix<f64>,
    b: &[f64],
    chosen_ratio: Option<f64>,
    device: &DeviceSpec,
    solver: &spcg_solver::SolverConfig,
) -> OrderingPoint {
    let sparsify = chosen_ratio.map(|r| SparsifyParams {
        ratios: vec![r],
        tau: f64::MAX,
        omega: 0.0,
        ..Default::default()
    });
    let base = SpcgOptions {
        sparsify,
        ilu_fill: IluFill::Ilu0,
        solver: solver.clone(),
        ..Default::default()
    };
    let natural = SpcgPlan::build(a, &base).expect("natural plan builds");
    let auto =
        SpcgPlan::build(a, base.clone().with_ordering(OrderingKind::Auto).with_ordering_omega(0.0))
            .expect("auto plan builds");
    let levels_natural = natural.factors().total_wavefronts();
    let levels_auto = auto.factors().total_wavefronts();
    let chosen =
        auto.reorder().map_or_else(|| "natural".to_string(), |d| d.chosen.label().to_string());
    let result = auto.solve(b).expect("auto-reordered fixture must solve");
    assert!(
        result.converged(),
        "auto-reordered trajectory fixture stopped converging — investigate before committing"
    );
    OrderingPoint {
        chosen,
        levels_natural,
        levels_auto,
        level_reduction_percent: round3(
            (levels_natural as f64 - levels_auto as f64) / levels_natural as f64 * 100.0,
        ),
        per_iteration_us_natural: round3(plan_iteration_cost(device, &natural).total_us()),
        per_iteration_us_auto: round3(plan_iteration_cost(device, &auto).total_us()),
        iterations_auto: result.iterations,
    }
}

/// Builds the default-options plan twice — full precision and `MixedF32`
/// — and solves both. The mixed arm runs probed so the refinement-restart
/// counter lands in the artifact; the apply bytes come from the roofline
/// model's per-iteration trisolve pricing of each plan.
fn precision_study(
    a: &spcg_sparse::CsrMatrix<f64>,
    b: &[f64],
    device: &DeviceSpec,
    solver: &spcg_solver::SolverConfig,
) -> PrecisionPoint {
    let base =
        SpcgOptions { ilu_fill: IluFill::Ilu0, solver: solver.clone(), ..Default::default() };
    let full = SpcgPlan::build(a, &base).expect("full-precision plan builds");
    let mixed = SpcgPlan::build(a, base.clone().with_precision(PrecisionPolicy::MixedF32))
        .expect("mixed plan builds");
    assert!(mixed.is_mixed(), "MixedF32 must resolve to the mixed tier");

    let full_result = full.solve(b).expect("full fixture must solve");
    let mut probe = RecordingProbe::new();
    let mut ws = mixed.make_workspace();
    let mixed_result = mixed
        .solve_in_place(b, &mut ws, SolveCtx::probed(&mut probe))
        .expect("mixed fixture must solve");
    assert!(
        full_result.converged() && mixed_result.converged(),
        "precision fixture stopped converging — investigate before committing"
    );
    let trace = probe.finish();
    let restarts = trace.counter_total(Counter::PrecisionRefineRestarts) as usize;

    let cost_full = plan_iteration_cost(device, &full);
    let cost_mixed = plan_iteration_cost(device, &mixed);
    let apply_full = cost_full.lower.bytes + cost_full.upper.bytes;
    let apply_mixed = cost_mixed.lower.bytes + cost_mixed.upper.bytes;
    PrecisionPoint {
        iterations_full: full_result.iterations,
        iterations_mixed: mixed_result.iterations,
        refine_restarts: restarts,
        apply_bytes_full: round3(apply_full),
        apply_bytes_mixed: round3(apply_mixed),
        apply_bytes_ratio: round3(apply_full / apply_mixed),
        per_iteration_us_full: round3(cost_full.total_us()),
        per_iteration_us_mixed: round3(cost_mixed.total_us()),
    }
}

fn main() {
    let device = DeviceSpec::a100();
    let solver = bench_solver_config();
    let variant = Variant::Heuristic(SparsifyParams::default());

    let rows: Vec<TrajectoryRow> = fixtures()
        .into_iter()
        .map(|(name, recipe, spread, ordering)| {
            let a = recipe.build(7, spread, ordering);
            let b = vec![1.0; a.n_rows()];
            let row: ComparisonRow =
                compare(name, "", &a, &b, IluFill::Ilu0, &device, &variant, &solver)
                    .expect("trajectory fixture must evaluate");
            assert!(
                row.base.converged && row.spcg.converged,
                "trajectory fixture {name} stopped converging — investigate before committing"
            );
            let ordering = ordering_study(&a, &b, row.spcg.chosen_ratio, &device, &solver);
            let precision = precision_study(&a, &b, &device, &solver);
            let sync = sync_study(&a, &b, &device, &solver);
            let precond = precond_study(&a, &b, &device, &solver);
            TrajectoryRow {
                name: name.into(),
                n: row.n,
                nnz: row.nnz,
                per_iteration_speedup: round3(row.per_iteration_speedup()),
                // Convergence was just asserted, so the option is Some.
                end_to_end_speedup: round3(row.end_to_end_speedup().unwrap()),
                baseline: VariantPoint::of(&row.base),
                spcg: VariantPoint::of(&row.spcg),
                ordering,
                precision,
                sync,
                precond,
            }
        })
        .collect();

    let per_iter: Vec<f64> = rows.iter().map(|r| r.per_iteration_speedup).collect();
    let e2e: Vec<f64> = rows.iter().map(|r| r.end_to_end_speedup).collect();
    // Aggregate the level win as a gmean of *ratios* (nat/auto), reported
    // as a percent reduction: robust to one fixture dominating, and a
    // fixture where auto stays natural contributes exactly 1.0.
    let level_ratios: Vec<f64> = rows
        .iter()
        .map(|r| r.ordering.levels_natural as f64 / r.ordering.levels_auto as f64)
        .collect();
    let gmean_levels = gmean(&level_ratios).unwrap_or(1.0);
    let apply_ratios: Vec<f64> = rows.iter().map(|r| r.precision.apply_bytes_ratio).collect();
    // Same gmean-of-ratios shape as the level aggregate: a diagonal-only
    // fixture (blocks == levels) contributes exactly 1.0.
    let sync_ratios: Vec<f64> =
        rows.iter().map(|r| r.sync.syncs_barrier as f64 / r.sync.syncs_blocks as f64).collect();
    let gmean_syncs = gmean(&sync_ratios).unwrap_or(1.0);
    let serve = serve_study(&device, &solver);
    let sequence = sequence_study(&device, &solver);
    let refresh_speedups: Vec<f64> = sequence.iter().map(|s| s.refresh_speedup).collect();
    let traj = Trajectory {
        bench: "trajectory",
        device: "a100-model",
        precond: "ilu0",
        tolerance: 1e-10,
        gmean_per_iteration_speedup: round3(gmean(&per_iter).unwrap_or(0.0)),
        gmean_end_to_end_speedup: round3(gmean(&e2e).unwrap_or(0.0)),
        gmean_level_reduction_percent: round3((1.0 - 1.0 / gmean_levels) * 100.0),
        gmean_apply_bytes_ratio: round3(gmean(&apply_ratios).unwrap_or(1.0)),
        gmean_sync_reduction_percent: round3((1.0 - 1.0 / gmean_syncs) * 100.0),
        gmean_refresh_speedup: round3(gmean(&refresh_speedups).unwrap_or(1.0)),
        serve,
        sequence,
        rows,
    };

    // Tracked artifact at the repo root (not target/): BENCH_10.json is
    // the current trajectory point; its git history is the trajectory.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("BENCH_10.json");
    let json = serde_json::to_string_pretty(&traj).expect("trajectory serializes");
    std::fs::write(&path, json + "\n").expect("BENCH_10.json written");

    println!("trajectory: {} fixtures, ILU(0), A100 model", traj.rows.len());
    for r in &traj.rows {
        println!(
            "  {:<14} n={:<5} nnz={:<6} iters {:>3} -> {:>3}  per-iter {:>6.3}x  e2e {:>6.3}x",
            r.name,
            r.n,
            r.nnz,
            r.baseline.iterations,
            r.spcg.iterations,
            r.per_iteration_speedup,
            r.end_to_end_speedup
        );
        println!(
            "  {:<14} ordering {:<8} levels {:>3} -> {:>3}  ({:>5.1}% fewer)",
            "",
            r.ordering.chosen,
            r.ordering.levels_natural,
            r.ordering.levels_auto,
            r.ordering.level_reduction_percent
        );
        println!(
            "  {:<14} mixed f32 iters {:>3} -> {:>3}  restarts {}  apply bytes {:>6.3}x fewer",
            "",
            r.precision.iterations_full,
            r.precision.iterations_mixed,
            r.precision.refine_restarts,
            r.precision.apply_bytes_ratio
        );
        println!(
            "  {:<14} syncs/iter {:>4} -> {:>3}  ({:>5.1}% fewer)  sweep {:>8.3} -> {:>8.3} us",
            "",
            r.sync.syncs_barrier,
            r.sync.syncs_blocks,
            r.sync.sync_reduction_percent,
            r.sync.sweep_us_barrier,
            r.sync.sweep_us_blocks
        );
        println!(
            "  {:<14} fsai iters {:>3} vs ilu {:>3}  per-iter {:>7.3} vs {:>7.3} us  \
             syncs {} vs {}  auto -> {} ({:.0} vs ilu {:.0} us)",
            "",
            r.precond.iterations_fsai,
            r.precond.iterations_ilu,
            r.precond.per_iteration_us_fsai,
            r.precond.per_iteration_us_ilu,
            r.precond.syncs_per_iter_fsai,
            r.precond.syncs_per_iter_ilu,
            r.precond.auto_chose,
            r.precond.auto_total_us,
            r.precond.ilu_total_us
        );
    }
    println!(
        "gmean per-iteration {:.3}x   gmean end-to-end {:.3}x   gmean level reduction {:.1}%   \
         gmean apply-bytes ratio {:.3}x   gmean sync reduction {:.1}%",
        traj.gmean_per_iteration_speedup,
        traj.gmean_end_to_end_speedup,
        traj.gmean_level_reduction_percent,
        traj.gmean_apply_bytes_ratio,
        traj.gmean_sync_reduction_percent
    );
    println!(
        "serve study: {} requests at 2x capacity over {} workers, deadline {:.0} us, \
         shed {:.1}%, degraded {:.1}%",
        traj.serve.requests,
        traj.serve.workers,
        traj.serve.deadline_us,
        traj.serve.shed_rate_percent,
        traj.serve.degraded_rate_percent
    );
    for c in &traj.serve.classes {
        println!(
            "  {:<8} offered {:>3}  admitted {:>3}  downgraded {:>3}  shed {:>3}  \
             killed {:>3}  p50 {:>8.1} us  p99 {:>8.1} us",
            c.priority,
            c.offered,
            c.admitted,
            c.downgraded,
            c.shed,
            c.watchdog_killed,
            c.p50_us,
            c.p99_us
        );
    }
    println!(
        "sequence study: {} drift steps at {:.1}% per step, gmean refresh speedup {:.1}x",
        traj.sequence.first().map_or(0, |s| s.steps),
        traj.sequence.first().map_or(0.0, |s| 100.0 * s.drift),
        traj.gmean_refresh_speedup
    );
    for s in &traj.sequence {
        println!(
            "  {:<14} rebuild {:>9.1} us  refresh {:>8.1} us  ({:>5.1}x)  iters warm {:>3} \
             vs cold {:>3}  ({:>4.1}% saved)",
            s.name,
            s.rebuild_us,
            s.refresh_us,
            s.refresh_speedup,
            s.iterations_warm,
            s.iterations_cold,
            s.warm_saved_percent
        );
    }
    println!("wrote {}", path.display());
}
