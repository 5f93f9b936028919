//! Golden-trace and property tests of the probe layer wired through the
//! plan pipeline: span nesting on real suite matrices, the iteration-count
//! invariant, bitwise identity of probed vs. unprobed solves, and JSON
//! round-tripping of recorded traces.

use proptest::prelude::*;
use spcg_core::pipeline::SpcgOptions;
use spcg_core::{ResilienceOptions, SpcgPlan};
use spcg_probe::{Counter, ProbeStop, RecordingProbe, RunTrace, RungKind, Span, SpanRecord};
use spcg_solver::{SolveCtx, SolveResult, SolverConfig};
use spcg_sparse::generators::{random_spd, with_magnitude_spread};
use spcg_sparse::{CsrMatrix, Rng};
use spcg_suite::fast_collection;

fn random_system(n: usize, seed: u64) -> (CsrMatrix<f64>, Vec<f64>) {
    let a = with_magnitude_spread(&random_spd(n, 4, 1.5, seed), 5.0, seed ^ 3);
    let mut rng = Rng::new(seed ^ 0xb0b);
    let b = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
    (a, b)
}

/// Records one full pipeline run — analysis and solve — through a single
/// probe, so the trace covers every phase end to end.
fn record_run(
    a: &CsrMatrix<f64>,
    b: &[f64],
    opts: &SpcgOptions,
) -> (SpcgPlan<f64>, SolveResult<f64>, RunTrace) {
    let mut probe = RecordingProbe::new();
    let plan = SpcgPlan::build_probed(a, opts, &mut probe).expect("plan build");
    let mut ws = plan.make_workspace();
    let stats = plan.solve_in_place(b, &mut ws, SolveCtx::probed(&mut probe)).expect("solve");
    (plan, ws.to_result(stats), probe.finish())
}

fn records_of(trace: &RunTrace, span: Span) -> Vec<SpanRecord> {
    trace.span_records().unwrap().into_iter().filter(|r| r.span == span).collect()
}

#[test]
fn golden_trace_spans_on_suite_matrices() {
    for spec in fast_collection().into_iter().step_by(7) {
        let a = spec.build();
        let b = spec.rhs(a.n_rows());
        let opts = SpcgOptions::default()
            .with_solver(SolverConfig::default().with_tol(1e-9).with_max_iters(600));
        let (plan, result, trace) = record_run(&a, &b, &opts);
        trace.validate_nesting().unwrap_or_else(|e| panic!("{}: {e}", spec.name));

        // Exactly one top-level analysis span and one top-level solve span,
        // in that order, never overlapping.
        let build = records_of(&trace, Span::PlanBuild);
        let solve = records_of(&trace, Span::SolveLoop);
        assert_eq!(build.len(), 1, "{}: PlanBuild spans", spec.name);
        assert_eq!(solve.len(), 1, "{}: SolveLoop spans", spec.name);
        assert_eq!(build[0].depth, 0, "{}", spec.name);
        assert_eq!(solve[0].depth, 0, "{}", spec.name);
        assert!(build[0].end_ns <= solve[0].start_ns, "{}: phases overlap", spec.name);

        // The analysis span contains the Algorithm 2 sweep (with one
        // CandidateEval per trace row) and the factorization.
        let sparsify = records_of(&trace, Span::Sparsify);
        assert_eq!(sparsify.len(), 1, "{}", spec.name);
        assert!(sparsify[0].depth >= 1 && sparsify[0].start_ns >= build[0].start_ns);
        let decision = plan.decision().expect("sparsification ran");
        let candidates = records_of(&trace, Span::CandidateEval);
        assert_eq!(candidates.len(), decision.trace.len(), "{}", spec.name);
        assert_eq!(
            trace.counter_total(Counter::CandidatesEvaluated),
            decision.trace.len() as u64,
            "{}",
            spec.name
        );
        assert_eq!(records_of(&trace, Span::Factorize).len(), 1, "{}", spec.name);

        // Per-iteration kernel spans live inside the solve loop.
        for kernel in [Span::Spmv, Span::PrecondApply, Span::Blas] {
            let recs = records_of(&trace, kernel);
            assert!(!recs.is_empty(), "{}: no {kernel} spans", spec.name);
            for r in &recs {
                assert!(
                    r.start_ns >= solve[0].start_ns && r.end_ns <= solve[0].end_ns,
                    "{}: {kernel} escaped the solve loop",
                    spec.name
                );
            }
        }
        // Triangular sweeps nest inside preconditioner applications.
        let lower = records_of(&trace, Span::TriangularLower);
        let upper = records_of(&trace, Span::TriangularUpper);
        assert_eq!(lower.len(), upper.len(), "{}", spec.name);
        assert!(lower.iter().all(|r| r.depth >= 2), "{}", spec.name);

        // The run is fully attributed: top-level spans cover (almost) the
        // whole wall time, and the iteration invariant holds.
        assert!(trace.coverage() >= 0.95, "{}: coverage {}", spec.name, trace.coverage());
        assert_eq!(trace.iterations(), result.iterations, "{}", spec.name);
    }
}

#[test]
fn guard_exit_is_recorded_once_with_its_classification() {
    let spec = &fast_collection()[0];
    let a = spec.build();
    let b = spec.rhs(a.n_rows());
    let opts = SpcgOptions::default().with_solver(SolverConfig::default().with_tol(1e-10));
    let (_, result, trace) = record_run(&a, &b, &opts);
    assert!(result.converged());
    let exits: Vec<ProbeStop> = trace
        .events
        .iter()
        .filter_map(|ev| match ev {
            spcg_probe::TraceEvent::Iteration { event, .. }
                if event.guard != ProbeStop::Running =>
            {
                Some(event.guard)
            }
            _ => None,
        })
        .collect();
    assert_eq!(exits, vec![ProbeStop::Converged]);
}

#[test]
fn recorded_trace_round_trips_through_json() {
    let spec = &fast_collection()[0];
    let a = spec.build();
    let b = spec.rhs(a.n_rows());
    let (_, _, trace) = record_run(&a, &b, &SpcgOptions::default());
    let json = serde_json::to_string(&trace).unwrap();
    let back: RunTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(back, trace);
    assert!(!trace.events.is_empty());
    assert!(trace.phase_table().contains("plan.build"));
    assert!(trace.phase_table().contains("solve.loop"));
}

#[test]
fn resilient_ladder_emits_rung_events() {
    let (a, b) = random_system(60, 9);
    let plan = SpcgPlan::build(&a, SpcgOptions::default()).unwrap();
    let mut ws = plan.make_workspace();
    let mut probe = RecordingProbe::new();
    let solve =
        plan.solve_resilient(&b, &ResilienceOptions::default(), &mut ws, &mut probe).unwrap();
    assert!(solve.result.converged());
    let trace = probe.finish();
    trace.validate_nesting().unwrap();
    assert_eq!(records_of(&trace, Span::LadderAttempt).len(), 1);
    let rungs: Vec<_> = trace
        .events
        .iter()
        .filter_map(|ev| match ev {
            spcg_probe::TraceEvent::Rung { event, .. } => Some(*event),
            _ => None,
        })
        .collect();
    assert_eq!(rungs.len(), 1);
    assert_eq!(rungs[0].rung, RungKind::Planned);
    assert_eq!(rungs[0].attempt, 0);
    assert_eq!(rungs[0].outcome, ProbeStop::Converged);
}

#[test]
fn mixed_solve_emits_precision_counters() {
    use spcg_core::PrecisionPolicy;
    let (a, b) = random_system(80, 5);
    let opts = SpcgOptions::default()
        .with_solver(SolverConfig::default().with_tol(1e-8))
        .with_precision(PrecisionPolicy::MixedF32);
    let (plan, result, trace) = record_run(&a, &b, &opts);
    assert!(plan.is_mixed());
    assert!(result.converged());
    trace.validate_nesting().unwrap();
    // One narrow apply per iteration plus the initial residual application.
    assert_eq!(trace.counter_total(Counter::PrecisionMixedApplies), result.iterations as u64 + 1);
    // 4 bytes saved per stored factor entry (f64 → f32).
    let nnz = (plan.factors().l().nnz() + plan.factors().u().nnz()) as u64;
    assert_eq!(trace.counter_total(Counter::PrecisionBytesSaved), 4 * nnz);
    // A clean converging solve never restarts, and the counters render in
    // the phase table under their `precision.*` labels.
    assert_eq!(trace.counter_total(Counter::PrecisionRefineRestarts), 0);
    assert!(trace.phase_table().contains("precision.mixed_applies"));
    // A full-precision run emits none of them.
    let (_, _, full_trace) = record_run(&a, &b, &SpcgOptions::default());
    assert_eq!(full_trace.counter_total(Counter::PrecisionMixedApplies), 0);
    assert_eq!(full_trace.counter_total(Counter::PrecisionBytesSaved), 0);
}

#[test]
fn starved_mixed_solve_records_refine_restarts() {
    use spcg_core::PrecisionPolicy;
    // Starve the inner loop so iterative refinement must restart on the
    // exact f64 residual: the restarts surface both as a counter and as
    // timestamped Refine events in the trace.
    let (a, b) = random_system(90, 21);
    let reference = SpcgPlan::build(
        &a,
        SpcgOptions::default().with_solver(SolverConfig::default().with_tol(1e-9)),
    )
    .unwrap()
    .solve(&b)
    .unwrap();
    assert!(reference.converged());
    let starved_iters = (reference.iterations / 2).max(4);
    let opts = SpcgOptions::default()
        .with_solver(SolverConfig::default().with_tol(1e-9).with_max_iters(starved_iters))
        .with_precision(PrecisionPolicy::MixedF32);
    let (_, result, trace) = record_run(&a, &b, &opts);
    let restarts = trace.counter_total(Counter::PrecisionRefineRestarts);
    assert!(restarts >= 1, "a starved inner loop must refine at least once");
    let refine_events: Vec<_> = trace
        .events
        .iter()
        .filter_map(|ev| match ev {
            spcg_probe::TraceEvent::Refine { event, .. } => Some(*event),
            _ => None,
        })
        .collect();
    assert_eq!(refine_events.len(), restarts as usize);
    for (i, ev) in refine_events.iter().enumerate() {
        assert_eq!(ev.restart, i + 1, "restarts are numbered from 1 in order");
        assert!(ev.residual.is_finite());
    }
    // Refinement accumulates across restarts, so the solve still converges.
    assert!(result.converged(), "refinement must rescue the starved solve: {:?}", result.stop);
    trace.validate_nesting().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The number of healthy iteration events a probe records equals the
    /// iteration count the solver reports — on arbitrary operators.
    #[test]
    fn recorded_iterations_match_solve_result(
        n in 20usize..80,
        seed in 0u64..300,
        sparsify in any::<bool>(),
    ) {
        let (a, b) = random_system(n, seed);
        let opts = SpcgOptions::default()
            .with_sparsify(sparsify.then(Default::default))
            .with_solver(SolverConfig::default().with_tol(1e-9));
        let (_, result, trace) = record_run(&a, &b, &opts);
        prop_assert_eq!(trace.iterations(), result.iterations);
        trace.validate_nesting().unwrap();
    }

    /// Observation is free in the numeric sense too: a probed solve returns
    /// bitwise the same iterate and history as the unprobed one.
    #[test]
    fn probed_solve_is_bitwise_identical_to_unprobed(
        n in 20usize..80,
        seed in 0u64..300,
    ) {
        let (a, b) = random_system(n, seed);
        let opts = SpcgOptions::default()
            .with_solver(SolverConfig::default().with_tol(1e-9).with_history(true));
        let plain_plan = SpcgPlan::build(&a, &opts).unwrap();
        let plain = plain_plan.solve(&b).unwrap();
        let (_, probed, _) = record_run(&a, &b, &opts);
        prop_assert_eq!(&plain.x, &probed.x);
        prop_assert_eq!(&plain.residual_history, &probed.residual_history);
        prop_assert_eq!(plain.iterations, probed.iterations);
        prop_assert_eq!(plain.stop, probed.stop);
    }
}
