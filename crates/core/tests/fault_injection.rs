//! The fault-injection acceptance harness: deterministic faults driven
//! through real suite matrices must (a) be *classified* correctly,
//! (b) climb the fallback ladder in exactly the order the plan predicts,
//! and (c) recover to convergence — and the whole public solve surface
//! must degrade into typed errors, never panics, on malformed input.

use spcg_core::{FallbackRung, FaultInjection, ResilienceOptions, SpcgOptions, SpcgPlan};
use spcg_probe::NoProbe;
use spcg_solver::{BreakdownKind, SolveCtx, SolverConfig, SolverError, StopReason};
use spcg_sparse::{CooMatrix, CsrMatrix};
use spcg_suite::fast_collection;

/// A handful of real suite matrices, small enough to ladder through
/// repeatedly but drawn from distinct categories.
fn suite_systems(limit: usize) -> Vec<(String, CsrMatrix<f64>, Vec<f64>)> {
    let mut systems: Vec<_> = fast_collection()
        .into_iter()
        .filter_map(|spec| {
            let a = spec.build();
            (a.n_rows() <= 2_500).then(|| {
                let b = (0..a.n_rows()).map(|i| ((i % 13) as f64 - 6.0) / 6.0).collect();
                (spec.name, a, b)
            })
        })
        .take(limit.max(4))
        .collect();
    assert!(systems.len() >= 3, "need at least three suite matrices for the acceptance bar");
    systems.truncate(limit);
    systems
}

fn opts() -> SpcgOptions {
    SpcgOptions { solver: SolverConfig::default().with_tol(1e-9), ..Default::default() }
}

/// The executed rung sequence must be *exactly* the leading prefix of the
/// ladder the plan publishes — no rung skipped, none reordered.
fn assert_rungs_are_ladder_prefix(
    name: &str,
    plan: &SpcgPlan<f64>,
    ropts: &ResilienceOptions,
    executed: &[FallbackRung],
) {
    let ladder = plan.ladder(ropts);
    assert!(
        executed.len() <= ladder.len(),
        "{name}: executed more rungs than the ladder has ({executed:?} vs {ladder:?})"
    );
    assert_eq!(
        executed,
        &ladder[..executed.len()],
        "{name}: rung order must match the published ladder"
    );
}

#[test]
fn nan_fault_recovers_across_suite_matrices() {
    for (name, a, b) in suite_systems(4) {
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let ropts =
            ResilienceOptions { fault: Some(FaultInjection::nan_at(1)), ..Default::default() };
        let mut ws = plan.make_workspace();
        let r = plan.solve_resilient(&b, &ropts, &mut ws, NoProbe).unwrap();
        assert!(r.converged(), "{name}: must recover from a NaN fault: {:?}", r.report);
        assert_eq!(r.report.cause(), Some(BreakdownKind::Nan), "{name}");
        assert_eq!(r.report.attempts.len(), 2, "{name}: one fallback suffices");
        assert_rungs_are_ladder_prefix(&name, &plan, &ropts, &r.report.rungs());
    }
}

#[test]
fn zeroed_pivot_recovers_across_suite_matrices() {
    for (name, a, b) in suite_systems(3) {
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let row = a.n_rows() / 2;
        let ropts = ResilienceOptions {
            fault: Some(FaultInjection::zeroed_pivot(row)),
            ..Default::default()
        };
        let mut ws = plan.make_workspace();
        let r = plan.solve_resilient(&b, &ropts, &mut ws, NoProbe).unwrap();
        assert!(r.converged(), "{name}: must recover from a zeroed pivot: {:?}", r.report);
        assert!(r.report.attempts.len() >= 2, "{name}: the fault must actually bite");
        assert!(
            r.report.cause().is_some(),
            "{name}: a zeroed pivot must classify as a breakdown, got {:?}",
            r.report.attempts[0].stop
        );
        assert_rungs_are_ladder_prefix(&name, &plan, &ropts, &r.report.rungs());
    }
}

#[test]
fn corrupted_factor_entry_recovers_across_suite_matrices() {
    for (name, a, b) in suite_systems(3) {
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let row = a.n_rows() / 3;
        let ropts = ResilienceOptions {
            fault: Some(FaultInjection::corrupted_entry(row, row, 1e12)),
            ..Default::default()
        };
        let mut ws = plan.make_workspace();
        let r = plan.solve_resilient(&b, &ropts, &mut ws, NoProbe).unwrap();
        assert!(r.converged(), "{name}: must recover from a corrupted pivot: {:?}", r.report);
        assert_rungs_are_ladder_prefix(&name, &plan, &ropts, &r.report.rungs());
    }
}

#[test]
fn persistent_fault_descends_to_jacobi_and_recovers() {
    let (name, a, b) = suite_systems(1).remove(0);
    let plan = SpcgPlan::build(&a, opts()).unwrap();
    let n_rungs = plan.ladder(&ResilienceOptions::default()).len();
    let ropts = ResilienceOptions {
        fault: Some(FaultInjection::nan_at(0).persist_for(n_rungs - 1)),
        ..Default::default()
    };
    let mut ws = plan.make_workspace();
    let r = plan.solve_resilient(&b, &ropts, &mut ws, NoProbe).unwrap();
    assert!(r.converged(), "{name}: the Jacobi rung must still converge: {:?}", r.report);
    assert_eq!(r.report.rungs(), plan.ladder(&ropts), "{name}: full descent, in order");
    assert_eq!(r.report.attempts.last().unwrap().rung, FallbackRung::Jacobi, "{name}");
    for attempt in &r.report.attempts[..n_rungs - 1] {
        assert_eq!(attempt.stop.breakdown_kind(), Some(BreakdownKind::Nan), "{name}");
    }
}

#[test]
fn stalled_mixed_precond_promotes_precision_across_suite_matrices() {
    // The mixed tier's dedicated failure mode: the reduced-precision apply
    // stalls the recurrence (modeled by the stall fault zeroing the
    // preconditioned direction). Recovery must climb exactly one rung — the
    // promote-precision rung, which swaps in the resident full-width
    // factors without refactoring — and converge there.
    use spcg_core::{FallbackRung, PrecisionPolicy};

    for (name, a, b) in suite_systems(3) {
        let plan = SpcgPlan::build(&a, opts().with_precision(PrecisionPolicy::MixedF32)).unwrap();
        assert!(plan.is_mixed(), "{name}: MixedF32 must resolve mixed");
        let ropts =
            ResilienceOptions { fault: Some(FaultInjection::stall_at(1)), ..Default::default() };
        let mut ws = plan.make_workspace();
        let r = plan.solve_resilient(&b, &ropts, &mut ws, NoProbe).unwrap();
        assert!(r.converged(), "{name}: must recover from a precision stall: {:?}", r.report);
        assert_eq!(
            r.report.rungs(),
            vec![FallbackRung::Planned, FallbackRung::PromotePrecision],
            "{name}: a stall promotes precision, nothing more"
        );
        assert_eq!(
            r.report.total_factorizations(),
            0,
            "{name}: promotion reuses the resident full factors"
        );
        assert_rungs_are_ladder_prefix(&name, &plan, &ropts, &r.report.rungs());

        // The promoted solution matches a clean full-precision solve.
        let full = SpcgPlan::build(&a, opts()).unwrap().solve(&b).unwrap();
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let diff: Vec<f64> = full.x.iter().zip(&r.result.x).map(|(c, f)| c - f).collect();
        assert!(
            norm(&diff) <= 1e-6 * norm(&full.x).max(1.0),
            "{name}: promoted solution drifted from the full-precision one"
        );
    }
}

#[test]
fn recovered_solution_matches_the_clean_one() {
    // Recovery is not just "Converged": the recovered iterate solves the
    // same system to the same tolerance as a never-faulted solve.
    let (name, a, b) = suite_systems(1).remove(0);
    let plan = SpcgPlan::build(&a, opts()).unwrap();
    let clean = plan.solve(&b).unwrap();
    let ropts = ResilienceOptions { fault: Some(FaultInjection::nan_at(1)), ..Default::default() };
    let mut ws = plan.make_workspace();
    let r = plan.solve_resilient(&b, &ropts, &mut ws, NoProbe).unwrap();
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let diff: Vec<f64> = clean.x.iter().zip(&r.result.x).map(|(c, f)| c - f).collect();
    assert!(
        norm(&diff) <= 1e-6 * norm(&clean.x).max(1.0),
        "{name}: recovered solution drifted from the clean one"
    );
}

// ---------------------------------------------------------------------------
// Malformed input: every public solve entry point returns a typed error.
// ---------------------------------------------------------------------------

#[test]
fn malformed_inputs_error_instead_of_panicking() {
    let (_, a, b) = suite_systems(1).remove(0);
    let plan = SpcgPlan::build(&a, opts()).unwrap();
    let short = vec![1.0; a.n_rows() - 1];

    assert!(matches!(plan.solve(&short), Err(SolverError::RhsLength { .. })));
    assert!(matches!(plan.solve(&[]), Err(SolverError::RhsLength { .. })));
    let ropts = ResilienceOptions::default();
    assert!(plan.solve_resilient(&short, &ropts, &mut plan.make_workspace(), NoProbe).is_err());
    assert!(plan.solve_resilient(&[], &ropts, &mut plan.make_workspace(), NoProbe).is_err());
    let mut ws = plan.make_workspace();
    assert!(plan.solve_with_workspace(&short, &mut ws).is_err());
    assert!(plan.solve_in_place(&short, &mut ws, SolveCtx::default()).is_err());
    assert!(plan.solve_resilient(&short, &ropts, &mut ws, NoProbe).is_err());

    // Batched: the bad entry fails alone, its neighbours still solve.
    let out = plan.solve_many(&[b.clone(), short.clone(), b.clone()]);
    assert!(out[0].is_ok() && out[1].is_err() && out[2].is_ok());

    // Non-square operators are rejected at plan-build time.
    let mut coo = CooMatrix::new(2, 3);
    for (r, c, v) in [(0, 0, 1.0), (1, 1, 1.0), (1, 2, 0.5)] {
        coo.push(r, c, v).unwrap();
    }
    let rect: CsrMatrix<f64> = coo.to_csr();
    assert!(SpcgPlan::build(&rect, opts()).is_err());
}

#[test]
fn non_finite_rhs_is_reported_not_propagated_silently() {
    let (name, a, _) = suite_systems(1).remove(0);
    let plan = SpcgPlan::build(&a, opts()).unwrap();
    let mut bad = vec![1.0; a.n_rows()];
    bad[0] = f64::NAN;
    // A NaN right-hand side cannot converge; the guards must stop the
    // solve with a NaN breakdown instead of looping to max_iters.
    let r = plan.solve(&bad).unwrap();
    assert_eq!(
        r.stop,
        StopReason::Breakdown(BreakdownKind::Nan),
        "{name}: NaN input must classify as a NaN breakdown"
    );
    // And the resilient path gives up cleanly: every rung sees the same
    // poisoned rhs, the ladder stays bounded, and a report comes back.
    let solve = plan
        .solve_resilient(&bad, &ResilienceOptions::default(), &mut plan.make_workspace(), NoProbe)
        .unwrap();
    assert!(!solve.converged());
    assert!(!solve.report.recovered());
}
