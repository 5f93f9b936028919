//! The PR-8 serving surface: sequence sessions (value-only plan refresh +
//! warm starts), ticket cancellation, and the `SolveRequest` builder that
//! replaced the `submit_*` family.

use spcg_core::{SpcgOptions, SpcgPlan};
use spcg_probe::{Counter, RecordingProbe, Span};
use spcg_serve::{RequestPolicy, ServeError, ServiceConfig, SolveRequest, SolveService, SolveTier};
use spcg_solver::SolverConfig;
use spcg_sparse::generators::{poisson_2d, with_magnitude_spread};
use spcg_sparse::{CsrMatrix, Rng, SparseError};
use std::sync::Arc;
use std::time::Duration;

fn matrix() -> CsrMatrix<f64> {
    with_magnitude_spread(&poisson_2d(14, 14), 5.0, 3)
}

fn options() -> SpcgOptions {
    SpcgOptions { solver: SolverConfig::default().with_tol(1e-10), ..SpcgOptions::default() }
}

fn service() -> SolveService {
    SolveService::new(ServiceConfig {
        workers: 1,
        batch_window: Duration::ZERO,
        options: options(),
        ..ServiceConfig::default()
    })
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.range(-1.0, 1.0)).collect()
}

#[test]
fn session_reuses_refreshes_and_warm_starts() {
    let a = matrix();
    let service = service();
    let b = rhs(a.n_rows(), 0xbeef);

    let mut session = service.open_session(&a).unwrap();
    let cold = session.step(&a, &b).unwrap();
    assert!(cold.converged() && cold.iterations > 0);

    // Same values, same rhs: the resident solution already satisfies the
    // tolerance, so the warm start converges without a single iteration.
    let warm = session.step(&a, &b).unwrap();
    assert!(warm.converged());
    assert_eq!(warm.iterations, 0, "a warm re-step of the same system must be free");

    // Drifted values: the plan refreshes (numeric factorization only) and
    // the step still warm-starts from the previous solution.
    let a2 = a.map_values(|v| v * 1.001);
    let drift = session.step(&a2, &b).unwrap();
    assert!(drift.converged());
    assert!(
        drift.iterations < cold.iterations,
        "warm start on a 0.1% drift must beat the cold solve ({} >= {})",
        drift.iterations,
        cold.iterations
    );

    let stats = service.stats();
    assert_eq!(stats.sessions_opened, 1);
    assert_eq!(stats.session_steps, 3);
    assert_eq!(stats.session_refreshes, 1, "only the drifted step refreshes");
}

/// The probe proof, one layer above the plan: a drifted session step emits
/// `plan.refresh` + the numeric factorization only — never the sparsify /
/// reorder / level-build cascade of a full plan build.
#[test]
fn drifted_step_refreshes_without_rebuilding_analysis() {
    let a = matrix();
    let service = service();
    let b = rhs(a.n_rows(), 0xfade);
    let mut session = service.open_session(&a).unwrap();
    session.step(&a, &b).unwrap();

    let a2 = a.map_values(|v| v * 1.002);
    let mut probe = RecordingProbe::new();
    let stats = session.step_probed(&a2, &b, &mut probe).unwrap();
    assert!(stats.converged());
    let trace = probe.finish();
    let spans: Vec<Span> = trace.span_records().unwrap().into_iter().map(|r| r.span).collect();
    assert!(spans.contains(&Span::PlanRefresh), "drift must go through the refresh path");
    assert!(spans.contains(&Span::Factorize), "refresh re-runs the numeric factorization");
    for reused in [Span::Sparsify, Span::Reorder, Span::LevelBuild, Span::PlanBuild] {
        assert!(
            !spans.contains(&reused),
            "{reused:?} fired during a value-only refresh: analysis was not reused"
        );
    }
    assert_eq!(trace.counter_total(Counter::ServeSessionRefresh), 1);
    assert_eq!(trace.counter_total(Counter::PlanRefreshFallback), 0);
}

/// Sessions share refreshed plans through the service cache: a twin session
/// stepping onto values another session already refreshed to gets the
/// resident plan (same `Arc`), paying no second factorization.
#[test]
fn twin_sessions_share_refreshed_plans_through_the_cache() {
    let a = matrix();
    let service = service();
    let b = rhs(a.n_rows(), 0xcafe);
    let a2 = a.map_values(|v| v * 1.003);

    let mut s1 = service.open_session(&a).unwrap();
    let mut s2 = service.open_session(&a).unwrap();
    assert_ne!(s1.id(), s2.id());
    assert!(Arc::ptr_eq(s1.plan(), s2.plan()), "same structure digest, same cached plan");

    s1.step(&a2, &b).unwrap(); // pays the refresh, caches the result
    s2.step(&a2, &b).unwrap(); // finds the value twin resident
    assert!(Arc::ptr_eq(s1.plan(), s2.plan()), "the refreshed plan must be shared");
    assert_eq!(service.stats().session_refreshes, 1, "the twin must not refresh again");
}

#[test]
fn session_rejects_structural_change() {
    let a = matrix();
    let service = service();
    let mut session = service.open_session(&a).unwrap();
    session.step(&a, &rhs(a.n_rows(), 1)).unwrap();

    let other = poisson_2d(9, 9);
    match session.step(&other, &rhs(other.n_rows(), 2)) {
        Err(ServeError::PlanBuild(SparseError::InvalidStructure(msg))) => {
            assert!(msg.contains("open a new session"), "unhelpful message: {msg}");
        }
        other => panic!("a structural change must be refused, got {other:?}"),
    }
    // The session survives the refusal and keeps serving its structure.
    assert!(session.step(&a, &rhs(a.n_rows(), 3)).unwrap().converged());
}

/// A session step agrees with a from-scratch plan of the drifted system to
/// solver tolerance (the warm start changes the iterate path, not the
/// fixed point).
#[test]
fn session_steps_match_fresh_plans_numerically() {
    let a = matrix();
    let service = service();
    let b = rhs(a.n_rows(), 0x50de);
    let mut session = service.open_session(&a).unwrap();
    let mut current = a.clone();
    for step in 0..4 {
        session.step(&current, &b).unwrap();
        let fresh = SpcgPlan::build(&current, options()).unwrap().solve(&b).unwrap();
        let x = session.solution();
        let diff: f64 = x.iter().zip(&fresh.x).map(|(s, f)| (s - f) * (s - f)).sum::<f64>().sqrt();
        let norm: f64 = fresh.x.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            diff / norm < 1e-6,
            "step {step}: session iterate drifted from the fresh solve ({})",
            diff / norm
        );
        current = current.map_values(|v| v * 1.002);
    }
}

#[test]
fn cancelled_queued_request_is_skipped_and_tallied() {
    let a0 = Arc::new(matrix());
    let a1 = Arc::new(with_magnitude_spread(&poisson_2d(12, 15), 4.0, 9));
    // One worker parked in a long admission window so the victim request
    // observably sits in the queue while we cancel it. The victim rides a
    // different fingerprint, so the parked batch cannot coalesce it.
    let service = SolveService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        batch_window: Duration::from_millis(200),
        batch_limit: 2,
        options: options(),
        ..ServiceConfig::default()
    });
    let parked = service.submit(SolveRequest::new(Arc::clone(&a0), rhs(a0.n_rows(), 4))).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // worker pops it, sleeps its window
    let victim = service
        .submit(
            SolveRequest::new(Arc::clone(&a1), rhs(a1.n_rows(), 5))
                .policy(RequestPolicy::default()),
        )
        .unwrap();
    victim.cancel();
    assert!(
        matches!(victim.wait(), Err(ServeError::Cancelled)),
        "a cancelled queued request must be answered with the typed error"
    );
    assert!(parked.wait().unwrap().result.converged(), "batchmates are unaffected");

    let stats = service.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, stats.requests, "cancelled requests still complete");
    assert_eq!(
        stats.offered,
        stats.admitted + stats.downgraded + stats.shed + stats.closed_rejected,
        "cancellation happens after admission; the reconciliation invariant is untouched"
    );
}

#[test]
fn cancel_after_completion_is_a_no_op() {
    let a = Arc::new(matrix());
    let service = service();
    let b = rhs(a.n_rows(), 6);
    let ticket = service.submit(SolveRequest::new(Arc::clone(&a), b)).unwrap();
    // Give the single worker time to finish before cancelling.
    std::thread::sleep(Duration::from_millis(100));
    ticket.cancel();
    let out = ticket.wait().expect("a finished request ignores a late cancel");
    assert!(out.result.converged());
    assert_eq!(service.stats().cancelled, 0, "a lost cancel race must not tally");
}

/// The builder path is the old path: a `SolveRequest` submission, a policy
/// submission, and the synchronous solve all produce bitwise-identical
/// iterates.
#[test]
fn builder_submissions_match_synchronous_solves_bitwise() {
    let a = Arc::new(matrix());
    let service = service();
    let b = rhs(a.n_rows(), 7);

    let plain =
        service.submit(SolveRequest::new(Arc::clone(&a), b.clone())).unwrap().wait().unwrap();
    let policied = service
        .submit(SolveRequest::new(Arc::clone(&a), b.clone()).policy(RequestPolicy::default()))
        .unwrap()
        .wait()
        .unwrap();
    let sync = service.solve(&a, &b).unwrap();
    assert_eq!(plain.result.x, sync.result.x);
    assert_eq!(policied.result.x, sync.result.x);
    assert_eq!(policied.tier, SolveTier::Full);
}
