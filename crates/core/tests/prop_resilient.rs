//! Property-based tests of the breakdown-resilience layer: the fallback
//! ladder must be bounded, invisible when nothing breaks, and the shifted
//! refactorization must hand back structurally sound factors whatever the
//! operator.

use proptest::prelude::*;
use spcg_core::pipeline::{IluFill, SpcgOptions};
use spcg_core::{FaultInjection, ResilienceOptions, SpcgPlan};
use spcg_precond::{shifted_factorization, ExecutionStrategy, FactorKind, ShiftPolicy};
use spcg_probe::NoProbe;
use spcg_solver::SolverConfig;
use spcg_sparse::generators::{random_spd, with_magnitude_spread};
use spcg_sparse::Rng;

fn random_system(n: usize, seed: u64) -> (spcg_sparse::CsrMatrix<f64>, Vec<f64>) {
    let a = with_magnitude_spread(&random_spd(n, 4, 1.5, seed), 5.0, seed ^ 3);
    let mut rng = Rng::new(seed ^ 0xb0b);
    let b = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
    (a, b)
}

fn options(sparsify: bool, k: usize) -> SpcgOptions {
    SpcgOptions {
        sparsify: if sparsify { Some(Default::default()) } else { None },
        ilu_fill: if k == 0 { IluFill::Ilu0 } else { IluFill::Iluk(k) },
        solver: SolverConfig::default().with_tol(1e-9).with_history(true),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// With no fault injected, `solve_resilient` is bitwise identical to
    /// `solve_with_workspace` on every healthy operator: the
    /// guards are comparisons only and attempt 0 uses the plan's own
    /// factors.
    #[test]
    fn faults_off_resilient_is_bitwise_identical(
        n in 20usize..70,
        seed in 0u64..250,
        sparsify in any::<bool>(),
        k in 0usize..3,
    ) {
        let (a, b) = random_system(n, seed);
        let plan = SpcgPlan::build(&a, options(sparsify, k)).unwrap();
        let mut ws = plan.make_workspace();
        let plain = plan.solve_with_workspace(&b, &mut ws).unwrap();
        let resilient =
            plan.solve_resilient(&b, &ResilienceOptions::default(), &mut ws, NoProbe).unwrap();
        prop_assert_eq!(&plain.x, &resilient.result.x);
        prop_assert_eq!(&plain.residual_history, &resilient.result.residual_history);
        prop_assert_eq!(plain.iterations, resilient.result.iterations);
        prop_assert_eq!(plain.stop, resilient.result.stop);
        prop_assert!(resilient.report.clean());
    }

    /// The ladder always terminates within its published bound, whatever
    /// fault is active and however long it persists — and the executed
    /// rungs are always a leading prefix of the published ladder.
    #[test]
    fn ladder_terminates_within_bound(
        n in 16usize..50,
        seed in 0u64..200,
        sparsify in any::<bool>(),
        persist in 0usize..12,
        fault_kind in 0usize..3,
        fault_at in 0usize..6,
    ) {
        let (a, b) = random_system(n, seed);
        let plan = SpcgPlan::build(&a, options(sparsify, 0)).unwrap();
        let fault = match fault_kind {
            0 => FaultInjection::nan_at(fault_at),
            1 => FaultInjection::zeroed_pivot(fault_at % n),
            _ => FaultInjection::corrupted_entry(fault_at % n, fault_at % n, 1e14),
        }
        .persist_for(persist);
        let ropts = ResilienceOptions { fault: Some(fault), ..Default::default() };
        let bound = plan.ladder(&ropts).len();
        let mut ws = plan.make_workspace();
        let r = plan.solve_resilient(&b, &ropts, &mut ws, NoProbe).unwrap();
        prop_assert!(!r.report.attempts.is_empty());
        prop_assert!(
            r.report.attempts.len() <= bound,
            "{} attempts exceed the {}-rung ladder", r.report.attempts.len(), bound
        );
        let ladder = plan.ladder(&ropts);
        let executed = r.report.rungs();
        prop_assert_eq!(executed.as_slice(), &ladder[..r.report.attempts.len()]);
        // Once the fault expires, the next rung is healthy: any persistence
        // shorter than the ladder must still converge.
        if persist < bound {
            prop_assert!(r.converged(), "expired fault must recover: {:?}", r.report);
        }
    }

    /// Shifted refactorization hands back structurally sound factors on
    /// every operator it accepts: square factors of the system's dimension,
    /// all stored values finite, every pivot nonzero, and the reported
    /// attempt count within the policy bound. An unshifted success must
    /// report `alpha == 0`.
    #[test]
    fn shifted_factors_preserve_invariants(
        n in 10usize..60,
        seed in 0u64..300,
        k in 0usize..3,
        initial_shift in 1e-4f64..1e-1,
    ) {
        let (a, _) = random_system(n, seed);
        let policy = ShiftPolicy { initial_shift, ..Default::default() };
        let kind = if k == 0 { FactorKind::Ilu0 } else { FactorKind::Iluk(k) };
        let s = shifted_factorization(&a, kind, ExecutionStrategy::Sequential, &policy).unwrap();
        prop_assert!(s.attempts >= 1 && s.attempts <= policy.max_attempts);
        prop_assert!(s.alpha >= 0.0);
        prop_assert_eq!(s.is_unshifted(), s.alpha == 0.0);
        let (l, u) = (s.factors.l(), s.factors.u());
        prop_assert_eq!(l.n_rows(), n);
        prop_assert_eq!(u.n_rows(), n);
        prop_assert!(l.is_square() && u.is_square());
        for (r, c, v) in l.iter() {
            prop_assert!(c <= r, "L must be lower triangular");
            prop_assert!(v.is_finite());
            if c == r {
                prop_assert_eq!(v, 1.0, "L carries a unit diagonal");
            }
        }
        let mut pivots = 0usize;
        for (r, c, v) in u.iter() {
            prop_assert!(c >= r, "U must be upper triangular");
            prop_assert!(v.is_finite());
            if c == r {
                prop_assert!(v != 0.0, "pivot must be nonzero after shifting");
                pivots += 1;
            }
        }
        prop_assert_eq!(pivots, n, "every row needs a stored pivot");
    }
}
