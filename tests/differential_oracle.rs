//! Differential oracle: the end-to-end "is the answer right" net.
//!
//! Every `spcg-suite` recipe family is instantiated at a dense-checkable
//! size and solved two independent ways:
//!
//! * through the full SPCG pipeline ([`SpcgPlan`]): sparsify (Algorithm 2),
//!   incomplete-factor preconditioner, level-scheduled triangular sweeps,
//!   PCG — for every preconditioner kind and both with and without
//!   sparsification;
//! * through the dense reference path: `CsrMatrix::to_dense()` followed by
//!   Gaussian elimination with partial pivoting — no Krylov iteration, no
//!   preconditioner, no shared code with the pipeline past matrix
//!   assembly.
//!
//! Agreement is asserted per category band: the PCG relative *residual*
//! tolerance is 1e-10, so the relative *error* against the direct solve is
//! bounded by roughly `cond(A) * 1e-10`; the bands below encode each
//! family's conditioning at these sizes with an order of magnitude of
//! slack. The bands are documented in DESIGN.md §Testing — tighten them
//! only with evidence, loosening them requires understanding why.

use spcg::prelude::*;
use spcg::suite::recipes::{Ordering, Recipe};

/// One differential case: a recipe family at dense-checkable size plus the
/// relative-error band its conditioning earns it.
struct OracleCase {
    name: &'static str,
    recipe: Recipe,
    spread: f64,
    ordering: Ordering,
    /// Max allowed `||x - x_ref|| / ||x_ref||` (2-norm).
    band: f64,
}

/// Every `Recipe` variant appears at least once; orderings cover Natural,
/// Rcm, and Scrambled so permutation handling is under the net too.
fn cases() -> Vec<OracleCase> {
    vec![
        OracleCase {
            name: "poisson2d",
            recipe: Recipe::Poisson2D { nx: 20, ny: 20 },
            spread: 4.0,
            ordering: Ordering::Natural,
            band: 5e-7,
        },
        OracleCase {
            name: "poisson3d",
            recipe: Recipe::Poisson3D { nx: 7, ny: 7, nz: 7 },
            spread: 4.0,
            ordering: Ordering::Rcm,
            band: 5e-7,
        },
        OracleCase {
            name: "anisotropic",
            recipe: Recipe::Anisotropic { nx: 18, ny: 18, eps: 0.05 },
            spread: 1.0,
            ordering: Ordering::Natural,
            band: 5e-6,
        },
        OracleCase {
            name: "stencil9",
            recipe: Recipe::Stencil9 { nx: 18, ny: 18 },
            spread: 4.0,
            ordering: Ordering::Natural,
            band: 5e-7,
        },
        OracleCase {
            name: "varcoef",
            recipe: Recipe::VarCoef { nx: 18, ny: 18, lo: 0.1, hi: 10.0 },
            spread: 1.0,
            ordering: Ordering::Natural,
            band: 5e-6,
        },
        OracleCase {
            name: "graph_laplacian",
            recipe: Recipe::GraphLaplacian { n: 400, degree: 6, shift: 0.05 },
            spread: 3.0,
            ordering: Ordering::Scrambled,
            band: 5e-6,
        },
        OracleCase {
            name: "banded",
            recipe: Recipe::Banded { n: 400, band: 5, density: 0.7, dominance: 1.6 },
            spread: 3.0,
            ordering: Ordering::Natural,
            band: 1e-8,
        },
        OracleCase {
            name: "random_spd",
            recipe: Recipe::RandomSpd { n: 400, nnz_per_row: 6, dominance: 1.6 },
            spread: 3.0,
            ordering: Ordering::Scrambled,
            band: 1e-8,
        },
        OracleCase {
            name: "layered2d",
            recipe: Recipe::Layered2D { nx: 20, ny: 20, period: 4, weak: 0.015 },
            spread: 6.0,
            ordering: Ordering::Natural,
            band: 5e-6,
        },
        OracleCase {
            name: "layered3d",
            recipe: Recipe::Layered3D { nx: 7, ny: 7, nz: 7, period: 3, weak: 0.015 },
            spread: 6.0,
            ordering: Ordering::Rcm,
            band: 5e-6,
        },
    ]
}

fn rhs_for(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = spcg::sparse::Rng::new(seed);
    (0..n).map(|_| rng.range(-1.0, 1.0)).collect()
}

fn rel_err(x: &[f64], x_ref: &[f64]) -> f64 {
    let num: f64 = x.iter().zip(x_ref).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
    let den: f64 = x_ref.iter().map(|v| v * v).sum::<f64>().sqrt();
    num / den.max(f64::MIN_POSITIVE)
}

fn solver() -> SolverConfig {
    SolverConfig::default().with_tol(1e-10).with_max_iters(3000)
}

/// Pipeline configurations the oracle sweeps: every preconditioner kind,
/// sparsified and baseline.
fn pipeline_variants() -> Vec<(&'static str, SpcgOptions)> {
    let base = SpcgOptions { solver: solver(), ..SpcgOptions::default() };
    vec![
        ("spcg-ilu0", SpcgOptions { ilu_fill: IluFill::Ilu0, ..base.clone() }),
        ("spcg-iluk1", SpcgOptions { ilu_fill: IluFill::Iluk(1), ..base.clone() }),
        ("spcg-iluk2", SpcgOptions { ilu_fill: IluFill::Iluk(2), ..base.clone() }),
        ("pcg-ilu0", SpcgOptions { sparsify: None, ilu_fill: IluFill::Ilu0, ..base.clone() }),
        ("pcg-iluk1", SpcgOptions { sparsify: None, ilu_fill: IluFill::Iluk(1), ..base }),
    ]
}

#[test]
fn every_recipe_agrees_with_dense_reference() {
    for case in cases() {
        let a = case.recipe.build(11, case.spread, case.ordering);
        let n = a.n_rows();
        let b = rhs_for(n, 0xd1ff ^ n as u64);
        let x_ref = a.to_dense().solve(&b).expect("dense reference must solve SPD system");

        for (variant, opts) in pipeline_variants() {
            let plan = SpcgPlan::build(&a, &opts)
                .unwrap_or_else(|e| panic!("{}/{variant}: plan build failed: {e}", case.name));
            let result = plan
                .solve(&b)
                .unwrap_or_else(|e| panic!("{}/{variant}: solve failed: {e}", case.name));
            assert!(
                result.converged(),
                "{}/{variant}: stopped {:?} after {} iterations",
                case.name,
                result.stop,
                result.iterations
            );
            let err = rel_err(&result.x, &x_ref);
            assert!(
                err <= case.band,
                "{}/{variant}: relative error {err:.3e} exceeds band {:.0e} (n = {n})",
                case.name,
                case.band
            );
        }
    }
}

/// The level-free approximate-inverse family sits under the same net with
/// one documented concession: FSAI and SPAI are weaker preconditioners
/// than ILU at these sizes, so PCG takes more iterations and the
/// accumulated rounding in the longer Krylov recurrence lands the iterate
/// further from the direct solve. Convergence is still declared on the
/// true f64 residual at 1e-10, so the `cond(A)·tol` bound still governs —
/// the band is the ILU band widened by one order of magnitude, same
/// concession the mixed-precision tier gets, never more.
#[test]
fn level_free_preconditioners_agree_with_dense_reference() {
    for case in cases() {
        let a = case.recipe.build(11, case.spread, case.ordering);
        let n = a.n_rows();
        let b = rhs_for(n, 0xa14c ^ n as u64);
        let x_ref = a.to_dense().solve(&b).expect("dense reference must solve SPD system");
        let ainv_band = case.band * 10.0;

        for kind in [PrecondKind::Fsai, PrecondKind::Spai] {
            let opts =
                SpcgOptions { solver: solver(), ..SpcgOptions::default() }.with_precond(kind);
            let plan = SpcgPlan::build(&a, &opts).unwrap_or_else(|e| {
                panic!("{}/{}: plan build failed: {e}", case.name, kind.label())
            });
            assert!(
                plan.is_level_free(),
                "{}/{}: plan must be level-free",
                case.name,
                kind.label()
            );
            let result = plan
                .solve(&b)
                .unwrap_or_else(|e| panic!("{}/{}: solve failed: {e}", case.name, kind.label()));
            assert!(
                result.converged(),
                "{}/{}: stopped {:?} after {} iterations",
                case.name,
                kind.label(),
                result.stop,
                result.iterations
            );
            let err = rel_err(&result.x, &x_ref);
            assert!(
                err <= ainv_band,
                "{}/{}: relative error {err:.3e} exceeds band {ainv_band:.0e} (n = {n})",
                case.name,
                kind.label()
            );
        }
    }
}

/// Reordered plans sit under the same net: whichever permutation the
/// planner commits to (explicit RCM/coloring or the `auto` joint search),
/// the returned iterate is in the *original* ordering and must land inside
/// the same band against the dense reference as the natural plan does.
#[test]
fn reordered_plans_agree_with_dense_reference() {
    // Two contrasting families: a structured grid (where coloring cuts
    // levels hard) and a scrambled graph Laplacian (where RCM matters).
    for case in [&cases()[0], &cases()[5]] {
        let a = case.recipe.build(11, case.spread, case.ordering);
        let b = rhs_for(a.n_rows(), 0x0dd ^ a.n_rows() as u64);
        let x_ref = a.to_dense().solve(&b).expect("dense reference must solve SPD system");

        for ordering in [OrderingKind::Rcm, OrderingKind::Coloring, OrderingKind::Auto] {
            let opts =
                SpcgOptions { solver: solver(), ..SpcgOptions::default() }.with_ordering(ordering);
            let plan = SpcgPlan::build(&a, &opts)
                .unwrap_or_else(|e| panic!("{}/{ordering}: plan build failed: {e}", case.name));
            let result = plan
                .solve(&b)
                .unwrap_or_else(|e| panic!("{}/{ordering}: solve failed: {e}", case.name));
            assert!(
                result.converged(),
                "{}/{ordering}: stopped {:?} after {} iterations",
                case.name,
                result.stop,
                result.iterations
            );
            let err = rel_err(&result.x, &x_ref);
            assert!(
                err <= case.band,
                "{}/{ordering}: relative error {err:.3e} exceeds band {:.0e}",
                case.name,
                case.band
            );
        }
    }
}

/// The dependency-block executor sits under the same net — and under a
/// stronger one: because every executor accumulates each row's dot product
/// in CSR storage order, a dependency-block plan is not merely
/// band-accurate but *bitwise identical* to the sequential plan across
/// iterate, residual history, and iteration count, on every suite recipe.
/// `Auto` must resolve to one of the two and therefore match as well.
#[test]
fn dependency_block_plans_match_sequential_bitwise_on_every_recipe() {
    for case in cases() {
        let a = case.recipe.build(11, case.spread, case.ordering);
        let n = a.n_rows();
        let b = rhs_for(n, 0xb10c ^ n as u64);
        let x_ref = a.to_dense().solve(&b).expect("dense reference must solve SPD system");
        let base = SpcgOptions { solver: solver().with_history(true), ..SpcgOptions::default() };

        let seq = SpcgPlan::build(&a, &base).unwrap().solve(&b).unwrap();
        for exec in [ExecutionStrategy::DependencyBlocks, ExecutionStrategy::Auto] {
            let plan = SpcgPlan::build(&a, base.clone().with_exec(exec))
                .unwrap_or_else(|e| panic!("{}/{exec:?}: plan build failed: {e}", case.name));
            let r = plan
                .solve(&b)
                .unwrap_or_else(|e| panic!("{}/{exec:?}: solve failed: {e}", case.name));
            assert!(r.converged(), "{}/{exec:?}: stopped {:?}", case.name, r.stop);
            assert_eq!(r.x, seq.x, "{}/{exec:?}: iterate differs bitwise", case.name);
            assert_eq!(r.residual_history, seq.residual_history, "{}/{exec:?}", case.name);
            assert_eq!(r.iterations, seq.iterations, "{}/{exec:?}", case.name);
            let err = rel_err(&r.x, &x_ref);
            assert!(
                err <= case.band,
                "{}/{exec:?}: relative error {err:.3e} exceeds band {:.0e}",
                case.name,
                case.band
            );
        }
    }
}

/// The mixed-precision tier sits under the same net with one documented
/// concession: storing and applying the factors in f32 perturbs the Krylov
/// trajectory (the effective operator `M⁻¹A` changes at unit-roundoff-of-
/// f32 scale), so the returned iterate is a *different* residual-tolerance-
/// satisfying solution than the full-precision one. Convergence is still
/// declared on the full-precision f64 residual at 1e-10, so the error
/// bound `cond(A)·tol` still applies — the band below is the full-precision
/// band widened by one order of magnitude to absorb the trajectory
/// difference, never more.
#[test]
fn mixed_precision_agrees_with_dense_reference_within_looser_band() {
    for case in cases() {
        let a = case.recipe.build(11, case.spread, case.ordering);
        let n = a.n_rows();
        let b = rhs_for(n, 0xd1ff ^ n as u64);
        let x_ref = a.to_dense().solve(&b).expect("dense reference must solve SPD system");
        let mixed_band = case.band * 10.0;

        for policy in [PrecisionPolicy::MixedF32, PrecisionPolicy::Auto] {
            let opts =
                SpcgOptions { solver: solver(), ..SpcgOptions::default() }.with_precision(policy);
            let plan = SpcgPlan::build(&a, &opts)
                .unwrap_or_else(|e| panic!("{}/{policy}: plan build failed: {e}", case.name));
            let result = plan
                .solve(&b)
                .unwrap_or_else(|e| panic!("{}/{policy}: solve failed: {e}", case.name));
            assert!(
                result.converged(),
                "{}/{policy}: stopped {:?} after {} iterations",
                case.name,
                result.stop,
                result.iterations
            );
            let err = rel_err(&result.x, &x_ref);
            assert!(
                err <= mixed_band,
                "{}/{policy}: relative error {err:.3e} exceeds mixed band {mixed_band:.0e} \
                 (n = {n}, full band {:.0e})",
                case.name,
                case.band
            );
        }
    }
}

/// `PrecisionPolicy::Full` is not "mostly the same" as the pre-mixed-tier
/// pipeline — it is bitwise identical. An explicit `Full` must match the
/// default bit for bit across iterate, history, and iteration count, while
/// `MixedF32` on the same system must actually take a different trajectory
/// (otherwise the tier under test is dead code).
#[test]
fn full_policy_is_bitwise_identical_and_mixed_is_not() {
    for case in [&cases()[0], &cases()[7]] {
        let a = case.recipe.build(11, case.spread, case.ordering);
        let b = rhs_for(a.n_rows(), 0xf00d ^ a.n_rows() as u64);
        let base = SpcgOptions { solver: solver().with_history(true), ..SpcgOptions::default() };

        let default_plan = SpcgPlan::build(&a, &base).unwrap();
        let full_plan =
            SpcgPlan::build(&a, base.clone().with_precision(PrecisionPolicy::Full)).unwrap();
        let d = default_plan.solve(&b).unwrap();
        let f = full_plan.solve(&b).unwrap();
        assert_eq!(d.x, f.x, "{}: explicit Full must be bitwise the default", case.name);
        assert_eq!(d.residual_history, f.residual_history, "{}", case.name);
        assert_eq!(d.iterations, f.iterations, "{}", case.name);

        let mixed_plan =
            SpcgPlan::build(&a, base.clone().with_precision(PrecisionPolicy::MixedF32)).unwrap();
        let m = mixed_plan.solve(&b).unwrap();
        assert!(m.converged(), "{}: mixed must still converge", case.name);
        assert_ne!(d.x, m.x, "{}: the mixed tier must actually run narrow", case.name);
    }
}

/// The resilient entry point sits under the same net: with no fault, it
/// must agree with the dense reference exactly as the planned path does.
#[test]
fn resilient_path_agrees_with_dense_reference() {
    let case = &cases()[0];
    let a = case.recipe.build(11, case.spread, case.ordering);
    let b = rhs_for(a.n_rows(), 0xada);
    let x_ref = a.to_dense().solve(&b).unwrap();
    let plan =
        SpcgPlan::build(&a, SpcgOptions { solver: solver(), ..SpcgOptions::default() }).unwrap();
    let rs = plan
        .solve_resilient(&b, &ResilienceOptions::default(), &mut plan.make_workspace(), NoProbe)
        .unwrap();
    assert!(rs.converged() && rs.report.clean());
    assert!(rel_err(&rs.result.x, &x_ref) <= case.band);
}

/// A time-varying sequence sits under the same net: a session stepping
/// through drifting values (value-only plan refresh + warm start at every
/// step) must agree with an independent dense elimination of *each*
/// drifted operator. The refresh path reuses the sparsify decision and the
/// symbolic factorization of the opening matrix, so this is the oracle
/// check that the reused analysis stays numerically valid as the values
/// move.
#[test]
fn drifting_sequence_steps_agree_with_dense_reference() {
    for case in [&cases()[0], &cases()[6]] {
        let a = case.recipe.build(11, case.spread, case.ordering);
        let b = rhs_for(a.n_rows(), 0xd21f ^ a.n_rows() as u64);
        let service: SolveService = SolveService::new(ServiceConfig {
            options: SpcgOptions { solver: solver(), ..SpcgOptions::default() },
            ..ServiceConfig::default()
        });
        let mut session = service.open_session(&a).unwrap();
        let mut rng = spcg::sparse::Rng::new(0x5e9_u64 ^ a.n_rows() as u64);
        let mut current = a.clone();
        for step in 0..5 {
            let stats = session.step(&current, &b).unwrap();
            assert!(
                stats.converged(),
                "{}/step {step}: stopped {:?} after {} iterations",
                case.name,
                stats.stop,
                stats.iterations
            );
            let x_ref = current.to_dense().solve(&b).expect("dense reference solves SPD drift");
            let err = rel_err(session.solution(), &x_ref);
            assert!(
                err <= case.band,
                "{}/step {step}: relative error {err:.3e} exceeds band {:.0e}",
                case.name,
                case.band
            );
            // Symmetry-preserving drift: one uniform scale per step.
            let scale = 1.0 + 0.002 * rng.range(-1.0, 1.0);
            current = current.map_values(|v| v * scale);
        }
        assert!(service.stats().session_refreshes >= 4, "{}: drift must refresh", case.name);
    }
}

/// The serve layer is an amortization layer, not a numerics layer: a served
/// (cached) solve must land inside the same band as the dense reference.
#[test]
fn served_solves_agree_with_dense_reference() {
    let case = &cases()[6]; // banded: tightest band
    let a = case.recipe.build(11, case.spread, case.ordering);
    let b = rhs_for(a.n_rows(), 0x5e5e);
    let x_ref = a.to_dense().solve(&b).unwrap();
    let service: SolveService = SolveService::new(ServiceConfig {
        options: SpcgOptions { solver: solver(), ..SpcgOptions::default() },
        ..ServiceConfig::default()
    });
    let cold = service.solve(&a, &b).unwrap();
    let warm = service.solve(&a, &b).unwrap();
    assert!(!cold.cache_hit && warm.cache_hit);
    for out in [&cold, &warm] {
        assert!(out.result.converged());
        assert!(rel_err(&out.result.x, &x_ref) <= case.band);
    }
    assert_eq!(cold.result.x, warm.result.x, "cached solve must be bitwise identical");
}
