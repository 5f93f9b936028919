//! Property-based tests of the plan/execute split: a reusable [`SpcgPlan`]
//! must be an exact drop-in for the layer-by-layer pipeline on randomized
//! operators, options, and right-hand sides.

use proptest::prelude::*;
use spcg_core::pipeline::{build_preconditioner, IluFill, SpcgOptions};
use spcg_core::{wavefront_aware_sparsify, SpcgPlan};
use spcg_solver::{pcg, SolveCtx, SolveResult, SolverConfig};
use spcg_sparse::generators::{random_spd, with_magnitude_spread};
use spcg_sparse::{CsrMatrix, Rng};

fn random_system(n: usize, seed: u64) -> (CsrMatrix<f64>, Vec<f64>) {
    let a = with_magnitude_spread(&random_spd(n, 4, 1.5, seed), 5.0, seed ^ 3);
    let mut rng = Rng::new(seed ^ 0xb0b);
    let b = (0..n).map(|_| rng.range(-1.0, 1.0)).collect();
    (a, b)
}

/// The Figure-2 pipeline composed from the layer below the plan:
/// Algorithm 2, then the factorization of `Â`, then PCG on the original
/// `A`. Returns the solve and the chosen drop ratio.
fn layered(a: &CsrMatrix<f64>, b: &[f64], opts: &SpcgOptions) -> (SolveResult<f64>, Option<f64>) {
    let decision = opts.sparsify.as_ref().map(|params| wavefront_aware_sparsify(a, params));
    let m = decision.as_ref().map_or(a, |d| &d.sparsified.a_hat);
    let factors = build_preconditioner(m, opts.ilu_fill, opts.exec).unwrap();
    (pcg(a, &factors, b, &opts.solver).unwrap(), decision.map(|d| d.chosen_ratio))
}

fn options(sparsify: bool, k: usize, history: bool) -> SpcgOptions {
    SpcgOptions {
        sparsify: if sparsify { Some(Default::default()) } else { None },
        ilu_fill: if k == 0 { IluFill::Ilu0 } else { IluFill::Iluk(k) },
        solver: SolverConfig::default().with_tol(1e-9).with_history(history),
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `SpcgPlan::build` + `solve` is bitwise identical to the pipeline
    /// composed layer by layer — same iterate, same residual trajectory,
    /// same analysis decision — for every operator/options combination.
    #[test]
    fn plan_solve_is_bitwise_identical_to_the_layered_pipeline(
        n in 20usize..80,
        seed in 0u64..300,
        sparsify in any::<bool>(),
        k in 0usize..3,
    ) {
        let (a, b) = random_system(n, seed);
        let opts = options(sparsify, k, true);
        let (reference, chosen_ratio) = layered(&a, &b, &opts);
        let plan = SpcgPlan::build(&a, &opts).unwrap();
        let result = plan.solve(&b).unwrap();
        prop_assert_eq!(&reference.x, &result.x);
        prop_assert_eq!(&reference.residual_history, &result.residual_history);
        prop_assert_eq!(reference.iterations, result.iterations);
        prop_assert_eq!(reference.stop, result.stop);
        prop_assert_eq!(chosen_ratio, plan.decision().map(|d| d.chosen_ratio));
    }

    /// One plan solving a batch of right-hand sides via `solve_many` gives
    /// exactly the N results of N independent solves, in input order.
    #[test]
    fn solve_many_matches_n_independent_solves(
        n in 20usize..60,
        seed in 0u64..200,
        n_rhs in 1usize..6,
        sparsify in any::<bool>(),
    ) {
        let (a, _) = random_system(n, seed);
        let opts = options(sparsify, 0, false);
        let plan = SpcgPlan::build(&a, &opts).unwrap();
        let mut rng = Rng::new(seed ^ 0xfeed);
        let rhs: Vec<Vec<f64>> = (0..n_rhs)
            .map(|_| (0..n).map(|_| rng.range(-2.0, 2.0)).collect())
            .collect();
        let batched: Vec<_> = plan.solve_many(&rhs).into_iter().map(|r| r.unwrap()).collect();
        prop_assert_eq!(batched.len(), n_rhs);
        for (i, b) in rhs.iter().enumerate() {
            let solo = plan.solve(b).unwrap();
            prop_assert_eq!(&batched[i].x, &solo.x, "rhs {} iterate differs", i);
            prop_assert_eq!(batched[i].iterations, solo.iterations);
            prop_assert_eq!(batched[i].stop, solo.stop);
        }
        // ...and each matches the layered pipeline too.
        let (solo_layered, _) = layered(&a, &rhs[0], &opts);
        prop_assert_eq!(&batched[0].x, &solo_layered.x);
    }

    /// `refresh_values` with the *unchanged* matrix is a bitwise no-op: the
    /// refreshed plan reproduces the original's iterate, residual
    /// trajectory, iteration count, and stop reason exactly — and a warm
    /// start on a zeroed workspace equals the cold solve.
    #[test]
    fn refresh_with_unchanged_values_is_bitwise_identical(
        n in 20usize..80,
        seed in 0u64..300,
        sparsify in any::<bool>(),
        k in 0usize..3,
    ) {
        let (a, b) = random_system(n, seed);
        let opts = options(sparsify, k, true);
        let plan = SpcgPlan::build(&a, &opts).unwrap();
        let refreshed = plan.refresh_values(&a).unwrap();
        let base = plan.solve(&b).unwrap();
        let re = refreshed.solve(&b).unwrap();
        prop_assert_eq!(&base.x, &re.x);
        prop_assert_eq!(&base.residual_history, &re.residual_history);
        prop_assert_eq!(base.iterations, re.iterations);
        prop_assert_eq!(base.stop, re.stop);
        // A fresh workspace holds x0 = 0, so the "warm" start from it must
        // be the cold solve, bit for bit.
        let mut ws = refreshed.make_workspace();
        let warm = SolveCtx { warm: true, ..SolveCtx::default() };
        let stats = refreshed.solve_in_place(&b, &mut ws, warm).unwrap();
        prop_assert_eq!(ws.solution(), &re.x[..]);
        prop_assert_eq!(stats.iterations, re.iterations);
    }

    /// A reused workspace never contaminates later solves: interleaving
    /// systems of different sizes through one workspace reproduces the
    /// fresh-workspace results exactly.
    #[test]
    fn workspace_reuse_across_plans_is_exact(
        n1 in 16usize..40,
        n2 in 41usize..80,
        seed in 0u64..100,
    ) {
        let (a1, b1) = random_system(n1, seed);
        let (a2, b2) = random_system(n2, seed ^ 1);
        let opts = options(true, 0, true);
        let p1 = SpcgPlan::build(&a1, &opts).unwrap();
        let p2 = SpcgPlan::build(&a2, &opts).unwrap();
        let mut ws = p1.make_workspace();
        // small -> large -> small through ONE workspace
        let r1 = p1.solve_with_workspace(&b1, &mut ws).unwrap();
        let r2 = p2.solve_with_workspace(&b2, &mut ws).unwrap();
        let r1_again = p1.solve_with_workspace(&b1, &mut ws).unwrap();
        prop_assert_eq!(&p1.solve(&b1).unwrap().x, &r1.x);
        prop_assert_eq!(&p2.solve(&b2).unwrap().x, &r2.x);
        prop_assert_eq!(&r1.x, &r1_again.x);
        prop_assert_eq!(r1.x.len(), n1);
        prop_assert_eq!(r2.x.len(), n2);
    }
}
