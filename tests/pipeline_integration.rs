//! Integration tests of the full Figure-2 pipeline across the workspace
//! crates: suite matrices → wavefront-aware sparsification → ILU
//! factorization → PCG on the original system, with GPU-model pricing.

use spcg::prelude::*;
use spcg::sparse::spmv::spmv_alloc;
use spcg_core::SelectionReason;
use spcg_gpusim::{pcg_iteration_cost, DeviceSpec};
use spcg_suite::{fast_collection, MatrixSpec};

fn solver() -> SolverConfig {
    SolverConfig::default().with_tol(1e-9).with_max_iters(800)
}

/// One pipeline run: the plan (analysis and factors) and its solve.
struct Run {
    plan: SpcgPlan<f64>,
    result: SolveResult<f64>,
}

/// One-shot pipeline run through the plan API: analyze, then solve.
fn run_pipeline(a: &CsrMatrix<f64>, b: &[f64], opts: SpcgOptions) -> Result<Run, String> {
    let plan = SpcgPlan::build(a, opts).map_err(|e| e.to_string())?;
    let result = plan.solve(b).map_err(|e| e.to_string())?;
    Ok(Run { plan, result })
}

/// A deterministic sample of the collection, small enough for CI.
fn sample() -> Vec<MatrixSpec> {
    fast_collection().into_iter().step_by(3).collect()
}

#[test]
fn spcg_converges_wherever_baseline_does() {
    for spec in sample() {
        let a = spec.build();
        let b = spec.rhs(a.n_rows());
        let base =
            run_pipeline(&a, &b, SpcgOptions::default().with_sparsify(None).with_solver(solver()))
                .unwrap_or_else(|e| panic!("{}: baseline failed: {e}", spec.name));
        let spcg = run_pipeline(&a, &b, SpcgOptions::default().with_solver(solver()))
            .unwrap_or_else(|e| panic!("{}: SPCG failed: {e}", spec.name));
        if base.result.converged() {
            assert!(
                spcg.result.converged(),
                "{}: baseline converged but SPCG did not (stop {:?})",
                spec.name,
                spcg.result.stop
            );
        }
    }
}

#[test]
fn spcg_solution_solves_the_original_system() {
    for spec in sample().into_iter().take(5) {
        let a = spec.build();
        let b = spec.rhs(a.n_rows());
        let out = run_pipeline(&a, &b, SpcgOptions::default().with_solver(solver())).unwrap();
        if !out.result.converged() {
            continue;
        }
        let ax = spmv_alloc(&a, &out.result.x);
        let b_norm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let resid: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
        assert!(
            resid / b_norm < 1e-7,
            "{}: relative residual vs ORIGINAL A is {}",
            spec.name,
            resid / b_norm
        );
    }
}

#[test]
fn sparsified_ilu0_never_has_more_wavefronts() {
    for spec in sample() {
        let a = spec.build();
        let b = spec.rhs(a.n_rows());
        let base =
            run_pipeline(&a, &b, SpcgOptions::default().with_sparsify(None).with_solver(solver()))
                .unwrap();
        let spcg = run_pipeline(&a, &b, SpcgOptions::default().with_solver(solver())).unwrap();
        assert!(
            spcg.plan.factors().total_wavefronts() <= base.plan.factors().total_wavefronts(),
            "{}: sparsification added wavefronts ({} > {})",
            spec.name,
            spcg.plan.factors().total_wavefronts(),
            base.plan.factors().total_wavefronts()
        );
    }
}

#[test]
fn decision_traces_are_well_formed() {
    for spec in sample() {
        let a = spec.build();
        let d = spcg_core::wavefront_aware_sparsify(&a, &SparsifyParams::default());
        assert!(!d.trace.is_empty(), "{}: empty trace", spec.name);
        assert!(
            [10.0, 5.0, 1.0].contains(&d.chosen_ratio),
            "{}: unexpected ratio {}",
            spec.name,
            d.chosen_ratio
        );
        // decomposition invariant
        let sum = d.sparsified.a_hat.add(&d.sparsified.s).unwrap().prune_zeros();
        assert_eq!(sum, a.prune_zeros(), "{}: A != A_hat + S", spec.name);
        // reasons consistent with the trace
        match d.reason {
            SelectionReason::WavefrontReduction | SelectionReason::LastRatio => {
                assert!(d.trace.iter().any(|t| t.ratio == d.chosen_ratio && t.passed_convergence));
            }
            SelectionReason::ConvergenceFallback => {
                assert!(d.trace.iter().all(|t| !t.passed_convergence));
                assert_eq!(d.chosen_ratio, 10.0);
            }
            SelectionReason::Fallthrough => {}
        }
    }
}

#[test]
fn gpu_model_prices_spcg_no_slower_for_ilu0() {
    // Per-iteration simulated cost of the sparsified preconditioner should
    // never exceed the baseline's for ILU(0): the factors are a subset.
    let dev = DeviceSpec::a100();
    for spec in sample() {
        let a = spec.build();
        let b = spec.rhs(a.n_rows());
        let base =
            run_pipeline(&a, &b, SpcgOptions::default().with_sparsify(None).with_solver(solver()))
                .unwrap();
        let spcg = run_pipeline(&a, &b, SpcgOptions::default().with_solver(solver())).unwrap();
        let tb = pcg_iteration_cost(&dev, &a, base.plan.factors()).total_us();
        let ts = pcg_iteration_cost(&dev, &a, spcg.plan.factors()).total_us();
        assert!(
            ts <= tb * 1.0001,
            "{}: simulated per-iteration cost increased ({ts} > {tb})",
            spec.name
        );
    }
}

#[test]
fn iluk_pipeline_beats_ilu0_on_iterations() {
    // More fill ⇒ at least as good convergence (on our well-behaved
    // matrices) — checks ILU(K) end to end through the pipeline.
    let spec = &fast_collection()[0];
    let a = spec.build();
    let b = spec.rhs(a.n_rows());
    let r0 = run_pipeline(
        &a,
        &b,
        SpcgOptions::default()
            .with_sparsify(None)
            .with_ilu_fill(IluFill::Ilu0)
            .with_solver(solver()),
    )
    .unwrap();
    let r2 = run_pipeline(
        &a,
        &b,
        SpcgOptions::default()
            .with_sparsify(None)
            .with_ilu_fill(IluFill::Iluk(2))
            .with_solver(solver()),
    )
    .unwrap();
    assert!(r0.result.converged() && r2.result.converged());
    assert!(
        r2.result.iterations <= r0.result.iterations,
        "ILU(2) {} > ILU(0) {}",
        r2.result.iterations,
        r0.result.iterations
    );
}
