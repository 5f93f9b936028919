//! The experiment runner shared by every bench target: build a matrix,
//! run baseline PCG and SPCG variants with *real* numerics, and price the
//! runs on a simulated device.

use serde::{Deserialize, Serialize};
use spcg_core::{
    sparsify_by_magnitude, wavefront_aware_sparsify, IluFill, SparsifyParams, SpcgOptions, SpcgPlan,
};
use spcg_gpusim::{end_to_end_cost, plan_iteration_cost, DeviceSpec, IterationCost};
use spcg_precond::{ilu0, ExecutionStrategy, IluFactors};
use spcg_solver::{SolveCtx, SolveWorkspace, SolverConfig, StopReason};
use spcg_sparse::{CsrMatrix, Result};
use spcg_wavefront::wavefront_count;

/// Which solver configuration a run uses.
#[derive(Debug, Clone)]
pub enum Variant {
    /// Non-sparsified PCG (the cuSPARSE-style baseline).
    Baseline,
    /// SPCG with the wavefront-aware heuristic (Algorithm 2).
    Heuristic(SparsifyParams),
    /// SPCG with a fixed sparsification ratio (percent) — the Table 1
    /// ablation arms and the oracle sweep.
    Fixed(f64),
}

impl Variant {
    /// Display label.
    pub fn label(&self) -> String {
        match self {
            Variant::Baseline => "baseline".into(),
            Variant::Heuristic(_) => "spcg".into(),
            Variant::Fixed(r) => format!("fixed{r}%"),
        }
    }
}

/// ILU(K) fill guard: symbolic patterns larger than this multiple of
/// nnz(A) (or this absolute entry count) are rejected, mirroring the
/// paper's exclusion of configurations that cannot complete.
pub const FILL_CAP_FACTOR: usize = 30;
/// Absolute fill cap.
pub const FILL_CAP_ABS: usize = 6_000_000;

/// Everything measured for one (matrix, variant, device) evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalResult {
    /// Variant label.
    pub variant: String,
    /// Real iteration count from the f64 solver.
    pub iterations: usize,
    /// Converged under the configured tolerance.
    pub converged: bool,
    /// Final residual.
    pub final_residual: f64,
    /// Simulated per-iteration time, µs.
    pub per_iteration_us: f64,
    /// Simulated end-to-end time (sparsify + inspector + factorization +
    /// iterations), µs.
    pub end_to_end_us: f64,
    /// Simulated factorization-phase time, µs.
    pub factorization_us: f64,
    /// Ratio chosen by the variant (None for baseline).
    pub chosen_ratio: Option<f64>,
    /// Wavefronts of the matrix handed to the factorization.
    pub wavefronts_matrix: usize,
    /// Wavefronts of the factors (L levels + U levels).
    pub wavefronts_factors: usize,
    /// nnz of the factors.
    pub factor_nnz: usize,
    /// Detailed per-iteration kernel breakdown.
    pub iteration_cost: IterationCost,
    /// Measured (real CPU) solve-loop seconds — used by the CPU
    /// portability experiment.
    pub measured_solve_seconds: f64,
}

/// Builds the preconditioner for `m` under `kind`, returning the factors
/// and the pattern matrix the factorization sweep ran over (for the cost
/// model). Applies the ILU(K) fill guard.
pub fn build_factors(
    m: &CsrMatrix<f64>,
    kind: IluFill,
    exec: ExecutionStrategy,
) -> Result<(IluFactors<f64>, CsrMatrix<f64>)> {
    match kind {
        IluFill::Ilu0 => Ok((ilu0(m, exec)?, m.clone())),
        IluFill::Iluk(k) => {
            let cap = FILL_CAP_ABS.min(FILL_CAP_FACTOR.saturating_mul(m.nnz()));
            let (pattern, _sym) = spcg_precond::iluk_pattern_matrix_capped(m, k, cap)?;
            // Numeric ILU on the padded pattern == ILU(K).
            Ok((ilu0(&pattern, exec)?, pattern))
        }
    }
}

/// Builds the analyzed [`SpcgPlan`] for one variant: the variant's
/// sparsification feeds the bench's fill-capped factorization, and the
/// plan carries the original `A` plus the factors for any number of
/// solves. Returns the plan, the factored pattern (for the cost model),
/// and the ratio the variant chose.
pub fn plan_variant(
    a: &CsrMatrix<f64>,
    kind: IluFill,
    variant: &Variant,
    solver: &SolverConfig,
    exec: ExecutionStrategy,
) -> Result<(SpcgPlan<f64>, CsrMatrix<f64>, Option<f64>)> {
    let (m_for_fact, chosen_ratio) = match variant {
        Variant::Baseline => (a.clone(), None),
        Variant::Heuristic(params) => {
            let d = wavefront_aware_sparsify(a, params);
            let r = d.chosen_ratio;
            (d.sparsified.a_hat, Some(r))
        }
        Variant::Fixed(r) => (sparsify_by_magnitude(a, *r).a_hat, Some(*r)),
    };
    let (factors, pattern) = build_factors(&m_for_fact, kind, exec)?;
    let opts = SpcgOptions {
        sparsify: None,
        ilu_fill: kind,
        exec,
        solver: solver.clone(),
        ..Default::default()
    };
    let plan =
        SpcgPlan::from_factors(a.clone(), factors, opts)?.with_factored_matrix(m_for_fact)?;
    Ok((plan, pattern, chosen_ratio))
}

/// Runs one variant of one matrix on one simulated device, reusing `ws`
/// across calls so repeated evaluations share one set of solve buffers.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_with_workspace(
    a: &CsrMatrix<f64>,
    b: &[f64],
    kind: IluFill,
    device: &DeviceSpec,
    variant: &Variant,
    solver: &SolverConfig,
    exec: ExecutionStrategy,
    ws: &mut SolveWorkspace<f64>,
) -> Result<EvalResult> {
    let (plan, pattern, chosen_ratio) = plan_variant(a, kind, variant, solver, exec)?;
    let factors = plan.factors();
    let m_for_fact = plan.factored_matrix();

    // Real numerics: PCG on the ORIGINAL A with the (possibly sparsified)
    // preconditioner, in f64 so the paper's 1e-12-style tolerances are
    // meaningful.
    let result = plan
        .solve_with_workspace(b, ws)
        .map_err(|e| spcg_sparse::SparseError::DimensionMismatch(e.to_string()))?;

    // Simulated timing with the real iteration count.
    let iter_cost = plan_iteration_cost(device, &plan);
    let mut e2e =
        end_to_end_cost(device, a, &pattern, factors, result.iterations, chosen_ratio.is_some());
    if matches!(kind, IluFill::Iluk(_)) {
        // The paper computes ILU(K) factors on the CPU with SuperLU (§3.3)
        // because the fill's changing dependences defeat a direct CUDA
        // implementation — so the construction phase is priced as a SERIAL
        // host factorization, where it dominates end-to-end exactly as in
        // the paper (gmean e2e 3.73x vs per-iteration 1.65x).
        let cpu = DeviceSpec::epyc_7413();
        e2e.factorization_us =
            spcg_gpusim::ilu::ilu_factorization_cost_serial(&cpu, &pattern).time_us;
    }

    Ok(EvalResult {
        variant: variant.label(),
        iterations: result.iterations,
        converged: result.stop == StopReason::Converged,
        final_residual: result.final_residual,
        per_iteration_us: iter_cost.total_us(),
        end_to_end_us: e2e.total_us(),
        factorization_us: e2e.factorization_us,
        chosen_ratio,
        wavefronts_matrix: wavefront_count(m_for_fact),
        wavefronts_factors: factors.l_schedule().n_levels() + factors.u_schedule().n_levels(),
        factor_nnz: factors.l().nnz() + factors.u().nnz(),
        iteration_cost: iter_cost,
        measured_solve_seconds: result.timings.total.as_secs_f64(),
    })
}

/// Runs one variant of one matrix on one simulated device with a
/// throwaway workspace. See [`evaluate_with_workspace`] to amortize the
/// solve buffers across evaluations.
pub fn evaluate(
    a: &CsrMatrix<f64>,
    b: &[f64],
    kind: IluFill,
    device: &DeviceSpec,
    variant: &Variant,
    solver: &SolverConfig,
    exec: ExecutionStrategy,
) -> Result<EvalResult> {
    let mut ws = SolveWorkspace::new(a.n_rows(), a.n_rows());
    evaluate_with_workspace(a, b, kind, device, variant, solver, exec, &mut ws)
}

/// Baseline-vs-variant comparison for one matrix on one device — the unit
/// of Figures 4/5/8 and Tables 1/2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Matrix name.
    pub name: String,
    /// Category label (empty when not applicable).
    pub category: String,
    /// Dimension.
    pub n: usize,
    /// Nonzeros of A.
    pub nnz: usize,
    /// Baseline evaluation.
    pub base: EvalResult,
    /// SPCG (or fixed-ratio) evaluation.
    pub spcg: EvalResult,
}

impl ComparisonRow {
    /// Simulated per-iteration speedup (baseline / SPCG).
    pub fn per_iteration_speedup(&self) -> f64 {
        self.base.per_iteration_us / self.spcg.per_iteration_us
    }

    /// Simulated end-to-end speedup; `None` unless both runs converged
    /// (the paper's end-to-end analysis keeps converging matrices only).
    pub fn end_to_end_speedup(&self) -> Option<f64> {
        (self.base.converged && self.spcg.converged)
            .then(|| self.base.end_to_end_us / self.spcg.end_to_end_us)
    }

    /// Simulated factorization-phase speedup.
    pub fn factorization_speedup(&self) -> f64 {
        self.base.factorization_us / self.spcg.factorization_us
    }

    /// Wavefront reduction of Equation 7, percent, measured on the matrix
    /// handed to the factorization.
    pub fn wavefront_reduction_pct(&self) -> f64 {
        spcg_wavefront::wavefront_reduction_percent(
            self.base.wavefronts_matrix,
            self.spcg.wavefronts_matrix,
        )
    }

    /// `true` when iteration counts stayed "approximately the same" (the
    /// paper's §4.3 criterion): within 10% of the baseline, or within 3
    /// absolute iterations — our synthetic systems converge in tens of
    /// iterations, where a ±2 wobble is noise rather than a convergence
    /// change.
    pub fn iterations_approx_same(&self) -> bool {
        let b = self.base.iterations as f64;
        let s = self.spcg.iterations as f64;
        (s - b).abs() <= (0.10 * b).max(3.0)
    }
}

/// Runs baseline + variant and assembles a [`ComparisonRow`].
#[allow(clippy::too_many_arguments)]
pub fn compare(
    name: &str,
    category: &str,
    a: &CsrMatrix<f64>,
    b: &[f64],
    kind: IluFill,
    device: &DeviceSpec,
    variant: &Variant,
    solver: &SolverConfig,
) -> Result<ComparisonRow> {
    let exec = ExecutionStrategy::Sequential;
    // One workspace serves both arms of the comparison.
    let mut ws = SolveWorkspace::new(a.n_rows(), a.n_rows());
    let base =
        evaluate_with_workspace(a, b, kind, device, &Variant::Baseline, solver, exec, &mut ws)?;
    let spcg = evaluate_with_workspace(a, b, kind, device, variant, solver, exec, &mut ws)?;
    Ok(ComparisonRow {
        name: name.to_string(),
        category: category.to_string(),
        n: a.n_rows(),
        nnz: a.nnz(),
        base,
        spcg,
    })
}

/// The bench-wide solver configuration: f64 numerics, relative tolerance
/// 1e-10 (the f64 analogue of the paper's 1e-12-with-f32 setting), 1000
/// iteration cap as in §4.3.
pub fn bench_solver_config() -> SolverConfig {
    SolverConfig::default().with_tol(1e-10).with_max_iters(1000)
}

/// Selects the paper's per-matrix K for ILU(K) experiments: candidates are
/// level-of-fill {2, 4, 8} (substituting for the paper's {10, 20, 30, 40}
/// sweep on matrices 1–2 orders of magnitude larger — see DESIGN.md),
/// judged by baseline PCG convergence. The fill cap excludes candidates
/// whose pattern explodes, as the paper excludes non-completing configs.
pub fn select_k(a: &CsrMatrix<f64>, b: &[f64], solver: &SolverConfig) -> Option<usize> {
    // Only the factorization differs per candidate, so the rhs setup and
    // solve buffers are shared.
    let mut ws = SolveWorkspace::new(a.n_rows(), a.n_rows());
    let mut best: Option<(usize, bool, usize)> = None;
    for k in [2usize, 4, 8] {
        let Ok((plan, _, _)) = plan_variant(
            a,
            IluFill::Iluk(k),
            &Variant::Baseline,
            solver,
            ExecutionStrategy::Sequential,
        ) else {
            continue;
        };
        let Ok(stats) = plan.solve_in_place(b, &mut ws, SolveCtx::default()) else { continue };
        let conv = stats.stop == StopReason::Converged;
        let better = match best {
            None => true,
            Some((_, bc, bi)) => (conv && !bc) || (conv == bc && stats.iterations < bi),
        };
        if better {
            best = Some((k, conv, stats.iterations));
        }
    }
    best.map(|(k, _, _)| k)
}

/// Writes a serializable artifact under the workspace's
/// `target/spcg-results/` (bench binaries run with the crate directory as
/// CWD, so the path is anchored at the crate manifest).
pub fn write_artifact<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/spcg-results");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(dir.join(format!("{name}.json")), json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_sparse::generators::{poisson_2d, with_magnitude_spread};

    fn system() -> (CsrMatrix<f64>, Vec<f64>) {
        let a = with_magnitude_spread(&poisson_2d(20, 20), 6.0, 3);
        let b = vec![1.0; 400];
        (a, b)
    }

    #[test]
    fn baseline_and_spcg_comparison_runs() {
        let (a, b) = system();
        let row = compare(
            "t",
            "test",
            &a,
            &b,
            IluFill::Ilu0,
            &DeviceSpec::a100(),
            &Variant::Heuristic(SparsifyParams::default()),
            &bench_solver_config(),
        )
        .unwrap();
        assert!(row.base.converged);
        assert!(row.spcg.converged);
        assert!(row.per_iteration_speedup() > 0.0);
        assert!(row.end_to_end_speedup().is_some());
        // Sparsified ILU(0) never has more wavefronts.
        assert!(row.spcg.wavefronts_matrix <= row.base.wavefronts_matrix);
    }

    #[test]
    fn fixed_variant_uses_requested_ratio() {
        let (a, b) = system();
        let r = evaluate(
            &a,
            &b,
            IluFill::Ilu0,
            &DeviceSpec::a100(),
            &Variant::Fixed(5.0),
            &bench_solver_config(),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        assert_eq!(r.chosen_ratio, Some(5.0));
        assert_eq!(r.variant, "fixed5%");
    }

    #[test]
    fn iluk_variant_runs_with_fill() {
        let (a, b) = system();
        let r = evaluate(
            &a,
            &b,
            IluFill::Iluk(2),
            &DeviceSpec::a100(),
            &Variant::Baseline,
            &bench_solver_config(),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        let r0 = evaluate(
            &a,
            &b,
            IluFill::Ilu0,
            &DeviceSpec::a100(),
            &Variant::Baseline,
            &bench_solver_config(),
            ExecutionStrategy::Sequential,
        )
        .unwrap();
        assert!(r.factor_nnz > r0.factor_nnz);
        assert!(r.iterations <= r0.iterations);
    }

    #[test]
    fn select_k_prefers_converging_fill() {
        let (a, b) = system();
        let k = select_k(&a, &b, &bench_solver_config());
        assert!(matches!(k, Some(2 | 4 | 8)));
    }

    #[test]
    fn comparison_row_metrics_are_consistent() {
        let (a, b) = system();
        let row = compare(
            "t",
            "c",
            &a,
            &b,
            IluFill::Ilu0,
            &DeviceSpec::v100(),
            &Variant::Fixed(10.0),
            &bench_solver_config(),
        )
        .unwrap();
        let wf = row.wavefront_reduction_pct();
        assert!((-100.0..=100.0).contains(&wf));
        // speedup definitions
        let s = row.per_iteration_speedup();
        assert!((s - row.base.per_iteration_us / row.spcg.per_iteration_us).abs() < 1e-12);
    }
}
