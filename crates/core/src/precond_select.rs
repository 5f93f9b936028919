//! Joint preconditioner-*kind* selection: the third axis of Algorithm 2's
//! planner search, alongside drop ratio and ordering.
//!
//! The sparsified-ILU pipeline shortens triangular sweeps; the level-free
//! approximate-inverse family (FSAI, static-pattern SPAI) eliminates them —
//! an application is pure SpMV traffic with zero synchronization, at the
//! price of a weaker preconditioner that needs more iterations. Which side
//! wins is a property of the matrix: wavefront-poor structures (long
//! dependency chains, near-sequential level schedules) pay so much per
//! sweep that a cheap-but-weak inverse crosses over; wavefront-rich grids
//! amortize their sweeps and keep the stronger factorization.
//!
//! [`PrecondKind::Auto`] resolves that trade by *priced end-to-end time*,
//! the same currency the executor and ordering searches use:
//!
//! ```text
//! total(kind) = setup(kind) + est_iters(kind) × per_iter(kind)
//! ```
//!
//! * `per_iter` prices one PCG iteration under the wavefront
//!   [`ExecCostModel`]: `spmv(A)` plus the preconditioner application —
//!   level/block triangular sweeps for ILU, SpMVs over the stored inverse
//!   factors for the level-free kinds. The BLAS-1 tail (dots and axpys) is
//!   identical across kinds and cancels out of the argmin, so it is
//!   deliberately omitted.
//! * `est_iters` comes from a deterministic contraction estimate: a short
//!   probe PCG run against a seeded right-hand side measures the
//!   per-iteration residual reduction rate ρ, and the iteration count to
//!   reach the solver tolerance is `⌈ln tol / ln ρ⌉`. The same estimator
//!   prices every candidate, so modelling error largely cancels in the
//!   comparison.
//! * A τ-style quality guard ([`SpcgOptions::ainv_rho_max`]) rejects
//!   level-free candidates whose ρ estimate is non-finite or above the
//!   ceiling, so a cheap inverse can never be selected on a system it
//!   barely contracts.
//!
//! The ILU candidate is always admissible, which gives `Auto` its safety
//! property by construction: the chosen kind's priced total is never worse
//! than the forced-ILU total.

use crate::pipeline::{PrecondKind, SpcgOptions};
use serde::{Deserialize, Serialize};
use spcg_precond::{
    AinvPreconditioner, ExecutionStrategy, FsaiPreconditioner, IluFactors, Preconditioner,
    SaiPreconditioner,
};
use spcg_probe::Probe;
use spcg_solver::{pcg_in_place, SolveCtx, SolveWorkspace};
use spcg_sparse::{CsrMatrix, Rng, Scalar};
use spcg_wavefront::ExecCostModel;

/// Iterations of the probe PCG run the contraction estimator performs.
/// Enough for the asymptotic per-iteration rate to emerge on every fixture
/// in the suite; kept small because the probe runs once per candidate at
/// plan time.
const RATE_PROBE_ITERS: usize = 12;

/// Seed of the estimator's probe right-hand side — fixed so the whole
/// kind search is deterministic (same matrix, same options ⇒ same
/// decision).
const RHO_SEED: u64 = 0x51c9;

/// One priced candidate of the kind search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KindCandidate {
    /// The concrete kind priced (never `Auto`).
    pub kind: PrecondKind,
    /// Measured per-iteration PCG residual reduction rate ρ from the probe
    /// solve, `(‖r_k‖/‖r_0‖)^{1/k}` (`f64::INFINITY` when the probe broke
    /// down or produced non-finite residuals).
    pub rho: f64,
    /// Estimated iterations to the solver tolerance, `⌈ln tol / ln ρ⌉`
    /// clamped to `[1, max_iters]`.
    pub est_iters: usize,
    /// Priced cost of one PCG iteration under this kind, µs.
    pub per_iter_us: f64,
    /// Modelled one-time construction cost, µs.
    pub setup_us: f64,
    /// `setup_us + est_iters × per_iter_us`.
    pub total_us: f64,
    /// Whether the quality guard admitted the candidate (always `true` for
    /// ILU; level-free kinds require a finite ρ ≤
    /// [`SpcgOptions::ainv_rho_max`]).
    pub guard_passed: bool,
}

/// The recorded outcome of one kind search, kept on the plan for
/// diagnostics (mirroring [`ReorderDecision`](crate::ReorderDecision) on
/// the ordering axis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KindDecision {
    /// What the caller asked for (`Auto` when the search ran; an explicit
    /// kind when the decision merely records a forced choice).
    pub requested: PrecondKind,
    /// The winning kind (never `Auto`).
    pub chosen: PrecondKind,
    /// Every candidate the search priced, in evaluation order
    /// (ILU first, then FSAI, then SPAI).
    pub candidates: Vec<KindCandidate>,
}

impl KindDecision {
    /// The record of the chosen candidate.
    pub fn winner(&self) -> Option<&KindCandidate> {
        self.candidates.iter().find(|c| c.kind == self.chosen)
    }

    /// The record of the always-admissible ILU candidate.
    pub fn ilu(&self) -> Option<&KindCandidate> {
        self.candidates.iter().find(|c| c.kind == PrecondKind::IluSparsified)
    }
}

/// What `select_kind_probed` hands back to the plan builder: the decision
/// record plus the constructed approximate inverse when a level-free kind
/// won (the search had to build it to estimate ρ, so the winner is reused
/// rather than rebuilt).
pub(crate) struct KindSearch<T: Scalar> {
    pub decision: KindDecision,
    pub ainv: Option<AinvPreconditioner<T>>,
}

/// Deterministic estimate of the preconditioned contraction rate ρ: a
/// short probe PCG run (fixed seeded right-hand side, fixed iteration
/// budget) measures the geometric-mean residual reduction per iteration,
/// `(‖r_k‖/‖r_0‖)^{1/k}`. Running the real solver — rather than power
/// iteration on `I − M⁻¹A` — captures exactly what the kind decision
/// pays for: PCG's Krylov acceleration and eigenvalue clustering, which a
/// stationary-iteration bound systematically misranks. `INFINITY` signals
/// a breakdown or non-finite residual (the guard then rejects the
/// candidate); `0.0` means the probe converged outright.
pub(crate) fn contraction_rho<T: Scalar, M: Preconditioner<T> + ?Sized>(
    a: &CsrMatrix<T>,
    m: &M,
) -> f64 {
    let n = a.n_rows();
    if n == 0 {
        return 0.0;
    }
    let mut rng = Rng::new(RHO_SEED);
    let b: Vec<T> = (0..n).map(|_| T::from_f64(rng.range(-1.0, 1.0))).collect();
    // An unreachable absolute tolerance: the probe always spends its whole
    // iteration budget (or stops on a guard, which the rate then reflects).
    let config = spcg_solver::SolverConfig::default()
        .with_tol(1e-300)
        .with_tol_mode(spcg_solver::ToleranceMode::Absolute)
        .with_max_iters(RATE_PROBE_ITERS)
        .with_history(true);
    let mut ws = SolveWorkspace::for_preconditioner(n, m);
    let Ok(stats) = pcg_in_place(a, m, &b, &config, &mut ws, SolveCtx::default()) else {
        return f64::INFINITY;
    };
    let history = ws.history();
    let (Some(&r0), Some(&rk)) = (history.first(), history.last()) else {
        return f64::INFINITY;
    };
    if !rk.is_finite() || stats.final_residual.is_nan() {
        return f64::INFINITY;
    }
    if r0 == 0.0 || rk == 0.0 {
        return 0.0;
    }
    let steps = history.len().saturating_sub(1).max(1);
    let rate = (rk / r0).powf(1.0 / steps as f64);
    if rate.is_finite() {
        rate
    } else {
        f64::INFINITY
    }
}

/// `⌈ln tol / ln ρ⌉` clamped to `[1, max_iters]`; a non-contracting
/// estimate (ρ ≥ 1 or non-finite) prices at the full iteration cap.
pub(crate) fn estimate_iters(rho: f64, tol: f64, max_iters: usize) -> usize {
    let cap = max_iters.max(1);
    if rho.is_nan() || rho <= 0.0 {
        return 1;
    }
    if rho >= 1.0 || !rho.is_finite() {
        return cap;
    }
    let tol = if tol > 0.0 && tol < 1.0 { tol } else { 1e-10 };
    let est = (tol.ln() / rho.ln()).ceil();
    if !est.is_finite() {
        return cap;
    }
    (est as usize).clamp(1, cap)
}

/// Bytes of traffic per stored entry a setup pass moves (value plus
/// index).
const SETUP_BYTES_PER_ENTRY: f64 = 12.0;

/// One GPU-parallel setup pass, µs: a kernel launch plus the larger of the
/// memory-traffic and arithmetic roofs. Both construction passes (ILU's
/// numeric sweep, the per-row dense solves of an approximate inverse) are
/// embarrassingly row-parallel on the device, so pricing them serially
/// would wildly overstate setup and bury every crossover under a phantom
/// millisecond bill.
fn gpu_pass_us(model: &ExecCostModel, bytes: f64, flops: f64) -> f64 {
    let mem_us = bytes / (model.mem_bandwidth_gbps * 1e3);
    let flop_us = flops / (model.peak_gflops * 1e3);
    model.launch_overhead_us + mem_us.max(flop_us)
}

/// Priced cost of one ILU-preconditioned PCG iteration: `spmv(A)` plus one
/// triangular sweep of each factor under the resolved executor.
pub(crate) fn ilu_per_iter_us<T: Scalar>(
    model: &ExecCostModel,
    operator: &CsrMatrix<T>,
    factors: &IluFactors<T>,
) -> f64 {
    let sweep = |m: &CsrMatrix<T>,
                 lvl: &spcg_wavefront::LevelSchedule,
                 blk: &spcg_wavefront::BlockSchedule| {
        match factors.exec() {
            ExecutionStrategy::LevelBarrier => model.level_time_us(m, lvl),
            ExecutionStrategy::DependencyBlocks => model.block_time_us(m, blk),
            ExecutionStrategy::Sequential | ExecutionStrategy::Auto => {
                model.level_time_us(m, lvl).min(model.block_time_us(m, blk))
            }
        }
    };
    model.spmv_time_us(operator)
        + sweep(factors.l(), factors.l_schedule(), factors.l_blocks())
        + sweep(factors.u(), factors.u_schedule(), factors.u_blocks())
}

/// Priced cost of one level-free PCG iteration: `spmv(A)` plus one SpMV
/// per stored inverse factor (`[G, Gᵀ]` for FSAI, `[M]` for SPAI). No
/// levels, no barriers — `Syncs == 0` by construction.
pub(crate) fn ainv_per_iter_us<T: Scalar>(
    model: &ExecCostModel,
    operator: &CsrMatrix<T>,
    ainv: &AinvPreconditioner<T>,
) -> f64 {
    model.spmv_time_us(operator)
        + ainv.factor_matrices().iter().map(|m| model.spmv_time_us(m)).sum::<f64>()
}

/// Modelled construction cost of an approximate inverse: every row solves
/// an independent dense system of order `k` (its stored support), so one
/// GPU pass gathers `k²` entries per row and spends `(2/3)k³` flops per
/// row on the factorizations — all rows in parallel.
fn ainv_setup_us<T: Scalar>(model: &ExecCostModel, ainv: &AinvPreconditioner<T>) -> f64 {
    let (bytes, flops) = ainv
        .factor_matrices()
        .first()
        .map(|g| {
            (0..g.n_rows()).fold((0.0, 0.0), |(b, f), r| {
                let k = g.row_nnz(r) as f64;
                (b + k * k * SETUP_BYTES_PER_ENTRY, f + 2.0 / 3.0 * k * k * k)
            })
        })
        .unwrap_or((0.0, 0.0));
    gpu_pass_us(model, bytes, flops)
}

/// Builds the approximate inverse for an *explicitly requested* level-free
/// kind (no search, no guard — the caller asked for exactly this family).
pub(crate) fn build_ainv_probed<T: Scalar, P: Probe>(
    operator: &CsrMatrix<T>,
    kind: PrecondKind,
    opts: &SpcgOptions,
    probe: &mut P,
) -> spcg_sparse::Result<AinvPreconditioner<T>> {
    match kind {
        PrecondKind::Fsai => {
            Ok(AinvPreconditioner::Fsai(FsaiPreconditioner::new_probed(operator, probe)?))
        }
        PrecondKind::Spai => Ok(AinvPreconditioner::Spai(SaiPreconditioner::new_probed(
            operator,
            opts.spai_pattern,
            probe,
        )?)),
        PrecondKind::Jacobi => {
            Ok(AinvPreconditioner::Jacobi(spcg_precond::JacobiPreconditioner::new(operator)?))
        }
        PrecondKind::IluSparsified | PrecondKind::Auto => {
            unreachable!("build_ainv_probed is only called for explicit level-free kinds")
        }
    }
}

/// Runs the kind search for [`PrecondKind::Auto`]: prices the
/// already-built ILU candidate against freshly-constructed FSAI and SPAI
/// on the same operator, applies the ρ quality guard, and picks the
/// cheapest admissible total. Construction failures (FSAI breakdown on a
/// non-SPD-like row, SPAI rank deficiency) silently drop the candidate —
/// ILU remains, so the search always produces a winner.
pub(crate) fn select_kind_probed<T: Scalar, P: Probe>(
    operator: &CsrMatrix<T>,
    factors: &IluFactors<T>,
    opts: &SpcgOptions,
    probe: &mut P,
) -> KindSearch<T> {
    let model = ExecCostModel::default();
    let tol = opts.solver.tol;
    let cap = opts.solver.max_iters;
    let mut candidates = Vec::with_capacity(3);

    let ilu_rho = contraction_rho(operator, factors);
    let ilu_entries = (factors.l().nnz() + factors.u().nnz()) as f64;
    let ilu_setup = gpu_pass_us(&model, ilu_entries * SETUP_BYTES_PER_ENTRY, 2.0 * ilu_entries);
    let ilu_iters = estimate_iters(ilu_rho, tol, cap);
    let ilu_per = ilu_per_iter_us(&model, operator, factors);
    candidates.push(KindCandidate {
        kind: PrecondKind::IluSparsified,
        rho: ilu_rho,
        est_iters: ilu_iters,
        per_iter_us: ilu_per,
        setup_us: ilu_setup,
        total_us: ilu_setup + ilu_iters as f64 * ilu_per,
        guard_passed: true,
    });

    let mut built: Vec<(PrecondKind, AinvPreconditioner<T>)> = Vec::with_capacity(2);
    if let Ok(f) = FsaiPreconditioner::new_probed(operator, probe) {
        built.push((PrecondKind::Fsai, AinvPreconditioner::Fsai(f)));
    }
    if let Ok(s) = SaiPreconditioner::new_probed(operator, opts.spai_pattern, probe) {
        built.push((PrecondKind::Spai, AinvPreconditioner::Spai(s)));
    }
    let mut winners: Vec<(PrecondKind, AinvPreconditioner<T>)> = Vec::new();
    for (kind, ainv) in built {
        let rho = contraction_rho(operator, &ainv);
        let guard_passed = rho.is_finite() && rho <= opts.ainv_rho_max;
        let iters = estimate_iters(rho, tol, cap);
        let per = ainv_per_iter_us(&model, operator, &ainv);
        let setup = ainv_setup_us(&model, &ainv);
        candidates.push(KindCandidate {
            kind,
            rho,
            est_iters: iters,
            per_iter_us: per,
            setup_us: setup,
            total_us: setup + iters as f64 * per,
            guard_passed,
        });
        if guard_passed {
            winners.push((kind, ainv));
        }
    }

    let chosen = candidates
        .iter()
        .filter(|c| c.guard_passed)
        .min_by(|x, y| x.total_us.total_cmp(&y.total_us))
        .map(|c| c.kind)
        .unwrap_or(PrecondKind::IluSparsified);
    let ainv = winners.into_iter().find(|(k, _)| *k == chosen).map(|(_, a)| a);
    KindSearch { decision: KindDecision { requested: PrecondKind::Auto, chosen, candidates }, ainv }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_precond::ilu0;
    use spcg_sparse::generators::poisson_2d;
    use spcg_sparse::CooMatrix;

    /// A pathologically wavefront-poor SPD matrix: a tridiagonal chain
    /// whose lower factor has one level per row, so every triangular sweep
    /// pays the full barrier cascade.
    fn chain(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.5).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
                coo.push(i - 1, i, -1.0).unwrap();
            }
        }
        coo.to_csr()
    }

    #[test]
    fn rho_contracts_for_a_real_preconditioner() {
        let a = poisson_2d(10, 10);
        let f = ilu0(&a, spcg_precond::ExecutionStrategy::Sequential).unwrap();
        let rho = contraction_rho(&a, &f);
        assert!(rho.is_finite() && rho < 1.0, "ILU(0) must contract Poisson: rho={rho}");
        // Determinism: same inputs, same estimate, bit for bit.
        assert_eq!(rho, contraction_rho(&a, &f));
    }

    #[test]
    fn estimate_iters_clamps_and_monotone() {
        assert_eq!(estimate_iters(0.0, 1e-10, 1000), 1);
        assert_eq!(estimate_iters(1.0, 1e-10, 1000), 1000);
        assert_eq!(estimate_iters(f64::INFINITY, 1e-10, 1000), 1000);
        let tight = estimate_iters(0.9, 1e-10, 1000);
        let loose = estimate_iters(0.5, 1e-10, 1000);
        assert!(tight > loose, "weaker contraction must price more iterations");
        assert!(estimate_iters(0.999_999, 1e-10, 50) <= 50);
    }

    #[test]
    fn auto_picks_level_free_on_a_banded_chain_and_never_prices_worse_than_ilu() {
        // A moderately wide random band at partial density: every row
        // depends on earlier rows inside the band, so the triangular
        // sweeps are near-sequential (wavefront-poor), while the holes in
        // the band make ILU(0) drop fill and lose its exactness edge.
        let a = spcg_sparse::generators::banded_spd(600, 12, 0.5, 1.05, 7);
        let opts = SpcgOptions::default();
        let factors = ilu0(&a, spcg_precond::ExecutionStrategy::Auto).unwrap();
        let search = select_kind_probed(&a, &factors, &opts, &mut spcg_probe::NoProbe);
        let d = &search.decision;
        assert!(
            d.chosen.is_level_free(),
            "a near-serial band must cross over to a level-free kind: {:?}",
            d.candidates
        );
        assert!(search.ainv.is_some());
        let ilu_total = d.ilu().unwrap().total_us;
        let win_total = d.winner().unwrap().total_us;
        assert!(
            win_total <= ilu_total,
            "Auto must never price worse than forced ILU: {win_total} vs {ilu_total}"
        );
    }

    #[test]
    fn guard_ceiling_zero_forces_ilu() {
        let a = chain(200);
        let opts = SpcgOptions::default().with_ainv_rho_max(0.0);
        let factors = ilu0(&a, spcg_precond::ExecutionStrategy::Auto).unwrap();
        let search = select_kind_probed(&a, &factors, &opts, &mut spcg_probe::NoProbe);
        assert_eq!(search.decision.chosen, PrecondKind::IluSparsified);
        assert!(search.ainv.is_none());
        // The rejected candidates are still recorded, marked inadmissible.
        assert!(search
            .decision
            .candidates
            .iter()
            .filter(|c| c.kind.is_level_free())
            .all(|c| !c.guard_passed));
    }

    #[test]
    fn strongly_anisotropic_grid_keeps_ilu() {
        // Strong directional coupling is where an incomplete factorization
        // shines (it resolves the stiff lines like a line relaxation) and
        // sparse approximate inverses struggle: ILU's iteration advantage
        // (~20×) dwarfs its per-iteration sweep premium, so Auto keeps it.
        let a = spcg_sparse::generators::anisotropic_2d(48, 48, 1e-3);
        let opts = SpcgOptions::default();
        let factors = ilu0(&a, spcg_precond::ExecutionStrategy::Auto).unwrap();
        let search = select_kind_probed(&a, &factors, &opts, &mut spcg_probe::NoProbe);
        assert_eq!(
            search.decision.chosen,
            PrecondKind::IluSparsified,
            "candidates: {:?}",
            search.decision.candidates
        );
        // The level-free candidates were admissible — ILU won on price, not
        // by guard default.
        assert!(search
            .decision
            .candidates
            .iter()
            .any(|c| c.kind.is_level_free() && c.guard_passed));
    }
}
