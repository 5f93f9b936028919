//! The plan/execute split: [`SpcgPlan`] performs the one-time analysis of
//! the Figure-2 pipeline — sparsify `A`, factor `Â`, build the wavefront
//! level schedules — and can then execute any number of solves against it.
//!
//! This is the inspector–executor pattern applied to the whole pipeline:
//! the expensive, matrix-dependent work is done once at `build` time and
//! amortized over every subsequent right-hand side, exactly the regime the
//! paper targets (time-stepping and optimization loops re-solving with the
//! same operator). The execute half reuses a [`SolveWorkspace`] so the PCG
//! iteration loop performs no heap allocation.

use crate::algorithm2::{wavefront_aware_sparsify_probed, SparsifyDecision};
use crate::indicator::convergence_indicator;
use crate::pipeline::{build_preconditioner_probed, PrecondKind, SpcgOptions};
use crate::precision::{fits_lower_precision, PrecisionPolicy};
use crate::precond_select::{build_ainv_probed, select_kind_probed, KindDecision};
use crate::reorder::{select_ordering_probed, ReorderDecision, ReorderOutcome};
use crate::sparsify::Sparsified;
use spcg_precond::{
    ilu_refresh_probed, AinvPreconditioner, IluFactors, MixedPrecisionIlu, Preconditioner,
};
use spcg_probe::{Counter, NoProbe, Probe, Span};
use spcg_solver::{
    pcg_in_place, pcg_refined_in_place, RefinedStats, SolveCtx, SolveResult, SolveStats,
    SolveWorkspace, SolverError,
};
use spcg_sparse::{CsrMatrix, Result, Scalar, SparseError};
use std::time::{Duration, Instant};

/// Iterative-refinement restarts a mixed-precision solve may attempt
/// before handing the (still-unconverged) result back to the caller or
/// the fallback ladder.
pub(crate) const MAX_REFINE_RESTARTS: usize = 4;

/// Stagnation window the mixed tier enables when the caller left the
/// guard off: a reduced-precision preconditioner can pin the recurrence at
/// its rounding floor, and refinement can only trigger once the stall is
/// *detected*. Full-precision plans never override the caller's config.
pub(crate) const MIXED_STAGNATION_WINDOW: usize = 25;

/// A fully-analyzed SPCG pipeline, ready to solve repeatedly.
///
/// Owns the system matrix, the sparsification decision, the incomplete
/// factors (with their precomputed level schedules), and the analysis-phase
/// timings. Build once with [`SpcgPlan::build`] (or
/// [`build_probed`](SpcgPlan::build_probed) to trace the analysis), then
/// pick a solve entry point:
///
/// * [`solve`](SpcgPlan::solve) — owned result, fresh workspace per call;
/// * [`solve_with_workspace`](SpcgPlan::solve_with_workspace) — owned
///   result, caller-provided workspace, allocation-free iteration loop;
/// * [`solve_in_place`](SpcgPlan::solve_in_place) — fully allocation-free:
///   the iterate stays in the workspace, only `Copy` stats come back; its
///   [`SolveCtx`] carries the per-call [`Probe`], iteration budget, and
///   warm start;
/// * [`solve_many`](SpcgPlan::solve_many) — batched independent right-hand
///   sides fanned across rayon workers;
/// * [`solve_resilient`](SpcgPlan::solve_resilient) (`resilient` module)
///   — the breakdown-recovery fallback ladder.
///
/// The plan is immutable after construction (`&self` solves), so one plan
/// can serve many threads concurrently; [`solve_many`](SpcgPlan::solve_many)
/// exploits this by fanning independent right-hand sides across workers.
#[derive(Debug)]
pub struct SpcgPlan<T: Scalar> {
    a: CsrMatrix<T>,
    opts: SpcgOptions,
    decision: Option<SparsifyDecision<T>>,
    /// Explicit record of the matrix handed to the factorization, for
    /// plans whose analysis ran outside [`SpcgPlan::build`] (the decision
    /// carries it otherwise).
    factored: Option<CsrMatrix<T>>,
    /// The incomplete factors, present exactly when the resolved kind is
    /// the sparsified-ILU family (`ainv` is present otherwise).
    factors: Option<IluFactors<T>>,
    /// The level-free approximate inverse, present exactly when the
    /// resolved kind is FSAI/SPAI/Jacobi.
    ainv: Option<AinvPreconditioner<T>>,
    /// The concrete preconditioner kind the plan executes (never `Auto`:
    /// the kind search resolves at build time).
    precond: PrecondKind,
    /// Record of the kind search (`Some` exactly when the request was
    /// `Auto`).
    kind_decision: Option<KindDecision>,
    /// Reduced-precision image of `factors`, present exactly when the
    /// resolved precision tier is mixed. The full factors are kept
    /// alongside so the resilient ladder can promote a stalled mixed solve
    /// back to full precision without refactoring.
    mixed: Option<MixedPrecisionIlu<T>>,
    /// The concrete precision tier the plan executes (never `Auto`:
    /// resolution happens at build time).
    precision: PrecisionPolicy,
    /// Outcome of the ordering selection pass (`None` when the request was
    /// `Natural` — the default pipeline records nothing).
    reorder: Option<ReorderDecision>,
    /// `perm[new] = old` of the chosen ordering; present only when a
    /// non-natural ordering was chosen, in which case the plan factors (and
    /// PCG iterates) in permuted space while `b`/`x` are permuted at the
    /// solve boundary.
    perm: Option<Vec<usize>>,
    /// The permuted system `P A Pᵀ`, present exactly when `perm` is.
    a_permuted: Option<CsrMatrix<T>>,
    sparsify_time: Duration,
    factorization_time: Duration,
    reorder_time: Duration,
}

impl<T: Scalar> SpcgPlan<T> {
    /// Runs the analysis phase: sparsify (when configured), factor the
    /// result, and build the triangular-solve level schedules.
    ///
    /// Accepts the options by value, by reference (cloned), or as anything
    /// else convertible into [`SpcgOptions`] — so both
    /// `SpcgPlan::build(&a, SpcgOptions::default().with_tau(2.0))` and the
    /// long-standing `SpcgPlan::build(&a, &opts)` compile.
    pub fn build(a: &CsrMatrix<T>, opts: impl Into<SpcgOptions>) -> Result<Self> {
        Self::build_probed(a, opts, &mut NoProbe)
    }

    /// [`build`](SpcgPlan::build) with an observability [`Probe`]: the
    /// whole analysis is bracketed in a `Span::PlanBuild` containing the
    /// `Span::Sparsify` candidate loop (when sparsification is on) and the
    /// `Span::Factorize` / `Span::LevelBuild` factorization phases.
    pub fn build_probed<P: Probe>(
        a: &CsrMatrix<T>,
        opts: impl Into<SpcgOptions>,
        probe: &mut P,
    ) -> Result<Self> {
        let opts = opts.into();
        if !a.is_square() {
            return Err(SparseError::NotSquare { n_rows: a.n_rows(), n_cols: a.n_cols() });
        }
        probe.span_begin(Span::PlanBuild);
        let t = Instant::now();
        let ReorderOutcome { decision: reorder, perm, permuted, sparsify: reused } =
            select_ordering_probed(a, &opts, probe);
        let reorder_time = if reorder.is_some() { t.elapsed() } else { Duration::ZERO };
        // All downstream analysis works in permuted space when an ordering
        // was chosen; the solve boundary maps back to the caller's order.
        let operator = permuted.as_ref().unwrap_or(a);
        if opts.precond.is_level_free() {
            // An explicitly level-free plan never sparsifies: there is no
            // triangular sweep to shorten, so Algorithm 2's ratio search
            // would optimize a quantity the plan never pays.
            let t = Instant::now();
            probe.span_begin(Span::PlanAinv);
            let ainv = build_ainv_probed(operator, opts.precond, &opts, probe);
            probe.span_end(Span::PlanAinv);
            let kind = opts.precond;
            probe.counter(Counter::PrecondKind, kind.tag());
            probe.span_end(Span::PlanBuild);
            let ainv = ainv?;
            let factorization_time = t.elapsed();
            return Ok(Self {
                a: a.clone(),
                opts,
                decision: None,
                factored: None,
                factors: None,
                ainv: Some(ainv),
                precond: kind,
                kind_decision: None,
                mixed: None,
                // Approximate-inverse applies have no mixed tier yet: the
                // plan always executes in full precision.
                precision: PrecisionPolicy::Full,
                reorder,
                perm,
                a_permuted: permuted,
                sparsify_time: Duration::ZERO,
                factorization_time,
                reorder_time,
            });
        }
        let (decision, sparsify_time) = match &opts.sparsify {
            // The `Auto` joint search already ran Algorithm 2 on the winning
            // ordering — reuse its decision (the cost is accounted to the
            // reorder phase) instead of sparsifying the same matrix twice.
            Some(_) if reused.is_some() => (reused, Duration::ZERO),
            Some(params) => {
                let t = Instant::now();
                let d = wavefront_aware_sparsify_probed(operator, params, probe);
                (Some(d), t.elapsed())
            }
            None => (None, Duration::ZERO),
        };
        let m = decision.as_ref().map_or(operator, |d| &d.sparsified.a_hat);
        let t = Instant::now();
        let factors = build_preconditioner_probed(m, opts.ilu_fill, opts.exec, probe);
        let factorization_time = t.elapsed();
        // `Auto` searches the kind axis jointly with the (already chosen)
        // ratio × ordering: the sparsified-ILU candidate just built is
        // priced end-to-end against FSAI/SPAI on the same operator.
        let (kind, kind_decision, ainv) = match (&factors, opts.precond) {
            (Ok(f), PrecondKind::Auto) => {
                probe.span_begin(Span::PlanAinv);
                let search = select_kind_probed(operator, f, &opts, probe);
                probe.span_end(Span::PlanAinv);
                (search.decision.chosen, Some(search.decision), search.ainv)
            }
            _ => (PrecondKind::IluSparsified, None, None),
        };
        probe.counter(Counter::PrecondKind, kind.tag());
        probe.span_end(Span::PlanBuild);
        let factors = factors?;
        if let Some(ainv) = ainv {
            // The search crossed over: the level-free winner becomes the
            // plan's preconditioner and the ILU artifacts are dropped (a
            // level-free plan records no sparsify decision — it never uses
            // `Â`). The measured sparsify/factorization time is kept: the
            // search really did pay it.
            return Ok(Self {
                a: a.clone(),
                opts,
                decision: None,
                factored: None,
                factors: None,
                ainv: Some(ainv),
                precond: kind,
                kind_decision,
                mixed: None,
                precision: PrecisionPolicy::Full,
                reorder,
                perm,
                a_permuted: permuted,
                sparsify_time,
                factorization_time,
                reorder_time,
            });
        }
        let (precision, mixed) = resolve_precision(opts.precision, &factors);
        Ok(Self {
            a: a.clone(),
            opts,
            decision,
            factored: None,
            factors: Some(factors),
            ainv: None,
            precond: kind,
            kind_decision,
            mixed,
            precision,
            reorder,
            perm,
            a_permuted: permuted,
            sparsify_time,
            factorization_time,
            reorder_time,
        })
    }

    /// Wraps externally-built factors (e.g. a fill-capped ILU(K) from the
    /// bench harness) into a plan over `a`. No sparsification decision is
    /// recorded and analysis timings are zero — the caller did that work.
    pub fn from_factors(
        a: CsrMatrix<T>,
        factors: IluFactors<T>,
        opts: SpcgOptions,
    ) -> Result<Self> {
        if a.n_rows() != factors.dim() {
            return Err(SparseError::DimensionMismatch(format!(
                "factor dimension {} does not match system dimension {}",
                factors.dim(),
                a.n_rows()
            )));
        }
        let (precision, mixed) = resolve_precision(opts.precision, &factors);
        Ok(Self {
            a,
            opts,
            decision: None,
            factored: None,
            factors: Some(factors),
            ainv: None,
            precond: PrecondKind::IluSparsified,
            kind_decision: None,
            mixed,
            precision,
            reorder: None,
            perm: None,
            a_permuted: None,
            sparsify_time: Duration::ZERO,
            factorization_time: Duration::ZERO,
            reorder_time: Duration::ZERO,
        })
    }

    /// Rebuilds the plan for a matrix with **identical sparsity structure**
    /// but new values — the time-varying-system fast path.
    ///
    /// The expensive analysis artifacts are all reused: the ordering
    /// decision and its permutation, the sparsify split (`a_new` is
    /// re-split along the recorded `S` pattern, not re-analyzed), the
    /// symbolic factor structure, and the triangular-solve level schedules.
    /// Only the numeric factorization sweep re-runs. A refresh is therefore
    /// dramatically cheaper than [`build`](Self::build) — no wavefront
    /// inspection, no candidate search, no schedule construction.
    ///
    /// **Staleness guard.** For sparsified plans the Equation-6 indicator
    /// `‖Â⁻¹‖·‖S‖` is re-evaluated on the refreshed split. While it stays
    /// within `τ · refresh_drift` (see
    /// [`SpcgOptions::refresh_drift`]) the reused split is sound; once the
    /// values have drifted past that bound the refresh falls back to a full
    /// [`build`](Self::build) so the plan never silently degrades.
    ///
    /// Errors with [`SparseError::InvalidStructure`] when `a_new`'s pattern
    /// differs from the planned matrix (build a new plan for structural
    /// changes) or when the plan wraps externally-built factors
    /// ([`from_factors`](Self::from_factors) plans record no derivation to
    /// replay).
    pub fn refresh_values(&self, a_new: &CsrMatrix<T>) -> Result<Self> {
        self.refresh_values_probed(a_new, &mut NoProbe)
    }

    /// [`refresh_values`](Self::refresh_values) with an observability
    /// [`Probe`]: the refresh is bracketed in a `Span::PlanRefresh`
    /// containing only the numeric `Span::Factorize` — no `Span::Sparsify`,
    /// `Span::Reorder`, or `Span::LevelBuild` ever fires on the happy path,
    /// which is the observable proof that the analysis was reused. A
    /// staleness fallback emits `Counter::PlanRefreshFallback` and then the
    /// full `Span::PlanBuild` cascade.
    pub fn refresh_values_probed<P: Probe>(
        &self,
        a_new: &CsrMatrix<T>,
        probe: &mut P,
    ) -> Result<Self> {
        if self.factored.is_some() {
            return Err(SparseError::InvalidStructure(
                "externally-factored plans record no derivation from A to the factored matrix, \
                 so their values cannot be refreshed; rebuild via from_factors"
                    .into(),
            ));
        }
        if a_new.n_rows() != self.a.n_rows()
            || a_new.n_cols() != self.a.n_cols()
            || a_new.row_ptr() != self.a.row_ptr()
            || a_new.col_idx() != self.a.col_idx()
        {
            return Err(SparseError::InvalidStructure(
                "refresh_values requires the exact sparsity structure of the planned matrix; \
                 build a new plan for structural changes"
                    .into(),
            ));
        }
        probe.span_begin(Span::PlanRefresh);
        let t = Instant::now();
        // Reuse the ordering: the recorded permutation stays valid for an
        // identical structure, so only the values are re-permuted.
        let permuted_new = self
            .perm
            .as_deref()
            .map(|p| a_new.permute_sym(p).expect("recorded permutation fits identical structure"));
        let operator_new = permuted_new.as_ref().unwrap_or(a_new);
        if self.ainv.is_some() {
            // Level-free plans carry no split or factor structure to
            // replay: a refresh is a numeric rebuild of the approximate
            // inverse on the re-permuted values (ordering and kind decision
            // carry over; a value-only refresh never re-runs the kind
            // search).
            probe.span_begin(Span::PlanAinv);
            let ainv = build_ainv_probed(operator_new, self.precond, &self.opts, probe);
            probe.span_end(Span::PlanAinv);
            let factorization_time = t.elapsed();
            probe.span_end(Span::PlanRefresh);
            let ainv = ainv?;
            return Ok(Self {
                a: a_new.clone(),
                opts: self.opts.clone(),
                decision: None,
                factored: None,
                factors: None,
                ainv: Some(ainv),
                precond: self.precond,
                kind_decision: self.kind_decision.clone(),
                mixed: None,
                precision: PrecisionPolicy::Full,
                reorder: self.reorder.clone(),
                perm: self.perm.clone(),
                a_permuted: permuted_new,
                sparsify_time: Duration::ZERO,
                factorization_time,
                reorder_time: Duration::ZERO,
            });
        }
        // Reuse the sparsify decision: re-split the new values along the
        // recorded S pattern instead of re-running the candidate search.
        let split = match &self.decision {
            Some(d) => {
                let s_old = &d.sparsified.s;
                let in_s = |r: usize, c: usize| s_old.row_cols(r).binary_search(&c).is_ok();
                let a_hat = operator_new.filter(|r, c, _| r == c || !in_s(r, c));
                let s = operator_new.filter(|r, c, _| r != c && in_s(r, c));
                if let Some(params) = &self.opts.sparsify {
                    let v = convergence_indicator(&a_hat, &s, &params.estimator);
                    if !v.passes(params.tau * self.opts.refresh_drift) {
                        // The values drifted past the staleness bound: the
                        // reused split is no longer trustworthy. Fall back
                        // to a full re-plan.
                        probe.counter(Counter::PlanRefreshFallback, 1);
                        probe.span_end(Span::PlanRefresh);
                        return Self::build_probed(a_new, self.opts.clone(), probe);
                    }
                }
                Some((a_hat, s))
            }
            None => None,
        };
        let m_new = split.as_ref().map_or(operator_new, |(a_hat, _)| a_hat);
        let old_factors = self.factors.as_ref().expect("non-level-free plans always carry factors");
        let factors = ilu_refresh_probed(m_new, old_factors, probe);
        let factorization_time = t.elapsed();
        probe.span_end(Span::PlanRefresh);
        let factors = factors?;
        let (precision, mixed) = resolve_precision(self.opts.precision, &factors);
        let decision = self.decision.as_ref().zip(split).map(|(d, (a_hat, s))| SparsifyDecision {
            sparsified: Sparsified {
                a_hat,
                s,
                dropped_nnz: d.sparsified.dropped_nnz,
                requested_percent: d.sparsified.requested_percent,
            },
            chosen_ratio: d.chosen_ratio,
            reason: d.reason,
            wavefronts_original: d.wavefronts_original,
            wavefronts_sparsified: d.wavefronts_sparsified,
            trace: d.trace.clone(),
        });
        Ok(Self {
            a: a_new.clone(),
            opts: self.opts.clone(),
            decision,
            factored: None,
            factors: Some(factors),
            ainv: None,
            precond: self.precond,
            kind_decision: self.kind_decision.clone(),
            mixed,
            precision,
            reorder: self.reorder.clone(),
            perm: self.perm.clone(),
            a_permuted: permuted_new,
            sparsify_time: Duration::ZERO,
            factorization_time,
            reorder_time: Duration::ZERO,
        })
    }

    /// Records which matrix the external analysis factored (for cost models
    /// and wavefront accounting on [`from_factors`](SpcgPlan::from_factors)
    /// plans).
    pub fn with_factored_matrix(mut self, m: CsrMatrix<T>) -> Result<Self> {
        let dim = self.factors.as_ref().map_or_else(|| self.n(), |f| f.dim());
        if m.n_rows() != dim {
            return Err(SparseError::DimensionMismatch(format!(
                "factored matrix dimension {} does not match factor dimension {dim}",
                m.n_rows(),
            )));
        }
        self.factored = Some(m);
        Ok(self)
    }

    /// The system matrix the plan solves against, in the caller's ordering.
    pub fn a(&self) -> &CsrMatrix<T> {
        &self.a
    }

    /// The matrix PCG actually iterates on: the permuted system `P A Pᵀ`
    /// for reordered plans, [`a`](SpcgPlan::a) itself otherwise. Cost
    /// models should price this matrix — its level structure is what the
    /// triangular solves see.
    pub fn operator(&self) -> &CsrMatrix<T> {
        self.a_permuted.as_ref().unwrap_or(&self.a)
    }

    /// The ordering selection decision (`None` for natural-ordering plans,
    /// which skip the selection pass entirely).
    pub fn reorder(&self) -> Option<&ReorderDecision> {
        self.reorder.as_ref()
    }

    /// The chosen permutation (`perm[new] = old`), when a non-natural
    /// ordering was chosen.
    pub fn permutation(&self) -> Option<&[usize]> {
        self.perm.as_deref()
    }

    /// `true` when the plan factors in a permuted ordering (and therefore
    /// permutes `b`/`x` at the solve boundary).
    pub fn is_reordered(&self) -> bool {
        self.perm.is_some()
    }

    /// Options the plan was built with.
    pub fn options(&self) -> &SpcgOptions {
        &self.opts
    }

    /// The sparsification decision (None for the baseline or
    /// [`from_factors`](SpcgPlan::from_factors) plans).
    pub fn decision(&self) -> Option<&SparsifyDecision<T>> {
        self.decision.as_ref()
    }

    /// The incomplete factors applied as the preconditioner.
    ///
    /// # Panics
    ///
    /// Panics on a level-free plan (FSAI/SPAI/Jacobi), which has no
    /// triangular factors — check [`is_level_free`](Self::is_level_free)
    /// or use [`ilu_factors`](Self::ilu_factors) when the kind is not
    /// known statically. Kept infallible because the overwhelming majority
    /// of call sites (cost models, benches, the resilient ladder's ILU
    /// rungs) are only ever reached with factored plans.
    pub fn factors(&self) -> &IluFactors<T> {
        self.factors.as_ref().expect("level-free plan has no triangular factors")
    }

    /// The incomplete factors, or `None` for a level-free plan.
    pub fn ilu_factors(&self) -> Option<&IluFactors<T>> {
        self.factors.as_ref()
    }

    /// The approximate inverse, or `None` for a factored (ILU) plan.
    pub fn ainv(&self) -> Option<&AinvPreconditioner<T>> {
        self.ainv.as_ref()
    }

    /// The concrete preconditioner kind the plan executes. `Auto` requests
    /// resolve at build time, so this is never `Auto`.
    pub fn precond_kind(&self) -> PrecondKind {
        self.precond
    }

    /// The record of the kind search (`Some` exactly when the plan was
    /// built with [`PrecondKind::Auto`]).
    pub fn kind_decision(&self) -> Option<&KindDecision> {
        self.kind_decision.as_ref()
    }

    /// `true` when the preconditioner applies without triangular sweeps
    /// (FSAI/SPAI/Jacobi) — every application is pure SpMV/elementwise
    /// traffic with zero synchronization.
    pub fn is_level_free(&self) -> bool {
        self.ainv.is_some()
    }

    /// The matrix that was handed to the factorization: `Â` when the plan
    /// sparsified (in permuted space for reordered plans), the
    /// explicitly-recorded matrix for external analyses, the (possibly
    /// permuted) system otherwise.
    pub fn factored_matrix(&self) -> &CsrMatrix<T> {
        if let Some(m) = &self.factored {
            return m;
        }
        self.decision.as_ref().map(|d| &d.sparsified.a_hat).unwrap_or_else(|| self.operator())
    }

    /// `true` when the preconditioner was built from a sparsified matrix.
    pub fn is_sparsified(&self) -> bool {
        self.decision.is_some()
    }

    /// The concrete precision tier the plan executes. `Auto` requests are
    /// resolved at build time, so this is always `Full` or `MixedF32`.
    pub fn precision(&self) -> PrecisionPolicy {
        self.precision
    }

    /// `true` when the preconditioner application runs in reduced
    /// precision (under the iterative-refinement outer loop).
    pub fn is_mixed(&self) -> bool {
        self.mixed.is_some()
    }

    /// The reduced-precision factor image, present exactly when the plan
    /// is mixed.
    pub fn mixed_factors(&self) -> Option<&MixedPrecisionIlu<T>> {
        self.mixed.as_ref()
    }

    /// Bytes per stored factor value on the tier the plan executes:
    /// `size_of::<T::Lower>()` for mixed plans, `size_of::<T>()` otherwise.
    /// Cost models price the triangular-solve traffic with this width.
    pub fn factor_value_bytes(&self) -> usize {
        match &self.mixed {
            Some(m) => m.value_bytes(),
            None => std::mem::size_of::<T>(),
        }
    }

    /// Wall-clock time of the sparsification step.
    pub fn sparsify_time(&self) -> Duration {
        self.sparsify_time
    }

    /// Wall-clock time of the factorization step.
    pub fn factorization_time(&self) -> Duration {
        self.factorization_time
    }

    /// Wall-clock time of the ordering selection pass (zero for natural
    /// plans). For `Auto` with sparsification on this includes the joint
    /// search's Algorithm 2 runs, and the reused winning decision reports a
    /// zero [`sparsify_time`](SpcgPlan::sparsify_time).
    pub fn reorder_time(&self) -> Duration {
        self.reorder_time
    }

    /// System dimension.
    pub fn n(&self) -> usize {
        self.a.n_rows()
    }

    /// A workspace sized for this plan's system and preconditioner.
    /// Reordered plans also pre-size the boundary staging buffer so the
    /// gather/scatter at the solve boundary stays allocation-free.
    pub fn make_workspace(&self) -> SolveWorkspace<T> {
        let mut ws = match &self.ainv {
            Some(ainv) => SolveWorkspace::for_preconditioner(self.n(), ainv),
            None => SolveWorkspace::for_preconditioner(self.n(), self.factors()),
        };
        if self.perm.is_some() {
            ws.reserve_staging(self.n());
        }
        if let Some(m) = &self.mixed {
            // Mixed solves stage the down/upcast through the workspace and
            // may refine; pre-size both so warm solves stay allocation-free.
            ws.reserve_staging_lo(m.staging_len());
            ws.reserve_refine(self.n());
        }
        ws
    }

    /// Estimated heap footprint of the plan in bytes: the system matrix,
    /// the factored matrix (when stored separately), both triangular
    /// factors, and their level *and* dependency-block schedules. Used by
    /// plan caches to enforce a byte budget; it is an estimate (container
    /// headers and small side arrays are ignored), not an exact accounting.
    pub fn approx_bytes(&self) -> usize {
        let value_bytes = std::mem::size_of::<T>();
        let usize_bytes = std::mem::size_of::<usize>();
        let csr = |m: &CsrMatrix<T>| m.storage_bytes(value_bytes);
        let schedule = |s: &spcg_wavefront::LevelSchedule| {
            // row->level map + flattened level lists (n rows total) + one
            // header word per level.
            (2 * s.n_rows() + s.n_levels()) * usize_bytes
        };
        let mut total = csr(&self.a);
        if let Some(d) = &self.decision {
            total += csr(&d.sparsified.a_hat);
        }
        if let Some(ap) = &self.a_permuted {
            total += csr(ap);
        }
        if let Some(m) = &self.factored {
            total += csr(m);
        }
        if let Some(f) = &self.factors {
            total += csr(f.l()) + csr(f.u());
            total += schedule(f.l_schedule()) + schedule(f.u_schedule());
            total += f.l_blocks().approx_bytes() + f.u_blocks().approx_bytes();
        }
        if let Some(ainv) = &self.ainv {
            // The stored inverse factors are the plan's whole
            // preconditioner footprint.
            total += ainv.approx_bytes();
        }
        if let Some(m) = &self.mixed {
            // The demoted factor image is resident alongside the full one.
            let lower = std::mem::size_of::<T::Lower>();
            total += m.inner().l().storage_bytes(lower) + m.inner().u().storage_bytes(lower);
            total += schedule(m.inner().l_schedule()) + schedule(m.inner().u_schedule());
            total += m.inner().l_blocks().approx_bytes() + m.inner().u_blocks().approx_bytes();
        }
        total
    }

    /// Solves `A x = b`, allocating a fresh workspace for this call.
    /// Results are identical to [`solve_with_workspace`](Self::solve_with_workspace).
    pub fn solve(&self, b: &[T]) -> std::result::Result<SolveResult<T>, SolverError> {
        let mut ws = self.make_workspace();
        self.solve_with_workspace(b, &mut ws)
    }

    /// Solves `A x = b` reusing `ws`, returning an owned result. The
    /// iteration loop allocates nothing once `ws` is warm.
    pub fn solve_with_workspace(
        &self,
        b: &[T],
        ws: &mut SolveWorkspace<T>,
    ) -> std::result::Result<SolveResult<T>, SolverError> {
        let stats = self.solve_in_place(b, ws, SolveCtx::default())?;
        Ok(ws.to_result(stats))
    }

    /// The fully allocation-free solve: the iterate stays in
    /// `ws.solution()`, in the caller's ordering, and only `Copy`
    /// statistics are returned. `ctx` carries the per-call inputs (see
    /// [`SolveCtx`]); the zero-allocation guarantee holds whenever its
    /// probe does not allocate ([`NoProbe`] never does).
    ///
    /// * **Probe.** The PCG loop reports a `Span::SolveLoop` with nested
    ///   `Spmv`/`PrecondApply`/`Blas` spans and one
    ///   [`IterationEvent`](spcg_probe::IterationEvent) per iteration;
    ///   numerics are bitwise identical for any probe.
    /// * **Budget.** `ctx.deadline_iters` cuts the solve off with
    ///   [`SolverError::DeadlineExceeded`], leaving the iterate reached so
    ///   far in `ws.solution()`. For mixed-precision plans the budget
    ///   applies to each refinement inner run, not their sum.
    /// * **Warm start.** With `ctx.warm`, PCG is seeded from the resident
    ///   iterate (`x₀ = ws.solution()`) instead of zero — for a sequence of
    ///   slowly drifting systems this turns the previous step's solution
    ///   into iteration savings, and on a freshly-zeroed workspace it is
    ///   bitwise identical to a cold solve. Mixed-precision plans run the
    ///   cold refinement driver: its outer loop re-derives its restart
    ///   iterates, so a warm seed has no variant there yet.
    pub fn solve_in_place<P: Probe>(
        &self,
        b: &[T],
        ws: &mut SolveWorkspace<T>,
        ctx: SolveCtx<P>,
    ) -> std::result::Result<SolveStats, SolverError> {
        self.in_operator_space(b, ws, ctx.warm, |b, ws| {
            let (operator, config) = (self.operator(), &self.opts.solver);
            if let Some(ainv) = &self.ainv {
                return pcg_in_place(operator, ainv, b, config, ws, ctx);
            }
            match &self.mixed {
                None => pcg_in_place(operator, self.factors(), b, config, ws, ctx),
                Some(mixed) => {
                    self.solve_mixed(mixed, b, ws, SolveCtx { warm: false, ..ctx }).map(|r| r.stats)
                }
            }
        })
    }

    /// Runs `solve` in the plan's operator space. A reordered plan gathers
    /// `b` — and, for a warm start, the resident iterate — into its
    /// permuted order through the workspace's staging buffer, then scatters
    /// the iterate in `ws.solution()` back to the caller's order, after an
    /// error as well as on success: the resident iterate is always in
    /// caller order, so a deadline-cut solve hands back a usable best-so-far
    /// iterate and a warm start that follows gathers it exactly once.
    /// Natural plans, and a `b` of the wrong length (the inner solver
    /// reports the canonical dimension error), pass straight through.
    pub(crate) fn in_operator_space<R>(
        &self,
        b: &[T],
        ws: &mut SolveWorkspace<T>,
        warm: bool,
        solve: impl FnOnce(&[T], &mut SolveWorkspace<T>) -> R,
    ) -> R {
        let n = self.n();
        let Some(perm) = self.perm.as_deref().filter(|_| b.len() == n) else {
            return solve(b, ws);
        };
        let mut buf = ws.take_staging(n);
        if warm && ws.solution().len() == n {
            let x = ws.solution_mut();
            for (k, &old) in perm.iter().enumerate() {
                buf[k] = x[old];
            }
            x.copy_from_slice(&buf);
        }
        for (k, &old) in perm.iter().enumerate() {
            buf[k] = b[old];
        }
        let out = solve(&buf, ws);
        // Every input was validated above, so PCG ran and sized the
        // workspace to this system: the iterate is in permuted order.
        let x = ws.solution_mut();
        for (k, &old) in perm.iter().enumerate() {
            buf[old] = x[k];
        }
        x.copy_from_slice(&buf);
        ws.restore_staging(buf);
        out
    }

    /// The solver configuration the mixed tier runs under: the caller's
    /// config, with the stagnation guard enabled (window
    /// [`MIXED_STAGNATION_WINDOW`]) when it was left off — a stalled
    /// reduced-precision recurrence must be *detected* before refinement
    /// can restart it. Stack-only: `SolverConfig` holds no heap data.
    pub(crate) fn mixed_solver_config(&self) -> spcg_solver::SolverConfig {
        let config = self.opts.solver.clone();
        if config.stagnation_window == 0 {
            config.with_stagnation_window(MIXED_STAGNATION_WINDOW)
        } else {
            config
        }
    }

    /// One mixed-tier solve in operator space (reduced-precision apply +
    /// refinement outer loop) with precision counters:
    /// `precision.mixed_applies` (one apply per iteration plus the initial
    /// apply of each inner run), `precision.refine_restarts`, and
    /// `precision.bytes_saved` (factor bytes the reduced storage avoided
    /// streaming per sweep). Shared by the plain solve and the resilient
    /// ladder's planned attempt.
    pub(crate) fn solve_mixed<P: Probe>(
        &self,
        mixed: &MixedPrecisionIlu<T>,
        b: &[T],
        ws: &mut SolveWorkspace<T>,
        mut ctx: SolveCtx<P>,
    ) -> std::result::Result<RefinedStats, SolverError> {
        let config = self.mixed_solver_config();
        let refined = pcg_refined_in_place(
            self.operator(),
            mixed,
            b,
            &config,
            MAX_REFINE_RESTARTS,
            ws,
            ctx.reborrow(),
        )?;
        let probe = &mut ctx.probe;
        probe.counter(
            Counter::PrecisionMixedApplies,
            (refined.stats.iterations + 1 + refined.restarts) as u64,
        );
        if refined.restarts > 0 {
            probe.counter(Counter::PrecisionRefineRestarts, refined.restarts as u64);
        }
        probe.counter(Counter::PrecisionBytesSaved, mixed.bytes_saved() as u64);
        Ok(refined)
    }

    /// Solves the same operator against many independent right-hand sides,
    /// in parallel, with one reusable workspace per worker. Results are
    /// returned in input order and are identical to calling
    /// [`solve`](SpcgPlan::solve) on each `b` sequentially. Each right-hand
    /// side fails or succeeds independently: one malformed `b` (or one
    /// breakdown, reported via its result's stop reason) never aborts the
    /// rest of the batch.
    pub fn solve_many<B: AsRef<[T]> + Sync>(
        &self,
        rhs: &[B],
    ) -> Vec<std::result::Result<SolveResult<T>, SolverError>> {
        if rhs.is_empty() {
            return Vec::new();
        }
        let workers = rayon::current_num_threads().clamp(1, rhs.len());
        let chunk_len = rhs.len().div_ceil(workers);
        type Slot<T> = Option<std::result::Result<SolveResult<T>, SolverError>>;
        let mut out: Vec<Slot<T>> = (0..rhs.len()).map(|_| None).collect();
        rayon::scope(|s| {
            for (slot, chunk) in out.chunks_mut(chunk_len).zip(rhs.chunks(chunk_len)) {
                s.spawn(move |_| {
                    let mut ws = self.make_workspace();
                    for (cell, b) in slot.iter_mut().zip(chunk) {
                        *cell = Some(self.solve_with_workspace(b.as_ref(), &mut ws));
                    }
                });
            }
        });
        out.into_iter().map(|r| r.expect("solve_many worker left a slot unfilled")).collect()
    }
}

/// Resolves a requested [`PrecisionPolicy`] against freshly-built factors:
/// `Auto` demotes only when every stored factor value passes the
/// representability rule ([`fits_lower_precision`]), and a mixed tier
/// always materializes the demoted factor image eagerly (build time, not
/// solve time). The returned policy is never `Auto`.
fn resolve_precision<T: Scalar>(
    policy: PrecisionPolicy,
    factors: &IluFactors<T>,
) -> (PrecisionPolicy, Option<MixedPrecisionIlu<T>>) {
    let mixed = match policy {
        PrecisionPolicy::Full => false,
        PrecisionPolicy::MixedF32 => true,
        PrecisionPolicy::Auto => {
            fits_lower_precision(factors.l().values()) && fits_lower_precision(factors.u().values())
        }
    };
    if mixed {
        (PrecisionPolicy::MixedF32, Some(MixedPrecisionIlu::from_full(factors)))
    } else {
        (PrecisionPolicy::Full, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::build_preconditioner;
    use crate::OrderingKind;
    use spcg_solver::SolverConfig;
    use spcg_sparse::generators::{poisson_2d, with_magnitude_spread};
    use spcg_sparse::Rng;

    fn system(n: usize) -> (CsrMatrix<f64>, Vec<f64>) {
        let a = with_magnitude_spread(&poisson_2d(n, n), 6.0, 21);
        let mut rng = Rng::new(77);
        let b = (0..n * n).map(|_| rng.range(-1.0, 1.0)).collect();
        (a, b)
    }

    fn opts() -> SpcgOptions {
        SpcgOptions {
            solver: SolverConfig::default().with_tol(1e-10).with_history(true),
            ..Default::default()
        }
    }

    #[test]
    fn auto_exec_resolves_to_blocks_on_deep_plans_and_solves_bitwise() {
        let (a, b) = system(32);
        let plan =
            SpcgPlan::build(&a, opts().with_exec(spcg_precond::ExecutionStrategy::Auto)).unwrap();
        // A deep Poisson schedule prices cheaper under dependency blocks,
        // and `Auto` is never stored on the factors.
        assert_eq!(plan.factors().exec(), spcg_precond::ExecutionStrategy::DependencyBlocks);
        // The executor swap must not perturb the trajectory.
        let seq = SpcgPlan::build(&a, opts()).unwrap().solve(&b).unwrap();
        let blk = plan.solve(&b).unwrap();
        assert_eq!(seq.x, blk.x);
        assert_eq!(seq.residual_history, blk.residual_history);
        // And the block schedules are part of the plan's byte estimate.
        let bytes = plan.approx_bytes();
        let blocks_bytes =
            plan.factors().l_blocks().approx_bytes() + plan.factors().u_blocks().approx_bytes();
        assert!(blocks_bytes > 0);
        assert!(bytes > blocks_bytes);
    }

    /// A solve context with an iteration budget and a warm-start flag.
    fn budget(deadline_iters: usize, warm: bool) -> SolveCtx {
        SolveCtx { deadline_iters, warm, ..SolveCtx::default() }
    }

    fn deadline_iterations(r: std::result::Result<SolveStats, SolverError>) -> usize {
        match r {
            Err(SolverError::DeadlineExceeded { iterations, best_residual }) => {
                assert!(best_residual.is_finite());
                iterations
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn a_budget_stops_cold_and_warm_solves_at_exactly_k_iterations() {
        // Tens of iterations to converge at the default tolerance, so every
        // budget below cuts the solve off.
        let a = spcg_sparse::generators::poisson_2d(30, 30);
        let b = vec![1.0; a.n_rows()];
        for ordering in [OrderingKind::Natural, OrderingKind::Rcm] {
            let plan = SpcgPlan::build(&a, SpcgOptions::default().with_ordering(ordering)).unwrap();
            let mut ws = plan.make_workspace();
            for k in [0, 3, 7] {
                assert_eq!(
                    deadline_iterations(plan.solve_in_place(&b, &mut ws, budget(k, false))),
                    k
                );
                assert_eq!(
                    deadline_iterations(plan.solve_in_place(&b, &mut ws, budget(k, true))),
                    k
                );
            }
            // Without a budget the same plan converges.
            assert!(plan.solve_in_place(&b, &mut ws, SolveCtx::default()).unwrap().converged());
        }
    }

    #[test]
    fn a_deadline_cut_leaves_the_max_iters_iterate_in_caller_order() {
        let (a, b) = system(20);
        let k = 5;
        for ordering in [OrderingKind::Natural, OrderingKind::Rcm, OrderingKind::Coloring] {
            let o = opts().with_ordering(ordering);
            let plan = SpcgPlan::build(&a, &o).unwrap();
            assert_eq!(plan.is_reordered(), ordering != OrderingKind::Natural);
            let mut ws = plan.make_workspace();
            assert_eq!(deadline_iterations(plan.solve_in_place(&b, &mut ws, budget(k, false))), k);
            let capped = o.clone().with_solver(o.solver.clone().with_max_iters(k));
            let reference = SpcgPlan::build(&a, &capped).unwrap().solve(&b).unwrap();
            assert_eq!(reference.iterations, k);
            assert_eq!(ws.solution(), &reference.x[..], "{ordering:?}");
            // The warm solve that follows gathers the caller-order iterate
            // once and finishes the job.
            let warm = plan.solve_in_place(&b, &mut ws, budget(usize::MAX, true)).unwrap();
            assert!(warm.converged(), "{ordering:?}: {:?}", warm.stop);
            let ax = spcg_sparse::spmv::spmv_alloc(&a, ws.solution());
            let err: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
            assert!(err < 1e-6, "{ordering:?}: residual {err}");
        }
    }

    #[test]
    fn one_plan_solves_many_distinct_rhs() {
        let (a, _) = system(10);
        let o = opts();
        let plan = SpcgPlan::build(&a, &o).unwrap();
        let mut rng = Rng::new(5);
        let rhs: Vec<Vec<f64>> =
            (0..4).map(|_| (0..a.n_rows()).map(|_| rng.range(-2.0, 2.0)).collect()).collect();
        let mut ws = plan.make_workspace();
        for b in &rhs {
            let r = plan.solve_with_workspace(b, &mut ws).unwrap();
            assert!(r.converged(), "stop {:?}", r.stop);
            // Each result equals a one-shot solve of the same rhs.
            assert_eq!(r.x, plan.solve(b).unwrap().x);
        }
    }

    #[test]
    fn solve_many_matches_independent_solves() {
        let (a, _) = system(9);
        let o = opts();
        let plan = SpcgPlan::build(&a, &o).unwrap();
        let mut rng = Rng::new(9);
        let rhs: Vec<Vec<f64>> =
            (0..7).map(|_| (0..a.n_rows()).map(|_| rng.range(-1.0, 1.0)).collect()).collect();
        let batched = plan.solve_many(&rhs);
        assert_eq!(batched.len(), rhs.len());
        for (i, (batch, b)) in batched.iter().zip(&rhs).enumerate() {
            let batch = batch.as_ref().unwrap();
            let single = plan.solve(b).unwrap();
            assert_eq!(batch.x, single.x, "rhs {i} diverged from independent solve");
            assert_eq!(batch.iterations, single.iterations);
        }
    }

    #[test]
    fn solve_many_handles_empty_and_singleton() {
        let (a, b) = system(8);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        assert!(plan.solve_many(&Vec::<Vec<f64>>::new()).is_empty());
        let one = plan.solve_many(std::slice::from_ref(&b));
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].as_ref().unwrap().x, plan.solve(&b).unwrap().x);
    }

    #[test]
    fn approx_bytes_tracks_storage() {
        let (a, _) = system(10);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let bytes = plan.approx_bytes();
        // At minimum the system matrix and both factors are resident.
        let floor = a.storage_bytes(8)
            + plan.factors().l().storage_bytes(8)
            + plan.factors().u().storage_bytes(8);
        assert!(bytes >= floor, "{bytes} < floor {floor}");
        // A bigger system yields a bigger estimate.
        let (big, _) = system(20);
        let big_plan = SpcgPlan::build(&big, opts()).unwrap();
        assert!(big_plan.approx_bytes() > bytes);
    }

    #[test]
    fn baseline_plan_skips_sparsification() {
        let (a, b) = system(8);
        let o = SpcgOptions { sparsify: None, ..opts() };
        let plan = SpcgPlan::build(&a, &o).unwrap();
        assert!(!plan.is_sparsified());
        assert!(plan.decision().is_none());
        assert_eq!(plan.sparsify_time(), Duration::ZERO);
        assert!(std::ptr::eq(plan.factored_matrix(), plan.a()));
        assert!(plan.solve(&b).unwrap().converged());
    }

    #[test]
    fn from_factors_wraps_external_analysis() {
        let (a, b) = system(8);
        let o = SpcgOptions { sparsify: None, ..opts() };
        let factors = build_preconditioner(&a, o.ilu_fill, o.exec).unwrap();
        let plan = SpcgPlan::from_factors(a.clone(), factors, o.clone()).unwrap();
        let direct = SpcgPlan::build(&a, &o).unwrap();
        assert_eq!(plan.solve(&b).unwrap().x, direct.solve(&b).unwrap().x);
    }

    #[test]
    fn mixed_plan_converges_and_tracks_full_solution() {
        let (a, b) = system(12);
        let full = SpcgPlan::build(&a, opts()).unwrap();
        let mixed = SpcgPlan::build(&a, opts().with_precision(PrecisionPolicy::MixedF32)).unwrap();
        assert!(mixed.is_mixed());
        assert!(!full.is_mixed());
        assert_eq!(mixed.precision(), PrecisionPolicy::MixedF32);
        assert_eq!(full.precision(), PrecisionPolicy::Full);
        assert_eq!(mixed.factor_value_bytes(), 4);
        assert_eq!(full.factor_value_bytes(), 8);
        let rf = full.solve(&b).unwrap();
        let rm = mixed.solve(&b).unwrap();
        assert!(rm.converged(), "mixed stop: {:?}", rm.stop);
        // The f64 outer recurrence drives both to the same threshold; the
        // iterates agree within the mixed tolerance band.
        let scale = rf.x.iter().fold(0f64, |m, &v| m.max(v.abs())).max(1.0);
        for (x1, x2) in rf.x.iter().zip(&rm.x) {
            assert!((x1 - x2).abs() <= 1e-6 * scale, "drift: {x1} vs {x2}");
        }
    }

    #[test]
    fn mixed_workspace_is_presized_for_staging_and_refinement() {
        let (a, b) = system(10);
        let mixed = SpcgPlan::build(&a, opts().with_precision(PrecisionPolicy::MixedF32)).unwrap();
        let mut ws = mixed.make_workspace();
        // Warm solves must not grow anything (the zero-alloc suite pins
        // this with a counting allocator; here we pin convergence through
        // the pre-sized workspace).
        for _ in 0..2 {
            let stats = mixed.solve_in_place(&b, &mut ws, SolveCtx::default()).unwrap();
            assert!(stats.converged(), "stop {:?}", stats.stop);
        }
    }

    #[test]
    fn auto_precision_follows_representability() {
        let (a, _) = system(8);
        let auto = SpcgPlan::build(&a, opts().with_precision(PrecisionPolicy::Auto)).unwrap();
        assert_eq!(
            auto.precision(),
            PrecisionPolicy::MixedF32,
            "well-scaled factors must resolve to the mixed tier"
        );
        // Values far beyond f32 range: Auto must stay full.
        let huge = a.map_values(|v| v * 1e250);
        let o = SpcgOptions { sparsify: None, ..opts() }.with_precision(PrecisionPolicy::Auto);
        let full = SpcgPlan::build(&huge, &o).unwrap();
        assert_eq!(full.precision(), PrecisionPolicy::Full);
        assert!(!full.is_mixed());
    }

    #[test]
    fn mixed_approx_bytes_counts_the_demoted_image() {
        let (a, _) = system(10);
        let full = SpcgPlan::build(&a, opts()).unwrap();
        let mixed = SpcgPlan::build(&a, opts().with_precision(PrecisionPolicy::MixedF32)).unwrap();
        assert!(
            mixed.approx_bytes() > full.approx_bytes(),
            "the resident demoted factors must be accounted"
        );
    }

    #[test]
    fn refresh_with_unchanged_values_is_bitwise_identical() {
        let (a, b) = system(12);
        for o in [opts(), SpcgOptions { sparsify: None, ..opts() }] {
            let plan = SpcgPlan::build(&a, &o).unwrap();
            let refreshed = plan.refresh_values(&a).unwrap();
            assert_eq!(refreshed.factors().l().values(), plan.factors().l().values());
            assert_eq!(refreshed.factors().u().values(), plan.factors().u().values());
            assert_eq!(refreshed.is_sparsified(), plan.is_sparsified());
            let rx = refreshed.solve(&b).unwrap();
            let px = plan.solve(&b).unwrap();
            assert_eq!(rx.x, px.x);
            assert_eq!(rx.residual_history, px.residual_history);
        }
    }

    #[test]
    fn refresh_reuses_analysis_without_sparsify_reorder_or_levelbuild() {
        use spcg_probe::RecordingProbe;
        let (a, b) = system(12);
        let o = opts().with_ordering(OrderingKind::Rcm);
        let plan = SpcgPlan::build(&a, &o).unwrap();
        // Mild value drift: small enough to stay within the τ guard.
        let a_new = a.map_values(|v| v * 1.001);
        let mut probe = RecordingProbe::new();
        let refreshed = plan.refresh_values_probed(&a_new, &mut probe).unwrap();
        let trace = probe.finish();
        let spans: Vec<Span> = trace.span_records().unwrap().iter().map(|r| r.span).collect();
        assert!(spans.contains(&Span::PlanRefresh));
        assert!(spans.contains(&Span::Factorize), "the numeric sweep must re-run");
        for forbidden in [Span::Sparsify, Span::Reorder, Span::LevelBuild, Span::PlanBuild] {
            assert!(!spans.contains(&forbidden), "refresh must not re-run {forbidden:?}");
        }
        assert_eq!(trace.counter_total(Counter::PlanRefreshFallback), 0);
        // The reused analysis is carried over verbatim.
        assert_eq!(refreshed.permutation(), plan.permutation());
        assert_eq!(
            refreshed.factors().total_wavefronts(),
            plan.factors().total_wavefronts(),
            "cloned schedules must match"
        );
        // The refreshed plan still solves ITS OWN system.
        let r = refreshed.solve(&b).unwrap();
        assert!(r.converged(), "stop {:?}", r.stop);
        let ax = spcg_sparse::spmv::spmv_alloc(&a_new, &r.x);
        let err: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
        assert!(err < 1e-6, "residual vs refreshed A too large: {err}");
    }

    #[test]
    fn refresh_falls_back_to_full_replan_past_the_drift_bound() {
        use spcg_probe::RecordingProbe;
        let (a, b) = system(12);
        // refresh_drift = 0 makes the guard unsatisfiable for any plan with
        // a non-empty S, forcing the fallback deterministically.
        let o = opts().with_refresh_drift(0.0);
        let plan = SpcgPlan::build(&a, &o).unwrap();
        assert!(plan.is_sparsified());
        let a_new = a.map_values(|v| v * 1.001);
        let mut probe = RecordingProbe::new();
        let refreshed = plan.refresh_values_probed(&a_new, &mut probe).unwrap();
        let trace = probe.finish();
        assert_eq!(trace.counter_total(Counter::PlanRefreshFallback), 1);
        let spans: Vec<Span> = trace.span_records().unwrap().iter().map(|r| r.span).collect();
        assert!(spans.contains(&Span::PlanBuild), "fallback must run the full analysis");
        // The fallback is a fresh build: bitwise identical to building from
        // scratch with the same options.
        let direct = SpcgPlan::build(&a_new, &o).unwrap();
        assert_eq!(refreshed.factors().l().values(), direct.factors().l().values());
        assert_eq!(refreshed.solve(&b).unwrap().x, direct.solve(&b).unwrap().x);
    }

    #[test]
    fn refresh_rejects_structural_change_and_external_factors() {
        let (a, _) = system(8);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        // Same nnz budget, different pattern: drop one off-diagonal entry.
        let mut dropped = false;
        let other = a.filter(|r, c, _| {
            if !dropped && r != c {
                dropped = true;
                false
            } else {
                true
            }
        });
        assert!(plan.refresh_values(&other).is_err());
        let o = SpcgOptions { sparsify: None, ..opts() };
        let factors = build_preconditioner(&a, o.ilu_fill, o.exec).unwrap();
        let external = SpcgPlan::from_factors(a.clone(), factors, o.clone())
            .unwrap()
            .with_factored_matrix(a.clone())
            .unwrap();
        assert!(external.refresh_values(&a).is_err());
    }

    #[test]
    fn refresh_preserves_the_mixed_tier() {
        let (a, b) = system(10);
        let plan = SpcgPlan::build(&a, opts().with_precision(PrecisionPolicy::MixedF32)).unwrap();
        let a_new = a.map_values(|v| v * 1.01);
        let refreshed = plan.refresh_values(&a_new).unwrap();
        assert!(refreshed.is_mixed());
        assert_eq!(refreshed.precision(), PrecisionPolicy::MixedF32);
        assert!(refreshed.solve(&b).unwrap().converged());
    }

    #[test]
    fn warm_solve_on_zeroed_workspace_matches_cold_even_reordered() {
        let (a, b) = system(12);
        let o = opts().with_ordering(OrderingKind::Rcm);
        let plan = SpcgPlan::build(&a, &o).unwrap();
        let mut cold_ws = plan.make_workspace();
        let cold = plan.solve_in_place(&b, &mut cold_ws, SolveCtx::default()).unwrap();
        let mut warm_ws = plan.make_workspace();
        let warm = plan.solve_in_place(&b, &mut warm_ws, budget(usize::MAX, true)).unwrap();
        assert_eq!(cold.iterations, warm.iterations);
        assert_eq!(cold_ws.solution(), warm_ws.solution());
    }

    #[test]
    fn warm_solve_reuses_the_resident_solution() {
        let (a, b) = system(12);
        for o in [opts(), opts().with_ordering(OrderingKind::Rcm)] {
            let plan = SpcgPlan::build(&a, &o).unwrap();
            let mut ws = plan.make_workspace();
            let cold = plan.solve_in_place(&b, &mut ws, SolveCtx::default()).unwrap();
            assert!(cold.converged());
            // Same rhs again: the resident solution is already converged.
            let warm = plan.solve_in_place(&b, &mut ws, budget(usize::MAX, true)).unwrap();
            assert!(warm.converged(), "stop {:?}", warm.stop);
            assert_eq!(warm.iterations, 0, "resident solution must satisfy the threshold");
            // A drifted rhs still needs fewer iterations than a cold start.
            let b2: Vec<f64> =
                b.iter().enumerate().map(|(i, &v)| v * (1.0 + 1e-3 * (i % 7) as f64)).collect();
            let warm2 = plan.solve_in_place(&b2, &mut ws, budget(usize::MAX, true)).unwrap();
            let cold2 = plan.solve(&b2).unwrap();
            assert!(warm2.converged());
            assert!(
                warm2.iterations < cold2.iterations,
                "warm {} vs cold {}",
                warm2.iterations,
                cold2.iterations
            );
            // Both end at the caller-ordering solution of the same system.
            let ax = spcg_sparse::spmv::spmv_alloc(&a, ws.solution());
            let err: f64 = ax.iter().zip(&b2).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
            assert!(err < 1e-6, "warm solution residual too large: {err}");
        }
    }

    #[test]
    fn refresh_plus_warm_solve_tracks_a_drifting_sequence() {
        let (a, b) = system(12);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let mut ws = plan.make_workspace();
        let mut current = plan;
        let mut a_t = a;
        for step in 1..=3 {
            a_t = a_t.map_values(|v| v * (1.0 + 2e-3));
            current = current.refresh_values(&a_t).unwrap();
            let stats = current.solve_in_place(&b, &mut ws, budget(usize::MAX, true)).unwrap();
            assert!(stats.converged(), "step {step} stop {:?}", stats.stop);
            let ax = spcg_sparse::spmv::spmv_alloc(&a_t, ws.solution());
            let err: f64 = ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
            assert!(err < 1e-6, "step {step} residual {err}");
        }
    }
}
