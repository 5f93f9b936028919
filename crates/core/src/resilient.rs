//! The adaptive de-sparsification fallback ladder: breakdown-resilient
//! solves on top of [`SpcgPlan`].
//!
//! Sparsification trades preconditioner quality for parallelism, and the
//! trade can go wrong: an aggressively sparsified `Â` may factor into
//! indefinite or near-singular factors that break PCG down at runtime.
//! The solver's per-iteration guards *detect* that (classifying the
//! failure into a [`BreakdownKind`]); this module *recovers* from it by
//! climbing down a ladder of progressively more conservative
//! preconditioners, rebuilding only the preconditioner — never the
//! system — and reusing the solve workspace across rungs:
//!
//! 1. [`FallbackRung::Planned`] — the plan's own factors, exactly as
//!    [`SpcgPlan::solve_with_workspace`] would use them (bitwise
//!    identical when nothing breaks); for mixed-precision plans this is
//!    the reduced-precision apply under the refinement loop, and a
//!    [`FallbackRung::PromotePrecision`] rung follows — the resident
//!    full-precision factors, zero extra factorizations;
//! 2. [`FallbackRung::Resparsify`] — re-sparsify at a less aggressive
//!    drop ratio (e.g. 10% → 5% → 1%) and refactor;
//! 3. [`FallbackRung::Unsparsified`] — factor the full `A`;
//! 4. [`FallbackRung::Shifted`] — pivot-shifted refactorization of `A`
//!    (`A + αI` with escalating `α`, Manteuffel's cure);
//! 5. [`FallbackRung::Fsai`] — the factored sparse approximate inverse
//!    `GᵀG`, a *different family*: when every incomplete factorization of
//!    the matrix breaks down, a level-free SPD-preserving inverse often
//!    still exists (skipped when the plan is already level-free — retrying
//!    the same family would be a no-op);
//! 6. [`FallbackRung::Jacobi`] — the diagonal preconditioner, which
//!    cannot break down on any matrix with a nonzero diagonal.
//!
//! Every attempt is recorded in a [`RecoveryReport`] (rung, stop
//! classification, iterations, residual, factorization count), so callers
//! and cost models can see exactly what the recovery cost. Deterministic
//! fault injection ([`FaultInjection`]) forces each failure mode on
//! demand, which is how the test suite proves every rung both fires and
//! terminates.

use crate::pipeline::{build_preconditioner_probed, IluFill};
use crate::plan::SpcgPlan;
use crate::sparsify::sparsify_by_magnitude;
use spcg_precond::{
    shifted_factorization_probed, AinvPreconditioner, FactorKind, FsaiPreconditioner, IluFactors,
    JacobiPreconditioner, MixedPrecisionIlu, Preconditioner, ShiftPolicy,
};
use spcg_probe::{Probe, ProbeStop, RungEvent, RungKind, Span};
use spcg_solver::{
    pcg_in_place, BreakdownKind, SolveCtx, SolveFault, SolveResult, SolveWorkspace, SolverError,
    StopReason,
};
use spcg_sparse::Scalar;
use std::borrow::Cow;

/// One rung of the fallback ladder, from most to least aggressive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FallbackRung {
    /// The plan's own preconditioner (attempt 0). For a mixed-precision
    /// plan this is the reduced-precision apply under the refinement loop.
    Planned,
    /// The plan's full-precision factors, promoted from a stalled
    /// mixed-precision tier. Costs zero factorizations — the full factors
    /// are already resident on every mixed plan. Only present on the
    /// ladder of mixed plans.
    PromotePrecision,
    /// Re-sparsified at the given (less aggressive) drop ratio, percent.
    Resparsify(f64),
    /// Factorization of the full, unsparsified `A`.
    Unsparsified,
    /// Pivot-shifted refactorization `A + αI` of the full matrix.
    Shifted,
    /// Factored sparse approximate inverse `GᵀG` — a level-free family
    /// switch for matrices no incomplete factorization survives on.
    Fsai,
    /// Diagonal (Jacobi) preconditioner — the unconditional safety net.
    Jacobi,
}

impl FallbackRung {
    /// The probe-layer classification of this rung plus its ratio payload
    /// (0 for rungs without one).
    fn probe_kind(&self) -> (RungKind, f64) {
        match self {
            FallbackRung::Planned => (RungKind::Planned, 0.0),
            FallbackRung::PromotePrecision => (RungKind::PromotePrecision, 0.0),
            FallbackRung::Resparsify(t) => (RungKind::Resparsify, *t),
            FallbackRung::Unsparsified => (RungKind::Unsparsified, 0.0),
            FallbackRung::Shifted => (RungKind::Shifted, 0.0),
            FallbackRung::Fsai => (RungKind::Fsai, 0.0),
            FallbackRung::Jacobi => (RungKind::Jacobi, 0.0),
        }
    }
}

impl std::fmt::Display for FallbackRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackRung::Planned => write!(f, "planned"),
            FallbackRung::PromotePrecision => write!(f, "promote-precision"),
            FallbackRung::Resparsify(t) => write!(f, "resparsify({t}%)"),
            FallbackRung::Unsparsified => write!(f, "unsparsified"),
            FallbackRung::Shifted => write!(f, "shifted"),
            FallbackRung::Fsai => write!(f, "fsai"),
            FallbackRung::Jacobi => write!(f, "jacobi"),
        }
    }
}

/// Deterministic faults for resilience testing, applied to the first
/// `applies_to_attempts` ladder attempts.
///
/// Three failure modes cover the ladder's trigger surface: a NaN poisoned
/// into the iteration (kernel fault), a zeroed pivot (factorization
/// collapse), and a scaled factor entry (corrupted memory). Jacobi rungs
/// only see the solve-loop fault — the factor corruptions have no factors
/// to corrupt there, which is exactly why Jacobi is the terminal rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// Poison the PCG loop itself (NaN at a chosen iteration).
    pub solve_fault: Option<SolveFault>,
    /// Zero the U pivot of this row in the attempt's factors.
    pub zero_pivot_row: Option<usize>,
    /// Scale the stored factor entry `(row, col)` by the factor.
    pub scale_entry: Option<(usize, usize, f64)>,
    /// How many leading attempts the fault applies to (1 = only the
    /// planned attempt; larger values force the ladder deeper).
    pub applies_to_attempts: usize,
}

impl FaultInjection {
    /// NaN injected into the residual at iteration `k`.
    pub fn nan_at(k: usize) -> Self {
        Self {
            solve_fault: Some(SolveFault::nan_at(k)),
            zero_pivot_row: None,
            scale_entry: None,
            applies_to_attempts: 1,
        }
    }

    /// Collapsed preconditioned residual at iteration `k` — the way a
    /// reduced-precision (f32) preconditioner application stalls when its
    /// values underflow or flush to zero. The `rᵀz ≤ 0` guard classifies
    /// it as Indefinite, and a mixed plan recovers through the
    /// [`FallbackRung::PromotePrecision`] rung.
    pub fn stall_at(k: usize) -> Self {
        Self {
            solve_fault: Some(SolveFault::stall_at(k)),
            zero_pivot_row: None,
            scale_entry: None,
            applies_to_attempts: 1,
        }
    }

    /// Zeroed U pivot at `row`.
    pub fn zeroed_pivot(row: usize) -> Self {
        Self {
            solve_fault: None,
            zero_pivot_row: Some(row),
            scale_entry: None,
            applies_to_attempts: 1,
        }
    }

    /// Stored factor entry `(row, col)` multiplied by `scale`.
    pub fn corrupted_entry(row: usize, col: usize, scale: f64) -> Self {
        Self {
            solve_fault: None,
            zero_pivot_row: None,
            scale_entry: Some((row, col, scale)),
            applies_to_attempts: 1,
        }
    }

    /// Keeps the fault active for the first `n` attempts, forcing the
    /// ladder at least `n` rungs deep.
    pub fn persist_for(mut self, n: usize) -> Self {
        self.applies_to_attempts = n;
        self
    }

    fn active_for(&self, attempt: usize) -> bool {
        attempt < self.applies_to_attempts
    }
}

/// Configuration of the fallback ladder.
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// De-escalation drop ratios (percent) to retry, tried in order; only
    /// ratios strictly less aggressive than the plan's chosen ratio are
    /// used. Values outside `(0, 100)` are ignored.
    pub ratios: Vec<f64>,
    /// Shift escalation policy for the [`FallbackRung::Shifted`] rung.
    pub shift_policy: ShiftPolicy,
    /// Deterministic fault injection (testing only; `None` in production).
    pub fault: Option<FaultInjection>,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        Self { ratios: vec![5.0, 1.0], shift_policy: ShiftPolicy::default(), fault: None }
    }
}

/// Record of one ladder attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryAttempt {
    /// Which rung ran.
    pub rung: FallbackRung,
    /// How the solve stopped (carries the [`BreakdownKind`] on failure).
    pub stop: StopReason,
    /// Iterations the attempt performed.
    pub iterations: usize,
    /// Final residual norm of the attempt.
    pub final_residual: f64,
    /// Factorizations performed to build this rung's preconditioner
    /// (0 for the planned factors and Jacobi, ≥ 1 otherwise; the shifted
    /// rung counts every escalation attempt).
    pub factorizations: usize,
    /// Diagonal shift used by this rung's factorization (0 unless shifted).
    pub alpha: f64,
}

impl RecoveryAttempt {
    /// `true` when this attempt converged.
    pub fn converged(&self) -> bool {
        self.stop == StopReason::Converged
    }
}

/// The full story of a resilient solve: every attempt, in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryReport {
    /// Attempts in execution order; the last one produced the returned
    /// result.
    pub attempts: Vec<RecoveryAttempt>,
}

impl RecoveryReport {
    /// `true` when the final attempt converged.
    pub fn recovered(&self) -> bool {
        self.attempts.last().is_some_and(RecoveryAttempt::converged)
    }

    /// `true` when recovery needed no fallback (the planned attempt
    /// converged directly).
    pub fn clean(&self) -> bool {
        self.attempts.len() == 1 && self.recovered()
    }

    /// The rung sequence that was executed.
    pub fn rungs(&self) -> Vec<FallbackRung> {
        self.attempts.iter().map(|a| a.rung).collect()
    }

    /// Classification of the original failure — the breakdown kind of the
    /// first attempt (`None` when the planned attempt succeeded or failed
    /// without a breakdown classification).
    pub fn cause(&self) -> Option<BreakdownKind> {
        self.attempts.first().and_then(|a| a.stop.breakdown_kind())
    }

    /// Iterations summed over every attempt.
    pub fn total_iterations(&self) -> usize {
        self.attempts.iter().map(|a| a.iterations).sum()
    }

    /// Factorizations summed over every attempt.
    pub fn total_factorizations(&self) -> usize {
        self.attempts.iter().map(|a| a.factorizations).sum()
    }
}

/// Result of a resilient solve: the solution (from the first converged
/// attempt, or the best-residual attempt when nothing converged) plus the
/// recovery report.
#[derive(Debug, Clone)]
pub struct ResilientSolve<T: Scalar> {
    /// The solve result handed back to the caller.
    pub result: SolveResult<T>,
    /// What it took to get there.
    pub report: RecoveryReport,
}

impl<T: Scalar> ResilientSolve<T> {
    /// `true` when the returned result converged.
    pub fn converged(&self) -> bool {
        self.result.stop == StopReason::Converged
    }
}

/// Outcome of building one rung's preconditioner.
struct RungPrecond<'p, T: Scalar> {
    factors: RungFactors<'p, T>,
    factorizations: usize,
    alpha: f64,
}

/// A rung's preconditioner: borrowed from the plan for the planned and
/// promoted rungs (only an injected factor corruption clones it), built
/// for the rung otherwise.
enum RungFactors<'p, T: Scalar> {
    /// The plan's own full-precision factors.
    Resident(&'p IluFactors<T>),
    /// Factors built for the rung, or a corrupted copy of the resident ones.
    Ilu(Box<IluFactors<T>>),
    /// Reduced-precision factors, solved through the iterative-refinement
    /// driver (the planned attempt of a mixed plan).
    Mixed(&'p MixedPrecisionIlu<T>),
    /// A level-free approximate inverse — the planned preconditioner of a
    /// level-free plan, or a freshly built FSAI on the family-switch rung.
    Ainv(Cow<'p, AinvPreconditioner<T>>),
    Jacobi(JacobiPreconditioner<T>),
}

impl<'p, T: Scalar> RungPrecond<'p, T> {
    /// An unshifted rung preconditioner that took `factorizations` to build.
    fn new(factors: RungFactors<'p, T>, factorizations: usize) -> Self {
        Self { factors, factorizations, alpha: 0.0 }
    }
}

impl<T: Scalar> SpcgPlan<T> {
    /// Solves `A x = b` with the fallback ladder: on a runtime breakdown,
    /// the preconditioner is rebuilt progressively more conservatively
    /// until the solve converges or the ladder is exhausted. The workspace
    /// is shared by every rung (the buffers only ever grow), so a recovery
    /// costs no steady-state allocations beyond the fallback factorizations
    /// themselves; afterwards `ws.solution()` holds the returned iterate,
    /// in the caller's ordering.
    ///
    /// `probe` sees every ladder attempt bracketed in a
    /// `Span::LadderAttempt` (containing the rung's rebuild factorization
    /// spans and its solve loop) and reported as a [`RungEvent`] carrying
    /// the rung kind, ratio/shift payloads, and stop classification —
    /// including [`ProbeStop::Skipped`] events for rungs that could not be
    /// built on this matrix. Pass [`NoProbe`](spcg_probe::NoProbe) for
    /// none, or `&mut probe` to keep the probe.
    ///
    /// With no fault injected and a healthy plan, the result is bitwise
    /// identical to [`solve_with_workspace`](SpcgPlan::solve_with_workspace)
    /// and the report shows a single clean [`FallbackRung::Planned`]
    /// attempt.
    pub fn solve_resilient<P: Probe>(
        &self,
        b: &[T],
        opts: &ResilienceOptions,
        ws: &mut SolveWorkspace<T>,
        probe: P,
    ) -> std::result::Result<ResilientSolve<T>, SolverError> {
        // Every rung refactors from the plan's operator, so the whole
        // ladder runs in operator space, and the returned iterate goes back
        // through the workspace to reach the caller's ordering.
        let mut solve = self.in_operator_space(b, ws, false, |b, ws| {
            let solve = self.ladder_in_operator_space(b, opts, ws, probe)?;
            ws.solution_mut().copy_from_slice(&solve.result.x);
            Ok(solve)
        })?;
        solve.result.x.copy_from_slice(ws.solution());
        Ok(solve)
    }

    /// The ladder itself, in operator space.
    fn ladder_in_operator_space<P: Probe>(
        &self,
        b: &[T],
        opts: &ResilienceOptions,
        ws: &mut SolveWorkspace<T>,
        mut probe: P,
    ) -> std::result::Result<ResilientSolve<T>, SolverError> {
        let (operator, config) = (self.operator(), &self.options().solver);
        let mut report = RecoveryReport::default();
        // Track the best non-converged outcome so an exhausted ladder still
        // returns the least-bad iterate (degraded, never garbage).
        let mut best: Option<SolveResult<T>> = None;

        for rung in self.ladder(opts) {
            let attempt_idx = report.attempts.len();
            let (kind, ratio) = rung.probe_kind();
            let fault = opts.fault.filter(|f| f.active_for(attempt_idx));
            probe.span_begin(Span::LadderAttempt);
            let Some(precond) = self.build_rung(rung, opts, fault, &mut probe) else {
                probe.rung(RungEvent {
                    attempt: attempt_idx,
                    rung: kind,
                    ratio,
                    shift: 0.0,
                    outcome: ProbeStop::Skipped,
                });
                probe.span_end(Span::LadderAttempt);
                continue; // rung unbuildable on this matrix: climb down
            };
            let ctx = SolveCtx {
                fault: fault.and_then(|f| f.solve_fault),
                ..SolveCtx::probed(&mut probe)
            };
            let solved = match &precond.factors {
                RungFactors::Resident(f) => pcg_in_place(operator, *f, b, config, ws, ctx),
                RungFactors::Ilu(f) => pcg_in_place(operator, f.as_ref(), b, config, ws, ctx),
                RungFactors::Mixed(m) => self.solve_mixed(m, b, ws, ctx).map(|r| r.stats),
                RungFactors::Ainv(a) => pcg_in_place(operator, a.as_ref(), b, config, ws, ctx),
                RungFactors::Jacobi(j) => pcg_in_place(operator, j, b, config, ws, ctx),
            };
            let result = match solved {
                Ok(stats) => ws.to_result(stats),
                Err(e) => {
                    probe.span_end(Span::LadderAttempt);
                    return Err(e);
                }
            };
            probe.rung(RungEvent {
                attempt: attempt_idx,
                rung: kind,
                ratio,
                shift: precond.alpha,
                outcome: result.stop.as_probe_stop(),
            });
            probe.span_end(Span::LadderAttempt);
            report.attempts.push(RecoveryAttempt {
                rung,
                stop: result.stop,
                iterations: result.iterations,
                final_residual: result.final_residual,
                factorizations: precond.factorizations,
                alpha: precond.alpha,
            });
            if result.stop == StopReason::Converged {
                return Ok(ResilientSolve { result, report });
            }
            let better = match &best {
                None => true,
                Some(b) => {
                    !b.final_residual.is_finite()
                        || (result.final_residual.is_finite()
                            && result.final_residual < b.final_residual)
                }
            };
            if better {
                best = Some(result);
            }
        }

        let result = best.expect("ladder always executes at least the Jacobi rung");
        Ok(ResilientSolve { result, report })
    }

    /// The rung sequence this plan would climb: planned factors (followed
    /// by precision promotion for mixed plans), then each configured ratio
    /// strictly less aggressive than the plan's, then the unsparsified
    /// factorization (when the plan sparsified at all), the shifted
    /// refactorization, and finally Jacobi.
    pub fn ladder(&self, opts: &ResilienceOptions) -> Vec<FallbackRung> {
        let mut rungs = vec![FallbackRung::Planned];
        if self.is_mixed() {
            // The cheapest de-escalation on a mixed plan: the resident
            // full-precision factors, no refactorization. Full plans skip
            // the rung entirely — their ladder is unchanged.
            rungs.push(FallbackRung::PromotePrecision);
        }
        if let Some(d) = self.decision() {
            for &t in &opts.ratios {
                if t < d.chosen_ratio && t > 0.0 && t < 100.0 {
                    rungs.push(FallbackRung::Resparsify(t));
                }
            }
            rungs.push(FallbackRung::Unsparsified);
        }
        rungs.push(FallbackRung::Shifted);
        if !self.is_level_free() {
            // Family switch before the terminal diagonal: a matrix that
            // breaks every incomplete factorization often still admits an
            // SPD-preserving approximate inverse. A plan that is already
            // level-free skips it — rebuilding the same family changes
            // nothing.
            rungs.push(FallbackRung::Fsai);
        }
        rungs.push(FallbackRung::Jacobi);
        rungs
    }

    /// Builds the preconditioner for one rung, applying any active factor
    /// corruption. Returns `None` when the rung cannot be built on this
    /// matrix (the ladder then skips to the next rung).
    fn build_rung<P: Probe>(
        &self,
        rung: FallbackRung,
        opts: &ResilienceOptions,
        fault: Option<FaultInjection>,
        probe: &mut P,
    ) -> Option<RungPrecond<'_, T>> {
        let kind = self.options().ilu_fill;
        let exec = self.options().exec;
        let built = match rung {
            FallbackRung::Planned => match (self.ainv(), self.mixed_factors()) {
                // A level-free plan's own preconditioner is the resident
                // approximate inverse.
                (Some(ainv), _) => RungPrecond::new(RungFactors::Ainv(Cow::Borrowed(ainv)), 0),
                // A mixed plan's own preconditioner is the reduced-precision
                // apply (under refinement) — that is what attempt 0 retries.
                (None, Some(m)) => RungPrecond::new(RungFactors::Mixed(m), 0),
                (None, None) => RungPrecond::new(RungFactors::Resident(self.factors()), 0),
            },
            // The full factors are resident on every mixed plan: promotion
            // costs zero factorizations.
            FallbackRung::PromotePrecision => {
                RungPrecond::new(RungFactors::Resident(self.factors()), 0)
            }
            FallbackRung::Resparsify(t) => {
                let a_hat = sparsify_by_magnitude(self.operator(), t).a_hat;
                let f = build_preconditioner_probed(&a_hat, kind, exec, probe).ok()?;
                RungPrecond::new(RungFactors::Ilu(Box::new(f)), 1)
            }
            FallbackRung::Unsparsified => {
                let f = build_preconditioner_probed(self.operator(), kind, exec, probe).ok()?;
                RungPrecond::new(RungFactors::Ilu(Box::new(f)), 1)
            }
            FallbackRung::Shifted => {
                let fk = match kind {
                    IluFill::Ilu0 => FactorKind::Ilu0,
                    IluFill::Iluk(k) => FactorKind::Iluk(k),
                };
                let s = shifted_factorization_probed(
                    self.operator(),
                    fk,
                    exec,
                    &opts.shift_policy,
                    probe,
                )
                .ok()?;
                RungPrecond {
                    factors: RungFactors::Ilu(Box::new(s.factors)),
                    factorizations: s.attempts,
                    alpha: s.alpha,
                }
            }
            FallbackRung::Fsai => {
                let f = FsaiPreconditioner::new(self.operator()).ok()?;
                RungPrecond::new(RungFactors::Ainv(Cow::Owned(AinvPreconditioner::Fsai(f))), 1)
            }
            FallbackRung::Jacobi => {
                let j = JacobiPreconditioner::new(self.operator()).ok()?;
                RungPrecond::new(RungFactors::Jacobi(j), 0)
            }
        };
        Some(self.corrupt(built, fault))
    }

    /// Applies active factor-corruption faults to a built rung. Corruption
    /// only targets stored entries; faults aimed at absent entries (or at
    /// the factor-free Jacobi rung) are no-ops. Resident factors are cloned
    /// only when a corruption actually applies.
    fn corrupt<'p>(
        &self,
        mut built: RungPrecond<'p, T>,
        fault: Option<FaultInjection>,
    ) -> RungPrecond<'p, T> {
        let Some(f) = fault else { return built };
        let factors = match &built.factors {
            RungFactors::Resident(factors) => *factors,
            RungFactors::Ilu(factors) => factors.as_ref(),
            // Factor corruption targets full-precision stored entries; the
            // mixed rung is poisoned through the solve fault instead, and
            // Jacobi has no factors to corrupt.
            _ => return built,
        };
        let n = factors.dim();
        let pivot = f.zero_pivot_row.filter(|&row| row < n);
        let entry = f.scale_entry.filter(|&(row, col, _)| {
            let triangle = if col < row { factors.l() } else { factors.u() };
            row < n && triangle.get(row, col).is_some()
        });
        if pivot.is_none() && entry.is_none() {
            return built;
        }
        let mut corrupted = factors.clone();
        if let Some(row) = pivot {
            corrupted = corrupted.with_zeroed_pivot(row);
        }
        if let Some((row, col, scale)) = entry {
            corrupted = corrupted.with_scaled_entry(row, col, scale);
        }
        built.factors = RungFactors::Ilu(Box::new(corrupted));
        built
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SpcgOptions;
    use spcg_probe::NoProbe;
    use spcg_solver::SolverConfig;
    use spcg_sparse::generators::{poisson_2d, with_magnitude_spread};
    use spcg_sparse::{CsrMatrix, Rng};

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
    fn clean_solve_is_bitwise_identical_to_plain() {
        let (a, b) = system(12);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let mut ws = plan.make_workspace();
        let plain = plan.solve_with_workspace(&b, &mut ws).unwrap();
        let resilient =
            plan.solve_resilient(&b, &ResilienceOptions::default(), &mut ws, NoProbe).unwrap();
        assert_eq!(plain.x, resilient.result.x);
        assert_eq!(plain.residual_history, resilient.result.residual_history);
        assert_eq!(plain.iterations, resilient.result.iterations);
        assert!(resilient.report.clean());
        assert_eq!(resilient.report.rungs(), vec![FallbackRung::Planned]);
        assert_eq!(resilient.report.cause(), None);
    }

    #[test]
    fn nan_fault_recovers_on_the_next_rung() {
        let (a, b) = system(12);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let ropts =
            ResilienceOptions { fault: Some(FaultInjection::nan_at(2)), ..Default::default() };
        let mut ws = plan.make_workspace();
        let r = plan.solve_resilient(&b, &ropts, &mut ws, NoProbe).unwrap();
        assert!(r.converged(), "ladder must recover: {:?}", r.report);
        assert_eq!(r.report.cause(), Some(BreakdownKind::Nan));
        assert_eq!(r.report.attempts.len(), 2, "one retry: {:?}", r.report.rungs());
        assert_eq!(r.report.attempts[0].rung, FallbackRung::Planned);
        assert_eq!(r.report.attempts[0].iterations, 2, "fault fired at iteration 2");
        assert!(r.report.recovered());
    }

    #[test]
    fn zeroed_pivot_is_detected_and_recovered() {
        let (a, b) = system(10);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let ropts = ResilienceOptions {
            fault: Some(FaultInjection::zeroed_pivot(5)),
            ..Default::default()
        };
        let r = plan.solve_resilient(&b, &ropts, &mut plan.make_workspace(), NoProbe).unwrap();
        assert!(r.converged(), "report: {:?}", r.report);
        assert!(r.report.attempts.len() >= 2);
        assert!(
            r.report.cause().is_some(),
            "a zeroed pivot must classify as a breakdown, got {:?}",
            r.report.attempts[0].stop
        );
    }

    #[test]
    fn corrupted_factor_entry_recovers() {
        let (a, b) = system(10);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        // Scaling a pivot by a huge factor wrecks the preconditioner badly
        // enough to stall or break the solve.
        let ropts = ResilienceOptions {
            fault: Some(FaultInjection::corrupted_entry(7, 7, 1e12)),
            ..Default::default()
        };
        let r = plan.solve_resilient(&b, &ropts, &mut plan.make_workspace(), NoProbe).unwrap();
        assert!(r.converged(), "report: {:?}", r.report);
    }

    #[test]
    fn persistent_fault_forces_the_ladder_to_the_bottom() {
        let (a, b) = system(10);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let n_rungs = plan.ladder(&ResilienceOptions::default()).len();
        // The solve fault poisons every rung except the last.
        let ropts = ResilienceOptions {
            fault: Some(FaultInjection::nan_at(0).persist_for(n_rungs - 1)),
            ..Default::default()
        };
        let r = plan.solve_resilient(&b, &ropts, &mut plan.make_workspace(), NoProbe).unwrap();
        assert!(r.converged(), "report: {:?}", r.report);
        assert_eq!(r.report.attempts.len(), n_rungs);
        assert_eq!(r.report.attempts.last().unwrap().rung, FallbackRung::Jacobi);
        // Every poisoned attempt classified as NaN.
        for a in &r.report.attempts[..n_rungs - 1] {
            assert_eq!(a.stop.breakdown_kind(), Some(BreakdownKind::Nan));
        }
    }

    #[test]
    fn ladder_terminates_even_when_every_rung_is_poisoned() {
        let (a, b) = system(8);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let ropts = ResilienceOptions {
            fault: Some(FaultInjection::nan_at(0).persist_for(usize::MAX)),
            ..Default::default()
        };
        let r = plan.solve_resilient(&b, &ropts, &mut plan.make_workspace(), NoProbe).unwrap();
        assert!(!r.converged());
        assert!(!r.report.recovered());
        let bound = plan.ladder(&ropts).len();
        assert!(r.report.attempts.len() <= bound, "ladder must be bounded");
        // Degraded but defined: a result is still returned.
        assert_eq!(r.result.x.len(), b.len());
    }

    #[test]
    fn ladder_shape_follows_the_plan() {
        let (a, _) = system(10);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let rungs = plan.ladder(&ResilienceOptions::default());
        assert_eq!(rungs.first(), Some(&FallbackRung::Planned));
        assert_eq!(rungs.last(), Some(&FallbackRung::Jacobi));
        assert!(rungs.contains(&FallbackRung::Shifted));
        if plan.is_sparsified() {
            assert!(rungs.contains(&FallbackRung::Unsparsified));
            // Every resparsify rung is strictly less aggressive than the
            // plan's chosen ratio.
            let chosen = plan.decision().unwrap().chosen_ratio;
            for r in &rungs {
                if let FallbackRung::Resparsify(t) = r {
                    assert!(*t < chosen);
                }
            }
        }
        // Baseline (unsparsified) plans get a shorter ladder.
        let base = SpcgPlan::build(&a, &SpcgOptions { sparsify: None, ..opts() }).unwrap();
        let base_rungs = base.ladder(&ResilienceOptions::default());
        assert_eq!(
            base_rungs,
            vec![
                FallbackRung::Planned,
                FallbackRung::Shifted,
                FallbackRung::Fsai,
                FallbackRung::Jacobi
            ]
        );
    }

    #[test]
    fn report_accounting_sums_attempts() {
        let (a, b) = system(10);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let ropts = ResilienceOptions {
            fault: Some(FaultInjection::nan_at(3).persist_for(2)),
            ..Default::default()
        };
        let r = plan.solve_resilient(&b, &ropts, &mut plan.make_workspace(), NoProbe).unwrap();
        assert!(r.converged());
        assert_eq!(r.report.attempts.len(), 3);
        let total: usize = r.report.attempts.iter().map(|a| a.iterations).sum();
        assert_eq!(r.report.total_iterations(), total);
        assert!(r.report.total_factorizations() >= 1, "fallback rungs refactor");
        assert_eq!(&r.report.rungs()[..1], &[FallbackRung::Planned]);
    }

    #[test]
    fn rung_display_labels() {
        assert_eq!(FallbackRung::Planned.to_string(), "planned");
        assert_eq!(FallbackRung::PromotePrecision.to_string(), "promote-precision");
        assert_eq!(FallbackRung::Resparsify(5.0).to_string(), "resparsify(5%)");
        assert_eq!(FallbackRung::Unsparsified.to_string(), "unsparsified");
        assert_eq!(FallbackRung::Shifted.to_string(), "shifted");
        assert_eq!(FallbackRung::Fsai.to_string(), "fsai");
        assert_eq!(FallbackRung::Jacobi.to_string(), "jacobi");
    }

    #[test]
    fn fsai_rung_fires_between_shifted_and_jacobi() {
        let (a, b) = system(10);
        let plan = SpcgPlan::build(&a, opts()).unwrap();
        let ladder = plan.ladder(&ResilienceOptions::default());
        let fsai_pos = ladder.iter().position(|r| *r == FallbackRung::Fsai).unwrap();
        assert_eq!(ladder[fsai_pos - 1], FallbackRung::Shifted);
        assert_eq!(ladder[fsai_pos + 1], FallbackRung::Jacobi);
        // Poison every rung before FSAI: recovery must land exactly there,
        // demonstrating the family switch rescues a solve the whole
        // factorization ladder could not.
        let ropts = ResilienceOptions {
            fault: Some(FaultInjection::nan_at(0).persist_for(fsai_pos)),
            ..Default::default()
        };
        let r = plan.solve_resilient(&b, &ropts, &mut plan.make_workspace(), NoProbe).unwrap();
        assert!(r.converged(), "report: {:?}", r.report);
        assert_eq!(r.report.attempts.last().unwrap().rung, FallbackRung::Fsai);
        assert_eq!(r.report.attempts.last().unwrap().factorizations, 1);
    }

    #[test]
    fn level_free_plans_skip_the_fsai_rung() {
        use crate::pipeline::PrecondKind;
        let (a, b) = system(10);
        let plan = SpcgPlan::build(&a, opts().with_precond(PrecondKind::Fsai)).unwrap();
        assert!(plan.is_level_free());
        let ladder = plan.ladder(&ResilienceOptions::default());
        assert!(
            !ladder.contains(&FallbackRung::Fsai),
            "retrying the resident family is a no-op: {ladder:?}"
        );
        // An injected FSAI breakdown climbs to the terminal Jacobi rung.
        let ropts = ResilienceOptions {
            fault: Some(FaultInjection::nan_at(0).persist_for(ladder.len() - 1)),
            ..Default::default()
        };
        let r = plan.solve_resilient(&b, &ropts, &mut plan.make_workspace(), NoProbe).unwrap();
        assert!(r.converged(), "report: {:?}", r.report);
        assert_eq!(r.report.attempts.first().unwrap().rung, FallbackRung::Planned);
        assert_eq!(r.report.attempts.last().unwrap().rung, FallbackRung::Jacobi);
    }

    #[test]
    fn mixed_ladder_gains_the_promote_rung() {
        use crate::precision::PrecisionPolicy;
        let (a, _) = system(10);
        let mixed = SpcgPlan::build(&a, opts().with_precision(PrecisionPolicy::MixedF32)).unwrap();
        let rungs = mixed.ladder(&ResilienceOptions::default());
        assert_eq!(rungs[0], FallbackRung::Planned);
        assert_eq!(
            rungs[1],
            FallbackRung::PromotePrecision,
            "promotion must be the first de-escalation on a mixed plan"
        );
        assert_eq!(rungs.last(), Some(&FallbackRung::Jacobi));
        // Full plans never see the rung.
        let full = SpcgPlan::build(&a, opts()).unwrap();
        assert!(!full
            .ladder(&ResilienceOptions::default())
            .contains(&FallbackRung::PromotePrecision));
    }

    #[test]
    fn stalled_mixed_precond_promotes_precision() {
        use crate::precision::PrecisionPolicy;
        let (a, b) = system(12);
        let plan = SpcgPlan::build(&a, opts().with_precision(PrecisionPolicy::MixedF32)).unwrap();
        let ropts =
            ResilienceOptions { fault: Some(FaultInjection::stall_at(2)), ..Default::default() };
        let mut ws = plan.make_workspace();
        let r = plan.solve_resilient(&b, &ropts, &mut ws, NoProbe).unwrap();
        assert!(r.converged(), "report: {:?}", r.report);
        assert_eq!(
            r.report.cause(),
            Some(BreakdownKind::Indefinite),
            "the collapsed rᵀz must classify as Indefinite"
        );
        assert_eq!(
            r.report.rungs(),
            vec![FallbackRung::Planned, FallbackRung::PromotePrecision],
            "recovery must go through precision promotion"
        );
        assert_eq!(
            r.report.total_factorizations(),
            0,
            "promotion reuses the resident full factors"
        );
    }

    #[test]
    fn clean_mixed_resilient_solve_matches_the_plain_mixed_tier() {
        use crate::precision::PrecisionPolicy;
        let (a, b) = system(10);
        let plan = SpcgPlan::build(&a, opts().with_precision(PrecisionPolicy::MixedF32)).unwrap();
        let mut ws = plan.make_workspace();
        let plain = plan.solve_with_workspace(&b, &mut ws).unwrap();
        let resilient =
            plan.solve_resilient(&b, &ResilienceOptions::default(), &mut ws, NoProbe).unwrap();
        assert_eq!(plain.x, resilient.result.x);
        assert!(resilient.report.clean());
        assert_eq!(resilient.report.rungs(), vec![FallbackRung::Planned]);
    }
}
