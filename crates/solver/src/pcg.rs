//! Left-preconditioned conjugate gradient — Algorithm 1 of the paper,
//! hardened with per-iteration runtime guards.
//!
//! All entry points validate their inputs and return a typed
//! [`SolverError`] on malformed systems instead of panicking. Inside the
//! loop, cheap guards classify every breakdown into a
//! [`BreakdownKind`] — NaN/Inf, loss of
//! positive-definiteness, stagnation, divergence — so recovery layers
//! (the fallback ladder in `spcg-core`) can pick the right countermeasure.

use crate::config::{SolverConfig, ToleranceMode};
use crate::ctx::SolveCtx;
use crate::error::SolverError;
use crate::fault::FaultKind;
use crate::status::{BreakdownKind, PhaseTimings, SolveResult, StopReason};
use crate::workspace::{SolveStats, SolveWorkspace};
use spcg_precond::Preconditioner;
use spcg_probe::{IterationEvent, Probe, ProbeStop, RefineEvent, Span};
use spcg_sparse::blas::{axpy, copy, dot, has_bad, norm2, xpby};
use spcg_sparse::spmv::spmv;
use spcg_sparse::{CsrMatrix, Scalar};
use std::time::Instant;

/// Minimum relative residual improvement (0.1%) for an iteration to count
/// as progress under the stagnation guard. ULP-sized jitter at the
/// rounding floor must not reset the window.
const STAGNATION_IMPROVEMENT: f64 = 1e-3;

/// Solves `A x = b` with the left-preconditioned CG of Algorithm 1.
///
/// Thin allocating wrapper over [`pcg_in_place`]: builds a fresh
/// [`SolveWorkspace`] per call and copies the iterate and history out of
/// it. Amortize setup across repeated solves by holding a workspace (or an
/// `SpcgPlan` in `spcg-core`) and calling [`pcg_in_place`] directly.
pub fn pcg<T: Scalar, M: Preconditioner<T> + ?Sized>(
    a: &CsrMatrix<T>,
    m: &M,
    b: &[T],
    config: &SolverConfig,
) -> Result<SolveResult<T>, SolverError> {
    let mut ws = SolveWorkspace::for_preconditioner(a.n_rows(), m);
    let stats = pcg_in_place(a, m, b, config, &mut ws, SolveCtx::default())?;
    Ok(ws.to_result(stats))
}

/// Build a per-iteration probe event; `#[inline]` so that with [`NoProbe`]
/// the construction is dead code and vanishes entirely.
#[inline]
fn iter_event(k: usize, residual: f64, alpha: f64, beta: f64, guard: ProbeStop) -> IterationEvent {
    IterationEvent { k, residual, alpha, beta, guard }
}

/// The zero-allocation PCG hot path: solves `A x = b` entirely inside `ws`,
/// leaving the iterate in [`SolveWorkspace::solution`] and returning only
/// `Copy` statistics. `ctx` carries the per-call inputs (see [`SolveCtx`]):
/// probe, iteration budget, warm start, and injected fault.
///
/// `ws` is grown on first use (dimension, preconditioner scratch, history
/// capacity); from the second call on, the whole solve — including every
/// iteration — performs no heap allocation.
///
/// The iteration follows the paper line by line: the residual test uses
/// `‖r_k‖₂` (line 6), `α` from `(r,z)/(p,Ap)` (line 10), `β` from the
/// ratio of successive `(r,z)` products (line 14). On top of that, each
/// iteration runs four O(1)-to-O(n) guards:
///
/// * **NaN/Inf** in the residual → [`BreakdownKind::Nan`];
/// * **divergence** `‖r_k‖ > divergence_factor · ‖r_0‖` →
///   [`BreakdownKind::Divergence`];
/// * **stagnation** (no relative improvement of the best residual by at
///   least 0.1% for `stagnation_window` consecutive iterations, when the
///   window is nonzero) → [`BreakdownKind::Stagnation`];
/// * **indefiniteness** `pᵀAp ≤ 0` or `zᵀr ≤ 0` →
///   [`BreakdownKind::Indefinite`].
///
/// Span structure per solve: one [`Span::SolveLoop`] wrapping the whole
/// loop; inside each iteration a [`Span::Spmv`], two [`Span::Blas`] blocks
/// (α/update and β/update), and [`Span::PrecondApply`] around every
/// preconditioner application (including the initial `z0 = M⁻¹ r0`). Every
/// iteration emits one [`IterationEvent`]: `guard == Running` for a healthy
/// step (so the count of `Running` events always equals
/// [`SolveStats::iterations`]), or the firing guard's classification on the
/// stopping step.
pub fn pcg_in_place<T: Scalar, M: Preconditioner<T> + ?Sized, P: Probe>(
    a: &CsrMatrix<T>,
    m: &M,
    b: &[T],
    config: &SolverConfig,
    ws: &mut SolveWorkspace<T>,
    ctx: SolveCtx<P>,
) -> Result<SolveStats, SolverError> {
    let SolveCtx { mut probe, deadline_iters, warm, fault } = ctx;
    if !a.is_square() {
        return Err(SolverError::NotSquare { n_rows: a.n_rows(), n_cols: a.n_cols() });
    }
    let n = a.n_rows();
    if n == 0 {
        return Err(SolverError::EmptySystem);
    }
    if b.len() != n {
        return Err(SolverError::RhsLength { expected: n, got: b.len() });
    }
    if m.dim() != n {
        return Err(SolverError::PreconditionerDim { expected: n, got: m.dim() });
    }

    let history_cap = if config.record_history { config.max_iters + 1 } else { 0 };
    ws.ensure(n, m.scratch_len(), m.staging_len(), history_cap);
    let SolveWorkspace { x, r, z, w, p, scratch, staging_lo, history, .. } = ws;
    // ensure() never shrinks, so reborrow at the solve dimension.
    let (x, r) = (&mut x[..n], &mut r[..n]);
    let (z, w, p) = (&mut z[..n], &mut w[..n], &mut p[..n]);
    history.clear();

    let mut timings = PhaseTimings::default();
    let loop_start = Instant::now();
    probe.span_begin(Span::SolveLoop);

    if warm {
        // x0 = previous solution (already resident in ws.x), r0 = b - A x0.
        spmv(a, x, r);
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
    } else {
        // x0 = 0, r0 = b - A x0 = b (line 1-2)
        x.fill(T::ZERO);
        copy(b, r);
    }

    let b_norm = norm2(b).to_f64();
    let threshold = config.threshold(b_norm);
    let divergence_limit = if config.divergence_factor.is_finite() {
        config.divergence_factor * b_norm.max(f64::MIN_POSITIVE)
    } else {
        f64::INFINITY
    };

    // z0 = M⁻¹ r0, p0 = z0 (lines 3-4)
    let t = Instant::now();
    probe.span_begin(Span::PrecondApply);
    m.apply_staged(r, z, scratch, staging_lo);
    probe.span_end(Span::PrecondApply);
    timings.precond += t.elapsed();
    copy(z, p);
    let mut rz = dot(r, z).to_f64();

    let mut iterations = 0usize;
    let mut stop = StopReason::MaxIterations;
    let mut best_residual = f64::INFINITY;
    let mut iters_since_best = 0usize;
    // Plain minimum of every finite residual seen, independent of the
    // stagnation guard's relative-improvement rule: the deadline error
    // reports how far the cut-off solve actually got.
    let mut best_seen = f64::INFINITY;

    for k in 0..config.max_iters {
        if let Some(f) = fault {
            if f.at_iteration == k {
                match f.kind {
                    FaultKind::Nan => r[0] = T::from_f64(f64::NAN),
                    // A reduced-precision apply that underflowed: the
                    // preconditioned residual collapses to zero, so the
                    // `rᵀz ≤ 0` guard classifies the stall as Indefinite.
                    FaultKind::StalledPrecond => {
                        z.fill(T::ZERO);
                        rz = 0.0;
                    }
                }
            }
        }

        // line 6: convergence test on ‖r_k‖, then the runtime guards
        let r_norm = norm2(r).to_f64();
        if config.record_history {
            history.push(r_norm);
        }
        if !r_norm.is_finite() || has_bad(r) {
            stop = StopReason::Breakdown(BreakdownKind::Nan);
            probe.iteration(iter_event(k, r_norm, 0.0, 0.0, ProbeStop::Nan));
            break;
        }
        if r_norm < best_seen {
            best_seen = r_norm;
        }
        if r_norm < threshold {
            stop = StopReason::Converged;
            probe.iteration(iter_event(k, r_norm, 0.0, 0.0, ProbeStop::Converged));
            break;
        }
        // Deadline watchdog: one integer comparison, checked after the
        // convergence test so a solve that finishes exactly on budget still
        // reports success. Disabled (usize::MAX) it can never fire.
        if k >= deadline_iters {
            probe.iteration(iter_event(k, r_norm, 0.0, 0.0, ProbeStop::Deadline));
            probe.span_end(Span::SolveLoop);
            return Err(SolverError::DeadlineExceeded { best_residual: best_seen, iterations: k });
        }
        if r_norm > divergence_limit {
            stop = StopReason::Breakdown(BreakdownKind::Divergence);
            probe.iteration(iter_event(k, r_norm, 0.0, 0.0, ProbeStop::Divergence));
            break;
        }
        if config.stagnation_window > 0 {
            // An iteration only counts as progress when the residual improves
            // by a meaningful *relative* margin; at the rounding floor the
            // residual jitters by ULP-sized amounts that would otherwise keep
            // resetting the window and mask the stagnation.
            if r_norm < best_residual * (1.0 - STAGNATION_IMPROVEMENT) {
                best_residual = r_norm;
                iters_since_best = 0;
            } else {
                iters_since_best += 1;
                if iters_since_best >= config.stagnation_window {
                    stop = StopReason::Breakdown(BreakdownKind::Stagnation);
                    probe.iteration(iter_event(k, r_norm, 0.0, 0.0, ProbeStop::Stagnation));
                    break;
                }
            }
        }

        // line 9: w = A p
        let t = Instant::now();
        probe.span_begin(Span::Spmv);
        spmv(a, p, w);
        probe.span_end(Span::Spmv);
        timings.spmv += t.elapsed();

        // line 10: α = (r,z)/(p,w), guarded for NaN and indefiniteness
        let t = Instant::now();
        probe.span_begin(Span::Blas);
        let pw = dot(p, w).to_f64();
        if !pw.is_finite() || !rz.is_finite() {
            stop = StopReason::Breakdown(BreakdownKind::Nan);
            probe.span_end(Span::Blas);
            probe.iteration(iter_event(k, r_norm, 0.0, 0.0, ProbeStop::Nan));
            break;
        }
        if pw <= 0.0 || rz <= 0.0 {
            stop = StopReason::Breakdown(BreakdownKind::Indefinite);
            probe.span_end(Span::Blas);
            probe.iteration(iter_event(k, r_norm, 0.0, 0.0, ProbeStop::Indefinite));
            break;
        }
        let alpha_f64 = rz / pw;
        let alpha = T::from_f64(alpha_f64);

        // lines 11-12: x += α p; r -= α w
        axpy(alpha, p, x);
        axpy(-alpha, w, r);
        probe.span_end(Span::Blas);
        timings.blas += t.elapsed();

        // line 13: z = M⁻¹ r
        let t = Instant::now();
        probe.span_begin(Span::PrecondApply);
        m.apply_staged(r, z, scratch, staging_lo);
        probe.span_end(Span::PrecondApply);
        timings.precond += t.elapsed();

        // lines 14-15: β = (r₊,z₊)/(r,z); p = z + β p
        let t = Instant::now();
        probe.span_begin(Span::Blas);
        let rz_new = dot(r, z).to_f64();
        let beta_f64 = rz_new / rz;
        let beta = T::from_f64(beta_f64);
        rz = rz_new;
        xpby(z, beta, p);
        probe.span_end(Span::Blas);
        timings.blas += t.elapsed();

        probe.iteration(iter_event(k, r_norm, alpha_f64, beta_f64, ProbeStop::Running));
        iterations += 1;
    }
    probe.span_end(Span::SolveLoop);

    // Re-check convergence when the loop ran out exactly at max_iters.
    let final_residual = norm2(r).to_f64();
    if stop == StopReason::MaxIterations && final_residual < threshold {
        stop = StopReason::Converged;
    }
    if final_residual.is_nan() {
        stop = StopReason::Breakdown(BreakdownKind::Nan);
    }
    timings.total = loop_start.elapsed();

    Ok(SolveStats { iterations, final_residual, stop, timings })
}

/// Outcome of an iterative-refinement PCG run: the combined solve
/// statistics plus how many refinement restarts it took.
#[derive(Debug, Clone, Copy)]
pub struct RefinedStats {
    /// Combined statistics across the initial solve and every restart:
    /// `iterations` is the total, `final_residual` is the *exact* residual
    /// `‖b − A·x‖₂` (not the recurrence's), `stop`/`timings` are aggregated.
    pub stats: SolveStats,
    /// Refinement restarts performed (0 = the initial solve sufficed).
    pub restarts: usize,
}

/// PCG under an iterative-refinement outer loop — the full-precision
/// recurrence that recovers accuracy from a reduced-precision
/// preconditioner.
///
/// Runs [`pcg_in_place`] and, whenever the recurrence *stalls*
/// (stagnation breakdown, or the iteration cap with the residual still
/// above threshold), restarts it on the exact residual: with `x` the
/// accumulated iterate, it computes `r = b − A·x` in full precision and
/// solves the correction system `A·d = r` to the same absolute threshold,
/// accumulating `x ← x + d`. Up to `max_restarts` corrections are
/// attempted; each restart is announced to the probe as a
/// [`RefineEvent`]. Hard breakdowns (NaN, divergence, indefiniteness) are
/// returned immediately — they are the fallback ladder's job, not
/// refinement's.
///
/// `ctx` applies to the first run; the corrections share its probe and
/// iteration budget (each run gets the whole budget) but start cold and
/// fault-free. The accumulated iterate is left in
/// [`SolveWorkspace::solution`]. All buffers (including the refinement
/// accumulator and exact-residual vector) come from `ws`, so warm calls
/// allocate nothing. With `max_restarts == 0` and no stall the trajectory
/// — and the workspace contents — are bitwise identical to
/// [`pcg_in_place`].
pub fn pcg_refined_in_place<T: Scalar, M: Preconditioner<T> + ?Sized, P: Probe>(
    a: &CsrMatrix<T>,
    m: &M,
    b: &[T],
    config: &SolverConfig,
    max_restarts: usize,
    ws: &mut SolveWorkspace<T>,
    mut ctx: SolveCtx<P>,
) -> Result<RefinedStats, SolverError> {
    let mut stats = pcg_in_place(a, m, b, config, ws, ctx.reborrow())?;
    let needs_refinement = |s: &SolveStats| {
        matches!(
            s.stop,
            StopReason::MaxIterations | StopReason::Breakdown(BreakdownKind::Stagnation)
        )
    };
    if max_restarts == 0 || !needs_refinement(&stats) {
        return Ok(RefinedStats { stats, restarts: 0 });
    }

    let n = a.n_rows();
    let threshold = config.threshold(norm2(b).to_f64());
    // The correction system `A d = r_exact` shares the outer system's
    // residual: `‖b − A(x + d)‖ = ‖r_exact − A d‖`, so the inner solve
    // targets the outer threshold as an absolute tolerance.
    let correction_config = config
        .clone()
        .with_tol(threshold.max(f64::MIN_POSITIVE))
        .with_tol_mode(ToleranceMode::Absolute);

    let (mut x_acc, mut r_exact) = ws.take_refine(n);
    x_acc.copy_from_slice(ws.solution());
    let mut restarts = 0usize;
    while restarts < max_restarts && needs_refinement(&stats) {
        // Exact residual of the accumulated iterate, in full precision.
        spmv(a, &x_acc, &mut r_exact);
        for (ri, &bi) in r_exact.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let exact_norm = norm2(&r_exact).to_f64();
        restarts += 1;
        ctx.probe.refine_restart(&RefineEvent {
            restart: restarts,
            residual: exact_norm,
            iterations: stats.iterations,
        });
        if exact_norm < threshold {
            // The recurrence's residual drifted pessimistic: the iterate
            // is already converged in exact arithmetic.
            stats.stop = StopReason::Converged;
            break;
        }
        let cold = SolveCtx { warm: false, fault: None, ..ctx.reborrow() };
        let correction = pcg_in_place(a, m, &r_exact, &correction_config, ws, cold)?;
        for (acc, &d) in x_acc.iter_mut().zip(ws.solution()) {
            *acc += d;
        }
        stats = SolveStats {
            iterations: stats.iterations + correction.iterations,
            final_residual: correction.final_residual,
            stop: correction.stop,
            timings: PhaseTimings {
                spmv: stats.timings.spmv + correction.timings.spmv,
                precond: stats.timings.precond + correction.timings.precond,
                blas: stats.timings.blas + correction.timings.blas,
                total: stats.timings.total + correction.timings.total,
            },
        };
    }

    // Leave the accumulated iterate in the workspace and report the exact
    // residual it actually achieves.
    ws.solution_mut().copy_from_slice(&x_acc);
    spmv(a, &x_acc, &mut r_exact);
    for (ri, &bi) in r_exact.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    stats.final_residual = norm2(&r_exact).to_f64();
    if stats.final_residual < threshold {
        stats.stop = StopReason::Converged;
    }
    ws.restore_refine(x_acc, r_exact);
    Ok(RefinedStats { stats, restarts })
}

/// FLOPs per PCG iteration for cost accounting: one SpMV (2·nnz(A)), the
/// preconditioner solves (2·nnz(M)), two dots + three axpy-like updates
/// (10·n). Matches the paper's convention of pricing the *non-sparsified*
/// baseline and reusing it for all methods.
pub fn pcg_iteration_flops(nnz_a: usize, nnz_m: usize, n: usize) -> u64 {
    (2 * nnz_a + 2 * nnz_m + 10 * n) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ToleranceMode;
    use crate::fault::SolveFault;
    use spcg_precond::{ilu0, ExecutionStrategy, IdentityPreconditioner, JacobiPreconditioner};
    use spcg_probe::NoProbe;
    use spcg_sparse::generators::{banded_spd, poisson_2d};
    use spcg_sparse::Rng;

    fn rhs(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n).map(|_| rng.range(-1.0, 1.0)).collect()
    }

    fn check_solution(a: &CsrMatrix<f64>, b: &[f64], x: &[f64], tol: f64) {
        let mut ax = vec![0.0; b.len()];
        spmv(a, x, &mut ax);
        let err: f64 =
            ax.iter().zip(b).map(|(got, want)| (got - want) * (got - want)).sum::<f64>().sqrt();
        assert!(err < tol, "residual {err} exceeds {tol}");
    }

    #[test]
    fn unpreconditioned_cg_solves_poisson() {
        let a = poisson_2d(10, 10);
        let b = rhs(100, 1);
        let m = IdentityPreconditioner::new(100);
        let res = pcg(&a, &m, &b, &SolverConfig::default().with_tol(1e-10)).unwrap();
        assert!(res.converged(), "stop: {:?}", res.stop);
        check_solution(&a, &b, &res.x, 1e-7);
    }

    #[test]
    fn ilu0_preconditioning_reduces_iterations() {
        let a = poisson_2d(20, 20);
        let b = rhs(400, 2);
        let cfg = SolverConfig::default().with_tol(1e-10);
        let plain = pcg(&a, &IdentityPreconditioner::new(400), &b, &cfg).unwrap();
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let pre = pcg(&a, &f, &b, &cfg).unwrap();
        assert!(plain.converged() && pre.converged());
        assert!(
            pre.iterations < plain.iterations,
            "ILU(0) {} should beat identity {}",
            pre.iterations,
            plain.iterations
        );
        check_solution(&a, &b, &pre.x, 1e-7);
    }

    #[test]
    fn jacobi_preconditioning_works() {
        let a = banded_spd(80, 5, 0.6, 2.0, 3);
        let b = rhs(80, 4);
        let m = JacobiPreconditioner::new(&a).unwrap();
        let res = pcg(&a, &m, &b, &SolverConfig::default().with_tol(1e-11)).unwrap();
        assert!(res.converged());
        check_solution(&a, &b, &res.x, 1e-8);
    }

    #[test]
    fn exact_preconditioner_converges_in_few_iterations() {
        // With M⁻¹ == A⁻¹ (ILU(K) large K == exact LU), PCG needs ~1 step.
        let a = banded_spd(30, 3, 0.9, 2.0, 5);
        let b = rhs(30, 6);
        let f = spcg_precond::iluk(&a, 40, ExecutionStrategy::Sequential).unwrap();
        let res = pcg(&a, &f, &b, &SolverConfig::default().with_tol(1e-10)).unwrap();
        assert!(res.converged());
        assert!(
            res.iterations <= 3,
            "exact M should converge almost immediately, got {}",
            res.iterations
        );
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = poisson_2d(5, 5);
        let m = IdentityPreconditioner::new(25);
        let res = pcg(&a, &m, &[0.0; 25], &SolverConfig::default()).unwrap();
        assert!(res.converged());
        assert_eq!(res.iterations, 0);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn max_iterations_is_respected() {
        let a = poisson_2d(30, 30);
        let b = rhs(900, 7);
        let m = IdentityPreconditioner::new(900);
        let cfg = SolverConfig::default()
            .with_tol(1e-14)
            .with_tol_mode(ToleranceMode::Absolute)
            .with_max_iters(3);
        let res = pcg(&a, &m, &b, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::MaxIterations);
        assert_eq!(res.iterations, 3);
    }

    #[test]
    fn history_records_monotonic_trend() {
        let a = poisson_2d(12, 12);
        let b = rhs(144, 8);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let res =
            pcg(&a, &f, &b, &SolverConfig::default().with_history(true).with_tol(1e-10)).unwrap();
        assert!(res.converged());
        assert_eq!(res.residual_history.len(), res.iterations + 1);
        // First residual is ‖b‖, last recorded one is above the final.
        assert!(res.residual_history[0] > *res.residual_history.last().unwrap());
    }

    #[test]
    fn non_spd_matrix_breaks_down_as_indefinite() {
        // A negative-definite matrix: pᵀAp < 0 on the first iteration.
        let a = poisson_2d(4, 4).map_values(|v| -v);
        let b = rhs(16, 9);
        let m = IdentityPreconditioner::new(16);
        let res = pcg(&a, &m, &b, &SolverConfig::default()).unwrap();
        assert_eq!(res.stop, StopReason::Breakdown(BreakdownKind::Indefinite));
    }

    #[test]
    fn f32_solve_converges_at_f32_tolerance() {
        let a: CsrMatrix<f32> = poisson_2d(10, 10).cast();
        let b: Vec<f32> = rhs(100, 10).into_iter().map(|v| v as f32).collect();
        let m = IdentityPreconditioner::new(100);
        let cfg = SolverConfig::default().with_tol(1e-5);
        let res = pcg(&a, &m, &b, &cfg).unwrap();
        assert!(res.converged(), "stop {:?} residual {}", res.stop, res.final_residual);
    }

    #[test]
    fn parallel_ilu_application_gives_identical_trajectory() {
        let a = poisson_2d(16, 16);
        let b = rhs(256, 11);
        let cfg = SolverConfig::default().with_history(true).with_tol(1e-10);
        let fs = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let fp = ilu0(&a, ExecutionStrategy::LevelBarrier).unwrap();
        let rs = pcg(&a, &fs, &b, &cfg).unwrap();
        let rp = pcg(&a, &fp, &b, &cfg).unwrap();
        assert_eq!(rs.iterations, rp.iterations);
        assert_eq!(rs.residual_history, rp.residual_history);
        assert_eq!(rs.x, rp.x);
    }

    #[test]
    fn flop_model_is_linear() {
        assert_eq!(pcg_iteration_flops(10, 20, 5), 2 * 10 + 2 * 20 + 50);
    }

    #[test]
    fn workspace_reuse_is_bitwise_identical() {
        let a = poisson_2d(14, 14);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let cfg = SolverConfig::default().with_tol(1e-10).with_history(true);
        let mut ws = SolveWorkspace::for_preconditioner(a.n_rows(), &f);
        for seed in 0..3 {
            let b = rhs(196, seed);
            let fresh = pcg(&a, &f, &b, &cfg).unwrap();
            let stats = pcg_in_place(&a, &f, &b, &cfg, &mut ws, SolveCtx::default()).unwrap();
            let reused = ws.to_result(stats);
            assert_eq!(fresh.x, reused.x, "iterate differs on seed {seed}");
            assert_eq!(fresh.residual_history, reused.residual_history);
            assert_eq!(fresh.iterations, reused.iterations);
        }
    }

    #[test]
    fn in_place_solve_leaves_solution_in_workspace() {
        let a = poisson_2d(12, 12);
        let b = rhs(144, 5);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let cfg = SolverConfig::default().with_tol(1e-10);
        let mut ws = SolveWorkspace::for_preconditioner(144, &f);
        let stats = pcg_in_place(&a, &f, &b, &cfg, &mut ws, SolveCtx::default()).unwrap();
        assert!(stats.converged());
        check_solution(&a, &b, ws.solution(), 1e-7);
        let owned = pcg(&a, &f, &b, &cfg).unwrap();
        assert_eq!(owned.x.as_slice(), ws.solution());
    }

    #[test]
    fn workspace_grows_across_systems() {
        // A small-system workspace must transparently serve a larger one,
        // and retain the larger allocation afterwards.
        let small = poisson_2d(5, 5);
        let large = poisson_2d(10, 10);
        let cfg = SolverConfig::default().with_tol(1e-10);
        let m_small = IdentityPreconditioner::new(25);
        let m_large = IdentityPreconditioner::new(100);
        let mut ws = SolveWorkspace::for_preconditioner(25, &m_small);
        let ctx = SolveCtx::default();
        let r1 = pcg_in_place(&small, &m_small, &rhs(25, 1), &cfg, &mut ws, ctx).unwrap();
        assert!(r1.converged());
        let r2 = pcg_in_place(&large, &m_large, &rhs(100, 2), &cfg, &mut ws, ctx).unwrap();
        assert!(r2.converged());
        assert_eq!(ws.solution().len(), 100);
        let r3 = pcg_in_place(&small, &m_small, &rhs(25, 3), &cfg, &mut ws, ctx).unwrap();
        assert!(r3.converged());
        assert_eq!(ws.solution().len(), 25);
    }

    // ---- typed input validation -------------------------------------------

    #[test]
    fn non_square_matrix_is_a_typed_error() {
        let mut coo = spcg_sparse::CooMatrix::<f64>::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr();
        let m = IdentityPreconditioner::new(2);
        let err = pcg(&a, &m, &[1.0, 1.0], &SolverConfig::default()).unwrap_err();
        assert_eq!(err, SolverError::NotSquare { n_rows: 2, n_cols: 3 });
    }

    #[test]
    fn rhs_length_mismatch_is_a_typed_error() {
        let a = poisson_2d(3, 3);
        let m = IdentityPreconditioner::new(9);
        let err = pcg(&a, &m, &[1.0; 5], &SolverConfig::default()).unwrap_err();
        assert_eq!(err, SolverError::RhsLength { expected: 9, got: 5 });
    }

    #[test]
    fn preconditioner_dim_mismatch_is_a_typed_error() {
        let a = poisson_2d(3, 3);
        let m = IdentityPreconditioner::new(4);
        let err = pcg(&a, &m, &[1.0; 9], &SolverConfig::default()).unwrap_err();
        assert_eq!(err, SolverError::PreconditionerDim { expected: 9, got: 4 });
    }

    #[test]
    fn empty_system_is_a_typed_error() {
        let a = CsrMatrix::<f64>::identity(0);
        let m = IdentityPreconditioner::new(0);
        let err = pcg(&a, &m, &[], &SolverConfig::default()).unwrap_err();
        assert_eq!(err, SolverError::EmptySystem);
    }

    // ---- runtime guards ----------------------------------------------------

    #[test]
    fn stagnation_window_stops_hopeless_solves() {
        // Singular A = diag(0, 1, 2, ..., n-1) with a right-hand side that
        // has a component in the null space: the null-space residual is
        // exactly invariant under the CG update, so ‖r‖ has a hard floor
        // and the window guard must fire long before the iteration cap.
        let n = 24;
        let diag: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let a = CsrMatrix::from_raw(n, n, (0..=n).collect(), (0..n).collect(), diag).unwrap();
        let b = vec![1.0f64; n];
        let m = IdentityPreconditioner::new(n);
        let cfg = SolverConfig::default()
            .with_tol(1e-30)
            .with_tol_mode(ToleranceMode::Absolute)
            .with_stagnation_window(10);
        let res = pcg(&a, &m, &b, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::Breakdown(BreakdownKind::Stagnation));
        assert!(res.iterations < cfg.max_iters, "guard must fire before the cap");
        // The residual can never drop below the invariant null-space
        // component |b[0]| = 1, and the guard stops it while still finite.
        assert!(res.final_residual >= 1.0, "final_residual = {}", res.final_residual);
        assert!(res.final_residual.is_finite());
    }

    #[test]
    fn divergence_guard_classifies_growth() {
        let a = poisson_2d(6, 6);
        let b = rhs(36, 4);
        let m = IdentityPreconditioner::new(36);
        // A sub-1 factor makes the guard fire on the very first residual,
        // exercising the classification path deterministically.
        let cfg = SolverConfig::default().with_divergence_factor(0.5);
        let res = pcg(&a, &m, &b, &cfg).unwrap();
        assert_eq!(res.stop, StopReason::Breakdown(BreakdownKind::Divergence));
    }

    #[test]
    fn guards_disabled_reproduce_the_unguarded_trajectory() {
        let a = poisson_2d(14, 14);
        let b = rhs(196, 6);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let plain = SolverConfig::default().with_tol(1e-10).with_history(true);
        let guarded = plain.clone().with_stagnation_window(50).with_divergence_factor(1e4);
        let r1 = pcg(&a, &f, &b, &plain).unwrap();
        let r2 = pcg(&a, &f, &b, &guarded).unwrap();
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.residual_history, r2.residual_history);
        assert_eq!(r1.stop, r2.stop);
    }

    // ---- deadline watchdog -------------------------------------------------

    /// [`pcg`] under an iteration budget.
    fn pcg_budgeted<M: Preconditioner<f64>>(
        a: &CsrMatrix<f64>,
        m: &M,
        b: &[f64],
        cfg: &SolverConfig,
        deadline_iters: usize,
    ) -> Result<SolveStats, SolverError> {
        let mut ws = SolveWorkspace::for_preconditioner(a.n_rows(), m);
        pcg_in_place(a, m, b, cfg, &mut ws, SolveCtx { deadline_iters, ..SolveCtx::default() })
    }

    #[test]
    fn deadline_budget_cuts_off_with_best_residual() {
        let a = poisson_2d(30, 30);
        let b = rhs(900, 7);
        let m = IdentityPreconditioner::new(900);
        let cfg = SolverConfig::default().with_tol(1e-14).with_tol_mode(ToleranceMode::Absolute);
        let err = pcg_budgeted(&a, &m, &b, &cfg, 5).unwrap_err();
        match err {
            SolverError::DeadlineExceeded { best_residual, iterations } => {
                assert_eq!(iterations, 5, "watchdog must fire exactly at the budget");
                assert!(best_residual.is_finite() && best_residual > 0.0);
                // The reference run's residual trajectory bounds the reported best.
                let full = pcg(&a, &m, &b, &SolverConfig::default().with_history(true)).unwrap();
                let min5 =
                    full.residual_history[..=5].iter().cloned().fold(f64::INFINITY, f64::min);
                assert!((best_residual - min5).abs() <= 1e-12 * min5.max(1.0));
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn convergence_beats_the_deadline_on_the_same_iteration() {
        // Budget far above the iterations the solve needs: never fires.
        let a = poisson_2d(10, 10);
        let b = rhs(100, 1);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let cfg = SolverConfig::default().with_tol(1e-10);
        let quick = pcg(&a, &f, &b, &cfg).unwrap();
        assert!(quick.converged());
        // Budget exactly equal to the converging iteration: the convergence
        // test runs first, so the solve still succeeds.
        let res = pcg_budgeted(&a, &f, &b, &cfg, quick.iterations).unwrap();
        assert!(res.converged());
        assert_eq!(res.iterations, quick.iterations);
    }

    // ---- fault injection ---------------------------------------------------

    #[test]
    fn injected_nan_is_caught_and_classified() {
        let a = poisson_2d(10, 10);
        let b = rhs(100, 12);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let cfg = SolverConfig::default().with_tol(1e-10).with_history(true);
        let mut ws = SolveWorkspace::for_preconditioner(100, &f);
        let ctx = SolveCtx { fault: Some(SolveFault::nan_at(3)), ..SolveCtx::default() };
        let stats = pcg_in_place(&a, &f, &b, &cfg, &mut ws, ctx).unwrap();
        assert_eq!(stats.stop, StopReason::Breakdown(BreakdownKind::Nan));
        assert_eq!(stats.iterations, 3, "fault at k=3 must stop the loop there");
        assert!(stats.final_residual.is_nan());
    }

    // ---- warm starts -------------------------------------------------------

    const COLD: SolveCtx =
        SolveCtx { probe: NoProbe, deadline_iters: usize::MAX, warm: false, fault: None };
    const WARM: SolveCtx = SolveCtx { warm: true, ..COLD };

    #[test]
    fn warm_start_on_zeroed_workspace_matches_cold() {
        let a = poisson_2d(12, 12);
        let b = rhs(144, 21);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let cfg = SolverConfig::default().with_tol(1e-10).with_history(true);
        let mut cold_ws = SolveWorkspace::for_preconditioner(144, &f);
        let mut warm_ws = SolveWorkspace::for_preconditioner(144, &f);
        let cold = pcg_in_place(&a, &f, &b, &cfg, &mut cold_ws, COLD).unwrap();
        let warm = pcg_in_place(&a, &f, &b, &cfg, &mut warm_ws, WARM).unwrap();
        assert_eq!(cold_ws.solution(), warm_ws.solution());
        assert_eq!(cold_ws.history(), warm_ws.history());
        assert_eq!(cold.iterations, warm.iterations);
    }

    #[test]
    fn warm_start_from_the_solution_converges_immediately() {
        let a = poisson_2d(14, 14);
        let b = rhs(196, 22);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let cfg = SolverConfig::default().with_tol(1e-10);
        let mut ws = SolveWorkspace::for_preconditioner(196, &f);
        let cold = pcg_in_place(&a, &f, &b, &cfg, &mut ws, COLD).unwrap();
        assert!(cold.converged() && cold.iterations > 0);
        // Re-solving the same system warm from its own solution: the
        // initial residual is already below threshold.
        let warm = pcg_in_place(&a, &f, &b, &cfg, &mut ws, WARM).unwrap();
        assert!(warm.converged());
        assert_eq!(warm.iterations, 0);
    }

    #[test]
    fn warm_start_saves_iterations_on_a_drifted_system() {
        let a = poisson_2d(16, 16);
        let b = rhs(256, 23);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let cfg = SolverConfig::default().with_tol(1e-10);
        let mut ws = SolveWorkspace::for_preconditioner(256, &f);
        pcg_in_place(&a, &f, &b, &cfg, &mut ws, COLD).unwrap();
        // A mildly perturbed right-hand side: the previous solution is a
        // good guess, so the warm solve needs strictly fewer iterations.
        let b2: Vec<f64> =
            b.iter().enumerate().map(|(i, &v)| v * (1.0 + 1e-3 * (i % 7) as f64)).collect();
        let mut cold_ws = SolveWorkspace::for_preconditioner(256, &f);
        let cold = pcg_in_place(&a, &f, &b2, &cfg, &mut cold_ws, COLD).unwrap();
        let warm = pcg_in_place(&a, &f, &b2, &cfg, &mut ws, WARM).unwrap();
        assert!(warm.converged() && cold.converged());
        assert!(
            warm.iterations < cold.iterations,
            "warm {} should beat cold {}",
            warm.iterations,
            cold.iterations
        );
    }
}
