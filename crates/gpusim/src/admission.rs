//! Structure-only cost estimates for admission control.
//!
//! The serve layer decides admit/downgrade/shed *before* any work starts.
//! On a plan-cache hit it prices the actual plan
//! ([`crate::plan_iteration_cost`]); on a miss no factors or level
//! schedules exist yet, so this module prices a prospective ILU(0)-style
//! solve from the only two numbers the fingerprint gives us: the dimension
//! `n` and the nonzero count `nnz`. The estimate reuses the same roofline
//! primitives as the full model (launch + max(bytes/bw, flops/peak)) with
//! two structural assumptions, both stated inline: the factor pattern
//! matches the operator pattern (exact for ILU(0)), and the triangular
//! wavefront count is ~√n (exact for 2D grid operators, a usable upper
//! bound for the banded and graph-Laplacian generators the bench uses).

use crate::device::DeviceSpec;
use crate::ilu::sparsify_cost_us;
use crate::kernel::IDX_BYTES;

/// A structure-only price for one prospective solve: what the plan build
/// will cost, and what each PCG iteration will cost once built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveCostEstimate {
    /// One-time plan construction (sparsify scan + numeric factorization +
    /// level-schedule inspector), µs.
    pub build_us: f64,
    /// One PCG iteration (SpMV + two triangular sweeps + BLAS-1), µs.
    pub per_iteration_us: f64,
}

impl SolveCostEstimate {
    /// Total estimated time for a solve expected to run `iterations`
    /// iterations, including the build.
    pub fn total_us(&self, iterations: usize) -> f64 {
        self.build_us + iterations as f64 * self.per_iteration_us
    }
}

/// Convert a remaining wall-clock budget into an iteration-count deadline
/// for `SolveCtx::deadline_iters`.
///
/// Returns 0 when the budget is already spent and `usize::MAX` (watchdog
/// disabled) when the per-iteration price is degenerate — a broken estimate
/// must never spuriously kill solves.
pub fn iteration_budget(remaining_us: f64, per_iteration_us: f64) -> usize {
    if per_iteration_us.is_nan() || per_iteration_us <= 0.0 || !remaining_us.is_finite() {
        return usize::MAX;
    }
    if remaining_us <= 0.0 {
        return 0;
    }
    let budget = (remaining_us / per_iteration_us).floor();
    if budget >= usize::MAX as f64 {
        usize::MAX
    } else {
        budget as usize
    }
}

/// Price a prospective ILU(0)-preconditioned PCG solve of an `n × n` system
/// with `nnz` stored entries of `value_bytes`-wide scalars, with no plan in
/// hand.
pub fn estimate_from_structure(
    device: &DeviceSpec,
    n: usize,
    nnz: usize,
    value_bytes: f64,
) -> SolveCostEstimate {
    let nf = n as f64;
    let nnzf = nnz as f64;
    let vb = value_bytes;
    // Wavefront count of the triangular factors: √n levels, exact for the
    // 2D-grid dependence DAG and a workable stand-in elsewhere.
    let levels = nf.sqrt().ceil().max(1.0);

    let roofline = |bytes: f64, flops: f64, launches: f64| -> f64 {
        launches * device.launch_overhead_us
            + device.mem_time_us(bytes).max(flops * device.us_per_flop())
    };

    // SpMV: values + column indices + row pointers + cached x gather + y.
    let spmv_bytes = nnzf * (vb + IDX_BYTES) + (nf + 1.0) * IDX_BYTES + 0.5 * nnzf * vb + nf * vb;
    let spmv_us = roofline(spmv_bytes, 2.0 * nnzf, 1.0);

    // Two triangular sweeps over factors with the operator's pattern
    // (ILU(0) adds no fill): each moves half the factor entries plus the
    // in/out vectors, and pays one launch per wavefront level.
    let sweep_bytes = 0.5 * nnzf * (vb + IDX_BYTES) + 2.0 * nf * vb;
    let trisolve_us = 2.0 * roofline(sweep_bytes, nnzf, levels);

    // BLAS-1: two dots (2 streams each) + three axpy-like updates
    // (3 streams each), 10·n flops total.
    let blas_us = roofline(nf * vb * 13.0, 10.0 * nf, 5.0);

    // Build: sparsify scan + level-schedule inspector + numeric ILU(0)
    // sweep. IKJ flops ≈ Σ_i Σ_{k<i} (1 + 2·|U(k)|) ≈ (nnz/2)(1 + nnz/n);
    // the sweep runs one kernel per wavefront level.
    let factor_flops = 0.5 * nnzf * (1.0 + nnzf / nf.max(1.0));
    let factor_bytes = 2.0 * nnzf * (vb + IDX_BYTES);
    let factor_us = roofline(factor_bytes, factor_flops, levels);
    let inspector_us = 0.002 * nnzf + 0.1 * levels * 2.0;
    let build_us = sparsify_cost_us(nnz) + inspector_us + factor_us;

    SolveCostEstimate { build_us, per_iteration_us: spmv_us + trisolve_us + blas_us }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_iteration_cost;
    use spcg_core::{SpcgOptions, SpcgPlan};
    use spcg_sparse::generators::poisson_2d;

    #[test]
    fn estimate_scales_with_structure() {
        let d = DeviceSpec::a100();
        let small = estimate_from_structure(&d, 1_000, 5_000, 8.0);
        let large = estimate_from_structure(&d, 100_000, 500_000, 8.0);
        assert!(large.per_iteration_us > small.per_iteration_us);
        assert!(large.build_us > small.build_us);
        assert!(small.per_iteration_us > 0.0 && small.build_us > 0.0);
    }

    #[test]
    fn estimate_tracks_the_priced_plan_within_an_order_of_magnitude() {
        // The structure estimate stands in for the real plan price on cache
        // misses; it must be the same order of magnitude or admission
        // decisions are garbage.
        let d = DeviceSpec::a100();
        let a = poisson_2d(48, 48);
        let plan = SpcgPlan::build(&a, SpcgOptions::default()).unwrap();
        let priced = plan_iteration_cost(&d, &plan).total_us();
        let est = estimate_from_structure(&d, a.n_rows(), a.nnz(), 8.0).per_iteration_us;
        assert!(est > 0.1 * priced && est < 10.0 * priced, "est {est} vs priced {priced}");
    }

    #[test]
    fn iteration_budget_conversion() {
        assert_eq!(iteration_budget(1000.0, 10.0), 100);
        assert_eq!(iteration_budget(5.0, 10.0), 0);
        assert_eq!(iteration_budget(-3.0, 10.0), 0);
        assert_eq!(iteration_budget(1000.0, 0.0), usize::MAX, "degenerate price disables");
        assert_eq!(iteration_budget(f64::INFINITY, 10.0), usize::MAX);
        assert_eq!(iteration_budget(f64::NAN, 10.0), usize::MAX);
    }

    #[test]
    fn total_includes_build_once() {
        let e = SolveCostEstimate { build_us: 100.0, per_iteration_us: 2.0 };
        assert_eq!(e.total_us(0), 100.0);
        assert_eq!(e.total_us(50), 200.0);
    }
}
