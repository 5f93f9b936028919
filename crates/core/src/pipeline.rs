//! The SPCG pipeline of Figure 2: sparsify `A` → factor `Â` with
//! ILU(0)/ILU(K) → run PCG on the *original* `A` with the sparsified
//! preconditioner.

use crate::algorithm2::SparsifyParams;
use crate::precision::PrecisionPolicy;
use crate::reorder::OrderingKind;
use serde::{Deserialize, Serialize};
use spcg_precond::{ilu0_probed, iluk_probed, ExecutionStrategy, IluFactors, SaiPattern};
use spcg_probe::{NoProbe, Probe};
use spcg_solver::SolverConfig;
use spcg_sparse::{CsrMatrix, Result, Scalar};

/// Which incomplete factorization backs the sparsified-ILU preconditioner
/// (the fill selector within [`PrecondKind::IluSparsified`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IluFill {
    /// ILU with zero fill (SPCG-ILU(0)).
    Ilu0,
    /// ILU with level-of-fill K (SPCG-ILU(K)).
    Iluk(usize),
}

impl IluFill {
    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            IluFill::Ilu0 => "ILU(0)".to_string(),
            IluFill::Iluk(k) => format!("ILU({k})"),
        }
    }
}

/// Which preconditioner *family* the plan uses — the axis Algorithm 2's
/// planner can now search jointly with (ratio × ordering).
///
/// The triangular-sweep family ([`IluSparsified`](PrecondKind::IluSparsified))
/// pays per-apply synchronization (level barriers or block releases); the
/// level-free family (FSAI / SPAI / Jacobi) applies as pure SpMV or
/// elementwise traffic with `Syncs == 0` per application. [`Auto`]
/// prices both under the plan's execution strategy and keeps whichever
/// wins end to end.
///
/// [`Auto`]: PrecondKind::Auto
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrecondKind {
    /// Sparsified incomplete factorization (the paper's pipeline):
    /// triangular sweeps on the wavefront schedules, fill selected by
    /// [`SpcgOptions::ilu_fill`].
    IluSparsified,
    /// Factored sparse approximate inverse `M⁻¹ = GᵀG` — SPD-preserving,
    /// applies as two SpMVs, zero synchronization.
    Fsai,
    /// Static-pattern sparse approximate inverse minimizing `‖I − MA‖_F` —
    /// applies as one SpMV, zero synchronization.
    Spai,
    /// Diagonal (Jacobi) preconditioner — the cheapest, weakest member.
    Jacobi,
    /// Search the kind space: price a sparsified-ILU iteration against the
    /// level-free candidates and keep the cheaper end-to-end plan, guarded
    /// so a weak inverse can't win on an ill-conditioned system.
    Auto,
}

impl PrecondKind {
    /// Short stable label ("ilu" / "fsai" / "spai" / "jacobi" / "auto").
    pub fn label(&self) -> &'static str {
        match self {
            PrecondKind::IluSparsified => "ilu",
            PrecondKind::Fsai => "fsai",
            PrecondKind::Spai => "spai",
            PrecondKind::Jacobi => "jacobi",
            PrecondKind::Auto => "auto",
        }
    }

    /// Parses a CLI-style label (the inverse of [`label`](Self::label)).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "ilu" => Some(PrecondKind::IluSparsified),
            "fsai" => Some(PrecondKind::Fsai),
            "spai" => Some(PrecondKind::Spai),
            "jacobi" => Some(PrecondKind::Jacobi),
            "auto" => Some(PrecondKind::Auto),
            _ => None,
        }
    }

    /// Numeric tag carried by the `precond.kind` probe counter
    /// (`Auto` never tags — plans record the *resolved* kind).
    pub fn tag(&self) -> u64 {
        match self {
            PrecondKind::IluSparsified => 1,
            PrecondKind::Fsai => 2,
            PrecondKind::Spai => 3,
            PrecondKind::Jacobi => 4,
            PrecondKind::Auto => 0,
        }
    }

    /// Whether this kind applies without any per-apply synchronization
    /// (no triangular sweeps, so no level barriers or block releases).
    pub fn is_level_free(&self) -> bool {
        matches!(self, PrecondKind::Fsai | PrecondKind::Spai | PrecondKind::Jacobi)
    }
}

/// Options for one SPCG (or baseline PCG) run.
#[derive(Debug, Clone)]
pub struct SpcgOptions {
    /// Sparsification parameters; `None` runs the non-sparsified baseline.
    /// Only consulted by the sparsified-ILU kind — level-free plans never
    /// sparsify (there is no triangular sweep to shorten).
    pub sparsify: Option<SparsifyParams>,
    /// Preconditioner family: sparsified ILU (the default), a level-free
    /// approximate inverse (FSAI/SPAI/Jacobi), or `Auto` to search the
    /// kind space by priced end-to-end time.
    pub precond: PrecondKind,
    /// Fill level of the incomplete factorization backing the
    /// sparsified-ILU kind.
    pub ilu_fill: IluFill,
    /// Pattern of the SPAI approximate inverse (`A` or `A²`).
    pub spai_pattern: SaiPattern,
    /// Contraction-estimate ceiling the τ-style quality guard applies to
    /// level-free candidates under [`PrecondKind::Auto`]: a kind whose
    /// estimated stationary contraction factor ρ exceeds this bound is
    /// rejected regardless of its priced per-iteration cost, so a
    /// cheap-but-weak inverse can't be selected on an ill-conditioned
    /// system. `1.0` would accept anything short of divergence.
    pub ainv_rho_max: f64,
    /// Triangular-solve execution strategy.
    pub exec: ExecutionStrategy,
    /// PCG configuration.
    pub solver: SolverConfig,
    /// Symmetric ordering applied before sparsification/factorization.
    /// `Natural` (the default) leaves the pipeline bitwise-identical to the
    /// pre-reordering behaviour; `Auto` searches the joint
    /// ordering × sparsify-ratio space (see [`crate::reorder`]).
    pub ordering: OrderingKind,
    /// Minimum percent reduction in cost-model-priced triangular-sweep
    /// time a non-natural ordering must deliver for `Auto` to accept it
    /// (the ordering analogue of Algorithm 2's ω). Priced under this
    /// options struct's [`ExecutionStrategy`], so an ordering is only
    /// credited for launch overhead the chosen executor would actually pay.
    pub ordering_omega: f64,
    /// Precision tier of the preconditioner application. `Full` (the
    /// default) keeps the pipeline bitwise-identical to the pre-mixed
    /// behaviour; `MixedF32` stores and applies the factors in
    /// reduced precision under an iterative-refinement outer loop; `Auto`
    /// picks per plan via a representability rule (see [`crate::precision`]).
    pub precision: PrecisionPolicy,
    /// Slack multiplier on τ applied by
    /// [`SpcgPlan::refresh_values`](crate::SpcgPlan::refresh_values) when it
    /// re-evaluates the convergence indicator on refreshed values: the
    /// refreshed split is kept while `‖Â⁻¹‖·‖S‖ ≤ τ · refresh_drift`, and a
    /// full re-plan runs otherwise. `1.0` (the default) holds refreshed
    /// plans to exactly the build-time guard.
    pub refresh_drift: f64,
}

impl Default for SpcgOptions {
    fn default() -> Self {
        Self {
            sparsify: Some(SparsifyParams::default()),
            precond: PrecondKind::IluSparsified,
            ilu_fill: IluFill::Ilu0,
            spai_pattern: SaiPattern::OfA,
            ainv_rho_max: 0.98,
            exec: ExecutionStrategy::Sequential,
            solver: SolverConfig::default(),
            ordering: OrderingKind::Natural,
            ordering_omega: 10.0,
            precision: PrecisionPolicy::Full,
            refresh_drift: 1.0,
        }
    }
}

impl SpcgOptions {
    /// Replaces the sparsification parameters wholesale; `None` selects the
    /// non-sparsified baseline.
    pub fn with_sparsify(mut self, sparsify: Option<SparsifyParams>) -> Self {
        self.sparsify = sparsify;
        self
    }

    /// Sets the convergence threshold τ, enabling sparsification with
    /// default parameters first if it was off.
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.sparsify.get_or_insert_with(SparsifyParams::default).tau = tau;
        self
    }

    /// Sets the wavefront-reduction threshold ω (percent), enabling
    /// sparsification with default parameters first if it was off.
    pub fn with_omega(mut self, omega: f64) -> Self {
        self.sparsify.get_or_insert_with(SparsifyParams::default).omega = omega;
        self
    }

    /// Sets the candidate drop ratios (percent, most aggressive first),
    /// enabling sparsification with default parameters first if it was off.
    pub fn with_ratios(mut self, ratios: Vec<f64>) -> Self {
        self.sparsify.get_or_insert_with(SparsifyParams::default).ratios = ratios;
        self
    }

    /// Selects the preconditioner family (kind).
    pub fn with_precond(mut self, precond: PrecondKind) -> Self {
        self.precond = precond;
        self
    }

    /// Selects the fill level of the sparsified-ILU factorization.
    pub fn with_ilu_fill(mut self, ilu_fill: IluFill) -> Self {
        self.ilu_fill = ilu_fill;
        self
    }

    /// Selects the SPAI approximate-inverse pattern.
    pub fn with_spai_pattern(mut self, pattern: SaiPattern) -> Self {
        self.spai_pattern = pattern;
        self
    }

    /// Sets the contraction ceiling of the level-free quality guard used
    /// by [`PrecondKind::Auto`].
    pub fn with_ainv_rho_max(mut self, rho: f64) -> Self {
        self.ainv_rho_max = rho;
        self
    }

    /// Selects the triangular-solve execution strategy.
    pub fn with_exec(mut self, exec: ExecutionStrategy) -> Self {
        self.exec = exec;
        self
    }

    /// Replaces the PCG configuration.
    pub fn with_solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Selects the symmetric ordering applied before analysis.
    pub fn with_ordering(mut self, ordering: OrderingKind) -> Self {
        self.ordering = ordering;
        self
    }

    /// Sets the minimum percent level reduction `Auto` demands before it
    /// accepts a non-natural ordering.
    pub fn with_ordering_omega(mut self, omega: f64) -> Self {
        self.ordering_omega = omega;
        self
    }

    /// Selects the precision tier of the preconditioner application.
    pub fn with_precision(mut self, precision: PrecisionPolicy) -> Self {
        self.precision = precision;
        self
    }

    /// Sets the staleness slack [`refresh_drift`](Self::refresh_drift) used
    /// by value-only plan refreshes.
    pub fn with_refresh_drift(mut self, refresh_drift: f64) -> Self {
        self.refresh_drift = refresh_drift;
        self
    }
}

/// Borrowed options convert by cloning, so call sites holding a long-lived
/// `SpcgOptions` can pass `&opts` to [`SpcgPlan::build`](crate::SpcgPlan::build)
/// unchanged.
impl From<&SpcgOptions> for SpcgOptions {
    fn from(opts: &SpcgOptions) -> Self {
        opts.clone()
    }
}

/// Builds the configured incomplete factorization of `m`.
pub fn build_preconditioner<T: Scalar>(
    m: &CsrMatrix<T>,
    kind: IluFill,
    exec: ExecutionStrategy,
) -> Result<IluFactors<T>> {
    build_preconditioner_probed(m, kind, exec, &mut NoProbe)
}

/// [`build_preconditioner`] with an observability [`Probe`]: the numeric
/// sweep reports a `Span::Factorize`, level-schedule construction a
/// `Span::LevelBuild`, and a `Counter::Factorizations` event fires on
/// success.
pub fn build_preconditioner_probed<T: Scalar, P: Probe>(
    m: &CsrMatrix<T>,
    kind: IluFill,
    exec: ExecutionStrategy,
    probe: &mut P,
) -> Result<IluFactors<T>> {
    match kind {
        IluFill::Ilu0 => ilu0_probed(m, exec, probe),
        IluFill::Iluk(k) => iluk_probed(m, k, exec, probe),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ilu_fill_labels() {
        assert_eq!(IluFill::Ilu0.label(), "ILU(0)");
        assert_eq!(IluFill::Iluk(2).label(), "ILU(2)");
    }
}
