//! # spcg-core
//!
//! The paper's contribution: **wavefront-aware sparsification** for
//! preconditioned conjugate-gradient solvers.
//!
//! * [`sparsify`] — magnitude-based symmetric sparsification `A = Â + S`;
//! * [`indicator`] — the convergence-safety indicator `‖Â⁻¹‖·‖S‖ ≤ τ`
//!   (Equation 6) with the paper's cheap condition-number approximation;
//! * [`algorithm2`] — the wavefront-aware selection loop (Algorithm 2);
//! * [`pipeline`] — the Figure-2 pipeline: sparsify → ILU(0)/ILU(K) → PCG;
//! * [`plan`] — the plan/execute split: analyze once, solve many times;
//! * [`reorder`] — level-reducing symmetric orderings (RCM, coloring) and
//!   the joint ordering × ratio selection pass;
//! * [`resilient`] — breakdown recovery: the adaptive de-sparsification
//!   fallback ladder with deterministic fault injection;
//! * [`oracle`] — the best-fixed-ratio upper bound of §4.4.
//!
//! ## Quick start
//!
//! One-shot solve — build a plan and solve once (chainable `with_*`
//! builders configure the options inline):
//!
//! ```
//! use spcg_core::{SpcgOptions, SpcgPlan};
//! use spcg_sparse::generators::poisson_2d;
//!
//! let a = poisson_2d(16, 16);
//! let b = vec![1.0f64; a.n_rows()];
//! let plan = SpcgPlan::build(&a, SpcgOptions::default().with_tau(1.0)).unwrap();
//! assert!(plan.solve(&b).unwrap().converged());
//! ```
//!
//! Repeated solves against one operator — build the plan once, reuse its
//! analysis (sparsification, factors, level schedules) for every
//! right-hand side:
//!
//! ```
//! use spcg_core::{SpcgOptions, SpcgPlan};
//! use spcg_sparse::generators::poisson_2d;
//!
//! let a = poisson_2d(16, 16);
//! let plan = SpcgPlan::build(&a, &SpcgOptions::default()).unwrap();
//! let rhs: Vec<Vec<f64>> = (0..3)
//!     .map(|k| (0..a.n_rows()).map(|i| ((i + k) % 7) as f64).collect())
//!     .collect();
//! for result in plan.solve_many(&rhs) {
//!     assert!(result.unwrap().converged());
//! }
//! ```
//!
//! Breakdown-resilient solves — a runtime breakdown climbs the fallback
//! ladder (re-sparsify less aggressively → unsparsified → diagonally
//! shifted refactorization → Jacobi) and reports what it took:
//!
//! ```
//! use spcg_core::{ResilienceOptions, SpcgOptions, SpcgPlan};
//! use spcg_probe::NoProbe;
//! use spcg_sparse::generators::poisson_2d;
//!
//! let a = poisson_2d(16, 16);
//! let plan = SpcgPlan::build(&a, &SpcgOptions::default()).unwrap();
//! let b = vec![1.0f64; a.n_rows()];
//! let mut ws = plan.make_workspace();
//! let solve = plan.solve_resilient(&b, &ResilienceOptions::default(), &mut ws, NoProbe).unwrap();
//! assert!(solve.converged());
//! assert!(solve.report.clean()); // healthy solve: no fallback needed
//! ```

#![warn(missing_docs)]

pub mod algorithm2;
pub mod indicator;
pub mod oracle;
pub mod pipeline;
pub mod plan;
pub mod precision;
pub mod precond_select;
pub mod reorder;
pub mod resilient;
pub mod sparsify;

pub use algorithm2::{
    wavefront_aware_sparsify, wavefront_aware_sparsify_probed, SelectionReason, SparsifyDecision,
    SparsifyParams,
};
pub use indicator::{condition_estimate, convergence_indicator, CondEstimator, IndicatorValue};
pub use oracle::{oracle_select, OracleChoice, ORACLE_RATIOS};
pub use pipeline::{
    build_preconditioner, build_preconditioner_probed, IluFill, PrecondKind, SpcgOptions,
};
pub use plan::SpcgPlan;
pub use precision::{fits_lower_precision, PrecisionPolicy};
pub use precond_select::{KindCandidate, KindDecision};
pub use reorder::{OrderingKind, ReorderCandidate, ReorderDecision};
pub use resilient::{
    FallbackRung, FaultInjection, RecoveryAttempt, RecoveryReport, ResilienceOptions,
    ResilientSolve,
};
pub use sparsify::{sparsify_by_magnitude, Sparsified, SparsifyStats};
pub use spcg_precond::ExecutionStrategy;
