//! # spcg — Sparsified Preconditioned Conjugate Gradient
//!
//! Facade crate re-exporting the whole SPCG workspace behind one import.
//! See the README for the architecture overview and DESIGN.md for the
//! paper-to-module mapping.
//!
//! The blessed surface lives in [`prelude`]: build an [`SpcgPlan`]
//! (amortizing sparsification, factorization, and level-schedule
//! construction), then solve as many right-hand sides as needed —
//! optionally observing every phase through a [`Probe`]:
//!
//! ```
//! use spcg::prelude::*;
//!
//! let a = spcg::sparse::generators::poisson_2d(16, 16);
//! let b = vec![1.0f64; a.n_rows()];
//!
//! let mut probe = RecordingProbe::new();
//! let plan = SpcgPlan::build_probed(&a, SpcgOptions::default(), &mut probe).unwrap();
//! let mut ws = plan.make_workspace();
//! let stats = plan.solve_in_place(&b, &mut ws, SolveCtx::probed(&mut probe)).unwrap();
//! assert!(stats.converged());
//! let x = ws.solution(); // the iterate stays in the workspace
//! assert_eq!(x.len(), a.n_rows());
//!
//! let trace = probe.finish();
//! assert_eq!(trace.iterations(), stats.iterations);
//! trace.validate_nesting().unwrap();
//! ```
//!
//! [`SpcgPlan`]: prelude::SpcgPlan
//! [`Probe`]: prelude::Probe

#![warn(missing_docs)]

pub mod cli;

pub use spcg_core as core;
pub use spcg_gpusim as gpusim;
pub use spcg_lowrank as lowrank;
pub use spcg_precond as precond;
pub use spcg_probe as probe;
pub use spcg_serve as serve;
pub use spcg_solver as solver;
pub use spcg_sparse as sparse;
pub use spcg_suite as suite;
pub use spcg_wavefront as wavefront;

/// The most common imports in one place: the plan/solve pipeline, its
/// options and results, the recovery ladder, and the probe layer.
pub mod prelude {
    pub use spcg_core::{
        oracle_select, wavefront_aware_sparsify, FallbackRung, FaultInjection, IluFill,
        KindCandidate, KindDecision, OrderingKind, PrecisionPolicy, PrecondKind, RecoveryAttempt,
        RecoveryReport, ReorderCandidate, ReorderDecision, ResilienceOptions, ResilientSolve,
        SparsifyParams, SpcgOptions, SpcgPlan, ORACLE_RATIOS,
    };
    pub use spcg_precond::{
        ic0, ilu0, iluk, shifted_factorization, ExecutionStrategy, Preconditioner, ShiftPolicy,
    };
    pub use spcg_probe::{
        Counter, HistogramProbe, IterationEvent, NoProbe, PhaseStats, Probe, ProbeStop,
        RecordingProbe, RunTrace, RungEvent, RungKind, Span, TraceEvent,
    };
    pub use spcg_serve::{
        CacheConfig, PlanKey, RequestPolicy, ServeError, ServeOutcome, ServiceConfig, Session,
        SessionId, SolveRequest, SolveService, SolveTier, Ticket,
    };
    pub use spcg_solver::{
        cg, pcg, pcg_in_place, BreakdownKind, PhaseTimings, SolveCtx, SolveResult, SolveStats,
        SolveWorkspace, SolverConfig, SolverError, StopReason, ToleranceMode,
    };
    pub use spcg_sparse::{CooMatrix, CsrMatrix, MatrixFingerprint, Scalar};
    pub use spcg_wavefront::{wavefront_count, LevelSchedule, Triangle, WavefrontStats};
}
