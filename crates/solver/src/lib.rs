//! # spcg-solver
//!
//! Conjugate-gradient solvers: the left-preconditioned PCG of the paper's
//! Algorithm 1 plus an unpreconditioned CG entry point, with residual
//! history, per-phase timings, typed input validation, and per-iteration
//! runtime guards that classify every breakdown into a [`BreakdownKind`].

#![warn(missing_docs)]

pub mod cg;
pub mod config;
pub mod ctx;
pub mod error;
pub mod fault;
pub mod pcg;
pub mod status;
pub mod workspace;

pub use cg::cg;
pub use config::{SolverConfig, ToleranceMode};
pub use ctx::SolveCtx;
pub use error::SolverError;
pub use fault::{FaultKind, SolveFault};
pub use pcg::{pcg, pcg_in_place, pcg_iteration_flops, pcg_refined_in_place, RefinedStats};
pub use status::{BreakdownKind, PhaseTimings, SolveResult, StopReason};
pub use workspace::{SolveStats, SolveWorkspace};
