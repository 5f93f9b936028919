//! Deterministic solve-loop fault injection for resilience testing.
//!
//! The guards in [`pcg_in_place`](crate::pcg::pcg_in_place) are only
//! trustworthy if tests can force each failure mode on demand.
//! [`SolveFault`] poisons the iteration at a chosen step, deterministically,
//! so a test can assert both that the guard fires and *how* the breakdown
//! is classified. It rides in [`SolveCtx::fault`](crate::SolveCtx);
//! production callers leave it `None`, which costs a single branch per
//! iteration.

/// What the injected fault does to the iteration state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrites the first residual component with NaN, simulating a
    /// poisoned kernel result.
    Nan,
    /// Zeroes the preconditioned residual `z` (and its `rᵀz` product) —
    /// the way a reduced-precision preconditioner application collapses
    /// when its values underflow or flush to zero — so the indefiniteness
    /// guard `rᵀz ≤ 0` fires deterministically. This is the injected
    /// "f32 stall" the promote-precision fallback rung recovers from.
    StalledPrecond,
}

/// A deterministic fault injected into the PCG iteration loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveFault {
    /// Iteration index (0-based) at which the fault fires.
    pub at_iteration: usize,
    /// What the fault corrupts.
    pub kind: FaultKind,
}

impl SolveFault {
    /// Overwrites the first residual component with NaN at the start of
    /// iteration `k`, simulating a poisoned kernel result.
    pub fn nan_at(k: usize) -> Self {
        Self { at_iteration: k, kind: FaultKind::Nan }
    }

    /// Collapses the preconditioned residual to zero at the start of
    /// iteration `k`, simulating a reduced-precision preconditioner apply
    /// whose output underflowed (the "f32 stall" failure mode).
    pub fn stall_at(k: usize) -> Self {
        Self { at_iteration: k, kind: FaultKind::StalledPrecond }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_records_the_iteration() {
        assert_eq!(SolveFault::nan_at(7).at_iteration, 7);
        assert_eq!(SolveFault::nan_at(7).kind, FaultKind::Nan);
        assert_eq!(SolveFault::stall_at(2).at_iteration, 2);
        assert_eq!(SolveFault::stall_at(2).kind, FaultKind::StalledPrecond);
    }
}
