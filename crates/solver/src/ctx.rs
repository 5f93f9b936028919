//! The per-call inputs of one solve.

use crate::fault::SolveFault;
use spcg_probe::{NoProbe, Probe};

/// Everything one solve call may vary without touching the solver
/// configuration: the observability probe, the iteration budget, the warm
/// start, and an injected fault. Every layer takes one — PCG itself
/// ([`pcg_in_place`](crate::pcg::pcg_in_place)), and `SpcgPlan::solve_in_place`
/// on top of it — so one entry point per layer covers every combination.
///
/// [`SolveCtx::default`] is the plain cold solve: no probe, no budget, no
/// fault. `&mut P` is itself a [`Probe`], so a caller that wants its probe
/// back passes `SolveCtx::probed(&mut probe)`. With [`NoProbe`] every probe
/// hook is an empty inlined body, and the other fields cost one integer
/// comparison and one branch per iteration.
#[derive(Debug, Clone, Copy)]
pub struct SolveCtx<P: Probe = NoProbe> {
    /// Receives spans, counters, and per-iteration events. Probes observe;
    /// the numeric trajectory is bitwise identical for any probe.
    pub probe: P,
    /// Deadline watchdog: the solve returns
    /// [`SolverError::DeadlineExceeded`](crate::SolverError) once this many
    /// iterations ran without converging, leaving the iterate reached so
    /// far in the workspace. Serving layers derive the budget from a
    /// wall-clock deadline via the gpusim per-iteration cost model.
    /// `usize::MAX` (the default) disables it.
    pub deadline_iters: usize,
    /// Seed `x0` from the workspace-resident previous solution
    /// ([`SolveWorkspace::solution`](crate::SolveWorkspace::solution))
    /// instead of zero, computing `r0 = b − A·x0` with one extra SpMV. On a
    /// zeroed workspace this reproduces the cold trajectory exactly.
    pub warm: bool,
    /// Deterministic fault injected into the loop (resilience testing).
    pub fault: Option<SolveFault>,
}

impl Default for SolveCtx {
    fn default() -> Self {
        Self::probed(NoProbe)
    }
}

impl<P: Probe> SolveCtx<P> {
    /// A cold, unbudgeted, fault-free solve observed by `probe`.
    pub fn probed(probe: P) -> Self {
        Self { probe, deadline_iters: usize::MAX, warm: false, fault: None }
    }

    /// The same inputs with the probe borrowed, for a layer that runs
    /// several loops through one probe.
    pub fn reborrow(&mut self) -> SolveCtx<&mut P> {
        SolveCtx {
            probe: &mut self.probe,
            deadline_iters: self.deadline_iters,
            warm: self.warm,
            fault: self.fault,
        }
    }
}
