//! Reusable solve-loop storage: every vector PCG touches, allocated once
//! and reused across solves (the "execute" half of the plan/execute split).

use crate::status::{PhaseTimings, SolveResult, StopReason};
use spcg_precond::Preconditioner;
use spcg_sparse::Scalar;

/// All hot-loop buffers of a PCG solve: iterate `x`, residual `r`,
/// preconditioned residual `z`, `w = A p`, search direction `p`, the
/// preconditioner's scratch (the triangular-solve intermediate for ILU
/// factors), and the residual-history buffer.
///
/// Construct once — sized for a matrix dimension and a preconditioner —
/// then hand to [`pcg_in_place`](crate::pcg::pcg_in_place) any number of
/// times. After the first solve warms the buffers, subsequent solves
/// perform no heap allocation inside the iteration loop.
#[derive(Debug, Clone)]
pub struct SolveWorkspace<T: Scalar> {
    pub(crate) x: Vec<T>,
    pub(crate) r: Vec<T>,
    pub(crate) z: Vec<T>,
    pub(crate) w: Vec<T>,
    pub(crate) p: Vec<T>,
    pub(crate) scratch: Vec<T>,
    /// Boundary staging buffer for callers that gather/scatter vectors
    /// around a solve (e.g. permuted-operator plans). Held here so the
    /// capacity survives across solves; borrowed out via
    /// [`take_staging`](SolveWorkspace::take_staging) because the solve
    /// itself holds `&mut self`.
    staging: Vec<T>,
    /// Reduced-precision staging for mixed-precision preconditioner
    /// application (`Preconditioner::apply_staged`): the demoted residual,
    /// the reduced-precision iterate, and the triangular intermediate live
    /// here. Empty (never allocated) for full-precision preconditioners.
    pub(crate) staging_lo: Vec<T::Lower>,
    /// Iterative-refinement accumulator (the running solution across
    /// refinement restarts). Borrowed out via
    /// [`take_refine`](SolveWorkspace::take_refine).
    refine_x: Vec<T>,
    /// Iterative-refinement exact-residual buffer (`r = b − A·x_acc`).
    refine_r: Vec<T>,
    pub(crate) history: Vec<f64>,
    /// Dimension of the most recent solve; buffers may be larger (they
    /// never shrink, so one workspace can serve systems of varying size).
    active: usize,
}

impl<T: Scalar> SolveWorkspace<T> {
    /// Workspace for an `n`-dimensional system whose preconditioner needs
    /// `scratch_len` elements of scratch.
    pub fn new(n: usize, scratch_len: usize) -> Self {
        Self {
            x: vec![T::ZERO; n],
            r: vec![T::ZERO; n],
            z: vec![T::ZERO; n],
            w: vec![T::ZERO; n],
            p: vec![T::ZERO; n],
            scratch: vec![T::ZERO; scratch_len],
            staging: Vec::new(),
            staging_lo: Vec::new(),
            refine_x: Vec::new(),
            refine_r: Vec::new(),
            history: Vec::new(),
            active: n,
        }
    }

    /// Workspace sized for `n` and the given preconditioner's scratch and
    /// staging requirements (the staging buffer stays empty for
    /// full-precision preconditioners, whose `staging_len` is 0).
    pub fn for_preconditioner<M: Preconditioner<T> + ?Sized>(n: usize, m: &M) -> Self {
        let mut ws = Self::new(n, m.scratch_len());
        ws.staging_lo.resize(m.staging_len(), <T::Lower as Scalar>::ZERO);
        ws
    }

    /// Dimension of the most recent (or upcoming) solve.
    pub fn n(&self) -> usize {
        self.active
    }

    /// The solution left by the most recent in-place solve.
    pub fn solution(&self) -> &[T] {
        &self.x[..self.active]
    }

    /// Residual history of the most recent solve (empty unless history
    /// recording was enabled in the solver config).
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// The owned result of the in-place solve that returned `stats`: the
    /// iterate and residual history copied out of the workspace.
    pub fn to_result(&self, stats: SolveStats) -> SolveResult<T> {
        SolveResult {
            x: self.solution().to_vec(),
            iterations: stats.iterations,
            final_residual: stats.final_residual,
            stop: stats.stop,
            residual_history: self.history().to_vec(),
            timings: stats.timings,
        }
    }

    /// Mutable access to the active slice of the solution buffer, for
    /// callers that post-process the iterate of an in-place solve (e.g.
    /// scattering a permuted solution back to the caller's ordering).
    pub fn solution_mut(&mut self) -> &mut [T] {
        &mut self.x[..self.active]
    }

    /// Pre-sizes the staging buffer so the first
    /// [`take_staging`](SolveWorkspace::take_staging) of up to `n` elements
    /// allocates nothing.
    pub fn reserve_staging(&mut self, n: usize) {
        if self.staging.len() < n {
            self.staging.resize(n, T::ZERO);
        }
    }

    /// Moves the staging buffer out, sized to exactly `n` elements (its
    /// previous contents are unspecified). Once the buffer has grown to
    /// `n`, taking it is allocation-free. Return it with
    /// [`restore_staging`](SolveWorkspace::restore_staging) so the
    /// capacity is kept for the next solve; a caller that forgets only
    /// costs a re-allocation, never correctness.
    pub fn take_staging(&mut self, n: usize) -> Vec<T> {
        let mut v = std::mem::take(&mut self.staging);
        v.resize(n, T::ZERO);
        v
    }

    /// Returns a buffer obtained from
    /// [`take_staging`](SolveWorkspace::take_staging) (or any buffer whose
    /// capacity is worth keeping) to the workspace.
    pub fn restore_staging(&mut self, v: Vec<T>) {
        if v.capacity() > self.staging.capacity() {
            self.staging = v;
        }
    }

    /// Pre-sizes the reduced-precision staging buffer (the mixed-precision
    /// apply path of [`Preconditioner::apply_staged`]) so the first solve
    /// through a mixed preconditioner allocates nothing.
    pub fn reserve_staging_lo(&mut self, len: usize) {
        if self.staging_lo.len() < len {
            self.staging_lo.resize(len, <T::Lower as Scalar>::ZERO);
        }
    }

    /// Pre-sizes the iterative-refinement buffers so the first
    /// [`take_refine`](SolveWorkspace::take_refine) of up to `n` elements
    /// allocates nothing.
    pub fn reserve_refine(&mut self, n: usize) {
        if self.refine_x.len() < n {
            self.refine_x.resize(n, T::ZERO);
        }
        if self.refine_r.len() < n {
            self.refine_r.resize(n, T::ZERO);
        }
    }

    /// Moves the iterative-refinement pair (accumulator, exact residual)
    /// out, each sized to exactly `n` elements (previous contents
    /// unspecified). Allocation-free once the buffers have grown to `n`;
    /// return them with [`restore_refine`](SolveWorkspace::restore_refine).
    pub fn take_refine(&mut self, n: usize) -> (Vec<T>, Vec<T>) {
        let mut x = std::mem::take(&mut self.refine_x);
        let mut r = std::mem::take(&mut self.refine_r);
        x.resize(n, T::ZERO);
        r.resize(n, T::ZERO);
        (x, r)
    }

    /// Returns buffers obtained from
    /// [`take_refine`](SolveWorkspace::take_refine) to the workspace so
    /// their capacity survives to the next solve.
    pub fn restore_refine(&mut self, x: Vec<T>, r: Vec<T>) {
        if x.capacity() > self.refine_x.capacity() {
            self.refine_x = x;
        }
        if r.capacity() > self.refine_r.capacity() {
            self.refine_r = r;
        }
    }

    /// Sets the active dimension, growing buffers if the dimension, scratch
    /// or staging requirement, or history capacity exceeds what is
    /// allocated. Idempotent: once sized, repeated calls (and solves)
    /// allocate nothing.
    pub(crate) fn ensure(
        &mut self,
        n: usize,
        scratch_len: usize,
        staging_len: usize,
        history_cap: usize,
    ) {
        self.active = n;
        if self.x.len() < n {
            self.x.resize(n, T::ZERO);
            self.r.resize(n, T::ZERO);
            self.z.resize(n, T::ZERO);
            self.w.resize(n, T::ZERO);
            self.p.resize(n, T::ZERO);
        }
        if self.scratch.len() < scratch_len {
            self.scratch.resize(scratch_len, T::ZERO);
        }
        if self.staging_lo.len() < staging_len {
            self.staging_lo.resize(staging_len, <T::Lower as Scalar>::ZERO);
        }
        if self.history.capacity() < history_cap {
            self.history.reserve(history_cap - self.history.len());
        }
    }
}

/// Scalar outcome of an in-place solve: everything in [`SolveResult`]
/// except the heap-allocated iterate and history, which stay in the
/// workspace. `Copy`, so returning it allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct SolveStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final `‖r‖₂`.
    pub final_residual: f64,
    /// Stop condition.
    pub stop: StopReason,
    /// Per-phase timings.
    pub timings: PhaseTimings,
}

impl SolveStats {
    /// `true` when the run converged.
    pub fn converged(&self) -> bool {
        self.stop == StopReason::Converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_precond::IdentityPreconditioner;

    #[test]
    fn sizing_follows_preconditioner() {
        let m = IdentityPreconditioner::new(10);
        let ws = SolveWorkspace::<f64>::for_preconditioner(10, &m);
        assert_eq!(ws.n(), 10);
        assert_eq!(ws.scratch.len(), 0);
        let ws2 = SolveWorkspace::<f64>::new(6, 6);
        assert_eq!(ws2.scratch.len(), 6);
    }

    #[test]
    fn staging_round_trip_keeps_capacity() {
        let mut ws = SolveWorkspace::<f64>::new(4, 0);
        ws.reserve_staging(16);
        let buf = ws.take_staging(16);
        let cap = buf.capacity();
        assert_eq!(buf.len(), 16);
        ws.restore_staging(buf);
        // Smaller takes reuse the same allocation.
        let again = ws.take_staging(8);
        assert_eq!(again.len(), 8);
        assert_eq!(again.capacity(), cap);
        ws.restore_staging(again);
        // A throwaway restore never downgrades the kept capacity.
        ws.restore_staging(Vec::new());
        assert_eq!(ws.take_staging(16).capacity(), cap);
    }

    #[test]
    fn solution_mut_tracks_active_dimension() {
        let mut ws = SolveWorkspace::<f64>::new(6, 0);
        ws.solution_mut().fill(2.5);
        assert_eq!(ws.solution(), &[2.5; 6]);
        ws.ensure(3, 0, 0, 0);
        assert_eq!(ws.solution_mut().len(), 3);
    }

    #[test]
    fn ensure_grows_buffers_but_never_shrinks_them() {
        let mut ws = SolveWorkspace::<f64>::new(4, 0);
        ws.ensure(8, 8, 0, 16);
        assert_eq!(ws.n(), 8);
        assert_eq!(ws.scratch.len(), 8);
        assert!(ws.history.capacity() >= 16);
        // A smaller solve reuses the larger buffers; only the active
        // dimension shrinks.
        ws.ensure(2, 0, 0, 0);
        assert_eq!(ws.n(), 2);
        assert_eq!(ws.x.len(), 8);
        assert_eq!(ws.solution().len(), 2);
    }
}
