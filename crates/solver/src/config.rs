//! Solver configuration.

use serde::{Deserialize, Serialize};

/// How the residual tolerance is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ToleranceMode {
    /// Stop when `‖r_k‖₂ < tol` (the paper's "residual accuracy").
    Absolute,
    /// Stop when `‖r_k‖₂ < tol · ‖b‖₂`.
    RelativeToRhs,
}

/// Configuration for CG/PCG runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Convergence tolerance (interpreted per [`ToleranceMode`]).
    pub tol: f64,
    /// Tolerance interpretation.
    pub tol_mode: ToleranceMode,
    /// Iteration cap (the paper uses 1000).
    pub max_iters: usize,
    /// Record `‖r_k‖₂` per iteration (small overhead; needed by analyses).
    pub record_history: bool,
    /// Stagnation guard: stop with
    /// [`BreakdownKind::Stagnation`](crate::status::BreakdownKind) when the
    /// best residual seen has not improved for this many consecutive
    /// iterations. `0` disables the guard (the default, preserving the
    /// paper's run-to-the-cap behaviour).
    pub stagnation_window: usize,
    /// Divergence guard: stop with
    /// [`BreakdownKind::Divergence`](crate::status::BreakdownKind) when
    /// `‖r_k‖ > divergence_factor · ‖r_0‖`. Infinite disables the guard.
    pub divergence_factor: f64,
}

impl Default for SolverConfig {
    /// The paper's evaluation settings: residual accuracy `1e-12`, at most
    /// 1000 iterations (§4.3), interpreted relative to `‖b‖` so the same
    /// setting is meaningful in `f32`.
    fn default() -> Self {
        Self {
            tol: 1e-12,
            tol_mode: ToleranceMode::RelativeToRhs,
            max_iters: 1000,
            record_history: false,
            stagnation_window: 0,
            divergence_factor: 1e8,
        }
    }
}

impl SolverConfig {
    /// Builder-style tolerance override.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Builder-style tolerance-mode override.
    pub fn with_tol_mode(mut self, mode: ToleranceMode) -> Self {
        self.tol_mode = mode;
        self
    }

    /// Builder-style iteration-cap override.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Builder-style history toggle.
    pub fn with_history(mut self, record: bool) -> Self {
        self.record_history = record;
        self
    }

    /// Builder-style stagnation-window override (`0` disables the guard).
    pub fn with_stagnation_window(mut self, window: usize) -> Self {
        self.stagnation_window = window;
        self
    }

    /// Builder-style divergence-factor override (`f64::INFINITY` disables
    /// the guard).
    pub fn with_divergence_factor(mut self, factor: f64) -> Self {
        self.divergence_factor = factor;
        self
    }

    /// The stopping threshold for a given `‖b‖₂`.
    pub fn threshold(&self, b_norm: f64) -> f64 {
        match self.tol_mode {
            ToleranceMode::Absolute => self.tol,
            ToleranceMode::RelativeToRhs => self.tol * b_norm.max(f64::MIN_POSITIVE),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SolverConfig::default();
        assert_eq!(c.tol, 1e-12);
        assert_eq!(c.max_iters, 1000);
    }

    #[test]
    fn threshold_modes() {
        let abs = SolverConfig::default().with_tol(1e-6).with_tol_mode(ToleranceMode::Absolute);
        assert_eq!(abs.threshold(100.0), 1e-6);
        let rel = abs.clone().with_tol_mode(ToleranceMode::RelativeToRhs);
        assert!((rel.threshold(100.0) - 1e-4).abs() < 1e-18);
    }

    #[test]
    fn builders_chain() {
        let c = SolverConfig::default().with_tol(1e-8).with_max_iters(50).with_history(true);
        assert_eq!(c.tol, 1e-8);
        assert_eq!(c.max_iters, 50);
        assert!(c.record_history);
    }

    #[test]
    fn guards_are_off_or_loose_by_default() {
        let c = SolverConfig::default();
        assert_eq!(c.stagnation_window, 0, "stagnation guard must default off");
        assert!(c.divergence_factor >= 1e6, "divergence guard must default loose");
        let g = c.with_stagnation_window(25).with_divergence_factor(1e3);
        assert_eq!(g.stagnation_window, 25);
        assert_eq!(g.divergence_factor, 1e3);
    }
}
