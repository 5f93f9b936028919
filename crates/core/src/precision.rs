//! The mixed-precision execution tier (paper §6.2): reduced-precision
//! factor storage and triangular solves under a full-precision outer PCG
//! recurrence with iterative refinement.
//!
//! The triangular solves that dominate a preconditioned iteration are
//! memory-bound, so storing the factors in [`Scalar::Lower`] (`f32` for
//! `f64` solves) halves exactly the bytes the hot path streams. PCG
//! tolerates the inexact application — it only changes the effective
//! operator `M⁻¹A` — and when the reduced-precision application *stalls*
//! the recurrence, the outer iterative-refinement loop restarts it on the
//! exact full-precision residual (see
//! [`pcg_refined_in_place`](spcg_solver::pcg_refined_in_place)).
//!
//! [`PrecisionPolicy`] selects the tier per plan; `Auto` applies a cheap,
//! deterministic representability rule to the factored matrix. The policy
//! is an analysis-time decision: [`SpcgPlan`](crate::SpcgPlan) resolves it
//! at `build` time and stores the demoted factor image alongside the full
//! factors, so the resilient ladder can promote a stalled mixed solve back
//! to full precision without refactoring.

use serde::{Deserialize, Serialize};
use spcg_sparse::Scalar;

/// Which precision tier the preconditioner application runs in.
///
/// The outer PCG recurrence (SpMV, dot products, vector updates) always
/// runs in the solve's full scalar type `T`; the policy only governs the
/// factor storage and the triangular sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrecisionPolicy {
    /// Factors stored and applied in `T` (the default; bitwise-identical
    /// to the pre-mixed-precision pipeline).
    #[default]
    Full,
    /// Factors stored and applied in [`Scalar::Lower`] (`f32` for `f64`
    /// solves), under the iterative-refinement outer loop. For an `f32`
    /// solve the lower type is `f32` itself, so the tier degenerates to
    /// `Full` exactly.
    MixedF32,
    /// Choose per plan: `MixedF32` when every factored-matrix value is
    /// comfortably representable in `f32` (see
    /// [`fits_lower_precision`]), `Full` otherwise.
    Auto,
}

/// Magnitude head-room demanded by the `Auto` rule: values must sit at
/// least this factor inside the `f32` normal range on both ends, so the
/// demoted factors can neither overflow nor flush to zero during the
/// reduced-precision sweeps.
const AUTO_RANGE_MARGIN: f64 = 256.0;

impl PrecisionPolicy {
    /// Short stable label (also the CLI spelling).
    pub fn label(&self) -> &'static str {
        match self {
            PrecisionPolicy::Full => "full",
            PrecisionPolicy::MixedF32 => "mixed",
            PrecisionPolicy::Auto => "auto",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(PrecisionPolicy::Full),
            "mixed" => Some(PrecisionPolicy::MixedF32),
            "auto" => Some(PrecisionPolicy::Auto),
            _ => None,
        }
    }

    /// Stable small integer for hash mixing (cache shard selection).
    pub fn tag(&self) -> u64 {
        match self {
            PrecisionPolicy::Full => 0,
            PrecisionPolicy::MixedF32 => 1,
            PrecisionPolicy::Auto => 2,
        }
    }
}

impl std::fmt::Display for PrecisionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The `Auto` representability rule: `true` when every value is zero or
/// has magnitude at least `AUTO_RANGE_MARGIN` (×256) inside the `f32` normal
/// range on both ends — so demotion to [`Scalar::Lower`] can neither
/// overflow to infinity nor flush to zero (the two ways a reduced-precision
/// triangular sweep collapses). Deterministic, one `O(len)` pass, no
/// factorization or trial solve.
pub fn fits_lower_precision<T: Scalar>(values: &[T]) -> bool {
    let hi = f32::MAX as f64 / AUTO_RANGE_MARGIN;
    let lo = f32::MIN_POSITIVE as f64 * AUTO_RANGE_MARGIN;
    values.iter().all(|&v| {
        let m = v.to_f64().abs();
        m == 0.0 || (m.is_finite() && (lo..=hi).contains(&m))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_parse_round_trip() {
        for p in [PrecisionPolicy::Full, PrecisionPolicy::MixedF32, PrecisionPolicy::Auto] {
            assert_eq!(PrecisionPolicy::parse(p.label()), Some(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(PrecisionPolicy::parse("half"), None);
        assert_eq!(PrecisionPolicy::default(), PrecisionPolicy::Full);
    }

    #[test]
    fn tags_are_distinct() {
        let tags: Vec<u64> =
            [PrecisionPolicy::Full, PrecisionPolicy::MixedF32, PrecisionPolicy::Auto]
                .iter()
                .map(PrecisionPolicy::tag)
                .collect();
        assert_eq!(tags, vec![0, 1, 2]);
    }

    #[test]
    fn representability_rule() {
        assert!(fits_lower_precision(&[0.0f64, 1.0, -4.5, 1e10, 1e-10]));
        // Overflows f32 entirely.
        assert!(!fits_lower_precision(&[1.0f64, 1e200]));
        // Inside f32 range but without the demanded head-room.
        assert!(!fits_lower_precision(&[f32::MAX as f64 / 2.0]));
        // Would flush to zero (or subnormal) in f32.
        assert!(!fits_lower_precision(&[1.0f64, 1e-40]));
        // Non-finite values are never demoted.
        assert!(!fits_lower_precision(&[f64::NAN]));
        assert!(fits_lower_precision::<f64>(&[]));
    }
}
