//! Typed errors for malformed solve inputs.
//!
//! The public solve entry points validate their inputs and return a
//! [`SolverError`] instead of panicking, so service callers can surface a
//! diagnosable error to their users. The error type is `Copy` and carries
//! no heap data — constructing one on the validation path keeps the hot
//! loop's zero-allocation contract intact.

use std::fmt;

/// Why a solve request was rejected before any iteration ran, or cut off
/// mid-run by the deadline watchdog.
///
/// Not `Eq` because [`SolverError::DeadlineExceeded`] carries the
/// best-so-far residual as an `f64`; it stays `Copy` so the guard path can
/// construct one without allocating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverError {
    /// The system matrix is not square.
    NotSquare {
        /// Number of rows.
        n_rows: usize,
        /// Number of columns.
        n_cols: usize,
    },
    /// The right-hand side length does not match the system dimension.
    RhsLength {
        /// System dimension `n`.
        expected: usize,
        /// Provided right-hand-side length.
        got: usize,
    },
    /// The preconditioner was built for a different dimension.
    PreconditionerDim {
        /// System dimension `n`.
        expected: usize,
        /// Preconditioner dimension.
        got: usize,
    },
    /// The system (and right-hand side) are empty — there is nothing to
    /// solve and no meaningful result to return.
    EmptySystem,
    /// The iteration-count deadline budget
    /// ([`SolveCtx::deadline_iters`](crate::SolveCtx)) expired before
    /// the solve converged. Carries the best residual norm observed so the
    /// caller can judge how far the partial solve got.
    DeadlineExceeded {
        /// Smallest `‖r_k‖₂` seen before the budget expired.
        best_residual: f64,
        /// Iterations completed when the watchdog fired.
        iterations: usize,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NotSquare { n_rows, n_cols } => {
                write!(f, "solver requires a square matrix, got {n_rows}x{n_cols}")
            }
            SolverError::RhsLength { expected, got } => {
                write!(f, "right-hand side has length {got}, system dimension is {expected}")
            }
            SolverError::PreconditionerDim { expected, got } => {
                write!(
                    f,
                    "preconditioner dimension {got} does not match system dimension {expected}"
                )
            }
            SolverError::EmptySystem => write!(f, "cannot solve an empty (0-dimensional) system"),
            SolverError::DeadlineExceeded { best_residual, iterations } => {
                write!(
                    f,
                    "deadline budget expired after {iterations} iterations \
                     (best residual {best_residual:.3e})"
                )
            }
        }
    }
}

impl std::error::Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_dimensions() {
        let e = SolverError::NotSquare { n_rows: 3, n_cols: 5 };
        assert!(e.to_string().contains("3x5"));
        let e = SolverError::RhsLength { expected: 10, got: 7 };
        assert!(e.to_string().contains('7') && e.to_string().contains("10"));
        let e = SolverError::PreconditionerDim { expected: 4, got: 9 };
        assert!(e.to_string().contains('9'));
        assert!(SolverError::EmptySystem.to_string().contains("empty"));
    }

    #[test]
    fn deadline_exceeded_reports_progress() {
        let e = SolverError::DeadlineExceeded { best_residual: 2.5e-4, iterations: 37 };
        let s = e.to_string();
        assert!(s.contains("37"), "{s}");
        assert!(s.contains("2.500e-4") || s.contains("2.5e-4"), "{s}");
        // Stays Copy + PartialEq for typed matching in callers.
        let copy = e;
        assert_eq!(copy, e);
    }
}
