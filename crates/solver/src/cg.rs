//! Plain (unpreconditioned) conjugate gradient — the `M = I` special case,
//! provided as a direct entry point and as the baseline in examples.

use crate::config::SolverConfig;
use crate::error::SolverError;
use crate::pcg::pcg;
use crate::status::SolveResult;
use spcg_precond::IdentityPreconditioner;
use spcg_sparse::{CsrMatrix, Scalar};

/// Solves `A x = b` with unpreconditioned CG.
pub fn cg<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &[T],
    config: &SolverConfig,
) -> Result<SolveResult<T>, SolverError> {
    let m = IdentityPreconditioner::new(a.n_rows());
    pcg(a, &m, b, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_sparse::generators::poisson_1d;
    use spcg_sparse::spmv::spmv_alloc;

    #[test]
    fn cg_solves_tridiagonal_exactly_in_n_steps() {
        // CG converges in at most n steps in exact arithmetic; the 1-D
        // Laplacian with n distinct eigenvalues takes close to n.
        let n = 24;
        let a = poisson_1d(n);
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let res = cg(&a, &b, &SolverConfig::default().with_tol(1e-12)).unwrap();
        assert!(res.converged());
        assert!(res.iterations <= n + 1);
        let ax = spmv_alloc(&a, &res.x);
        for (got, want) in ax.iter().zip(&b) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn identity_system_converges_instantly() {
        let a = CsrMatrix::<f64>::identity(10);
        let b = vec![3.0; 10];
        let res = cg(&a, &b, &SolverConfig::default()).unwrap();
        assert!(res.converged());
        assert!(res.iterations <= 1);
        for v in &res.x {
            assert!((v - 3.0).abs() < 1e-10);
        }
    }
}
