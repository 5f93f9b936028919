//! Property-based tests of the preconditioners: factorization identities,
//! application correctness, and breakdown behaviour under failure
//! injection.

use proptest::prelude::*;
use spcg_precond::{
    ic0, ilu0, iluk, ExecutionStrategy, Preconditioner, SaiPattern, SaiPreconditioner,
};
use spcg_sparse::generators::{banded_spd, poisson_2d};
use spcg_sparse::{CooMatrix, CsrMatrix};

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// ILU(0) reproduces A exactly on A's pattern, for arbitrary banded SPD
    /// matrices.
    #[test]
    fn ilu0_pattern_identity(n in 8usize..50, band in 2usize..6, seed in 0u64..500) {
        let a = banded_spd(n, band, 0.8, 1.6, seed);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let lu = f.l().to_dense().matmul(&f.u().to_dense()).unwrap();
        for (i, j, v) in a.iter() {
            prop_assert!((lu.get(i, j) - v).abs() < 1e-8 * v.abs().max(1.0));
        }
    }

    /// ILU(K) residual ‖A − LU‖_F is non-increasing in K.
    #[test]
    fn iluk_residual_monotone(nx in 4usize..9, seed in 0u64..100) {
        let _ = seed;
        let a = poisson_2d(nx, nx);
        let ad = a.to_dense();
        let fro = |k: usize| {
            let f = iluk(&a, k, ExecutionStrategy::Sequential).unwrap();
            let lu = f.l().to_dense().matmul(&f.u().to_dense()).unwrap();
            let mut s = 0.0f64;
            for i in 0..a.n_rows() {
                for j in 0..a.n_rows() {
                    let d = lu.get(i, j) - ad.get(i, j);
                    s += d * d;
                }
            }
            s.sqrt()
        };
        let (r0, r1, r2) = (fro(0), fro(1), fro(2));
        prop_assert!(r1 <= r0 + 1e-12);
        prop_assert!(r2 <= r1 + 1e-12);
    }

    /// Applying ILU factors solves L·U z = r: the application is the exact
    /// inverse of the PRODUCT of the factors (not of A).
    #[test]
    fn factors_apply_inverts_product(n in 8usize..40, seed in 0u64..300) {
        let a = banded_spd(n, 3, 0.9, 1.8, seed);
        let f = ilu0(&a, ExecutionStrategy::Sequential).unwrap();
        let r: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut z = vec![0.0; n];
        f.apply(&r, &mut z);
        let lu = f.l().to_dense().matmul(&f.u().to_dense()).unwrap();
        let rz = lu.matvec(&z);
        for (got, want) in rz.iter().zip(&r) {
            prop_assert!((got - want).abs() < 1e-7);
        }
    }

    /// IC(0) of a strongly dominant SPD matrix succeeds and L·Lᵀ matches A
    /// on the lower pattern.
    #[test]
    fn ic0_lower_pattern_identity(n in 8usize..40, seed in 0u64..200) {
        let a = banded_spd(n, 3, 0.8, 2.5, seed);
        let f = ic0(&a, ExecutionStrategy::Sequential).unwrap();
        let llt = f.l().to_dense().matmul(&f.u().to_dense()).unwrap();
        for (i, j, v) in a.iter() {
            if j <= i {
                prop_assert!((llt.get(i, j) - v).abs() < 1e-8);
            }
        }
    }

    /// SAI never increases the Frobenius distance to the identity versus
    /// the trivial preconditioner G = 0 (i.e. ‖I − GA‖_F ≤ ‖I‖_F).
    #[test]
    fn sai_is_no_worse_than_nothing(n in 6usize..30, seed in 0u64..100) {
        let a = banded_spd(n, 2, 0.9, 2.0, seed);
        let sai = SaiPreconditioner::new(&a, SaiPattern::OfA).unwrap();
        let resid = sai.residual_fro(&a);
        prop_assert!(resid <= (n as f64).sqrt() + 1e-9, "residual {resid}");
    }
}

// --- failure injection (deterministic) ---

#[test]
fn ilu0_rejects_structurally_singular_matrices() {
    // Missing diagonal entry.
    let mut coo = CooMatrix::<f64>::new(3, 3);
    coo.push(0, 0, 1.0).unwrap();
    coo.push(1, 1, 1.0).unwrap();
    coo.push(2, 0, 1.0).unwrap();
    assert!(ilu0(&coo.to_csr(), ExecutionStrategy::Sequential).is_err());
}

#[test]
fn ilu0_detects_pivot_collapse() {
    // 2x2 with exactly cancelling pivot: a_11 - a_10*a_01/a_00 == 0.
    let mut coo = CooMatrix::<f64>::new(2, 2);
    coo.push(0, 0, 2.0).unwrap();
    coo.push(0, 1, 2.0).unwrap();
    coo.push(1, 0, 2.0).unwrap();
    coo.push(1, 1, 2.0).unwrap();
    assert!(ilu0(&coo.to_csr(), ExecutionStrategy::Sequential).is_err());
}

#[test]
fn iluk_rejects_missing_diagonal_at_any_k() {
    let mut coo = CooMatrix::<f64>::new(2, 2);
    coo.push(0, 0, 1.0).unwrap();
    coo.push(0, 1, 1.0).unwrap();
    coo.push(1, 0, 1.0).unwrap();
    let a = coo.to_csr();
    for k in 0..3 {
        assert!(iluk(&a, k, ExecutionStrategy::Sequential).is_err(), "k={k}");
    }
}

#[test]
fn ic0_rejects_indefinite_input() {
    let a: CsrMatrix<f64> = poisson_2d(4, 4).map_values(|v| -v);
    assert!(ic0(&a, ExecutionStrategy::Sequential).is_err());
}
