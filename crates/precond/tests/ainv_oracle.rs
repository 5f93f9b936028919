//! Reference oracles for the approximate-inverse builds: the sparse-dot
//! SPAI assembly and the slot-map FSAI gather must reproduce the original
//! dense-Gram / `a.get` implementations bit for bit, errors included.

use proptest::prelude::*;
use spcg_precond::{FsaiPreconditioner, SaiPattern, SaiPreconditioner};
use spcg_sparse::generators::{banded_spd, poisson_2d, random_spd, with_magnitude_spread};
use spcg_sparse::{CooMatrix, CsrMatrix, DenseMatrix, Rng, SparseError};

/// The original SPAI build: gather the dense `B`, form `BᵀB` with the dense
/// `matmul`, and assemble `G` through COO.
fn spai_reference(a: &CsrMatrix<f64>, pattern: SaiPattern) -> Result<CsrMatrix<f64>, SparseError> {
    let n = a.n_rows();
    let support: Vec<Vec<usize>> = match pattern {
        SaiPattern::OfA => (0..n).map(|i| a.row_cols(i).to_vec()).collect(),
        SaiPattern::OfASquared => (0..n)
            .map(|i| {
                let mut cols: Vec<usize> =
                    a.row_cols(i).iter().flat_map(|&k| a.row_cols(k).iter().copied()).collect();
                cols.sort_unstable();
                cols.dedup();
                cols
            })
            .collect(),
    };
    let mut coo = CooMatrix::new(n, n);
    for (i, cols) in support.iter().enumerate() {
        let k = cols.len();
        if k == 0 {
            return Err(SparseError::ZeroDiagonal { row: i });
        }
        let mut touched: Vec<usize> =
            cols.iter().flat_map(|&j| a.row_cols(j).iter().copied()).collect();
        touched.sort_unstable();
        touched.dedup();
        let m = touched.len();
        let mut bmat = DenseMatrix::zeros(m, k);
        for (s, &j) in cols.iter().enumerate() {
            for (&c, &v) in a.row_cols(j).iter().zip(a.row_values(j)) {
                bmat.set(touched.binary_search(&c).unwrap(), s, v);
            }
        }
        let mut rhs = vec![0.0; m];
        if let Ok(t) = touched.binary_search(&i) {
            rhs[t] = 1.0;
        }
        let bt = bmat.transpose();
        let mut btb = bt.matmul(&bmat)?;
        for d in 0..k {
            btb.set(d, d, btb.get(d, d) + 1e-12);
        }
        let g = btb.solve(&bt.matvec(&rhs))?;
        for (s, &j) in cols.iter().enumerate() {
            if g[s] != 0.0 {
                coo.push(i, j, g[s])?;
            }
        }
    }
    Ok(coo.to_csr())
}

/// The original FSAI build: `k²` binary-searched `a.get` per row and a
/// fresh dense solve.
fn fsai_reference(a: &CsrMatrix<f64>) -> Result<CsrMatrix<f64>, SparseError> {
    let n = a.n_rows();
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        let mut cols: Vec<usize> = a.row_cols(i).iter().copied().filter(|&j| j < i).collect();
        cols.push(i);
        let k = cols.len();
        let mut sub = DenseMatrix::zeros(k, k);
        for (r, &jr) in cols.iter().enumerate() {
            for (c, &jc) in cols.iter().enumerate() {
                if let Some(v) = a.get(jr, jc) {
                    sub.set(r, c, v);
                }
            }
        }
        let mut rhs = vec![0.0; k];
        rhs[k - 1] = 1.0;
        let y = sub.solve(&rhs).map_err(|_| SparseError::ZeroDiagonal { row: i })?;
        let d = y[k - 1];
        if d <= 0.0 || !d.is_finite() {
            return Err(SparseError::ZeroDiagonal { row: i });
        }
        let scale = 1.0 / d.sqrt();
        for (s, &j) in cols.iter().enumerate() {
            let v = y[s] * scale;
            if v != 0.0 {
                coo.push(i, j, v)?;
            }
        }
    }
    Ok(coo.to_csr())
}

type Bits = Result<(Vec<usize>, Vec<usize>, Vec<u64>), String>;

fn bits(m: Result<&CsrMatrix<f64>, &SparseError>) -> Bits {
    m.map(|m| {
        (
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.values().iter().map(|v| v.to_bits()).collect(),
        )
    })
    .map_err(|e| format!("{e:?}"))
}

fn check(a: &CsrMatrix<f64>) -> Result<(), TestCaseError> {
    for pattern in [SaiPattern::OfA, SaiPattern::OfASquared] {
        let want = spai_reference(a, pattern);
        let got = SaiPreconditioner::new(a, pattern);
        prop_assert!(
            bits(got.as_ref().map(|p| p.matrix())) == bits(want.as_ref()),
            "SPAI {:?} differs from the dense-Gram reference",
            pattern
        );
    }
    let want = fsai_reference(a);
    let got = FsaiPreconditioner::new(a);
    prop_assert!(
        bits(got.as_ref().map(|p| p.g())) == bits(want.as_ref()),
        "FSAI differs from the a.get reference"
    );
    Ok(())
}

/// Block-diagonal union of two SPD matrices: a disconnected graph.
fn disconnected(x: &CsrMatrix<f64>, y: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let n = x.n_rows() + y.n_rows();
    let mut coo = CooMatrix::new(n, n);
    for (r, c, v) in x.iter() {
        coo.push(r, c, v).unwrap();
    }
    for (r, c, v) in y.iter() {
        coo.push(r + x.n_rows(), c + x.n_rows(), v).unwrap();
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn banded_spd_matches_reference(n in 2usize..60, band in 1usize..7, seed in 0u64..1000) {
        check(&banded_spd(n, band, 0.7, 1.5, seed))?;
    }

    #[test]
    fn spread_random_and_disconnected_match_reference(n in 3usize..30, seed in 0u64..1000) {
        let spread = with_magnitude_spread(&poisson_2d(n, n / 2 + 1), 8.0, seed);
        let random = random_spd(2 * n, 4, 1.3, seed);
        check(&spread)?;
        check(&random)?;
        check(&disconnected(&spread, &random))?;
    }

    /// Indefinite and unsymmetric inputs: FSAI breaks down at the same row,
    /// SPAI's general least squares still agree.
    #[test]
    fn indefinite_and_unsymmetric_match_reference(n in 2usize..30, seed in 0u64..1000) {
        let mut rng = Rng::new(seed);
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let d = if rng.chance(0.2) { -1.0 } else { 3.0 };
            coo.push(i, i, d).unwrap();
            if i + 1 < n {
                coo.push(i + 1, i, rng.range(-1.0, 1.0)).unwrap();
            }
            let j = rng.below(n);
            if j > i + 1 {
                coo.push(i, j, rng.range(-1.0, 1.0)).unwrap();
            }
        }
        check(&coo.to_csr())?;
    }
}

#[test]
fn poisson_grids_match_reference() {
    for (nx, ny) in [(1, 1), (2, 3), (9, 9), (16, 5)] {
        check(&poisson_2d(nx, ny)).unwrap();
    }
}

#[test]
fn empty_row_is_the_same_error() {
    // Row 1 stores nothing: SPAI's support is empty, FSAI's diagonal is 0.
    let mut coo = CooMatrix::new(3, 3);
    coo.push(0, 0, 2.0).unwrap();
    coo.push(2, 2, 2.0).unwrap();
    check(&coo.to_csr()).unwrap();
}
