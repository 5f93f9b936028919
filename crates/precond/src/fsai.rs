//! Factored sparse approximate inverse (FSAI) preconditioner — the
//! SPD-preserving member of the approximate-inverse family.
//!
//! FSAI approximates the *inverse Cholesky factor*: a lower-triangular `G`
//! with `G ≈ L⁻¹` (where `A = L Lᵀ`) on the sparsity pattern of `A`'s lower
//! triangle. The preconditioner is `M⁻¹ = Gᵀ G`, applied as two SpMVs
//! `z = Gᵀ (G r)` — no triangular solves, no wavefronts, zero
//! synchronization per application. Because `M⁻¹` is a congruence
//! `GᵀG ≻ 0` whenever `G` is nonsingular, FSAI preserves SPD by
//! construction, unlike unfactored SPAI.
//!
//! Construction (Kolotilina–Yeremin): for each row `i` with support
//! `J = {j ≤ i : a_ij stored} ∪ {i}`, solve the small dense SPD system
//! `A(J,J) ŷ = e_i|_J` and scale the row by `1/√ŷ_i`. For SPD `A`,
//! `ŷ_i = (A(J,J)⁻¹)_{ii} > 0`, so `G` always comes out lower-triangular
//! with a strictly positive diagonal, and `diag(G A Gᵀ) = 1`.

use crate::traits::Preconditioner;
use spcg_probe::{Counter, Probe};
use spcg_sparse::spmv::spmv;
use spcg_sparse::{CsrMatrix, DenseMatrix, Result, Scalar, SparseError};

/// A factored sparse approximate inverse `M⁻¹ = Gᵀ G` with lower-triangular
/// `G ≈ L⁻¹` on the pattern of `tril(A)`.
#[derive(Debug, Clone)]
pub struct FsaiPreconditioner<T: Scalar> {
    /// Lower-triangular approximate inverse factor.
    g: CsrMatrix<T>,
    /// `Gᵀ`, materialized so both halves of the apply are forward SpMVs.
    gt: CsrMatrix<T>,
}

impl<T: Scalar> FsaiPreconditioner<T> {
    /// Builds the FSAI factor of `a` on the pattern of its lower triangle.
    ///
    /// Fails with [`SparseError::ZeroDiagonal`] when a row's gathered
    /// subsystem is not positive definite (the SPD breakdown the resilience
    /// ladder climbs past), and requires every diagonal entry of `a` to be
    /// stored.
    pub fn new(a: &CsrMatrix<T>) -> Result<Self> {
        Self::new_probed(a, &mut spcg_probe::NoProbe)
    }

    /// [`new`](FsaiPreconditioner::new) with an observability [`Probe`]:
    /// emits [`Counter::SpaiRows`] (per-row dense solves),
    /// [`Counter::SpaiGathered`] (dense entries gathered across them), and
    /// [`Counter::AinvNnz`] (stored entries of `G` plus `Gᵀ`).
    pub fn new_probed<P: Probe>(a: &CsrMatrix<T>, probe: &mut P) -> Result<Self> {
        if !a.is_square() {
            return Err(SparseError::NotSquare { n_rows: a.n_rows(), n_cols: a.n_cols() });
        }
        let n = a.n_rows();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        // Per-row buffers, reused across rows. slot[j] is j's index in the
        // current support (usize::MAX when absent), so gathering A(J, J)
        // walks the support rows once instead of binary-searching k² times.
        let mut cols: Vec<usize> = Vec::new();
        let mut sub = DenseMatrix::zeros(0, 0);
        let mut y: Vec<T> = Vec::new();
        let mut slot = vec![usize::MAX; n];
        let mut gathered = 0u64;
        for i in 0..n {
            // Support: stored lower-triangle columns of row i, diagonal
            // included whether or not it is stored.
            cols.clear();
            cols.extend(a.row_cols(i).iter().copied().filter(|&j| j < i));
            cols.push(i);
            let k = cols.len();
            for (s, &j) in cols.iter().enumerate() {
                slot[j] = s;
            }
            // Gathered dense subsystem A(J, J).
            sub.reset_zeros(k, k);
            for (r, &jr) in cols.iter().enumerate() {
                for (&c, &v) in a.row_cols(jr).iter().zip(a.row_values(jr)) {
                    if slot[c] != usize::MAX {
                        sub.set(r, slot[c], v);
                    }
                }
            }
            for &j in &cols {
                slot[j] = usize::MAX;
            }
            gathered += (k * k) as u64;
            // rhs = e_i restricted to J (the diagonal is the last entry).
            y.clear();
            y.resize(k, T::ZERO);
            y[k - 1] = T::ONE;
            sub.solve_in_place(&mut y).map_err(|_| SparseError::ZeroDiagonal { row: i })?;
            // For SPD A(J,J), y_i = (A(J,J)⁻¹)_ii > 0; anything else is a
            // breakdown (indefinite or numerically singular subsystem).
            let d = y[k - 1];
            if d.to_f64() <= 0.0 || d.is_bad() {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
            let scale = T::from_f64(1.0 / d.to_f64().sqrt());
            for (&j, &ys) in cols.iter().zip(&y) {
                let v = ys * scale;
                if v != T::ZERO {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        let g = CsrMatrix::from_raw_unchecked(n, n, row_ptr, col_idx, values);
        let gt = g.transpose();
        probe.counter(Counter::SpaiRows, n as u64);
        probe.counter(Counter::SpaiGathered, gathered);
        probe.counter(Counter::AinvNnz, (g.nnz() + gt.nnz()) as u64);
        Ok(Self { g, gt })
    }

    /// The lower-triangular approximate inverse factor `G`.
    pub fn g(&self) -> &CsrMatrix<T> {
        &self.g
    }

    /// The materialized transpose `Gᵀ` (the second SpMV of the apply).
    pub fn g_t(&self) -> &CsrMatrix<T> {
        &self.gt
    }
}

impl<T: Scalar> Preconditioner<T> for FsaiPreconditioner<T> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        let mut tmp = vec![T::ZERO; self.g.n_rows()];
        spmv(&self.g, r, &mut tmp);
        spmv(&self.gt, &tmp, z);
    }

    fn scratch_len(&self) -> usize {
        self.g.n_rows()
    }

    fn apply_with_scratch(&self, r: &[T], z: &mut [T], scratch: &mut [T]) {
        let tmp = &mut scratch[..self.g.n_rows()];
        spmv(&self.g, r, tmp);
        spmv(&self.gt, tmp, z);
    }

    fn dim(&self) -> usize {
        self.g.n_rows()
    }

    fn name(&self) -> &str {
        "fsai"
    }

    fn nnz(&self) -> usize {
        self.g.nnz() + self.gt.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_sparse::generators::{banded_spd, poisson_1d, poisson_2d};
    use spcg_sparse::CooMatrix;

    #[test]
    fn diagonal_matrix_inverts_exactly() {
        let mut coo = CooMatrix::<f64>::new(3, 3);
        coo.push(0, 0, 4.0).unwrap();
        coo.push(1, 1, 9.0).unwrap();
        coo.push(2, 2, 16.0).unwrap();
        let a = coo.to_csr();
        let f = FsaiPreconditioner::new(&a).unwrap();
        // G = diag(A)^{-1/2}, so GᵀG = A⁻¹ exactly.
        assert!((f.g().get(0, 0).unwrap() - 0.5).abs() < 1e-12);
        assert!((f.g().get(1, 1).unwrap() - 1.0 / 3.0).abs() < 1e-12);
        let r = [4.0, 9.0, 16.0];
        let mut z = [0.0; 3];
        f.apply(&r, &mut z);
        assert!(z.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn g_is_lower_triangular_with_positive_diagonal() {
        for a in [poisson_2d(9, 9), banded_spd(80, 3, 0.6, 1.2, 5)] {
            let f = FsaiPreconditioner::new(&a).unwrap();
            for (r, c, _) in f.g().iter() {
                assert!(c <= r, "entry ({r}, {c}) above the diagonal");
            }
            for i in 0..a.n_rows() {
                let d = f.g().get(i, i).expect("missing diagonal");
                assert!(d > 0.0, "G[{i},{i}] = {d} not positive");
            }
        }
    }

    #[test]
    fn scratch_apply_is_bitwise_identical() {
        let a = poisson_2d(7, 7);
        let f = FsaiPreconditioner::new(&a).unwrap();
        let r: Vec<f64> = (0..49).map(|i| ((i % 11) as f64) - 5.0).collect();
        let mut plain = vec![0.0; 49];
        let mut scratched = vec![0.0; 49];
        let mut scratch = vec![0.0; Preconditioner::<f64>::scratch_len(&f)];
        f.apply(&r, &mut plain);
        f.apply_with_scratch(&r, &mut scratched, &mut scratch);
        assert_eq!(plain, scratched);
    }

    #[test]
    fn approximately_inverts_spd_operator() {
        let a = poisson_1d(64);
        let f = FsaiPreconditioner::new(&a).unwrap();
        let r: Vec<f64> = (0..64).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut z = vec![0.0; 64];
        f.apply(&r, &mut z);
        // z ≈ A⁻¹ r, so ‖A z − r‖ must beat the identity preconditioner.
        let mut az = vec![0.0; 64];
        spmv(&a, &z, &mut az);
        let err: f64 = az.iter().zip(&r).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
        let rnorm: f64 = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / rnorm < 0.9, "GᵀG no better than identity: {}", err / rnorm);
    }

    #[test]
    fn indefinite_subsystem_is_a_breakdown() {
        // Negative diagonal: the 1x1 gathered system solves to y < 0.
        let mut coo = CooMatrix::<f64>::new(2, 2);
        coo.push(0, 0, -1.0).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        let err = FsaiPreconditioner::new(&coo.to_csr()).unwrap_err();
        assert!(matches!(err, SparseError::ZeroDiagonal { row: 0 }));
    }

    #[test]
    fn non_square_rejected() {
        let mut coo = CooMatrix::<f64>::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        assert!(FsaiPreconditioner::new(&coo.to_csr()).is_err());
    }

    #[test]
    fn probe_reports_construction_counters() {
        let a = poisson_2d(6, 6);
        let mut probe = spcg_probe::HistogramProbe::new();
        let f = FsaiPreconditioner::new_probed(&a, &mut probe).unwrap();
        assert_eq!(probe.counter_total(Counter::SpaiRows), 36);
        assert_eq!(probe.counter_total(Counter::AinvNnz), Preconditioner::<f64>::nnz(&f) as u64);
        assert!(probe.counter_total(Counter::SpaiGathered) >= 36);
    }
}
