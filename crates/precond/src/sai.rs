//! Static-pattern sparse approximate inverse (SAI/SPAI) preconditioner —
//! the alternative GPU-friendly family the paper discusses in §6.2.
//!
//! `M⁻¹` is approximated directly by a sparse matrix `G` minimizing
//! `‖I − G·A‖_F` row by row over a fixed sparsity pattern (here: the
//! pattern of `A`, optionally squared). Applying the preconditioner is then
//! a single SpMV — no triangular solves, no wavefronts — which is why SAI
//! parallelizes trivially; its weakness (also per the paper) is that not
//! every matrix has a good sparse approximate inverse.

use crate::traits::Preconditioner;
use spcg_sparse::spmv::spmv;
use spcg_sparse::{CsrMatrix, DenseMatrix, Result, Scalar, SparseError};

/// Pattern used for the approximate inverse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaiPattern {
    /// The sparsity pattern of `A` itself (cheapest, weakest).
    OfA,
    /// The pattern of `A²` (denser, stronger) — entries reachable within
    /// two hops.
    OfASquared,
}

/// A sparse-approximate-inverse preconditioner `z = G r`.
#[derive(Debug, Clone)]
pub struct SaiPreconditioner<T: Scalar> {
    g: CsrMatrix<T>,
}

impl<T: Scalar> SaiPreconditioner<T> {
    /// Builds the SAI preconditioner of `a` on the chosen pattern.
    ///
    /// For every row `i` of `G`, the least-squares problem
    /// `min ‖e_iᵀ − g_iᵀ A‖₂` over the pattern's support is solved via its
    /// normal equations on the small gathered submatrix.
    pub fn new(a: &CsrMatrix<T>, pattern: SaiPattern) -> Result<Self> {
        Self::new_probed(a, pattern, &mut spcg_probe::NoProbe)
    }

    /// [`new`](SaiPreconditioner::new) with an observability
    /// [`Probe`](spcg_probe::Probe): emits
    /// [`Counter::SpaiRows`](spcg_probe::Counter::SpaiRows) (per-row
    /// least-squares solves),
    /// [`Counter::SpaiGathered`](spcg_probe::Counter::SpaiGathered) (dense
    /// normal-equation entries gathered across them), and
    /// [`Counter::AinvNnz`](spcg_probe::Counter::AinvNnz) (stored entries
    /// of `M`).
    pub fn new_probed<P: spcg_probe::Probe>(
        a: &CsrMatrix<T>,
        pattern: SaiPattern,
        probe: &mut P,
    ) -> Result<Self> {
        if !a.is_square() {
            return Err(SparseError::NotSquare { n_rows: a.n_rows(), n_cols: a.n_cols() });
        }
        let n = a.n_rows();
        let eps = T::from_f64(1e-12);
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(a.nnz());
        let mut values = Vec::with_capacity(a.nnz());
        row_ptr.push(0);
        // Per-row buffers, reused across rows.
        let mut squared: Vec<usize> = Vec::new();
        let mut btb = DenseMatrix::zeros(0, 0);
        let mut g: Vec<T> = Vec::new();
        // scatter[c] holds A[cols[p]][c] while row cols[p] is scattered;
        // seen[c] == i marks column c as touched by row i's support.
        let mut scatter = vec![T::ZERO; n];
        let mut seen = vec![usize::MAX; n];
        let mut gathered = 0u64;
        for i in 0..n {
            let cols: &[usize] = match pattern {
                SaiPattern::OfA => a.row_cols(i),
                SaiPattern::OfASquared => {
                    squared.clear();
                    squared.extend(a.row_cols(i).iter().flat_map(|&k| a.row_cols(k)));
                    squared.sort_unstable();
                    squared.dedup();
                    &squared
                }
            };
            let k = cols.len();
            if k == 0 {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
            // B[t][s] = A[cols[s]][touched[t]], with `touched` the columns of
            // A met by the support rows (g_iᵀ A restricted); only its size
            // is needed, for the gathered-entries counter.
            let mut m = 0usize;
            for &j in cols {
                for &c in a.row_cols(j) {
                    if seen[c] != i {
                        seen[c] = i;
                        m += 1;
                    }
                }
            }
            gathered += (m * k) as u64;
            // Normal equations (BᵀB) g = Bᵀ e_i. Entry (p, q) of BᵀB is the
            // sparse dot of rows cols[p] and cols[q] of A, summed in
            // ascending column order with zero terms skipped — exactly the
            // dense product's sum — and (Bᵀ e_i)[p] = A[cols[p]][i].
            btb.reset_zeros(k, k);
            g.clear();
            g.resize(k, T::ZERO);
            for p in 0..k {
                let (pc, pv) = (a.row_cols(cols[p]), a.row_values(cols[p]));
                for (&c, &v) in pc.iter().zip(pv) {
                    scatter[c] = v;
                    if c == i {
                        g[p] = T::ZERO + v;
                    }
                }
                for (q, &jq) in cols.iter().enumerate().skip(p) {
                    let mut sum = T::ZERO;
                    for (&c, &v) in a.row_cols(jq).iter().zip(a.row_values(jq)) {
                        let w = scatter[c];
                        if w != T::ZERO {
                            sum += w * v;
                        }
                    }
                    btb.set(p, q, sum);
                    btb.set(q, p, sum);
                }
                for &c in pc {
                    scatter[c] = T::ZERO;
                }
            }
            // Tiny Tikhonov term guards against rank deficiency.
            for d in 0..k {
                let v = btb.get(d, d) + eps;
                btb.set(d, d, v);
            }
            btb.solve_in_place(&mut g)?;
            for (&j, &v) in cols.iter().zip(&g) {
                if v != T::ZERO {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        let g = CsrMatrix::from_raw_unchecked(n, n, row_ptr, col_idx, values);
        probe.counter(spcg_probe::Counter::SpaiRows, n as u64);
        probe.counter(spcg_probe::Counter::SpaiGathered, gathered);
        probe.counter(spcg_probe::Counter::AinvNnz, g.nnz() as u64);
        Ok(Self { g })
    }

    /// The approximate inverse matrix `G`.
    pub fn matrix(&self) -> &CsrMatrix<T> {
        &self.g
    }

    /// Frobenius residual `‖I − G A‖_F` — the quantity the construction
    /// minimized, exposed for diagnostics.
    pub fn residual_fro(&self, a: &CsrMatrix<T>) -> f64 {
        let n = a.n_rows();
        let mut total = 0.0f64;
        let mut col = vec![T::ZERO; n];
        let mut out = vec![T::ZERO; n];
        // ‖I − G A‖_F² = Σ_j ‖e_j − G (A e_j)‖² computed column-wise.
        for j in 0..n {
            for v in col.iter_mut() {
                *v = T::ZERO;
            }
            // A e_j = column j of A.
            for (r, c, v) in a.iter() {
                if c == j {
                    col[r] = v;
                }
            }
            spmv(&self.g, &col, &mut out);
            for (i, &v) in out.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                let d = v.to_f64() - want;
                total += d * d;
            }
        }
        total.sqrt()
    }
}

impl<T: Scalar> Preconditioner<T> for SaiPreconditioner<T> {
    fn apply(&self, r: &[T], z: &mut [T]) {
        spmv(&self.g, r, z);
    }

    fn dim(&self) -> usize {
        self.g.n_rows()
    }

    fn name(&self) -> &str {
        "sai"
    }

    fn nnz(&self) -> usize {
        self.g.nnz()
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
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 4.0).unwrap();
        coo.push(2, 2, 8.0).unwrap();
        let a = coo.to_csr();
        let sai = SaiPreconditioner::new(&a, SaiPattern::OfA).unwrap();
        assert!((sai.matrix().get(0, 0).unwrap() - 0.5).abs() < 1e-10);
        assert!((sai.matrix().get(2, 2).unwrap() - 0.125).abs() < 1e-10);
        assert!(sai.residual_fro(&a) < 1e-9);
    }

    #[test]
    fn squared_pattern_is_denser_and_better() {
        let a = poisson_1d(24);
        let s1 = SaiPreconditioner::new(&a, SaiPattern::OfA).unwrap();
        let s2 = SaiPreconditioner::new(&a, SaiPattern::OfASquared).unwrap();
        assert!(Preconditioner::<f64>::nnz(&s2) > Preconditioner::<f64>::nnz(&s1));
        assert!(s2.residual_fro(&a) < s1.residual_fro(&a), "denser pattern should fit better");
    }

    #[test]
    fn sai_accelerates_pcg() {
        use crate::traits::IdentityPreconditioner;
        use spcg_sparse::blas::norm2;
        let a = banded_spd(120, 4, 0.7, 1.5, 9);
        let b: Vec<f64> = (0..120).map(|i| ((i % 7) as f64) - 3.0).collect();
        let _ = norm2(&b);
        // Run two CG variants by hand through the solver crate is not
        // possible here (dependency direction), so check the operator
        // quality instead: ‖I - GA‖_F must be well below ‖I‖_F = sqrt(n),
        // i.e. G is a genuine approximate inverse.
        let sai = SaiPreconditioner::new(&a, SaiPattern::OfA).unwrap();
        let resid = sai.residual_fro(&a);
        assert!(resid < (120.0f64).sqrt() * 0.5, "SAI residual {resid} too large");
        // And applying it roughly inverts A on a test vector.
        let mut az = vec![0.0; 120];
        let mut z = vec![0.0; 120];
        sai.apply(&b, &mut z);
        spmv(&a, &z, &mut az);
        let err: f64 = az.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
        let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(err / bnorm < 0.9, "G is no better than identity: {}", err / bnorm);
        let _ = IdentityPreconditioner::new(120);
    }

    #[test]
    fn works_on_2d_poisson() {
        let a = poisson_2d(8, 8);
        let sai = SaiPreconditioner::new(&a, SaiPattern::OfA).unwrap();
        assert_eq!(Preconditioner::<f64>::dim(&sai), 64);
        assert!(sai.matrix().is_square());
        // G should be symmetric-ish for symmetric A (same pattern, same
        // normal equations transposed) — check loosely.
        let g = sai.matrix();
        let mut asym: f64 = 0.0;
        for (r, c, v) in g.iter() {
            let w = g.get(c, r).unwrap_or(0.0);
            asym = asym.max((v - w).abs());
        }
        assert!(asym < 0.5, "G wildly asymmetric: {asym}");
    }

    #[test]
    fn non_square_rejected() {
        let mut coo = CooMatrix::<f64>::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        assert!(SaiPreconditioner::new(&coo.to_csr(), SaiPattern::OfA).is_err());
    }
}
