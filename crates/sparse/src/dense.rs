//! Small dense matrices — reference implementations for tests, condition
//! numbers on modest sizes, and the low-rank probe.

use crate::error::{Result, SparseError};
use crate::scalar::Scalar;

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T: Scalar> {
    n_rows: usize,
    n_cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// All-zero matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self { n_rows, n_cols, data: vec![T::ZERO; n_rows * n_cols] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, T::ONE);
        }
        m
    }

    /// Builds from a row-major slice.
    pub fn from_rows(n_rows: usize, n_cols: usize, data: Vec<T>) -> Result<Self> {
        if data.len() != n_rows * n_cols {
            return Err(SparseError::DimensionMismatch(format!(
                "data length {} != {}x{}",
                data.len(),
                n_rows,
                n_cols
            )));
        }
        Ok(Self { n_rows, n_cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[r * self.n_cols + c]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: T) {
        self.data[r * self.n_cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Matrix-vector product `y = A x`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n_cols, "matvec dimension mismatch");
        (0..self.n_rows)
            .map(|r| self.row(r).iter().zip(x).fold(T::ZERO, |acc, (&a, &b)| acc + a * b))
            .collect()
    }

    /// Matrix product `A * B`.
    pub fn matmul(&self, other: &Self) -> Result<Self> {
        if self.n_cols != other.n_rows {
            return Err(SparseError::DimensionMismatch(format!(
                "{}x{} * {}x{}",
                self.n_rows, self.n_cols, other.n_rows, other.n_cols
            )));
        }
        let mut out = Self::zeros(self.n_rows, other.n_cols);
        for i in 0..self.n_rows {
            for k in 0..self.n_cols {
                let aik = self.get(i, k);
                if aik == T::ZERO {
                    continue;
                }
                for j in 0..other.n_cols {
                    let v = out.get(i, j) + aik * other.get(k, j);
                    out.set(i, j, v);
                }
            }
        }
        Ok(out)
    }

    /// Transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.n_cols, self.n_rows);
        for r in 0..self.n_rows {
            for c in 0..self.n_cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Reshapes to an `n_rows × n_cols` all-zero matrix, reusing the
    /// allocation (for per-row local systems assembled in a loop).
    pub fn reset_zeros(&mut self, n_rows: usize, n_cols: usize) {
        self.n_rows = n_rows;
        self.n_cols = n_cols;
        self.data.clear();
        self.data.resize(n_rows * n_cols, T::ZERO);
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Reference-quality direct solver used to validate the iterative
    /// solvers; `O(n^3)`, intended for small systems.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>> {
        let mut a = self.clone();
        let mut x: Vec<T> = b.to_vec();
        a.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// [`solve`](DenseMatrix::solve) without allocating: `x` holds `b` on
    /// entry and the solution on exit, and `self` is overwritten by its
    /// eliminated (upper-triangular) form. Bitwise identical to `solve`.
    pub fn solve_in_place(&mut self, x: &mut [T]) -> Result<()> {
        if self.n_rows != self.n_cols {
            return Err(SparseError::NotSquare { n_rows: self.n_rows, n_cols: self.n_cols });
        }
        if x.len() != self.n_rows {
            return Err(SparseError::DimensionMismatch(format!(
                "rhs length {} != n {}",
                x.len(),
                self.n_rows
            )));
        }
        let n = self.n_rows;
        let a = self;
        for col in 0..n {
            // partial pivot
            let mut piv = col;
            let mut best = a.get(col, col).abs();
            for r in col + 1..n {
                let cand = a.get(r, col).abs();
                if cand > best {
                    best = cand;
                    piv = r;
                }
            }
            if best == T::ZERO {
                return Err(SparseError::ZeroDiagonal { row: col });
            }
            if piv != col {
                for c in 0..n {
                    let tmp = a.get(col, c);
                    a.set(col, c, a.get(piv, c));
                    a.set(piv, c, tmp);
                }
                x.swap(col, piv);
            }
            let d = a.get(col, col);
            for r in col + 1..n {
                let f = a.get(r, col) / d;
                if f == T::ZERO {
                    continue;
                }
                for c in col..n {
                    let v = a.get(r, c) - f * a.get(col, c);
                    a.set(r, c, v);
                }
                x[r] -= f * x[col];
            }
        }
        for col in (0..n).rev() {
            let mut s = x[col];
            for (c, &xc) in x.iter().enumerate().skip(col + 1) {
                s -= a.get(col, c) * xc;
            }
            x[col] = s / a.get(col, col);
        }
        Ok(())
    }

    /// Inverse via `n` solves against the identity. `O(n^4)` with this simple
    /// implementation — only for small validation matrices.
    pub fn inverse(&self) -> Result<Self> {
        let n = self.n_rows;
        let mut out = Self::zeros(n, n);
        for j in 0..n {
            let mut e = vec![T::ZERO; n];
            e[j] = T::ONE;
            let col = self.solve(&e)?;
            for (i, &v) in col.iter().enumerate() {
                out.set(i, j, v);
            }
        }
        Ok(out)
    }

    /// Inf-norm: maximum absolute row sum.
    pub fn norm_inf(&self) -> T {
        (0..self.n_rows)
            .map(|r| self.row(r).iter().fold(T::ZERO, |acc, &v| acc + v.abs()))
            .fold(T::ZERO, |a, b| if b > a { b } else { a })
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> T {
        self.data.iter().fold(T::ZERO, |acc, &v| acc + v * v).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        // [4 1; 1 3] x = [1; 2] -> x = [1/11; 7/11]
        let a = DenseMatrix::from_rows(2, 2, vec![4.0, 1.0, 1.0, 3.0]).unwrap();
        let x = a.solve(&[1.0, 2.0]).unwrap();
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // leading zero pivot forces a row swap
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = a.solve(&[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn singular_is_rejected() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(a.solve(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn solve_in_place_is_bitwise_solve() {
        let mut rng = crate::rng::Rng::new(11);
        for n in [1usize, 2, 5, 9] {
            let data: Vec<f64> = (0..n * n).map(|_| rng.uniform() - 0.5).collect();
            let a = DenseMatrix::from_rows(n, n, data).unwrap();
            let b: Vec<f64> = (0..n).map(|_| rng.uniform()).collect();
            let want = a.solve(&b).unwrap();
            let mut lu = a.clone();
            let mut x = b.clone();
            lu.solve_in_place(&mut x).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x), bits(&want), "n = {n}");
        }
    }

    #[test]
    fn solve_in_place_reports_the_same_singular_row() {
        let a = DenseMatrix::from_rows(3, 3, vec![1.0, 2.0, 0.0, 2.0, 4.0, 0.0, 0.0, 0.0, 1.0])
            .unwrap();
        let err = a.solve(&[1.0, 1.0, 1.0]).unwrap_err();
        assert!(matches!(err, SparseError::ZeroDiagonal { row: 1 }), "{err:?}");
        let mut x = [1.0, 1.0, 1.0];
        let err_in_place = a.clone().solve_in_place(&mut x).unwrap_err();
        assert!(matches!(err_in_place, SparseError::ZeroDiagonal { row: 1 }), "{err_in_place:?}");
        // Shape errors match too.
        let mut short = [1.0];
        assert!(matches!(
            a.clone().solve_in_place(&mut short),
            Err(SparseError::DimensionMismatch(_))
        ));
    }

    #[test]
    fn reset_zeros_reshapes() {
        let mut m = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        m.reset_zeros(3, 1);
        assert_eq!((m.n_rows(), m.n_cols()), (3, 1));
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = DenseMatrix::from_rows(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 5.0])
            .unwrap();
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod.get(i, j) - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matvec_matches_manual() {
        let a = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn norms() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, -2.0, 3.0, 4.0]).unwrap();
        assert_eq!(a.norm_inf(), 7.0);
        assert!((a.norm_fro() - 30.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn transpose_and_matmul() {
        let a = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = a.transpose();
        assert_eq!(t.get(2, 1), 6.0);
        let p = a.matmul(&t).unwrap();
        assert_eq!(p.get(0, 0), 14.0);
        assert_eq!(p.get(1, 1), 77.0);
    }
}
