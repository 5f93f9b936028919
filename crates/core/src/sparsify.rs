//! Magnitude-based symmetric sparsification: `A = Â + S`.
//!
//! Given a ratio `t` (percent), the `t%` smallest-absolute-magnitude
//! off-diagonal nonzeros of `A` are moved into the residual matrix `S`
//! while diagonal entries are always preserved (§3.2.2). Off-diagonal
//! entries are dropped in symmetric pairs so `Â` stays symmetric whenever
//! `A` is.

use serde::{Deserialize, Serialize};
use spcg_sparse::{CsrMatrix, Scalar};

/// The decomposition `A = Â + S` produced by one sparsification step.
#[derive(Debug, Clone)]
pub struct Sparsified<T: Scalar> {
    /// The sparsified matrix `Â` (kept entries).
    pub a_hat: CsrMatrix<T>,
    /// The residual matrix `S` (dropped entries), same shape as `A`.
    pub s: CsrMatrix<T>,
    /// Number of entries moved into `S`.
    pub dropped_nnz: usize,
    /// The requested drop ratio in percent.
    pub requested_percent: f64,
}

impl<T: Scalar> Sparsified<T> {
    /// Achieved drop ratio in percent of the original nnz.
    pub fn achieved_percent(&self) -> f64 {
        let total = self.a_hat.nnz() + self.dropped_nnz;
        if total == 0 {
            0.0
        } else {
            100.0 * self.dropped_nnz as f64 / total as f64
        }
    }
}

/// Summary statistics of a sparsification for reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SparsifyStats {
    /// Requested percent.
    pub requested_percent: f64,
    /// Achieved percent.
    pub achieved_percent: f64,
    /// Entries dropped.
    pub dropped_nnz: usize,
    /// Entries kept.
    pub kept_nnz: usize,
}

impl<T: Scalar> From<&Sparsified<T>> for SparsifyStats {
    fn from(s: &Sparsified<T>) -> Self {
        Self {
            requested_percent: s.requested_percent,
            achieved_percent: s.achieved_percent(),
            dropped_nnz: s.dropped_nnz,
            kept_nnz: s.a_hat.nnz(),
        }
    }
}

/// Sparsifies `a` by dropping the `percent`% smallest-magnitude off-diagonal
/// entries (in symmetric pairs), producing `Â = A − S`.
///
/// Deterministic: ties are broken by `(row, col)` order. The achieved ratio
/// can undershoot by one pair when the target is odd.
pub fn sparsify_by_magnitude<T: Scalar>(a: &CsrMatrix<T>, percent: f64) -> Sparsified<T> {
    assert!(a.is_square(), "sparsification expects a square (SPD) matrix");
    assert!((0.0..100.0).contains(&percent), "percent must be in [0, 100)");

    let target = ((percent / 100.0) * a.nnz() as f64).floor() as usize;
    let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());

    // Upper-triangle candidates as (|v|, CSR position, mirror position).
    // Mirrors are found with one ascending cursor per row: the entries
    // (c, r) of row c are met in increasing r as the scan walks rows r.
    let mut cursor = row_ptr[..a.n_rows()].to_vec();
    let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
    for r in 0..a.n_rows() {
        for p in row_ptr[r]..row_ptr[r + 1] {
            let c = col_idx[p];
            if c <= r {
                continue;
            }
            let end = row_ptr[c + 1];
            while cursor[c] < end && col_idx[cursor[c]] < r {
                cursor[c] += 1;
            }
            let mirror = if cursor[c] < end && col_idx[cursor[c]] == r { cursor[c] } else { NONE };
            candidates.push((values[p].to_f64().abs(), p, mirror));
        }
    }

    let mut drop = vec![false; a.nnz()];
    let mut dropped = 0usize;
    if candidates.iter().all(|&(m, _, mirror)| mirror != NONE && !m.is_nan()) {
        // Every pair costs 2, so the greedy walk below would take exactly
        // the first ⌊target/2⌋ candidates in (|v|, row, col) order; CSR
        // position orders like (row, col), making the key a strict total
        // order whose k smallest elements a selection finds as one set.
        let k = (target / 2).min(candidates.len());
        if k < candidates.len() {
            candidates.select_nth_unstable_by(k, |x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        }
        for &(_, p, mirror) in &candidates[..k] {
            drop[p] = true;
            drop[mirror] = true;
        }
        dropped = 2 * k;
    } else {
        // Unpaired entries or NaN magnitudes: the sorted greedy walk. A pair
        // costs 2 entries when the mirror exists, 1 otherwise (structurally
        // unsymmetric input degrades gracefully).
        candidates.sort_by(|x, y| {
            x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal).then(x.1.cmp(&y.1))
        });
        for &(_, p, mirror) in &candidates {
            if dropped >= target {
                break;
            }
            let cost = if mirror == NONE { 1 } else { 2 };
            if dropped + cost > target {
                continue; // try a later (possibly unpaired) candidate
            }
            drop[p] = true;
            if mirror != NONE {
                drop[mirror] = true;
            }
            dropped += cost;
        }
    }

    // One pass splits A into Â (kept) and S (dropped).
    let mut kept = (Vec::with_capacity(a.n_rows() + 1), Vec::new(), Vec::new());
    let mut gone = (Vec::with_capacity(a.n_rows() + 1), Vec::new(), Vec::new());
    kept.0.push(0);
    gone.0.push(0);
    for r in 0..a.n_rows() {
        for p in row_ptr[r]..row_ptr[r + 1] {
            let side = if drop[p] { &mut gone } else { &mut kept };
            side.1.push(col_idx[p]);
            side.2.push(values[p]);
        }
        kept.0.push(kept.1.len());
        gone.0.push(gone.1.len());
    }
    let n = a.n_rows();
    let a_hat = CsrMatrix::from_raw_unchecked(n, n, kept.0, kept.1, kept.2);
    let s = CsrMatrix::from_raw_unchecked(n, n, gone.0, gone.1, gone.2);

    Sparsified { a_hat, s, dropped_nnz: dropped, requested_percent: percent }
}

/// Mirror position of a candidate whose transpose entry is not stored.
const NONE: usize = usize::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_sparse::generators::{poisson_2d, with_magnitude_spread};

    fn spread_poisson(n: usize) -> CsrMatrix<f64> {
        with_magnitude_spread(&poisson_2d(n, n), 8.0, 42)
    }

    #[test]
    fn decomposition_is_exact() {
        let a = spread_poisson(8);
        let sp = sparsify_by_magnitude(&a, 10.0);
        let sum = sp.a_hat.add(&sp.s).unwrap().prune_zeros();
        assert_eq!(sum, a.prune_zeros());
    }

    #[test]
    fn diagonal_is_always_preserved() {
        let a = spread_poisson(8);
        let sp = sparsify_by_magnitude(&a, 50.0);
        for i in 0..a.n_rows() {
            assert_eq!(sp.a_hat.get(i, i), a.get(i, i));
        }
        // S has no diagonal entries
        for (r, c, _) in sp.s.iter() {
            assert_ne!(r, c);
        }
    }

    #[test]
    fn symmetry_is_preserved() {
        let a = spread_poisson(10);
        assert!(a.is_symmetric(0.0));
        for pct in [1.0, 5.0, 10.0, 30.0] {
            let sp = sparsify_by_magnitude(&a, pct);
            assert!(sp.a_hat.is_symmetric(0.0), "pct={pct}");
            assert!(sp.s.is_symmetric(0.0), "pct={pct}");
        }
    }

    #[test]
    fn achieved_ratio_close_to_requested() {
        // Figure 3: 10% requested drops 10.00% of nonzeros.
        let a = spread_poisson(16);
        let sp = sparsify_by_magnitude(&a, 10.0);
        let achieved = sp.achieved_percent();
        assert!((achieved - 10.0).abs() < 0.5, "achieved {achieved}% too far from requested 10%");
    }

    #[test]
    fn smallest_magnitudes_are_dropped_first() {
        let a = spread_poisson(10);
        let sp = sparsify_by_magnitude(&a, 10.0);
        let max_dropped = sp.s.values().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        // Entries kept off-diagonal with magnitude strictly below the
        // largest dropped magnitude should be rare; with distinct values
        // produced by the spread there should be none.
        let violations =
            sp.a_hat.iter().filter(|&(r, c, v)| r != c && v.abs() < max_dropped - 1e-15).count();
        assert_eq!(violations, 0);
    }

    #[test]
    fn zero_percent_is_identity() {
        let a = spread_poisson(6);
        let sp = sparsify_by_magnitude(&a, 0.0);
        assert_eq!(sp.a_hat, a);
        assert_eq!(sp.s.nnz(), 0);
        assert_eq!(sp.dropped_nnz, 0);
        assert_eq!(sp.achieved_percent(), 0.0);
    }

    #[test]
    fn stats_conversion() {
        let a = spread_poisson(6);
        let sp = sparsify_by_magnitude(&a, 5.0);
        let st = SparsifyStats::from(&sp);
        assert_eq!(st.dropped_nnz + st.kept_nnz, a.nnz());
        assert_eq!(st.requested_percent, 5.0);
    }

    #[test]
    fn figure1_example_drops_f() {
        // The motivating example: sparsifying the symmetric version of
        // Figure 1's matrix should remove weakest couplings first.
        let mut coo = spcg_sparse::CooMatrix::<f64>::new(4, 4);
        coo.push(0, 0, 10.0).unwrap();
        coo.push(1, 1, 10.0).unwrap();
        coo.push(2, 2, 10.0).unwrap();
        coo.push(3, 3, 10.0).unwrap();
        coo.push_sym(2, 0, 3.0).unwrap(); // c
        coo.push_sym(3, 0, 5.0).unwrap(); // e
        coo.push_sym(3, 2, 0.1).unwrap(); // f -- weakest
        let a = coo.to_csr();
        // 20% of 10 nnz = 2 entries = exactly the (3,2)/(2,3) pair.
        let sp = sparsify_by_magnitude(&a, 20.0);
        assert_eq!(sp.dropped_nnz, 2);
        assert_eq!(sp.a_hat.get(3, 2), None);
        assert_eq!(sp.a_hat.get(2, 3), None);
        assert_eq!(sp.a_hat.get(3, 0), Some(5.0));
    }

    #[test]
    fn deterministic() {
        let a = spread_poisson(12);
        let s1 = sparsify_by_magnitude(&a, 10.0);
        let s2 = sparsify_by_magnitude(&a, 10.0);
        assert_eq!(s1.a_hat, s2.a_hat);
        assert_eq!(s1.s, s2.s);
    }
}
