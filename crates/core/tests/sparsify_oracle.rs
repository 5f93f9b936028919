//! Reference oracle for `sparsify_by_magnitude`: the selection-based kernel
//! must reproduce the original sort + `HashSet` greedy walk bit for bit —
//! the same `Â`, the same `S`, the same `dropped_nnz` — on symmetric inputs
//! (the selection path) and on unsymmetric or NaN-carrying ones (the
//! fallback path).

use proptest::prelude::*;
use spcg_core::sparsify_by_magnitude;
use spcg_sparse::generators::{banded_spd, poisson_2d, random_spd, with_magnitude_spread};
use spcg_sparse::{CooMatrix, CsrMatrix, Rng};
use std::collections::HashSet;

/// The original implementation: sort every upper-triangle candidate by
/// (|v|, row, col), walk greedily, and split through a hashed drop set.
fn reference(a: &CsrMatrix<f64>, percent: f64) -> (CsrMatrix<f64>, CsrMatrix<f64>, usize) {
    let target = ((percent / 100.0) * a.nnz() as f64).floor() as usize;
    let mut candidates: Vec<(usize, usize, f64)> =
        a.iter().filter(|&(r, c, _)| r < c).map(|(r, c, v)| (r, c, v.abs())).collect();
    candidates.sort_by(|x, y| {
        x.2.partial_cmp(&y.2)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.0.cmp(&y.0))
            .then(x.1.cmp(&y.1))
    });
    let mut dropped = 0usize;
    let mut drop_set: HashSet<(usize, usize)> = HashSet::new();
    for (r, c, _) in candidates {
        if dropped >= target {
            break;
        }
        let pair = usize::from(a.get(c, r).is_some());
        let cost = 1 + pair;
        if dropped + cost > target {
            continue;
        }
        drop_set.insert((r, c));
        if pair == 1 {
            drop_set.insert((c, r));
        }
        dropped += cost;
    }
    let a_hat = a.filter(|r, c, _| r == c || !drop_set.contains(&(r, c)));
    let s = a.filter(|r, c, _| r != c && drop_set.contains(&(r, c)));
    (a_hat, s, dropped)
}

fn bits(m: &CsrMatrix<f64>) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
    (m.row_ptr().to_vec(), m.col_idx().to_vec(), m.values().iter().map(|v| v.to_bits()).collect())
}

fn agrees(a: &CsrMatrix<f64>, percent: f64) -> Result<(), TestCaseError> {
    let (a_hat, s, dropped) = reference(a, percent);
    let got = sparsify_by_magnitude(a, percent);
    prop_assert_eq!(got.dropped_nnz, dropped, "dropped_nnz at {}%", percent);
    prop_assert!(bits(&got.a_hat) == bits(&a_hat), "a_hat differs at {}%", percent);
    prop_assert!(bits(&got.s) == bits(&s), "s differs at {}%", percent);
    Ok(())
}

/// Ratios covering 0%, odd and even targets, and drops larger than the
/// candidate count (≥ 50% of nnz asks for more pairs than exist off the
/// diagonal of a diagonal-heavy matrix).
const PERCENTS: [f64; 9] = [0.0, 1.0, 5.0, 10.0, 100.0 / 3.0, 37.5, 50.0, 80.0, 99.0];

/// A structurally unsymmetric square matrix: a full diagonal plus random
/// off-diagonal entries whose mirrors are stored only sometimes.
fn unsymmetric(n: usize, seed: u64) -> CsrMatrix<f64> {
    let mut rng = Rng::new(seed);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
    }
    let mut seen = HashSet::new();
    for _ in 0..3 * n {
        let (r, c) = (rng.below(n), rng.below(n));
        if r == c || !seen.insert((r, c)) {
            continue;
        }
        // Few distinct magnitudes, so ties across rows are common.
        coo.push(r, c, (rng.below(4) as f64 + 1.0) * 0.25).unwrap();
        if rng.chance(0.5) && seen.insert((c, r)) {
            coo.push(c, r, -(rng.below(4) as f64 + 1.0) * 0.25).unwrap();
        }
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn banded_spd_matches_reference(n in 4usize..60, band in 1usize..8, seed in 0u64..1000) {
        let a = banded_spd(n, band, 0.7, 1.5, seed);
        for pct in PERCENTS {
            agrees(&a, pct)?;
        }
    }

    #[test]
    fn spread_and_random_spd_match_reference(n in 6usize..40, seed in 0u64..1000) {
        let spread = with_magnitude_spread(&poisson_2d(n, n / 2 + 1), 8.0, seed);
        let random = random_spd(3 * n, 4, 1.4, seed);
        for pct in PERCENTS {
            agrees(&spread, pct)?;
            agrees(&random, pct)?;
        }
    }

    /// Plain Poisson: every off-diagonal magnitude ties, so the choice is
    /// decided entirely by position.
    #[test]
    fn all_tied_magnitudes_match_reference(nx in 2usize..20, ny in 1usize..20) {
        let a = poisson_2d(nx, ny);
        for pct in PERCENTS {
            agrees(&a, pct)?;
        }
    }

    /// Unpaired entries take the fallback greedy walk, where a 1-cost
    /// candidate may fill an odd remainder that a pair could not.
    #[test]
    fn unsymmetric_structure_matches_reference(n in 3usize..50, seed in 0u64..1000) {
        let a = unsymmetric(n, seed);
        for pct in PERCENTS {
            agrees(&a, pct)?;
        }
    }
}

/// NaN magnitudes take the fallback walk with the original comparator,
/// which is not a total order once a NaN is present: the standard library's
/// sort may detect that and panic. The rewrite must match the original
/// either way — the same split, or a panic on the same inputs.
#[test]
fn nan_magnitudes_match_reference() {
    type Split = (CsrMatrix<f64>, CsrMatrix<f64>, usize);
    type Bits = (Vec<usize>, Vec<usize>, Vec<u64>);
    let run = |f: &dyn Fn() -> Split| -> Option<(Bits, Bits, usize)> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .ok()
            .map(|(a_hat, s, d)| (bits(&a_hat), bits(&s), d))
    };
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut completed = 0;
    let base = with_magnitude_spread(&poisson_2d(9, 9), 8.0, 3);
    for nans in [vec![7], vec![base.nnz() / 2], vec![3, base.nnz() / 3, 2 * base.nnz() / 3]] {
        let mut a = base.clone();
        for &k in &nans {
            a.values_mut()[k] = f64::NAN;
        }
        for pct in PERCENTS {
            let want = run(&|| reference(&a, pct));
            let got = run(&|| {
                let sp = sparsify_by_magnitude(&a, pct);
                (sp.a_hat, sp.s, sp.dropped_nnz)
            });
            assert_eq!(got, want, "NaN at {nans:?}, {pct}%");
            completed += usize::from(got.is_some());
        }
    }
    std::panic::set_hook(hook);
    // Most NaN placements sort without tripping the detector; those must
    // exercise the fallback walk's output, not just its panic.
    assert!(completed >= PERCENTS.len(), "only {completed} NaN cases completed");
}

#[test]
fn empty_and_diagonal_inputs_match_reference() {
    for a in [CsrMatrix::<f64>::identity(0), CsrMatrix::identity(7)] {
        for pct in PERCENTS {
            agrees(&a, pct).unwrap();
        }
    }
}
