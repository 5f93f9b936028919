//! Seeded inputs. Every right-hand side, drift path, request stream and
//! arrival time a workload uses is derived here from `--seed`, so the same
//! seed regenerates identical inputs and the library sees only the
//! results. Matrices whose values would change an op's cost from draw to
//! draw (the suite, the hot served systems) keep their generators' fixed
//! values.

use spcg_sparse::generators as g;
use spcg_sparse::{CsrMatrix, Rng};
use spcg_suite::collection::MatrixSpec;
use std::sync::Arc;

/// Derives an independent stream seed from `seed` and a salt (SplitMix64).
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A right-hand side with entries uniform in [-1, 1).
pub fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    (0..n).map(|_| rng.range(-1.0, 1.0)).collect()
}

/// `amortized-hard`'s operator: the 200 × 200 five-point Poisson grid
/// (n = 40k). It is left unscaled because any magnitude spread makes it
/// diagonally dominant and cuts PCG from ~330 iterations to ~30; the seed
/// picks the right-hand sides instead.
pub fn amortized_operator() -> CsrMatrix<f64> {
    g::poisson_2d(200, 200)
}

/// The right-hand side `fresh-auto` solves for suite matrix `spec`. The
/// matrices themselves are the collection's, values fixed by the suite, so
/// the planner faces the same 107 decisions on every seed and a run-to-run
/// difference is the code's, not the draw's.
pub fn fresh_rhs(spec: &MatrixSpec, n: usize, seed: u64) -> Vec<f64> {
    rhs(n, mix(seed, spec.seed))
}

/// A slowly drifting SPD operator for `drift-session`: a variable-
/// coefficient 150 × 150 diffusion grid (n = 22.5k) whose edge weights
/// each take a seeded multiplicative step in [1 − ε, 1 + ε] per call to
/// [`Drift::step`]. The diagonal is rebuilt as mass + Σ|off-diagonal|, so
/// every step stays symmetric, diagonally dominant and SPD, with the
/// structure unchanged.
pub struct Drift {
    base: CsrMatrix<f64>,
    /// Edge id of each stored entry (`usize::MAX` on the diagonal); an
    /// entry and its mirror share one id.
    edge_of: Vec<usize>,
    /// Diagonal surplus over the off-diagonal row sum.
    mass: Vec<f64>,
    factor: Vec<f64>,
    rng: Rng,
}

/// Largest relative change of one edge weight in one drift step.
const DRIFT_STEP: f64 = 0.002;

impl Drift {
    pub fn new(seed: u64) -> Self {
        let base = g::varcoef_2d(150, 150, 0.5, 2.0, mix(seed, 1));
        let rp = base.row_ptr();
        let mut edge_of = vec![usize::MAX; base.nnz()];
        let mut mass = vec![0.0; base.n_rows()];
        let mut edges = 0;
        for (r, m) in mass.iter_mut().enumerate() {
            for (k, (&c, &v)) in base.row_cols(r).iter().zip(base.row_values(r)).enumerate() {
                if c == r {
                    *m += v;
                    continue;
                }
                *m -= v.abs();
                if r < c {
                    edge_of[rp[r] + k] = edges;
                    edges += 1;
                } else {
                    // The lower entry takes the id its mirror (c, r) got
                    // when row c was visited.
                    let pos = base.row_cols(c).binary_search(&r).expect("symmetric structure");
                    edge_of[rp[r] + k] = edge_of[rp[c] + pos];
                }
            }
        }
        Self { base, edge_of, mass, factor: vec![1.0; edges], rng: Rng::new(mix(seed, 2)) }
    }

    /// The operator before any drift.
    pub fn base(&self) -> &CsrMatrix<f64> {
        &self.base
    }

    /// Advances every edge weight by one seeded step and returns the
    /// drifted operator.
    pub fn step(&mut self) -> CsrMatrix<f64> {
        for f in &mut self.factor {
            *f *= 1.0 + DRIFT_STEP * self.rng.range(-1.0, 1.0);
        }
        let mut a = self.base.clone();
        let row_ptr = a.row_ptr().to_vec();
        let vals = a.values_mut();
        for (r, w) in row_ptr.windows(2).enumerate() {
            let mut row_sum = 0.0;
            let mut diag = w[0];
            for (p, v) in (w[0]..w[1]).zip(&mut vals[w[0]..w[1]]) {
                match self.edge_of[p] {
                    usize::MAX => diag = p,
                    e => {
                        *v *= self.factor[e];
                        row_sum += v.abs();
                    }
                }
            }
            vals[diag] = self.mass[r] + row_sum;
        }
        a
    }
}

/// Hot systems of `serve-mixed`: the `spcg-cli serve-bench` families
/// (Poisson, layered Poisson, banded) at grid size 40, n ≈ 1.6k, with the
/// same fixed magnitude spreads, so the service's steady work is the same
/// on every seed.
fn serve_hot(count: usize) -> Vec<Arc<CsrMatrix<f64>>> {
    const SIZE: usize = 40;
    (0..count)
        .map(|i| {
            let base = match i % 3 {
                0 => g::poisson_2d(SIZE, SIZE + i / 3),
                1 => g::layered_poisson_2d(SIZE, SIZE + i / 3, 4, 0.015),
                _ => g::banded_spd(SIZE * SIZE, 3 + i / 3, 0.8, 1.5, 7 + i as u64),
            };
            Arc::new(g::with_magnitude_spread(&base, 3.0, 11 + i as u64))
        })
        .collect()
}

/// Every `COLD_EVERY`-th request of `serve-mixed` goes to a never-seen
/// system (a fixed 5% share).
const COLD_EVERY: u64 = 20;

/// The request mix of `serve-mixed`: request `i` is a pure function of the
/// seed and `i` (which hot system, the right-hand side, a cold system's
/// values), so the open-loop generator and the closed-loop clients draw
/// the same stream whatever thread asks.
pub struct ServeMix {
    pub hot: Vec<Arc<CsrMatrix<f64>>>,
    seed: u64,
}

/// One generated request.
pub struct Request {
    pub a: Arc<CsrMatrix<f64>>,
    pub b: Vec<f64>,
    pub cold: bool,
}

impl ServeMix {
    pub fn new(hot: usize, seed: u64) -> Self {
        Self { hot: serve_hot(hot), seed }
    }

    pub fn request(&self, i: u64) -> Request {
        let mut rng = Rng::new(mix(self.seed, 1_000 + i));
        let pick = rng.below(self.hot.len());
        let cold = i % COLD_EVERY == COLD_EVERY - 1;
        let a = if cold {
            // A value twin of a hot system: same structure, fresh values,
            // so its fingerprint misses the plan cache.
            Arc::new(g::with_magnitude_spread(&self.hot[pick], 1.5, rng.next_u64()))
        } else {
            Arc::clone(&self.hot[pick])
        };
        let b = rhs(a.n_rows(), rng.next_u64());
        Request { a, b, cold }
    }
}

/// Poisson arrival offsets (seconds from the start of the phase) at `rate`
/// per second over `seconds`: exponential gaps from a seeded stream.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        t += -(1.0 - rng.uniform()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_suite::collection::standard_collection;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(rhs(64, 5), rhs(64, 5));
        assert_ne!(rhs(64, 5), rhs(64, 6));

        let specs = standard_collection();
        assert_eq!(fresh_rhs(&specs[3], 50, 9), fresh_rhs(&specs[3], 50, 9));
        assert_ne!(fresh_rhs(&specs[3], 50, 9), fresh_rhs(&specs[3], 50, 10));
        assert_ne!(fresh_rhs(&specs[3], 50, 9), fresh_rhs(&specs[4], 50, 9));

        let (mut d1, mut d2, mut d3) = (Drift::new(4), Drift::new(4), Drift::new(5));
        assert_eq!(d1.base(), d2.base());
        assert_ne!(d1.base(), d3.base());
        let (s1, s2, s3) = (d1.step(), d2.step(), d3.step());
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);

        let (m1, m2, m3) = (ServeMix::new(3, 1), ServeMix::new(3, 1), ServeMix::new(3, 2));
        for i in [0, COLD_EVERY - 1] {
            let (r1, r2, r3) = (m1.request(i), m2.request(i), m3.request(i));
            assert_eq!((&r1.a, &r1.b), (&r2.a, &r2.b));
            assert_ne!(r1.b, r3.b);
        }
    }

    #[test]
    fn drift_keeps_structure_symmetry_and_dominance() {
        let mut d = Drift::new(11);
        let base = d.base().clone();
        let mut a = d.step();
        for _ in 0..20 {
            a = d.step();
        }
        assert_eq!(a.row_ptr(), base.row_ptr());
        assert_eq!(a.col_idx(), base.col_idx());
        assert!(a.is_symmetric(0.0));
        for r in 0..a.n_rows() {
            let (mut diag, mut off) = (0.0, 0.0);
            for (&c, &v) in a.row_cols(r).iter().zip(a.row_values(r)) {
                if c == r {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {r} lost dominance");
        }
        // 21 steps of at most ε each stay within (1 ± ε)^21 of the base.
        let bound = (1.0 + DRIFT_STEP).powi(21) - 1.0 + 1e-12;
        for ((r, c, v), (_, _, v0)) in a.iter().zip(base.iter()) {
            if r != c {
                assert!((v / v0 - 1.0).abs() <= bound);
            }
        }
    }

    #[test]
    fn cold_requests_are_a_fixed_share_and_miss_every_hot_system() {
        let mix_ = ServeMix::new(12, 3);
        let cold: Vec<u64> = (0..200).filter(|&i| mix_.request(i).cold).collect();
        assert_eq!(cold.len(), 10);
        for i in cold {
            let r = mix_.request(i);
            assert!(mix_.hot.iter().all(|h| **h != *r.a));
        }
    }

    #[test]
    fn poisson_schedule_is_deterministic_for_a_seed() {
        let a = poisson_schedule(900.0, 2.0, 42);
        assert_eq!(a, poisson_schedule(900.0, 2.0, 42));
        assert_ne!(a, poisson_schedule(900.0, 2.0, 43));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.last().is_some_and(|&t| t < 2.0));
        // 1800 expected arrivals; a Poisson count is within ±4σ (σ ≈ 42).
        assert!((a.len() as f64 - 1800.0).abs() < 170.0, "{} arrivals", a.len());
    }
}
