//! Symmetric orderings. Reverse Cuthill–McKee (RCM) is used by the matrix
//! generators to produce realistic banded structures, and by experiments that
//! study how ordering interacts with wavefront counts.

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use std::collections::VecDeque;

/// The undirected graph of `A + Aᵀ` without self loops — the graph every
/// ordering here works on — in CSR form: the neighbours of `v` are
/// `idx[ptr[v]..ptr[v + 1]]`, ascending.
struct Adjacency {
    ptr: Vec<usize>,
    idx: Vec<usize>,
}

impl Adjacency {
    /// Merges each row of `A` with the same row of `Aᵀ` (both sorted),
    /// dropping the diagonal and duplicates.
    fn symmetric<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        let n = a.n_rows();
        let at = a.transpose();
        let mut ptr = Vec::with_capacity(n + 1);
        let mut idx = Vec::with_capacity(2 * a.nnz());
        ptr.push(0);
        for v in 0..n {
            let (x, y) = (a.row_cols(v), at.row_cols(v));
            let (mut i, mut j) = (0, 0);
            loop {
                let c = match (x.get(i), y.get(j)) {
                    (Some(&p), Some(&q)) => p.min(q),
                    (Some(&c), None) | (None, Some(&c)) => c,
                    (None, None) => break,
                };
                i += usize::from(x.get(i) == Some(&c));
                j += usize::from(y.get(j) == Some(&c));
                if c != v {
                    idx.push(c);
                }
            }
            ptr.push(idx.len());
        }
        Self { ptr, idx }
    }

    fn neighbors(&self, v: usize) -> &[usize] {
        &self.idx[self.ptr[v]..self.ptr[v + 1]]
    }

    fn degree(&self, v: usize) -> usize {
        self.ptr[v + 1] - self.ptr[v]
    }
}

/// Computes a reverse Cuthill–McKee ordering of a square matrix's adjacency
/// structure (the matrix is treated as an undirected graph via `A + Aᵀ`).
///
/// Returns `perm` with `perm[new] = old`, suitable for
/// [`CsrMatrix::permute_sym`].
pub fn reverse_cuthill_mckee<T: Scalar>(a: &CsrMatrix<T>) -> Vec<usize> {
    assert!(a.is_square(), "RCM requires a square matrix");
    let n = a.n_rows();
    let adj = Adjacency::symmetric(a);

    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    let mut nbrs: Vec<usize> = Vec::new();

    // Process every connected component, starting each from a minimum-degree
    // vertex (a cheap pseudo-peripheral heuristic), lowest index first among
    // equals. Vertices sorted stably by degree give those starts in order
    // through one forward cursor that skips visited vertices.
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&v| adj.degree(v));
    for &start in &by_degree {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            nbrs.clear();
            nbrs.extend(adj.neighbors(v).iter().copied().filter(|&u| !visited[u]));
            nbrs.sort_unstable_by_key(|&u| adj.degree(u));
            for &u in &nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

/// Computes a greedy graph-coloring ordering: vertices are first-fit
/// colored on `A + Aᵀ` in natural order, then listed color block by color
/// block (stable within a block).
///
/// Rows sharing a color are pairwise non-adjacent, so in the permuted
/// matrix every lower-triangle dependency of a row lands in a strictly
/// earlier color block: the wavefront level of any row is bounded by its
/// block index, and the triangular-solve level count of an ILU(0) factor
/// (whose pattern equals the matrix pattern) is at most the number of
/// colors. On mesh-like matrices that flattens hundreds of levels into a
/// handful — the level-set analogue of red-black ordering.
///
/// Returns `perm` with `perm[new] = old`, suitable for
/// [`CsrMatrix::permute_sym`].
pub fn greedy_color_perm<T: Scalar>(a: &CsrMatrix<T>) -> Vec<usize> {
    assert!(a.is_square(), "coloring requires a square matrix");
    let n = a.n_rows();
    let adj = Adjacency::symmetric(a);
    let mut color = vec![usize::MAX; n];
    // mark[c] == v means color c is taken by a neighbor of the vertex
    // currently being colored; reusing one array keeps the sweep O(E).
    let mut mark = vec![usize::MAX; n.max(1)];
    let mut n_colors = 0usize;
    for v in 0..n {
        for &u in adj.neighbors(v) {
            if color[u] != usize::MAX {
                mark[color[u]] = v;
            }
        }
        let c = (0..n).find(|&c| mark[c] != v).expect("first-fit color always exists");
        color[v] = c;
        n_colors = n_colors.max(c + 1);
    }
    // Stable counting sort by color: perm[new] = old.
    let mut offsets = vec![0usize; n_colors + 1];
    for &c in &color {
        offsets[c + 1] += 1;
    }
    for c in 0..n_colors {
        offsets[c + 1] += offsets[c];
    }
    let mut perm = vec![0usize; n];
    for (v, &c) in color.iter().enumerate() {
        perm[offsets[c]] = v;
        offsets[c] += 1;
    }
    perm
}

/// Inverts a permutation given as `perm[new] = old`, returning
/// `inv[old] = new` (applying `inv` undoes `perm`).
pub fn inverse_perm(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    inv
}

/// Bandwidth of the matrix after applying `perm` (without materializing the
/// permuted matrix).
pub fn permuted_bandwidth<T: Scalar>(a: &CsrMatrix<T>, perm: &[usize]) -> usize {
    let n = a.n_rows();
    let mut inv = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        inv[old] = new;
    }
    a.iter().map(|(r, c, _)| inv[r].abs_diff(inv[c])).max().unwrap_or(0)
}

/// The identity permutation.
pub fn identity_perm(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// A deterministic pseudo-random permutation (used to *destroy* banding when
/// generating wavefront-poor test matrices).
pub fn scrambled_perm(n: usize, seed: u64) -> Vec<usize> {
    let mut perm = identity_perm(n);
    crate::rng::Rng::new(seed).shuffle(&mut perm);
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    fn ring(n: usize) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0).unwrap();
            coo.push_sym(i, (i + 1) % n, -1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn rcm_is_a_permutation() {
        let a = ring(12);
        let p = reverse_cuthill_mckee(&a);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth_of_scrambled_matrix() {
        let a = ring(64);
        let scrambled = a.permute_sym(&scrambled_perm(64, 99)).unwrap();
        let before = scrambled.bandwidth();
        let p = reverse_cuthill_mckee(&scrambled);
        let after = permuted_bandwidth(&scrambled, &p);
        assert!(after < before, "bandwidth {before} -> {after}");
        assert!(after <= 3, "ring graph should become nearly tridiagonal, got {after}");
    }

    #[test]
    fn permuted_bandwidth_matches_materialized() {
        let a = ring(32);
        let p = scrambled_perm(32, 5);
        let direct = a.permute_sym(&p).unwrap().bandwidth();
        // permute_sym uses perm[new]=old with inv mapping — verify agreement.
        assert_eq!(permuted_bandwidth(&a, &p), direct);
    }

    #[test]
    fn coloring_is_a_permutation() {
        let a = ring(17);
        let p = greedy_color_perm(&a);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..17).collect::<Vec<_>>());
    }

    /// Lower-triangle wavefront level count of `m`, computed the direct
    /// way: `level[i] = 1 + max(level[j])` over stored `j < i` in row `i`.
    fn lower_levels(m: &CsrMatrix<f64>) -> usize {
        let n = m.n_rows();
        let mut level = vec![0usize; n];
        let mut max_level = 0;
        for (r, c, _) in m.iter() {
            if c < r {
                level[r] = level[r].max(level[c] + 1);
            }
        }
        for &l in &level {
            max_level = max_level.max(l + 1);
        }
        max_level
    }

    #[test]
    fn coloring_flattens_triangular_levels() {
        // An even-length ring is 2-colorable: after the coloring
        // permutation every row's earlier neighbors lie in a strictly
        // earlier color block, so the lower triangle has at most 2 levels.
        // The natural ordering chains nearly the whole ring.
        let a = ring(64);
        let natural = lower_levels(&a);
        let p = greedy_color_perm(&a);
        let colored = lower_levels(&a.permute_sym(&p).unwrap());
        assert!(colored <= 2, "2-colorable graph should yield <= 2 levels, got {colored}");
        assert!(colored < natural, "coloring must flatten levels: {natural} -> {colored}");
    }

    #[test]
    fn inverse_perm_round_trips() {
        let p = scrambled_perm(40, 7);
        let inv = inverse_perm(&p);
        for (new, &old) in p.iter().enumerate() {
            assert_eq!(inv[old], new);
        }
        let a = ring(40);
        let there = a.permute_sym(&p).unwrap();
        let back = there.permute_sym(&inv).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn rcm_is_linear_in_the_number_of_components() {
        // 100k isolated vertices: each is its own component. Restarting the
        // minimum-degree search from scratch per component was quadratic.
        let a = CsrMatrix::<f64>::identity(100_000);
        let start = std::time::Instant::now();
        let p = reverse_cuthill_mckee(&a);
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(p, (0..100_000).rev().collect::<Vec<_>>());
        assert!(secs < 2.0, "RCM of a 100k diagonal matrix took {secs:.2} s");
    }

    #[test]
    fn rcm_handles_disconnected_components() {
        let mut coo = CooMatrix::<f64>::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.push_sym(3, 4, -1.0).unwrap();
        let a = coo.to_csr();
        let p = reverse_cuthill_mckee(&a);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }
}
