//! Reference oracles for the orderings: RCM and greedy coloring over the
//! CSR adjacency (with RCM's cursor over degree-sorted starts) must return
//! exactly the permutations of the original `Vec<Vec>`-adjacency versions
//! that rescanned every vertex for each component's start.

use proptest::prelude::*;
use spcg_sparse::generators::{banded_spd, graph_laplacian, poisson_2d, random_spd};
use spcg_sparse::permute::{greedy_color_perm, reverse_cuthill_mckee, scrambled_perm};
use spcg_sparse::{CooMatrix, CsrMatrix, Rng};
use std::collections::VecDeque;

fn adjacency_reference(a: &CsrMatrix<f64>) -> Vec<Vec<usize>> {
    let at = a.transpose();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); a.n_rows()];
    for (r, c, _) in a.iter().chain(at.iter()) {
        if r != c {
            adj[r].push(c);
        }
    }
    for list in &mut adj {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

fn rcm_reference(a: &CsrMatrix<f64>) -> Vec<usize> {
    let n = a.n_rows();
    let adj = adjacency_reference(a);
    let degree: Vec<usize> = adj.iter().map(|l| l.len()).collect();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = VecDeque::new();
    while let Some(start) = (0..n).filter(|&v| !visited[v]).min_by_key(|&v| degree[v]) {
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<usize> = adj[v].iter().copied().filter(|&u| !visited[u]).collect();
            nbrs.sort_unstable_by_key(|&u| degree[u]);
            for u in nbrs {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

fn coloring_reference(a: &CsrMatrix<f64>) -> Vec<usize> {
    let n = a.n_rows();
    let adj = adjacency_reference(a);
    let mut color = vec![usize::MAX; n];
    let mut mark = vec![usize::MAX; n.max(1)];
    for v in 0..n {
        for &u in &adj[v] {
            if color[u] != usize::MAX {
                mark[color[u]] = v;
            }
        }
        color[v] = (0..n).find(|&c| mark[c] != v).unwrap();
    }
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by_key(|&v| color[v]);
    perm
}

fn check(a: &CsrMatrix<f64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(reverse_cuthill_mckee(a), rcm_reference(a));
    prop_assert_eq!(greedy_color_perm(a), coloring_reference(a));
    Ok(())
}

/// A graph of several components plus isolated vertices, scrambled so the
/// minimum-degree starts are scattered across the index range.
fn disconnected(n: usize, seed: u64) -> CsrMatrix<f64> {
    let mut rng = Rng::new(seed);
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0).unwrap();
    }
    for _ in 0..n / 2 {
        // Edges only inside blocks of 7, so components stay small.
        let base = 7 * rng.below(n.div_ceil(7));
        let (r, c) = (base + rng.below(7), base + rng.below(7));
        if r < n && c < n && r != c {
            coo.push_sym(r, c, -1.0).unwrap();
        }
    }
    coo.to_csr().permute_sym(&scrambled_perm(n, seed)).unwrap()
}

/// A structurally unsymmetric matrix: the orderings work on `A + Aᵀ`.
fn unsymmetric(n: usize, seed: u64) -> CsrMatrix<f64> {
    let mut rng = Rng::new(seed);
    let mut coo = CooMatrix::new(n, n);
    for _ in 0..2 * n {
        coo.push(rng.below(n), rng.below(n), 1.0).unwrap();
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn banded_and_random_spd_match_reference(n in 1usize..80, band in 1usize..6, seed in 0u64..1000) {
        check(&banded_spd(n, band, 0.6, 1.5, seed))?;
        check(&random_spd(n + 1, 3, 1.5, seed))?;
        check(&graph_laplacian(n + 2, 3, 0.1, seed))?;
    }

    #[test]
    fn disconnected_graphs_match_reference(n in 1usize..120, seed in 0u64..1000) {
        check(&disconnected(n, seed))?;
    }

    #[test]
    fn unsymmetric_structure_matches_reference(n in 1usize..60, seed in 0u64..1000) {
        check(&unsymmetric(n, seed))?;
    }
}

#[test]
fn grids_and_edge_cases_match_reference() {
    for a in [
        poisson_2d(1, 1),
        poisson_2d(12, 7),
        poisson_2d(30, 30).permute_sym(&scrambled_perm(900, 4)).unwrap(),
        CsrMatrix::identity(0),
        CsrMatrix::identity(50),
    ] {
        check(&a).unwrap();
    }
}
