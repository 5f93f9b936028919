//! Criterion microbenchmarks of the real CPU kernels: SpMV (sequential vs
//! rayon), triangular solves (sequential vs level-parallel vs
//! synchronization-free), ILU(0)/ILU(K) factorization, and the plan-build
//! kernels (sparsification, SPAI/FSAI construction, RCM and coloring).
//! These pin the substrate costs the analytic GPU model abstracts.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use spcg_core::sparsify_by_magnitude;
use spcg_precond::{
    ilu0, iluk, ExecutionStrategy, FsaiPreconditioner, SaiPattern, SaiPreconditioner,
};
use spcg_sparse::generators::{layered_poisson_2d, poisson_2d};
use spcg_sparse::permute::{greedy_color_perm, reverse_cuthill_mckee};
use spcg_sparse::spmv::{spmv, spmv_par};
use spcg_wavefront::{
    solve_levels_par, solve_lower_seq, solve_lower_sync_free, LevelSchedule, Triangle,
};
use std::hint::black_box;

fn bench_spmv(c: &mut Criterion) {
    let a = poisson_2d(200, 200);
    let x = vec![1.0f64; a.n_rows()];
    let mut y = vec![0.0f64; a.n_rows()];
    let mut g = c.benchmark_group("spmv");
    g.bench_function("seq_200x200", |b| b.iter(|| spmv(black_box(&a), black_box(&x), &mut y)));
    g.bench_function("rayon_200x200", |b| {
        b.iter(|| spmv_par(black_box(&a), black_box(&x), &mut y))
    });
    g.finish();
}

fn bench_trisolve(c: &mut Criterion) {
    let a = layered_poisson_2d(200, 200, 4, 0.02);
    let l = a.lower();
    let schedule = LevelSchedule::build(&l, Triangle::Lower);
    let rhs = vec![1.0f64; l.n_rows()];
    let mut x = vec![0.0f64; l.n_rows()];
    let mut g = c.benchmark_group("sptrsv");
    g.bench_function("seq", |b| b.iter(|| solve_lower_seq(black_box(&l), &rhs, &mut x)));
    g.bench_function("level_parallel", |b| {
        b.iter(|| solve_levels_par(black_box(&l), &schedule, &rhs, &mut x))
    });
    g.bench_function("sync_free_4t", |b| {
        b.iter(|| solve_lower_sync_free(black_box(&l), &rhs, &mut x, 4))
    });
    // The paper's mechanism: the sparsified factor solves faster.
    let slim = sparsify_by_magnitude(&a, 10.0).a_hat.lower();
    let slim_schedule = LevelSchedule::build(&slim, Triangle::Lower);
    g.bench_function("level_parallel_sparsified", |b| {
        b.iter(|| solve_levels_par(black_box(&slim), &slim_schedule, &rhs, &mut x))
    });
    g.finish();
}

fn bench_factorization(c: &mut Criterion) {
    let a = poisson_2d(120, 120);
    let mut g = c.benchmark_group("factorization");
    g.sample_size(20);
    g.bench_function("ilu0_120x120", |b| {
        b.iter_batched(
            || a.clone(),
            |m| ilu0(black_box(&m), ExecutionStrategy::Sequential).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.bench_function("iluk2_120x120", |b| {
        b.iter_batched(
            || a.clone(),
            |m| iluk(black_box(&m), 2, ExecutionStrategy::Sequential).unwrap(),
            BatchSize::LargeInput,
        )
    });
    // Figure 6's premise on real hardware: sparsified input factors faster.
    let slim = sparsify_by_magnitude(&a, 10.0).a_hat;
    g.bench_function("ilu0_sparsified_120x120", |b| {
        b.iter_batched(
            || slim.clone(),
            |m| ilu0(black_box(&m), ExecutionStrategy::Sequential).unwrap(),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_sparsify(c: &mut Criterion) {
    let a = layered_poisson_2d(150, 150, 4, 0.02);
    let mut g = c.benchmark_group("sparsify");
    g.bench_function("magnitude_10pct", |b| b.iter(|| sparsify_by_magnitude(black_box(&a), 10.0)));
    g.bench_function("level_schedule_build", |b| {
        b.iter(|| LevelSchedule::build(black_box(&a), Triangle::Lower))
    });
    // The rest of an Auto plan build's one-time work: the approximate-
    // inverse constructions of the kind search and the candidate orderings.
    let grid = poisson_2d(200, 200);
    g.sample_size(20);
    g.bench_function("spai_build", |b| {
        b.iter(|| SaiPreconditioner::new(black_box(&grid), SaiPattern::OfA).unwrap())
    });
    g.bench_function("fsai_build", |b| {
        b.iter(|| FsaiPreconditioner::new(black_box(&grid)).unwrap())
    });
    g.bench_function("rcm", |b| b.iter(|| reverse_cuthill_mckee(black_box(&grid))));
    g.bench_function("coloring", |b| b.iter(|| greedy_color_perm(black_box(&grid))));
    g.finish();
}

criterion_group!(benches, bench_spmv, bench_trisolve, bench_factorization, bench_sparsify);
criterion_main!(benches);
