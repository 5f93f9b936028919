//! Quickstart: solve one SPD system with plain CG, PCG-ILU(0), and the
//! sparsified SPCG pipeline, and compare their behaviour.
//!
//! Run with: `cargo run --release --example quickstart`

use spcg::prelude::*;
use spcg::suite::{Ordering, Recipe};

fn main() {
    // A layered 2-D diffusion operator: 64x64 grid, weak couplings every
    // 4th grid line plus a far-field noise tail — the structure where
    // wavefront-aware sparsification shines.
    let a = Recipe::Layered2D { nx: 64, ny: 64, period: 4, weak: 0.015 }.build(
        7,
        1.5,
        Ordering::Natural,
    );
    let n = a.n_rows();
    let b = vec![1.0f64; n];
    println!("system: n = {n}, nnz = {}", a.nnz());
    println!("lower-triangle wavefronts: {}", wavefront_count(&a));

    let config = SolverConfig::default().with_tol(1e-10);

    // 1. Plain conjugate gradient.
    let plain = cg(&a, &b, &config).expect("well-formed system");
    println!(
        "\nCG           : {:>4} iterations, residual {:.2e}, {:?}",
        plain.iterations, plain.final_residual, plain.stop
    );

    // 2. PCG with a non-sparsified ILU(0) preconditioner.
    let factors = ilu0(&a, ExecutionStrategy::Sequential).expect("ILU(0) factorization");
    let pcg_run = pcg(&a, &factors, &b, &config).expect("well-formed system");
    println!(
        "PCG-ILU(0)   : {:>4} iterations, residual {:.2e}, {} wavefronts in the factors",
        pcg_run.iterations,
        pcg_run.final_residual,
        factors.total_wavefronts()
    );

    // 3. The full SPCG pipeline (Figure 2 of the paper): wavefront-aware
    //    sparsification -> ILU(0) of the sparsified matrix -> PCG on the
    //    ORIGINAL system. Build the analysis once as a plan, then solve.
    let plan =
        SpcgPlan::build(&a, SpcgOptions::default().with_solver(config)).expect("SPCG pipeline");
    let spcg_run = plan.solve(&b).expect("well-formed system");
    let decision = plan.decision().expect("sparsification ran");
    println!(
        "SPCG-ILU(0)  : {:>4} iterations, residual {:.2e}, {} wavefronts in the factors",
        spcg_run.iterations,
        spcg_run.final_residual,
        plan.factors().total_wavefronts()
    );
    println!(
        "\nsparsification: chose ratio {}% ({:?}), wavefronts {} -> {} ({:.1}% reduction)",
        decision.chosen_ratio,
        decision.reason,
        decision.wavefronts_original,
        decision.wavefronts_sparsified,
        decision.wavefront_reduction()
    );

    // Verify both solutions solve the same original system.
    let residual = |x: &[f64]| {
        let ax = spcg::sparse::spmv::spmv_alloc(&a, x);
        ax.iter().zip(&b).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt()
    };
    println!(
        "\ntrue residuals vs the ORIGINAL A: PCG {:.2e}, SPCG {:.2e}",
        residual(&pcg_run.x),
        residual(&spcg_run.x)
    );

    // 4. The plan amortizes its analysis across right-hand sides: solve a
    //    batch of independent loads with `solve_many` (parallel across RHS).
    let loads: Vec<Vec<f64>> =
        (1..=4).map(|k| (0..n).map(|i| ((i + k) % 11) as f64 / 10.0).collect()).collect();
    let batch: Vec<_> =
        plan.solve_many(&loads).into_iter().map(|r| r.expect("well-formed system")).collect();
    let iters: Vec<usize> = batch.iter().map(|r| r.iterations).collect();
    println!("batched solve of {} further RHS, iterations per RHS: {iters:?}", loads.len());

    // 5. Observe where the time goes: a HistogramProbe aggregates span
    //    latencies per phase (p50/p95/max) with no per-event allocation.
    let mut hist = HistogramProbe::new();
    let mut ws = plan.make_workspace();
    for load in &loads {
        plan.solve_in_place(load, &mut ws, SolveCtx::probed(&mut hist))
            .expect("well-formed system");
    }
    println!("\nphase latency histogram over {} probed solves:", loads.len());
    print!("{}", hist.render());
}
