//! Breakdown-resilient solves: the runtime guards, the fallback ladder,
//! and deterministic fault injection, demonstrated end to end.
//!
//! Three scenarios:
//! 1. a healthy solve — the resilient path is a bitwise no-op;
//! 2. a NaN poisoned into the iteration — one fallback rung recovers;
//! 3. a fault persisted across every factored rung — the ladder descends
//!    all the way to Jacobi and still converges.
//!
//! Run with: `cargo run --release --example resilient`

use spcg::prelude::*;
use spcg::sparse::generators::{poisson_2d, with_magnitude_spread};

fn print_report(title: &str, solve: &ResilientSolve<f64>) {
    println!("\n{title}");
    for (i, a) in solve.report.attempts.iter().enumerate() {
        println!(
            "  attempt {i}: rung {:<16} {:?} after {} iterations (residual {:.2e}, {} factorization(s), alpha {:.1e})",
            a.rung.to_string(),
            a.stop,
            a.iterations,
            a.final_residual,
            a.factorizations,
            a.alpha,
        );
    }
    println!(
        "  => {} | cause {:?} | {} total iterations, {} extra factorizations",
        if solve.report.clean() {
            "clean (no fallback needed)"
        } else if solve.report.recovered() {
            "recovered"
        } else {
            "degraded (ladder exhausted)"
        },
        solve.report.cause(),
        solve.report.total_iterations(),
        solve.report.total_factorizations(),
    );
}

fn main() {
    let a = with_magnitude_spread(&poisson_2d(48, 48), 6.0, 11);
    let b: Vec<f64> = (0..a.n_rows()).map(|i| ((i % 11) as f64 - 5.0) / 5.0).collect();
    let plan = SpcgPlan::build(&a, SpcgOptions::default()).expect("square SPD system");
    println!(
        "system: n = {}, sparsified = {}, ladder = {:?}",
        plan.n(),
        plan.is_sparsified(),
        plan.ladder(&ResilienceOptions::default())
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
    );

    // 1. Healthy solve: the guards watch, nothing fires, the result is
    //    bitwise identical to a plain solve.
    let mut ws = plan.make_workspace();
    let healthy =
        plan.solve_resilient(&b, &ResilienceOptions::default(), &mut ws, NoProbe).unwrap();
    assert!(healthy.converged() && healthy.report.clean());
    print_report("healthy solve:", &healthy);

    // 2. A NaN injected into iteration 2 of the planned attempt — the
    //    kernel-fault scenario. The guard classifies it, the ladder
    //    retries on the next rung.
    let nan_opts =
        ResilienceOptions { fault: Some(FaultInjection::nan_at(2)), ..Default::default() };
    let recovered = plan.solve_resilient(&b, &nan_opts, &mut ws, NoProbe).unwrap();
    assert!(recovered.converged());
    assert_eq!(recovered.report.cause(), Some(BreakdownKind::Nan));
    print_report("NaN at iteration 2:", &recovered);

    // 3. The same fault persisted across every rung but the last: the
    //    ladder walks its full height and the Jacobi safety net — which
    //    has no factors to corrupt — finishes the job.
    let depth = plan.ladder(&ResilienceOptions::default()).len();
    let persistent = ResilienceOptions {
        fault: Some(FaultInjection::nan_at(0).persist_for(depth - 1)),
        ..Default::default()
    };
    let bottomed = plan.solve_resilient(&b, &persistent, &mut ws, NoProbe).unwrap();
    assert!(bottomed.converged());
    assert_eq!(bottomed.report.attempts.last().unwrap().rung, FallbackRung::Jacobi);
    print_report("fault persisted through every factored rung:", &bottomed);

    // The recovered iterates solve the same system as the healthy one.
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let drift: Vec<f64> =
        healthy.result.x.iter().zip(&recovered.result.x).map(|(h, r)| h - r).collect();
    println!(
        "\nrecovered-vs-healthy solution drift: {:.2e} (relative)",
        norm(&drift) / norm(&healthy.result.x)
    );
}
