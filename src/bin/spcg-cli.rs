//! `spcg-cli` — run the SPCG pipeline on Matrix Market files.
//!
//! See `spcg-cli help` (or [`spcg::cli::USAGE`]) for the interface.

use spcg::cli::{
    parse, sparsify_params, Command, GenerateArgs, ServeBenchArgs, SolveArgs, SparsifyMode, USAGE,
};
use spcg::prelude::*;
use spcg::sparse::generators as gen;
use spcg::sparse::io::{read_matrix_market_file, write_matrix_market_file, MmSymmetry};
use spcg_gpusim::{
    end_to_end_cost, pcg_iteration_cost_with_factor_bytes, plan_end_to_end_cost,
    plan_iteration_cost, simulated_solve_trace, DeviceSpec,
};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Command::Solve(a)) => run_solve(&a, false),
        Ok(Command::Analyze(a)) => run_solve(&a, true),
        Ok(Command::Generate(g)) => run_generate(&g),
        Ok(Command::ServeBench(sb)) => run_serve_bench(&sb),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn device_by_name(name: &str) -> DeviceSpec {
    match name {
        "v100" => DeviceSpec::v100(),
        "epyc" => DeviceSpec::epyc_7413(),
        _ => DeviceSpec::a100(),
    }
}

fn run_solve(args: &SolveArgs, analyze_only: bool) -> ExitCode {
    let a: spcg::sparse::CsrMatrix<f64> = match read_matrix_market_file(Path::new(&args.matrix)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", args.matrix);
            return ExitCode::FAILURE;
        }
    };
    if !a.is_square() {
        eprintln!("error: matrix is {}x{}, need square SPD", a.n_rows(), a.n_cols());
        return ExitCode::FAILURE;
    }
    println!(
        "matrix {}: n = {}, nnz = {}, wavefronts = {}, symmetric = {}",
        args.matrix,
        a.n_rows(),
        a.nnz(),
        wavefront_count(&a),
        a.is_symmetric(1e-12)
    );

    if analyze_only {
        let params = sparsify_params(&args.sparsify).unwrap_or_default();
        let d = spcg_core::wavefront_aware_sparsify(&a, &params);
        println!(
            "Algorithm 2: chose ratio {}% ({:?}), wavefronts {} -> {} ({:.2}% reduction)",
            d.chosen_ratio,
            d.reason,
            d.wavefronts_original,
            d.wavefronts_sparsified,
            d.wavefront_reduction()
        );
        for t in &d.trace {
            println!(
                "  ratio {:>5}%: indicator {:.4} ({}), wavefronts {:?}",
                t.ratio,
                t.indicator.product,
                if t.passed_convergence { "pass" } else { "fail" },
                t.wavefronts
            );
        }
        return ExitCode::SUCCESS;
    }

    let b = vec![1.0f64; a.n_rows()];
    let opts = SpcgOptions {
        sparsify: match &args.sparsify {
            SparsifyMode::Off => None,
            other => sparsify_params(other),
        },
        precond: args.precond,
        ilu_fill: args.ilu_fill,
        exec: args.exec,
        solver: args.solver.clone(),
        ordering: args.ordering,
        precision: args.precision,
        ..Default::default()
    };
    // Record the whole run — plan analysis plus the solve loop — through
    // one probe so the trace covers every phase.
    let mut probe = RecordingProbe::new();
    let plan = match SpcgPlan::build_probed(&a, &opts, &mut probe) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: pipeline analysis failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ws = plan.make_workspace();
    let result = match plan.solve_in_place(&b, &mut ws, SolveCtx::probed(&mut probe)) {
        Ok(stats) => ws.to_result(stats),
        Err(e) => {
            eprintln!("error: solve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Time-varying sequence: every step past the first drifts the matrix
    // values by a seeded uniform scale (symmetry-preserving), refreshes the
    // plan numerics (analysis reused), and warm-starts from the resident
    // solution in the workspace.
    if args.sequence > 1 {
        println!("sequence: {} steps, drift {:.3}% per step", args.sequence, 100.0 * args.drift);
        println!("  step 0: {} iterations (cold build)", result.iterations);
        let mut rng = spcg::sparse::Rng::new(0x5e9);
        let mut current = a.clone();
        let mut seq_plan: Option<SpcgPlan<f64>> = None;
        for step in 1..args.sequence {
            let scale = 1.0 + args.drift * rng.range(-1.0, 1.0);
            current = current.map_values(|v| v * scale);
            let refreshed = match seq_plan.as_ref().unwrap_or(&plan).refresh_values(&current) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: plan refresh failed at step {step}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let warm = SolveCtx { warm: true, ..SolveCtx::default() };
            let stats = match refreshed.solve_in_place(&b, &mut ws, warm) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: sequence step {step} failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "  step {step}: {} iterations (warm refresh), residual {:.3e}",
                stats.iterations, stats.final_residual
            );
            if !stats.converged() {
                eprintln!("error: sequence step {step} did not converge: {:?}", stats.stop);
                return ExitCode::FAILURE;
            }
            seq_plan = Some(refreshed);
        }
    }

    let trace = probe.finish();
    let reorder = plan.reorder().cloned();
    let reorder_time = plan.reorder_time();
    let precision = plan.precision();
    let factor_bytes = plan.factor_value_bytes() as f64;
    let resolved = plan.precond_kind();
    let label = if resolved == PrecondKind::IluSparsified {
        args.ilu_fill.label()
    } else {
        resolved.label().to_uppercase()
    };
    let kind_decision = plan.kind_decision().cloned();
    let level_free = plan.is_level_free();
    let sparsify_time = plan.sparsify_time();
    let factorization_time = plan.factorization_time();
    // Level-free plans carry no ILU factors; everything below borrows from
    // the plan.
    let decision = plan.decision();
    let factors = if level_free { None } else { Some(plan.factors()) };
    println!(
        "{} {}: {:?} after {} iterations, residual {:.3e}",
        if decision.is_some() { "SPCG" } else { "PCG" },
        label,
        result.stop,
        result.iterations,
        result.final_residual
    );
    if let Some(d) = &kind_decision {
        let priced: Vec<String> = d
            .candidates
            .iter()
            .map(|c| {
                format!(
                    "{} {:.0}us{}",
                    c.kind.label(),
                    c.total_us,
                    if c.guard_passed { "" } else { " [guard]" }
                )
            })
            .collect();
        println!(
            "precond: requested {}, chose {} ({})",
            d.requested.label(),
            d.chosen.label(),
            priced.join(", ")
        );
    }
    if args.precision != PrecisionPolicy::Full {
        println!(
            "precision: requested {}, running {} ({}-byte factor values)",
            args.precision, precision, factor_bytes
        );
    }
    if let Some(r) = &reorder {
        println!(
            "ordering: requested {}, chose {}, levels {} -> {} ({:.2}% reduction)",
            r.requested,
            r.chosen,
            r.levels_natural,
            r.levels_chosen,
            r.level_reduction_percent()
        );
    }
    if let Some(d) = decision {
        println!(
            "sparsification: ratio {}% ({:?}), wavefronts {} -> {}",
            d.chosen_ratio, d.reason, d.wavefronts_original, d.wavefronts_sparsified
        );
    }
    println!(
        "timings: reorder {:.2?}, sparsify {:.2?}, factorization {:.2?}, solve loop {:.2?}",
        reorder_time, sparsify_time, factorization_time, result.timings.total
    );
    if let Some(path) = &args.trace {
        let json = match serde_json::to_string_pretty(&trace) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: cannot serialize trace: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("trace: {} events -> {path}", trace.events.len());
        println!("{}", trace.phase_table());
    }
    if let Some(dev_name) = &args.device {
        let dev = device_by_name(dev_name);
        if let Some(factors) = factors {
            let it = pcg_iteration_cost_with_factor_bytes(&dev, &a, factors, factor_bytes);
            let e2e = end_to_end_cost(
                &dev,
                &a,
                factors.l(),
                factors,
                result.iterations,
                decision.is_some(),
            );
            println!(
                "{} model: {:.1} us/iteration, {:.1} us end-to-end",
                dev.name,
                it.total_us(),
                e2e.total_us()
            );
            if args.trace.is_some() {
                // Simulated counterpart of the measured table above: same
                // span vocabulary, timings from the execution model.
                let sim = simulated_solve_trace(&dev, &a, factors, result.iterations);
                println!("{} model phase table:", dev.name);
                println!("{}", sim.phase_table());
            }
        } else {
            // Level-free apply: priced through the plan-aware entry points
            // (SpMVs over the stored inverse factors, no sweeps).
            let it = plan_iteration_cost(&dev, &plan);
            let e2e = plan_end_to_end_cost(&dev, &plan, result.iterations);
            println!(
                "{} model: {:.1} us/iteration, {:.1} us end-to-end",
                dev.name,
                it.total_us(),
                e2e.total_us()
            );
        }
    }
    if result.converged() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Mixed small-system workload for the solve service: distinct operators
/// (different generators and magnitude spreads) so the cache holds several
/// plans at once, all small enough that a run finishes in seconds.
fn serve_bench_matrices(count: usize, size: usize) -> Vec<std::sync::Arc<CsrMatrix<f64>>> {
    (0..count)
        .map(|i| {
            let base = match i % 3 {
                0 => gen::poisson_2d(size, size + i / 3),
                1 => gen::layered_poisson_2d(size, size + i / 3, 4, 0.015),
                _ => gen::banded_spd(size * size, 3 + i / 3, 0.8, 1.5, 7 + i as u64),
            };
            std::sync::Arc::new(gen::with_magnitude_spread(&base, 3.0, 11 + i as u64))
        })
        .collect()
}

/// Runs `requests` solves of the mixed workload through a fresh service
/// with `workers` worker threads; returns (elapsed, converged, stats).
fn serve_bench_run(
    mats: &[std::sync::Arc<CsrMatrix<f64>>],
    workers: usize,
    args: &ServeBenchArgs,
) -> (std::time::Duration, usize, spcg::serve::ServiceStats) {
    let service = SolveService::new(ServiceConfig {
        workers,
        queue_capacity: (args.requests / 2).clamp(8, 512),
        batch_window: std::time::Duration::from_micros(args.window_us),
        ..ServiceConfig::default()
    });
    let converged = std::sync::atomic::AtomicUsize::new(0);
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for client in 0..args.clients {
            let service = &service;
            let converged = &converged;
            s.spawn(move || {
                let quota = args.requests / args.clients
                    + usize::from(client < args.requests % args.clients);
                let mut tickets = Vec::with_capacity(quota);
                for i in 0..quota {
                    // Deterministic interleave: consecutive requests from one
                    // client hit different systems, concurrent clients
                    // collide on the same system — the coalescing case.
                    let m = &mats[(client + i) % mats.len()];
                    let b: Vec<f64> =
                        (0..m.n_rows()).map(|j| ((j + i) % 13) as f64 / 13.0 - 0.4).collect();
                    if let Ok(t) = service.submit(SolveRequest::new(std::sync::Arc::clone(m), b)) {
                        tickets.push(t);
                    }
                }
                for t in tickets {
                    if let Ok(out) = t.wait() {
                        if out.result.converged() {
                            converged.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let stats = service.stats();
    (elapsed, converged.into_inner(), stats)
}

/// Open-loop sustained-load benchmark: Poisson arrivals at a fixed offered
/// rate, mixed priorities, per-request deadlines. Unlike the closed-loop
/// mode (which self-throttles: a slow service slows its own clients), the
/// arrival process here does not wait for completions, so pushing the rate
/// past capacity exercises admission control — the run fails unless the
/// service sheds deterministically and its counters reconcile.
fn run_open_loop(args: &ServeBenchArgs) -> ExitCode {
    use spcg::serve::{Priority, RequestPolicy, Ticket};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::{Duration, Instant};

    const CONVERGED: u8 = 0;
    const DEADLINE: u8 = 1;
    const FAILED: u8 = 2;

    let mats = serve_bench_matrices(args.matrices, args.size);
    let service = SolveService::new(ServiceConfig {
        workers: args.workers,
        queue_capacity: (args.requests / 2).clamp(8, 512),
        batch_window: Duration::from_micros(args.window_us),
        ..ServiceConfig::default()
    });

    // Warm every plan, then time a short burst so the auto rate is a fixed
    // multiple of what *this* machine actually sustains with a hot cache.
    for m in mats.iter() {
        let b = vec![1.0f64; m.n_rows()];
        if let Err(e) = service.solve(m, &b) {
            eprintln!("error: open-loop warmup solve failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let probe_solves = 8 * mats.len();
    let t0 = Instant::now();
    for i in 0..probe_solves {
        let m = &mats[i % mats.len()];
        let b = vec![1.0f64; m.n_rows()];
        let _ = service.solve(m, &b);
    }
    let per_solve_s = (t0.elapsed().as_secs_f64() / probe_solves as f64).max(1e-9);
    let capacity = args.workers as f64 / per_solve_s;
    let rate = if args.rate == 0 { 2.0 * capacity } else { args.rate as f64 };
    println!(
        "open-loop: {} requests at {:.0} req/s ({}), warm capacity ~{:.0} req/s, \
deadline {} ms, seed {}",
        args.requests,
        rate,
        if args.rate == 0 { "auto: 2x capacity" } else { "requested" },
        capacity,
        args.deadline_ms,
        args.seed
    );

    // Collector pool: tickets are redeemed off the arrival thread so a slow
    // solve never stalls the arrival process (that would close the loop).
    let (tx, rx) = mpsc::channel::<(Priority, Instant, Ticket<f64>)>();
    let rx = Arc::new(Mutex::new(rx));
    let outcomes: Arc<Mutex<Vec<(Priority, u64, u8)>>> = Arc::new(Mutex::new(Vec::new()));
    let collectors: Vec<_> = (0..args.workers.max(2))
        .map(|_| {
            let rx = Arc::clone(&rx);
            let outcomes = Arc::clone(&outcomes);
            std::thread::spawn(move || loop {
                let msg = rx.lock().unwrap().recv();
                let Ok((priority, submitted, ticket)) = msg else { break };
                let kind = match ticket.wait() {
                    Ok(out) if out.result.converged() => CONVERGED,
                    Ok(_) => FAILED,
                    Err(ServeError::Solver(SolverError::DeadlineExceeded { .. })) => DEADLINE,
                    Err(_) => FAILED,
                };
                let latency_ns = submitted.elapsed().as_nanos() as u64;
                outcomes.lock().unwrap().push((priority, latency_ns, kind));
            })
        })
        .collect();

    // Poisson arrivals: exponential inter-arrival gaps from a seeded
    // generator, so two runs with the same seed offer the same schedule.
    let mut rng = spcg::sparse::Rng::new(args.seed);
    let deadline = Duration::from_millis(args.deadline_ms);
    let mut shed = [0u64; 3];
    let start = Instant::now();
    let mut next_arrival_s = 0.0f64;
    for i in 0..args.requests {
        next_arrival_s += -(1.0 - rng.uniform()).ln() / rate;
        let target = start + Duration::from_secs_f64(next_arrival_s);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        let priority = Priority::ALL[i % 3];
        let m = &mats[i % mats.len()];
        let b: Vec<f64> = (0..m.n_rows()).map(|j| ((j + i) % 13) as f64 / 13.0 - 0.4).collect();
        let policy = RequestPolicy::default().with_deadline(deadline).with_priority(priority);
        let submitted = Instant::now();
        match service.submit(SolveRequest::new(std::sync::Arc::clone(m), b).policy(policy)) {
            Ok(ticket) => tx.send((priority, submitted, ticket)).expect("collector pool alive"),
            Err(_) => shed[priority.tag() as usize] += 1,
        }
    }
    drop(tx);
    for c in collectors {
        c.join().expect("collector panicked");
    }
    let elapsed = start.elapsed();
    let outcomes = Arc::try_unwrap(outcomes).expect("collectors joined").into_inner().unwrap();
    let stats = service.stats();

    // Per-priority latency quantiles through the same nearest-rank machinery
    // the probe layer uses everywhere else.
    println!(
        "\n  priority  offered     shed  converged  deadline  failed     p50      p95      p99"
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    for priority in Priority::ALL {
        let mut probe = HistogramProbe::new().with_quantiles(&[0.50, 0.95, 0.99]);
        let (mut converged, mut deadline_hit, mut failed) = (0u64, 0u64, 0u64);
        for (p, latency_ns, kind) in outcomes.iter() {
            if *p != priority {
                continue;
            }
            probe.record_duration_ns(Span::ServeRequest, *latency_ns);
            match *kind {
                CONVERGED => converged += 1,
                DEADLINE => deadline_hit += 1,
                _ => failed += 1,
            }
        }
        let shed_here = shed[priority.tag() as usize];
        let offered = converged + deadline_hit + failed + shed_here;
        let qs = probe.quantiles_for(Span::ServeRequest);
        let q = |idx: usize| qs.get(idx).map_or(0.0, |(_, ns)| ms(*ns));
        println!(
            "  {:>8}  {:>7}  {:>7}  {:>9}  {:>8}  {:>6}  {:>6.2}ms {:>6.2}ms {:>6.2}ms",
            priority.label(),
            offered,
            shed_here,
            converged,
            deadline_hit,
            failed,
            q(0),
            q(1),
            q(2),
        );
    }

    let total_shed: u64 = shed.iter().sum();
    let offered_rate = args.requests as f64 / elapsed.as_secs_f64().max(1e-9);
    println!("\nadmission table ({} workers):", args.workers);
    for (label, value) in [
        ("serve.admission.offered", stats.offered),
        ("serve.admission.admitted", stats.admitted),
        ("serve.admission.downgraded", stats.downgraded),
        ("serve.admission.shed", stats.shed),
        ("serve.admission.closed", stats.closed_rejected),
        ("serve.deadline.expired", stats.deadline_expired),
        ("serve.breaker.rejected", stats.breaker.rejected),
    ] {
        println!("  {label:<28} {value:>12}");
    }
    println!(
        "offered {:.0} req/s over {:.2?}; shed rate {:.1}%, degraded rate {:.1}%",
        offered_rate,
        elapsed,
        100.0 * stats.shed as f64 / stats.offered.max(1) as f64,
        100.0 * stats.downgraded as f64 / stats.offered.max(1) as f64,
    );

    // Gates: every policy submission must be accounted for exactly once, and
    // an over-capacity offered rate must actually shed (if it does not, the
    // admission controller is not protecting the queue).
    let reconciles =
        stats.offered == stats.admitted + stats.downgraded + stats.shed + stats.closed_rejected;
    let redeemed = outcomes.len() as u64 + total_shed == args.requests as u64;
    if !reconciles {
        eprintln!(
            "open-loop FAILED: counters do not reconcile: offered {} != admitted {} + \
downgraded {} + shed {} + closed {}",
            stats.offered, stats.admitted, stats.downgraded, stats.shed, stats.closed_rejected
        );
        return ExitCode::FAILURE;
    }
    if !redeemed {
        eprintln!(
            "open-loop FAILED: {} outcomes + {} shed != {} offered",
            outcomes.len(),
            total_shed,
            args.requests
        );
        return ExitCode::FAILURE;
    }
    if args.rate == 0 && stats.shed == 0 {
        eprintln!("open-loop FAILED: no shedding at 2x measured capacity");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn run_serve_bench(args: &ServeBenchArgs) -> ExitCode {
    if args.open_loop {
        return run_open_loop(args);
    }
    let mats = serve_bench_matrices(args.matrices, args.size);
    println!(
        "serve-bench: {} clients x {} requests over {} systems (n = {}..{}), window {} us",
        args.clients,
        args.requests,
        args.matrices,
        mats.iter().map(|m| m.n_rows()).min().unwrap_or(0),
        mats.iter().map(|m| m.n_rows()).max().unwrap_or(0),
        args.window_us
    );

    let (t1, ok1, s1) = serve_bench_run(&mats, 1, args);
    let (tn, okn, sn) = serve_bench_run(&mats, args.workers, args);

    let rate = |d: std::time::Duration| args.requests as f64 / d.as_secs_f64();
    println!("\n  workers  elapsed      req/s   converged  batches  max-batch");
    println!(
        "  {:>7}  {:>9.2?}  {:>8.1}  {:>9}  {:>7}  {:>9}",
        1,
        t1,
        rate(t1),
        ok1,
        s1.batches,
        s1.max_batch
    );
    println!(
        "  {:>7}  {:>9.2?}  {:>8.1}  {:>9}  {:>7}  {:>9}",
        args.workers,
        tn,
        rate(tn),
        okn,
        sn.batches,
        sn.max_batch
    );
    let ratio = t1.as_secs_f64() / tn.as_secs_f64().max(1e-9);
    println!(
        "throughput ratio ({} workers / 1 worker): {ratio:.2}x on {} hardware threads",
        args.workers,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Cache table for the multi-worker run (the run CI gates on).
    let total = sn.cache.hits + sn.cache.misses;
    let hit_rate = if total == 0 { 0.0 } else { 100.0 * sn.cache.hits as f64 / total as f64 };
    println!("\ncache table ({} workers):", args.workers);
    for (label, value) in [
        ("serve.cache.hit", sn.cache.hits),
        ("serve.cache.miss", sn.cache.misses),
        ("serve.cache.eviction", sn.cache.evictions),
        ("serve.cache.bytes", sn.cache.bytes as u64),
        ("serve.batch.count", sn.batches),
        ("serve.batch.rhs", sn.batched_rhs),
        ("serve.queue.rejected", sn.rejected),
    ] {
        println!("  {label:<22} {value:>12}");
    }
    println!("cache hit rate: {hit_rate:.1}% (target >= 90%)");

    // Phase table of one warm served request, recorded through the probe
    // layer — the serve span wraps the usual plan/solve vocabulary.
    let service = SolveService::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let b = vec![1.0f64; mats[0].n_rows()];
    let mut probe = RecordingProbe::new();
    let _ = service.solve(&mats[0], &b); // warm the cache
    match service.solve_probed(&mats[0], &b, &mut probe) {
        Ok(out) => {
            println!(
                "\nwarm served solve: {} iterations, cache_hit = {}",
                out.result.iterations, out.cache_hit
            );
            println!("{}", probe.finish().phase_table());
        }
        Err(e) => {
            eprintln!("error: warm served solve failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    if hit_rate >= 90.0 && ok1 == args.requests && okn == args.requests {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "serve-bench FAILED: hit rate {hit_rate:.1}% (need >= 90), converged {ok1}/{} and {okn}/{}",
            args.requests, args.requests
        );
        ExitCode::FAILURE
    }
}

fn run_generate(g: &GenerateArgs) -> ExitCode {
    let p = |key: &str, default: f64| g.params.get(key).copied().unwrap_or(default);
    let m = match g.kind.as_str() {
        "poisson2d" => gen::poisson_2d(p("nx", 32.0) as usize, p("ny", 32.0) as usize),
        "poisson3d" => {
            gen::poisson_3d(p("nx", 12.0) as usize, p("ny", 12.0) as usize, p("nz", 12.0) as usize)
        }
        "layered2d" => gen::layered_poisson_2d(
            p("nx", 64.0) as usize,
            p("ny", 64.0) as usize,
            p("period", 4.0) as usize,
            p("weak", 0.015),
        ),
        "banded" => gen::banded_spd(
            p("n", 1000.0) as usize,
            p("band", 4.0) as usize,
            p("density", 0.8),
            p("dominance", 1.5),
            p("seed", 1.0) as u64,
        ),
        other => {
            eprintln!("error: unknown generator kind {other}");
            return ExitCode::FAILURE;
        }
    };
    match write_matrix_market_file(&m, MmSymmetry::Symmetric, Path::new(&g.out)) {
        Ok(()) => {
            println!("wrote {} (n = {}, nnz = {})", g.out, m.n_rows(), m.nnz());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", g.out);
            ExitCode::FAILURE
        }
    }
}
