//! Machine-readable perf baseline: times suite-wide idiom detection and
//! writes `BENCH_detect.json` (mean/min ms per full-suite pass, per-idiom
//! mean ms, per-function latency percentiles, total and per-idiom solver
//! steps) so the performance trajectory across PRs has comparable data
//! points.
//!
//! Usage: `cargo run --release -p idiomatch-bench --bin bench_json`
//! (optionally `--passes N` — a bare number still works — and an output
//! path), or `--check` to verify the committed artifact against the
//! current code without rewriting it (the CI drift guard). The guard
//! compares the stable fields exactly (instance counts, completeness),
//! ratchets `total_solve_steps` against upward regression beyond 5%, and
//! ignores timings.

use idiomatch_bench::report::{nested_object, percentile, Json, Report};
use idioms::{DetectOptions, IdiomKind};
use std::time::Instant;

fn main() {
    // Arguments: `--passes N` (or a bare number), `--check` selects
    // drift-check mode, anything else is the output path.
    let mut passes: usize = 10;
    let mut out_path = String::from("BENCH_detect.json");
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--check" {
            check = true;
        } else if arg == "--passes" {
            passes = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--passes takes a number")
        } else {
            match arg.parse::<usize>() {
                Ok(n) => passes = n,
                Err(_) => out_path = arg,
            }
        }
    }
    passes = passes.max(1);

    let modules: Vec<ssair::Module> = benchsuite::all()
        .iter()
        .map(|b| minicc::compile(b.source, b.name).expect("bundled benchmark compiles"))
        .collect();
    let fs: Vec<&ssair::Function> = modules.iter().flat_map(|m| &m.functions).collect();
    let opts = DetectOptions::default();

    // Warm-up pass (also the source of the step/instance counts, which
    // are deterministic across passes).
    let detections = idioms::detect_functions(&fs, &opts);
    let instances: usize = detections.iter().map(|d| d.instances.len()).sum();
    let complete = detections.iter().all(|d| d.complete);
    let total_steps: u64 = detections.iter().map(|d| d.steps).sum();
    let skeleton_steps: u64 = detections.iter().map(|d| d.skeleton_steps).sum();
    let pruned_pairs: u64 = detections.iter().map(|d| d.pruned_pairs).sum();
    let mut steps_by_idiom: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for d in &detections {
        for (&kind, &s) in &d.steps_by_kind {
            *steps_by_idiom.entry(kind.constraint_name()).or_default() += s;
        }
    }
    debug_assert_eq!(steps_by_idiom.len(), IdiomKind::ALL.len());
    let steps_pairs: Vec<(&str, u64)> = steps_by_idiom.iter().map(|(&k, &v)| (k, v)).collect();
    let steps_raw = nested_object(&steps_pairs);
    // Provisional (per-function) parallel-safety certificate mix across
    // every detected instance — deterministic, so drift-guarded.
    let mut cert_counts: std::collections::BTreeMap<idioms::ParallelSafety, u64> =
        Default::default();
    for d in &detections {
        for (safety, n) in d.certificate_counts() {
            *cert_counts.entry(safety).or_default() += n;
        }
    }
    let cert_pairs: Vec<(&str, u64)> = [
        idioms::ParallelSafety::IndependentIterations,
        idioms::ParallelSafety::ReductionOnly,
        idioms::ParallelSafety::Serial,
    ]
    .iter()
    .map(|s| (s.as_str(), cert_counts.get(s).copied().unwrap_or(0)))
    .collect();
    let certs_raw = nested_object(&cert_pairs);

    let stable = |passes: usize,
                  mean_ms: f64,
                  min_ms: f64,
                  per_idiom_raw: Json,
                  p50_ms: f64,
                  p95_ms: f64,
                  fingerprint_ms: f64| {
        Report::new()
            .stable("bench", Json::S("detect_all_21_benchmarks".into()))
            .stable("functions", Json::U(fs.len() as u64))
            .stable("instances", Json::U(instances as u64))
            .stable("certificates", certs_raw.clone())
            .volatile("passes", Json::U(passes as u64))
            .volatile("mean_ms", Json::F(mean_ms, 3))
            .volatile("min_ms", Json::F(min_ms, 3))
            .volatile("per_idiom_mean_ms", per_idiom_raw)
            .volatile("per_function_p50_ms", Json::F(p50_ms, 4))
            .volatile("per_function_p95_ms", Json::F(p95_ms, 4))
            .stable("complete", Json::B(complete))
            // Perf ratchet: improvements land freely, regressions above
            // +5% fail CI until the artifact is consciously regenerated.
            .bounded_up("total_solve_steps", total_steps, 0.05)
            .stable("pruned_pairs", Json::U(pruned_pairs))
            .volatile("skeleton_solve_steps", Json::U(skeleton_steps))
            .volatile("fingerprint_ms", Json::F(fingerprint_ms, 3))
            .volatile("solve_steps_by_idiom", steps_raw.clone())
    };

    if check {
        if let Err(e) =
            stable(0, 0.0, 0.0, Json::Raw("{}".into()), 0.0, 0.0, 0.0).check_drift(&out_path)
        {
            eprintln!("{e}");
            std::process::exit(1);
        }
        eprintln!("{out_path}: stable fields match the current code");
        return;
    }

    // Full-suite passes through the parallel driver (the headline mean).
    let mut samples_ms: Vec<f64> = Vec::with_capacity(passes);
    for _ in 0..passes {
        let t = Instant::now();
        let n: usize = idioms::detect_functions(&fs, &opts)
            .iter()
            .map(|d| d.instances.len())
            .sum();
        assert_eq!(n, instances, "detection must be deterministic");
        samples_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mean_ms = samples_ms.iter().sum::<f64>() / samples_ms.len() as f64;
    let min_ms = samples_ms.iter().copied().fold(f64::INFINITY, f64::min);

    // Per-function serial latency profile: each function sampled `passes`
    // times back to back, keeping the minimum — the steady-state latency,
    // measured the way micro-benchmark harnesses do (warm caches and
    // branch predictors, and a minimum that only the code can reach:
    // scheduler jitter is strictly additive). Percentiles are then taken
    // across the functions.
    let fn_ms: Vec<f64> = fs
        .iter()
        .map(|f| {
            let mut best = f64::INFINITY;
            for _ in 0..passes {
                let t = Instant::now();
                let _ = idioms::detect_with(f, &opts);
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
            }
            best
        })
        .collect();
    let p50_ms = percentile(&fn_ms, 50.0);
    let p95_ms = percentile(&fn_ms, 95.0);

    // Cost of the fingerprint prepass itself: one from-scratch
    // fingerprint (CFG + dominators + loop forest + linear walk) per
    // function, averaged over the passes.
    let mut fingerprint_total = 0.0;
    for _ in 0..passes {
        let t = Instant::now();
        for f in &fs {
            let _ = analysis::FunctionFingerprint::of(f);
        }
        fingerprint_total += t.elapsed().as_secs_f64() * 1e3;
    }
    let fingerprint_ms = fingerprint_total / passes as f64;

    // Per-idiom solve cost: each kind's compiled constraint run in
    // isolation over every function, with `Solver` construction (IR
    // analyses, candidate buckets) hoisted out of the timed region so
    // the numbers profile the constraint search itself — unseeded, the
    // strategy-independent baseline comparable across PRs (the seeded
    // production pipeline is what `mean_ms` measures).
    let solve_opts = solver::SolveOptions {
        max_solutions: idioms::MAX_SOLUTIONS,
        max_steps: opts.max_steps,
    };
    let mut per_idiom_acc: std::collections::BTreeMap<&'static str, f64> = Default::default();
    for _ in 0..passes {
        for f in &fs {
            let s = solver::Solver::new(f);
            for kind in IdiomKind::ALL {
                let t = Instant::now();
                let _ = s.solve_outcome(idioms::compiled(kind), &solve_opts);
                *per_idiom_acc.entry(kind.constraint_name()).or_default() +=
                    t.elapsed().as_secs_f64() * 1e3;
            }
        }
    }
    let per_idiom: Vec<(&str, String)> = per_idiom_acc
        .iter()
        .map(|(&k, total)| (k, format!("{:.3}", total / passes as f64)))
        .collect();
    let per_idiom_raw = nested_object(&per_idiom);

    let report = stable(
        passes,
        mean_ms,
        min_ms,
        per_idiom_raw,
        p50_ms,
        p95_ms,
        fingerprint_ms,
    );
    report.write(&out_path);
    print!("{}", report.render());
}
