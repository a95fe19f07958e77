//! `pipebench --workload <corpus|suite|kernels> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it measures the end-to-end metrics of an untraced
//! run; with `--trace 1` it runs the same ops untraced and then traced,
//! and reports per-layer metrics, tracing overhead and trace drift. The
//! last line of standard output is always the JSON result.

use pipebench::corpus::{Corpus, POOL};
use pipebench::kernels::Kernels;
use pipebench::pipeline::library_setup;
use pipebench::suite::Suite;
use pipebench::trace::{Tracer, OP};
use pipebench::{
    count_failed, measure, median, peak_rss_mb, result_json, tail, Layers, OpResult, Workload,
};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Fresh processes that each time the one-time set-up once; `setup_s`
/// is their median, since a process can pay its lazy set-up only once.
/// They are spread over the run so that the median samples the same
/// stretch of machine time as the ops do.
const SETUP_PROBES: usize = 15;

/// Where the traced run writes its Chrome trace.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

const USAGE: &str =
    "usage: pipebench --workload <corpus|suite|kernels> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Cli {
    Run(Args),
    /// Internal: time the workload's one-time set-up in this fresh
    /// process and print the seconds.
    SetupProbe(String),
}

fn parse_args(argv: &[String]) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" | "--setup-probe" => {
                if !["corpus", "suite", "kernels"].contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}\n{USAGE}"));
                }
                if flag == "--setup-probe" {
                    return Ok(Cli::SetupProbe(value.clone()));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Cli::Run(Args {
            workload,
            seed,
            seconds,
            trace,
        })),
        _ => Err(USAGE.to_owned()),
    }
}

fn uses_library(workload: &str) -> bool {
    workload != "kernels"
}

/// The program's one-time set-up before the first op, timed once.
fn setup_once(workload: &str) -> Duration {
    let t = Instant::now();
    if uses_library(workload) {
        library_setup();
    } else {
        let stats = hetero::ExecStats::default();
        std::hint::black_box(pipebench::kernels::setup(&stats));
    }
    t.elapsed()
}

/// Times the one-time set-up in a fresh process of this binary.
fn setup_probe(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-probe", workload])
        .output()
        .map_err(|e| format!("set-up probe did not run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .trim()
        .parse::<f64>()
        .ok()
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up probe failed ({}): {stdout}", out.status))
}

fn build(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "corpus" => Box::new(Corpus::new(seed, POOL)),
        "suite" => Box::new(Suite::new(seed)?),
        _ => {
            let k = Kernels::new(seed);
            println!("kernels: {} pool workers per launch", k.workers());
            Box::new(k)
        }
    })
}

/// Lists every failed op and every run-level check; returns whether any
/// output was wrong.
fn report(results: &[OpResult], checks: &[Result<String, String>]) -> bool {
    let mut wrong = false;
    for (i, r) in results.iter().enumerate() {
        if let Some(f) = &r.failure {
            wrong |= f.wrong_output;
            let kind = if f.wrong_output {
                "wrong output"
            } else {
                "detection"
            };
            println!(
                "FAILED op {i} ({}): {} [{kind}]: {}",
                r.label, f.class, f.message
            );
        }
    }
    for c in checks {
        match c {
            Ok(note) => println!("check: {note}"),
            Err(e) => {
                wrong = true;
                println!("FAILED run check: {e}");
            }
        }
    }
    wrong
}

fn run_untraced(a: &Args) -> Result<String, String> {
    let mut w = build(&a.workload, a.seed)?;
    if uses_library(&a.workload) {
        library_setup();
    }
    let mut probes = Vec::with_capacity(SETUP_PROBES);
    let every = a.seconds / SETUP_PROBES as f64;
    let m = measure(w.as_mut(), a.seconds, |elapsed| {
        if probes.len() < SETUP_PROBES && elapsed >= probes.len() as f64 * every {
            probes.push(setup_probe(&a.workload));
        }
    });
    while probes.len() < SETUP_PROBES {
        probes.push(setup_probe(&a.workload));
    }
    let setup = median(&probes.into_iter().collect::<Result<Vec<f64>, String>>()?);
    let checks = w.check_run(&m.results);
    let wrong = report(&m.results, &checks);
    let n = m.results.len();
    let failed = count_failed(&m.results);
    let (tail_ms, pct) = tail(&m.latencies_ms);
    println!(
        "{}: {n} ops, {failed} failed; latency p50 {:.3} ms, tail p{pct:.2} {tail_ms:.3} ms over {n} samples",
        a.workload,
        median(&m.latencies_ms)
    );
    Ok(result_json(
        !wrong,
        n,
        failed,
        &[
            ("setup_s", setup, "s"),
            ("ops_per_s", m.ops_per_s(), "1/s"),
            ("latency_p50_ms", median(&m.latencies_ms), "ms"),
            ("latency_tail_ms", tail_ms, "ms"),
            ("ok_ratio", (n - failed) as f64 / n as f64, "ratio"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
    ))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_traced(a: &Args) -> Result<String, String> {
    let library_ms = if uses_library(&a.workload) {
        ms(setup_once(&a.workload))
    } else {
        0.0
    };
    let mut w = build(&a.workload, a.seed)?;
    // A third of the time untraced, then the same ops traced: the traced
    // pass takes as long again plus its probes (up to twice as long on
    // `kernels`, whose serial probe is slower than the launch), so the
    // whole run stays near `seconds`.
    let untraced = measure(w.as_mut(), a.seconds / 3.0, |_| ());
    let n = untraced.results.len();
    let mut tr = Tracer::new();
    let mut layers = Layers::new();
    let results: Vec<OpResult> = (0..n)
        .map(|i| w.op_traced(i, &mut tr, &mut layers))
        .collect();
    let checks = w.check_run(&results);
    let wrong = report(&results, &checks);
    let mut drift = 0usize;
    for (i, (u, t)) in untraced.results.iter().zip(&results).enumerate() {
        if u != t {
            drift += 1;
            println!(
                "TRACE DRIFT op {i} ({}): untraced {u:?}, traced {t:?}",
                u.label
            );
        }
    }

    let labels: Vec<String> = results.iter().map(|r| r.label.clone()).collect();
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/trace-{}-seed{}.json", a.workload, a.seed);
    std::fs::write(&path, tr.chrome_json(&labels))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("trace: {path} (open in chrome://tracing or ui.perfetto.dev)");

    let ops = n as f64;
    let self_times = tr.self_time_by_name();
    // (wall, self) time of each op's root span.
    let roots: Vec<(Duration, Duration)> = tr
        .spans()
        .iter()
        .zip(tr.self_times())
        .filter(|(s, _)| s.name == OP)
        .map(|(s, own)| (s.duration(), own))
        .collect();
    let wall_total: Duration = roots.iter().map(|&(wall, _)| wall).sum();
    let t = |span: &str| self_times.get(span).map_or(0.0, |&d| ms(d) / ops);
    let per = |name: &str| layers.get(name).copied().unwrap_or(0.0) / ops;
    let ratio = |num: &str, den: &str| {
        let d = layers.get(den).copied().unwrap_or(0.0);
        if d > 0.0 {
            layers.get(num).copied().unwrap_or(0.0) / d
        } else {
            0.0
        }
    };
    println!("{}: self time per op over {n} traced ops", a.workload);
    for (span, d) in &self_times {
        let share = d.as_secs_f64() / wall_total.as_secs_f64().max(f64::MIN_POSITIVE);
        let place = if *span == OP {
            "(unattributed)"
        } else if tr
            .spans()
            .iter()
            .any(|s| s.name == *span && s.parent.is_none())
        {
            "(probe, outside the op)"
        } else {
            ""
        };
        println!(
            "  {span:<22} {:>10.4} ms  {:>6.2}% of op wall {place}",
            ms(*d) / ops,
            share * 100.0
        );
    }
    let shares: Vec<f64> = roots
        .iter()
        .map(|(wall, own)| own.as_secs_f64() / wall.as_secs_f64().max(f64::MIN_POSITIVE))
        .collect();
    let unattributed_share = t(OP) / (ms(wall_total) / ops).max(f64::MIN_POSITIVE);
    println!(
        "unattributed share per op: median {:.4}, max {:.4}; overall {unattributed_share:.4}",
        median(&shares),
        shares.iter().copied().fold(0.0, f64::max)
    );
    let overhead_ms = ms(wall_total) / ops - untraced.latencies_ms.iter().sum::<f64>() / ops;
    println!("tracing overhead: {overhead_ms:.4} ms per op (traced minus untraced op wall)");

    Ok(result_json(
        !wrong && drift == 0,
        n,
        count_failed(&results),
        &[
            ("setup.library_ms", library_ms, "ms"),
            ("minicc.parse_ms", t("minicc.parse"), "ms"),
            ("minicc.lower_ms", t("minicc.lower"), "ms"),
            ("minicc.opt_ms", t("minicc.opt"), "ms"),
            ("minicc.ir_instrs", per("minicc.ir_instrs"), "count"),
            ("idioms.detect_ms", t("idioms.detect"), "ms"),
            ("solver.steps", per("solver.steps"), "count"),
            (
                "solver.skeleton_steps",
                per("solver.skeleton_steps"),
                "count",
            ),
            (
                "analysis.prune_ratio",
                ratio("analysis.pruned_pairs", "analysis.pairs"),
                "ratio",
            ),
            ("idioms.instances", per("idioms.instances"), "count"),
            ("idioms.truncated", per("idioms.truncated"), "count"),
            ("xform.transform_ms", t("xform.transform"), "ms"),
            (
                "xform.replace_ratio",
                ratio("xform.replaced", "idioms.instances"),
                "ratio",
            ),
            ("ssair.verify_ms", t("ssair.verify"), "ms"),
            ("ssair.verify_failed", per("ssair.verify_failed"), "count"),
            ("interp.compile_ms", t("interp.compile"), "ms"),
            ("interp.exec_ms", t("interp.exec"), "ms"),
            ("interp.vm_steps", per("interp.vm_steps"), "count"),
            ("core.validate_ms", t("core.validate"), "ms"),
            ("core.validate_failed", per("core.validate_failed"), "count"),
            ("core.reversal_ms", t("core.reversal"), "ms"),
            (
                "core.reversal_checked",
                per("core.reversal_checked"),
                "count",
            ),
            ("hetero.kernel_ms", t("hetero.kernel"), "ms"),
            ("hetero.serial_kernel_ms", t("hetero.serial_kernel"), "ms"),
            ("hetero.mflop", per("hetero.mflop"), "MFLOP"),
            ("hetero.bytes_moved", per("hetero.bytes_moved"), "bytes"),
            ("trace.unattributed_ms", t(OP), "ms"),
            ("trace.unattributed_share", unattributed_share, "ratio"),
            ("trace.overhead_ms", overhead_ms, "ms"),
            ("trace.drift", drift as f64, "count"),
        ],
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&argv) {
        Ok(Cli::SetupProbe(workload)) => {
            println!("{:?}", setup_once(&workload).as_secs_f64());
            return ExitCode::SUCCESS;
        }
        Ok(Cli::Run(a)) if a.trace => run_traced(&a),
        Ok(Cli::Run(a)) => run_untraced(&a),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::from(2)
        }
    }
}
