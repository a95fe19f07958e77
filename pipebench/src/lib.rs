//! # pipebench — one benchmark for the whole idiomatch pipeline
//!
//! The benchmark drives the library crates from outside and times each
//! layer through calls to that layer's public functions. It has three
//! workloads (see `README.md` for why each exists):
//!
//! * [`corpus`] — seeded progen modules, one `progen::replay_case` per op;
//! * [`suite`] — the 21 paper benchmarks, one `run_pipeline` plus the
//!   reversal oracle per op;
//! * [`kernels`] — parallel `gemm_f64` / `csrmv_f64` launches on large
//!   operands, one launch per op.
//!
//! Every workload runs as a closed loop with one caller. An untraced run
//! gives the end-to-end metrics; a separate traced run of the same ops
//! splits each op into layer spans ([`trace`]) and gives the per-layer
//! metrics.

pub mod corpus;
pub mod kernels;
pub mod pipeline;
pub mod suite;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Why an op failed one of its checks.
#[derive(Debug, Clone, PartialEq)]
pub struct OpFailure {
    /// Failure class, e.g. `missed_plant` or `validation_diverged`.
    pub class: &'static str,
    /// `true` when the program produced a wrong output: a transformed
    /// program that diverges from the original, malformed IR, an unsound
    /// parallel certificate, a wrong kernel result or a census that
    /// differs from the paper. `false` for a detection miss, where the
    /// output is still correct but an idiom went unreplaced.
    pub wrong_output: bool,
    /// Human-readable detail.
    pub message: String,
}

/// The checked result of one op. The untraced and the traced run of the
/// same op must produce equal results; a difference is trace drift.
#[derive(Debug, Clone, PartialEq)]
pub struct OpResult {
    /// What the op ran on: a module seed, a benchmark or a kernel name.
    pub label: String,
    /// The first check the op failed, if any.
    pub failure: Option<OpFailure>,
    /// Deterministic work counts of the op (instances, solver steps, …).
    pub counts: Vec<(&'static str, u64)>,
}

/// Per-layer sums over the ops of a traced run, divided by the op count
/// when reported.
pub type Layers = BTreeMap<&'static str, f64>;

/// Adds `v` to the per-layer sum `name`.
pub fn add(layers: &mut Layers, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// One workload: a sequence of ops over inputs generated from a seed.
pub trait Workload {
    /// Ops per pass. A run ends only at a pass boundary, so every run of
    /// a workload measures whole passes over the same op mix.
    fn pass_len(&self) -> usize;

    /// Runs op `i` untraced. Returns the wall time of the program's calls
    /// alone (the benchmark's own checks run outside it) and the result.
    fn op(&mut self, i: usize) -> (Duration, OpResult);

    /// Runs op `i` again with each layer call inside a span under an `op`
    /// root span, then any probe calls as spans outside it. Adds the
    /// op's per-layer counts to `layers`.
    fn op_traced(&mut self, i: usize, tr: &mut Tracer, layers: &mut Layers) -> OpResult;

    /// Checks over a whole run, e.g. the suite census against the paper:
    /// `Ok` notes what passed, `Err` is a wrong-output failure of the run.
    fn check_run(&self, _results: &[OpResult]) -> Vec<Result<String, String>> {
        Vec::new()
    }
}

/// The result of an untraced run.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Wall time of each op in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// The checked result of each op.
    pub results: Vec<OpResult>,
}

impl Measured {
    /// Ops completed per second of op time.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        let total_s: f64 = self.latencies_ms.iter().sum::<f64>() / 1e3;
        self.results.len() as f64 / total_s.max(f64::MIN_POSITIVE)
    }
}

/// Ops that failed any check.
#[must_use]
pub fn count_failed(results: &[OpResult]) -> usize {
    results.iter().filter(|r| r.failure.is_some()).count()
}

/// Runs whole passes of untraced ops until at least `seconds` of wall
/// time have passed (and at least one pass). Before each pass, outside
/// every op's timing, calls `between` with the seconds elapsed so far.
pub fn measure(w: &mut dyn Workload, seconds: f64, mut between: impl FnMut(f64)) -> Measured {
    let pass = w.pass_len().max(1);
    let start = Instant::now();
    let mut m = Measured {
        latencies_ms: Vec::new(),
        results: Vec::new(),
    };
    loop {
        let i = m.results.len();
        if i.is_multiple_of(pass) {
            let elapsed = start.elapsed().as_secs_f64();
            if i > 0 && elapsed >= seconds {
                return m;
            }
            between(elapsed);
        }
        let (dt, r) = w.op(i);
        m.latencies_ms.push(dt.as_secs_f64() * 1e3);
        m.results.push(r);
    }
}

/// The median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of `xs` that has at least ten samples beyond
/// it: `(value, percentile)`. With ten or fewer samples it is the
/// maximum, reported as the 100th percentile.
///
/// # Panics
/// On an empty slice.
#[must_use]
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], (n - 10) as f64 / n as f64 * 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics` (each metric a `{value, unit}` object).
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                trace::escape(name),
                json_number(*value),
                trace::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit of `v` (JSON has no NaN or infinity;
/// those read as `null` so a broken measurement cannot pass as a value).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0]), (3.0, 100.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_json_keeps_every_digit() {
        let line = result_json(true, 3, 0, &[("latency_p50_ms", 1.234_567_89, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.23456789, \"unit\": \"ms\"}}}"
        );
    }
}
