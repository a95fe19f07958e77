//! The `suite` workload: the 21 paper benchmarks, one
//! `idiomatch_core::run_pipeline` over `VALIDATION_SEEDS` plus
//! `check_reversal_oracle` per op, checked against the hand-written
//! Table-1 census in `expected/table1.txt`.

use crate::pipeline::{probe_interp, reversal_traced, run_pipeline_traced};
use crate::trace::{Tracer, OP};
use crate::{Layers, OpFailure, OpResult, Workload};
use benchsuite::{Benchmark, VALIDATION_SEEDS};
use idiomatch_core::{PipelineOutcome, ReversalOracle, ValidationError};
use idioms::{DetectOptions, IdiomKind};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The Table-1 idiom classes, in the reference file's column order.
pub const CLASSES: [&str; 5] = ["reduction", "histogram", "stencil", "matrix", "sparse"];

/// Instances per class, in [`CLASSES`] order.
pub type Census = [u64; 5];

/// The hand-written reference census.
pub const REFERENCE: &str = include_str!("../expected/table1.txt");

fn class_of(kind: IdiomKind) -> usize {
    match kind {
        IdiomKind::Reduction => 0,
        IdiomKind::Histogram => 1,
        IdiomKind::Stencil1D | IdiomKind::Stencil2D => 2,
        IdiomKind::Gemm => 3,
        IdiomKind::Spmv => 4,
    }
}

/// The parsed reference: one census per benchmark and the paper's total.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Census per benchmark name.
    pub rows: BTreeMap<String, Census>,
    /// The `total` row (Table 1).
    pub total: Census,
}

/// Parses the reference file and checks that its rows sum to its total.
///
/// # Errors
/// A malformed line, a missing `total` row or rows that do not sum to it.
pub fn parse_reference(text: &str) -> Result<Reference, String> {
    let mut rows = BTreeMap::new();
    let mut total = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let name = fields.next().expect("non-empty line has a field");
        let counts: Vec<u64> = fields
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad count in {line:?}: {e}"))?;
        let census: Census = counts
            .try_into()
            .map_err(|_| format!("expected {} counts in {line:?}", CLASSES.len()))?;
        if name == "total" {
            total = Some(census);
        } else if rows.insert(name.to_owned(), census).is_some() {
            return Err(format!("duplicate row {name}"));
        }
    }
    let total = total.ok_or("reference has no total row")?;
    let mut sum = [0u64; 5];
    for c in rows.values() {
        for (s, x) in sum.iter_mut().zip(c) {
            *s += x;
        }
    }
    if sum != total {
        return Err(format!(
            "reference rows sum to {sum:?}, total row says {total:?}"
        ));
    }
    Ok(Reference { rows, total })
}

/// The workload's inputs: the benchmarks, the reference and the seed
/// that orders each pass.
pub struct Suite {
    seed: u64,
    programs: Vec<Benchmark>,
    reference: Reference,
}

impl Suite {
    /// Loads the benchmarks and the reference census.
    ///
    /// # Errors
    /// When the reference is malformed or does not list exactly the
    /// suite's benchmarks.
    pub fn new(seed: u64) -> Result<Suite, String> {
        let reference = parse_reference(REFERENCE)?;
        let programs = benchsuite::all();
        let mut names: Vec<&str> = programs.iter().map(|b| b.name).collect();
        names.sort_unstable();
        if !names
            .iter()
            .copied()
            .eq(reference.rows.keys().map(String::as_str))
        {
            return Err("reference rows do not match the suite's benchmarks".into());
        }
        Ok(Suite {
            seed,
            programs,
            reference,
        })
    }

    /// Op `i` runs the benchmark at position `i mod 21` of a pass order
    /// shuffled from the seed and the pass number.
    fn program(&self, i: usize) -> &Benchmark {
        let n = self.programs.len();
        let pass = (i / n) as u64;
        let mut order: Vec<usize> = (0..n).collect();
        progen::Rng::new(benchsuite::mix(self.seed, pass)).shuffle(&mut order);
        &self.programs[order[i % n]]
    }

    fn judge(
        &self,
        b: &Benchmark,
        out: Result<PipelineOutcome, minicc::CompileError>,
        reversal: Option<Result<ReversalOracle, ValidationError>>,
    ) -> OpResult {
        let fail = |class, message| OpResult {
            label: b.name.to_owned(),
            failure: Some(OpFailure {
                class,
                wrong_output: true,
                message,
            }),
            counts: Vec::new(),
        };
        let out = match out {
            Ok(out) => out,
            Err(e) => return fail("compile_error", e.to_string()),
        };
        if let Some(f) = out.incomplete_functions.first() {
            return fail("truncated", format!("detection truncated in {f}"));
        }
        if let Some(e) = out.verify_errors.first() {
            return fail("invalid_ir", e.clone());
        }
        let mut census: Census = [0; 5];
        for inst in &out.instances {
            census[class_of(inst.kind)] += 1;
        }
        let expected = self.reference.rows[b.name];
        if census != expected {
            return fail(
                "census_mismatch",
                format!("detected {census:?}, paper {expected:?} ({CLASSES:?})"),
            );
        }
        let replaced = out.xform.replaced();
        if replaced != out.instances.len() {
            return fail(
                "not_replaced",
                format!("{replaced} of {} instances replaced", out.instances.len()),
            );
        }
        let validation = match out.validation {
            Ok(v) => v,
            Err(e) => return fail("validation_diverged", e.to_string()),
        };
        let reversal = match reversal.expect("the oracle runs whenever the program compiles") {
            Ok(r) => r,
            Err(e) => return fail("reversal_diverged", e.to_string()),
        };
        let mut counts: Vec<(&'static str, u64)> = CLASSES.iter().copied().zip(census).collect();
        counts.extend([
            ("replaced", replaced as u64),
            ("solve_steps", out.solve_steps),
            ("reversal_checked", reversal.checked as u64),
            ("validated_elements", validation.elements as u64),
        ]);
        OpResult {
            label: b.name.to_owned(),
            failure: None,
            counts,
        }
    }
}

fn count(r: &OpResult, name: &str) -> u64 {
    r.counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}

impl Workload for Suite {
    fn pass_len(&self) -> usize {
        self.programs.len()
    }

    fn op(&mut self, i: usize) -> (Duration, OpResult) {
        let b = self.program(i);
        let t = Instant::now();
        let out = idiomatch_core::run_pipeline(
            b.source,
            b.name,
            b.entry,
            b.setup,
            &VALIDATION_SEEDS,
            &DetectOptions::default(),
        );
        let reversal = out.as_ref().ok().map(|o| {
            idiomatch_core::check_reversal_oracle(
                &o.module,
                &o.instances,
                b.entry,
                b.setup,
                &VALIDATION_SEEDS,
            )
        });
        let dt = t.elapsed();
        (dt, self.judge(b, out, reversal))
    }

    fn op_traced(&mut self, i: usize, tr: &mut Tracer, layers: &mut Layers) -> OpResult {
        let b = self.program(i);
        tr.set_op(i);
        tr.begin(OP);
        let out = run_pipeline_traced(
            tr,
            layers,
            b.source,
            b.name,
            b.entry,
            b.setup,
            &VALIDATION_SEEDS,
        );
        let reversal = out
            .as_ref()
            .ok()
            .map(|o| reversal_traced(tr, layers, o, b.entry, b.setup, &VALIDATION_SEEDS));
        tr.end();
        if let Ok(o) = &out {
            probe_interp(tr, layers, o, b.entry, b.setup, &VALIDATION_SEEDS);
        }
        self.judge(b, out, reversal)
    }

    /// The Table-1 total over the run's first pass (each benchmark once):
    /// 45/5/6/1/3 with every instance replaced.
    fn check_run(&self, results: &[OpResult]) -> Vec<Result<String, String>> {
        let pass = &results[..self.programs.len().min(results.len())];
        if pass.iter().any(|r| r.failure.is_some()) {
            return Vec::new(); // each failed op is already a wrong output
        }
        let mut census: Census = [0; 5];
        for r in pass {
            for (c, name) in census.iter_mut().zip(CLASSES) {
                *c += count(r, name);
            }
        }
        let instances: u64 = census.iter().sum();
        let replaced: u64 = pass.iter().map(|r| count(r, "replaced")).sum();
        let line = format!(
            "suite census {} ({}), {replaced} of {instances} replaced; paper {}",
            census.map(|c| c.to_string()).join("/"),
            CLASSES.join("/"),
            self.reference.total.map(|c| c.to_string()).join("/"),
        );
        if census == self.reference.total && replaced == instances {
            vec![Ok(line)]
        } else {
            vec![Err(line)]
        }
    }
}
