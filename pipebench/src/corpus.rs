//! The `corpus` workload: seeded progen modules, one
//! `progen::replay_case` per op, checked against the generator's
//! `expect` / `forbid` / `adversary` directives.

use crate::pipeline::{probe_interp, reversal_traced, run_pipeline_traced};
use crate::trace::{Tracer, OP};
use crate::{Layers, OpFailure, OpResult, Workload};
use idiomatch_core::PipelineOutcome;
use progen::{Checked, CorpusCase, Failure, Spec, FUZZ_SEEDS};
use std::time::{Duration, Instant};

/// Modules rendered in set-up. A run takes them in order and wraps
/// around only if it outlasts the pool.
pub const POOL: usize = 8192;

/// The progen seed of module `i` of the pool for benchmark seed `seed`:
/// `seed · 100000 + i`, so `--seed 1` starts at the progen seed 100000
/// that `fuzz 1000 100000` reports recall on.
#[must_use]
pub fn module_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(100_000).wrapping_add(i as u64)
}

/// The workload's inputs: rendered corpus cases with their module seeds.
pub struct Corpus {
    cases: Vec<(u64, CorpusCase)>,
}

impl Corpus {
    /// Renders the `pool` modules of benchmark seed `seed`.
    #[must_use]
    pub fn new(seed: u64, pool: usize) -> Corpus {
        Corpus::from_module_seeds((0..pool).map(|i| module_seed(seed, i)))
    }

    /// Renders one module per progen seed (`progen::to_corpus` →
    /// `parse_case`).
    ///
    /// # Panics
    /// If the generator renders a case its own parser rejects.
    #[must_use]
    pub fn from_module_seeds(seeds: impl IntoIterator<Item = u64>) -> Corpus {
        let cases = seeds
            .into_iter()
            .map(|s| {
                let text = progen::to_corpus(&progen::generate(s), &format!("seed-{s}"), "");
                let case = progen::parse_case(&text).expect("rendered corpus cases parse");
                (s, case)
            })
            .collect();
        Corpus { cases }
    }

    fn case(&self, i: usize) -> &(u64, CorpusCase) {
        &self.cases[i % self.cases.len()]
    }
}

/// Maps a progen failure to its class. Divergent programs, malformed IR
/// and unsound certificates are wrong outputs; a missed or unreplaced
/// plant, a near-miss reported as an idiom, truncation and a generator
/// compile error are detection failures whose output is still correct.
#[must_use]
pub fn failure(f: &Failure) -> OpFailure {
    let (class, wrong_output) = match f {
        Failure::Compile(_) => ("compile_error", false),
        Failure::Truncated { .. } => ("truncated", false),
        Failure::InvalidIr { .. } => ("invalid_ir", true),
        Failure::AdversaryCertified { .. } => ("adversary_certified", true),
        Failure::MissedPlant { .. } => ("missed_plant", false),
        Failure::NotReplaced { .. } => ("not_replaced", false),
        Failure::FalsePositive { .. } => ("false_positive", false),
        Failure::ReversalDiverged(_) => ("reversal_diverged", true),
        Failure::Validation(_) => ("validation_diverged", true),
    };
    OpFailure {
        class,
        wrong_output,
        message: f.to_string(),
    }
}

/// The work counts compared between the untraced and the traced run.
#[derive(Debug, Clone, Copy)]
struct Counts {
    detected: usize,
    replaced: usize,
    solve_steps: u64,
    reversal_checked: usize,
    elements: usize,
}

impl From<&Checked> for Counts {
    fn from(c: &Checked) -> Counts {
        Counts {
            detected: c.detected,
            replaced: c.replaced,
            solve_steps: c.solve_steps,
            reversal_checked: c.reversal_checked,
            elements: c.validation.elements,
        }
    }
}

fn result(seed: u64, r: Result<Counts, Failure>) -> OpResult {
    match r {
        Ok(c) => OpResult {
            label: format!("module seed {seed}"),
            failure: None,
            counts: vec![
                ("detected", c.detected as u64),
                ("replaced", c.replaced as u64),
                ("solve_steps", c.solve_steps),
                ("reversal_checked", c.reversal_checked as u64),
                ("validated_elements", c.elements as u64),
            ],
        },
        Err(f) => OpResult {
            label: format!("module seed {seed}"),
            failure: Some(failure(&f)),
            counts: Vec::new(),
        },
    }
}

impl Workload for Corpus {
    fn pass_len(&self) -> usize {
        1
    }

    fn op(&mut self, i: usize) -> (Duration, OpResult) {
        let (seed, case) = self.case(i);
        let t = Instant::now();
        let r = progen::replay_case(case);
        let dt = t.elapsed();
        (
            dt,
            result(*seed, r.as_ref().map(Counts::from).map_err(Clone::clone)),
        )
    }

    fn op_traced(&mut self, i: usize, tr: &mut Tracer, layers: &mut Layers) -> OpResult {
        let (seed, case) = self.case(i);
        tr.set_op(i);
        tr.begin(OP);
        let (r, out) = replay_traced(case, tr, layers);
        tr.end();
        if let Some(out) = out {
            probe_interp(tr, layers, &out, Spec::ENTRY, progen::setup, &FUZZ_SEEDS);
        }
        result(*seed, r)
    }
}

/// `progen::replay_case` with its pipeline split into layer spans: the
/// same calls and directive checks in the same order, so its result
/// equals the untraced op's. Returns the pipeline outcome for the probes.
fn replay_traced(
    case: &CorpusCase,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> (Result<Counts, Failure>, Option<PipelineOutcome>) {
    let name = format!("corpus_{}", case.name);
    let out = match run_pipeline_traced(
        tr,
        layers,
        &case.source,
        &name,
        Spec::ENTRY,
        progen::setup,
        &FUZZ_SEEDS,
    ) {
        Ok(out) => out,
        Err(e) => return (Err(Failure::Compile(e.to_string())), None),
    };
    let r = check_directives(case, &out).and_then(|()| {
        let reversal = reversal_traced(tr, layers, &out, Spec::ENTRY, progen::setup, &FUZZ_SEEDS)
            .map_err(Failure::ReversalDiverged)?;
        let validation = out.validation.clone().map_err(Failure::Validation)?;
        Ok(Counts {
            detected: out.xform.outcomes.len(),
            replaced: out.xform.replaced(),
            solve_steps: out.solve_steps,
            reversal_checked: reversal.checked,
            elements: validation.elements,
        })
    });
    (r, Some(out))
}

/// The generator's guarantees, checked in `progen::replay_case`'s order:
/// no truncation, well-formed IR, every plant detected, no near-miss
/// reported, every plant replaced, no adversary certified independent.
fn check_directives(case: &CorpusCase, out: &PipelineOutcome) -> Result<(), Failure> {
    if let Some(function) = out.incomplete_functions.first() {
        return Err(Failure::Truncated {
            function: function.clone(),
        });
    }
    if let Some(error) = out.verify_errors.first() {
        return Err(Failure::InvalidIr {
            error: error.clone(),
        });
    }
    let found = |function: &str, kind| {
        out.instances
            .iter()
            .any(|i| i.function == function && i.kind == kind)
    };
    for (function, kind) in &case.expects {
        if !found(function, *kind) {
            return Err(Failure::MissedPlant {
                function: function.clone(),
                kind: *kind,
            });
        }
    }
    for (function, kind) in &case.forbids {
        if found(function, *kind) {
            return Err(Failure::FalsePositive {
                function: function.clone(),
                kind: *kind,
            });
        }
    }
    for (function, kind) in &case.expects {
        let outcomes: Vec<&xform::InstanceOutcome> = out
            .xform
            .outcomes
            .iter()
            .filter(|o| &o.instance.function == function && o.instance.kind == *kind)
            .collect();
        if !outcomes.iter().any(|o| o.outcome.is_replaced()) {
            let why = outcomes
                .first()
                .map_or("instance vanished".to_owned(), |o| {
                    format!("{:?}", o.outcome)
                });
            return Err(Failure::NotReplaced {
                function: function.clone(),
                kind: *kind,
                why,
            });
        }
    }
    for function in &case.adversaries {
        for o in &out.xform.outcomes {
            if let xform::Outcome::Replaced(rep) = &o.outcome {
                if &o.instance.function == function
                    && rep.certificate.safety == idioms::ParallelSafety::IndependentIterations
                {
                    return Err(Failure::AdversaryCertified {
                        function: function.clone(),
                        certificate: rep.certificate.reason.clone(),
                    });
                }
            }
        }
    }
    Ok(())
}
