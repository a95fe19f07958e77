//! Self-tests of the benchmark: its output check is live, its traced run
//! is repeatable, and tracing does not change what an op computes.

use idioms::IdiomKind;
use pipebench::corpus::{self, Corpus};
use pipebench::kernels::Kernels;
use pipebench::suite::{self, Suite};
use pipebench::trace::Tracer;
use pipebench::{Layers, OpResult, Workload};
use progen::Canary;

/// Runs ops `0..ops` traced: the per-layer sums and the op results.
fn traced(w: &mut dyn Workload, ops: usize) -> (Layers, Vec<OpResult>) {
    let mut tr = Tracer::new();
    let mut layers = Layers::new();
    let results = (0..ops)
        .map(|i| w.op_traced(i, &mut tr, &mut layers))
        .collect();
    (layers, results)
}

/// Runs op `i` untraced, then traced; the two results must be equal.
fn assert_no_drift(w: &mut dyn Workload, i: usize) -> OpResult {
    let (_, untraced) = w.op(i);
    let traced = w.op_traced(i, &mut Tracer::new(), &mut Layers::new());
    assert_eq!(untraced, traced, "trace drift on op {i}");
    untraced
}

#[test]
fn canary_makes_the_output_check_fail() {
    let spec = (0..200)
        .map(progen::generate)
        .find(|s| {
            s.expected().iter().any(|(_, k)| *k == IdiomKind::Reduction)
                && progen::check(s, Canary::None).is_ok()
        })
        .expect("a passing spec that plants a reduction");
    let caught = progen::check(&spec, Canary::BreakReductionInit)
        .expect_err("a broken reduction init must fail the check");
    let f = corpus::failure(&caught);
    assert_eq!(f.class, "validation_diverged", "{}", f.message);
    assert!(f.wrong_output, "a divergent program is a wrong output");
}

#[test]
fn same_seed_traced_runs_give_identical_counters() {
    let counters = [
        "solver.steps",
        "interp.vm_steps",
        "idioms.instances",
        "xform.replaced",
    ];
    let runs: Vec<(Layers, Vec<OpResult>)> =
        (0..2).map(|_| traced(&mut Corpus::new(7, 8), 8)).collect();
    for name in counters {
        assert!(runs[0].0[name] > 0.0, "corpus {name} is counted");
        assert_eq!(runs[0].0[name], runs[1].0[name], "corpus {name}");
    }
    assert_eq!(runs[0].1, runs[1].1);

    let runs: Vec<(Layers, Vec<OpResult>)> = (0..2)
        .map(|_| traced(&mut Suite::new(7).expect("suite loads"), 3))
        .collect();
    for name in counters {
        assert_eq!(runs[0].0[name], runs[1].0[name], "suite {name}");
    }
    assert_eq!(runs[0].1, runs[1].1);
}

#[test]
fn traced_ops_match_untraced_ops() {
    // Module 100710 is the known missed Stencil2D plant: a 9-tap stencil
    // against an idiom that collects at most 8 reads.
    let mut w = Corpus::from_module_seeds([100_710, 100_000, 100_001]);
    let known = assert_no_drift(&mut w, 0);
    let f = known.failure.expect("the known defect shows");
    assert_eq!(f.class, "missed_plant", "{}", f.message);
    assert!(!f.wrong_output);
    for i in 1..3 {
        assert_no_drift(&mut w, i);
    }

    let mut k = Kernels::new(3);
    for i in 0..3 {
        let r = assert_no_drift(&mut k, i);
        assert_eq!(r.failure, None, "{}", r.label);
    }
    assert!(k.check_run(&[]).iter().all(Result::is_ok));
}

#[test]
fn reference_census_is_table_1() {
    let r = suite::parse_reference(suite::REFERENCE).expect("the reference parses");
    assert_eq!(r.total, [45, 5, 6, 1, 3]);
    assert_eq!(r.rows.len(), 21);
    let broken = suite::REFERENCE.replace("sgemm     0 0 0 1 0", "sgemm     0 0 0 2 0");
    assert!(
        suite::parse_reference(&broken).is_err(),
        "rows must sum to the total"
    );
}
