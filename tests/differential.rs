//! Differential tests for the prepass detector: detection through the
//! fingerprint prune and the per-function loop-skeleton cache must be
//! byte-identical to a reference detector that runs the paper's plain
//! constraint search — every idiom solved unseeded and unpruned — across
//! the bundled benchmark suite and randomized progen programs, and the
//! budget/truncation semantics must survive with the cache active.

use idiomatch::analysis::{self, FunctionFingerprint};
use idiomatch::idioms::{self, DetectOptions, Detection, IdiomInstance, IdiomKind};
use idiomatch::solver::{SolveOptions, Solver};
use idiomatch::ssair::analysis::AffineMap;
use idiomatch::ssair::Function;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference detector's output: the instances, and the number of raw
/// solutions each kind's search found.
struct Reference {
    instances: Vec<IdiomInstance>,
    solutions: BTreeMap<IdiomKind, usize>,
}

/// The reference detector, from public API only: per kind in priority
/// order, one unseeded search over the whole function; solutions collapse
/// onto one instance per anchor, an instance whose region lies inside an
/// earlier kind's instance is suppressed (before its anchor counts as
/// seen), and each region gets its intra-function certificate.
fn reference(f: &Function) -> Reference {
    let solver = Solver::new(f);
    let an = solver.analyses();
    let affine = AffineMap::new(f, an);
    let opts = SolveOptions {
        max_solutions: idioms::MAX_SOLUTIONS,
        max_steps: DetectOptions::default().max_steps,
    };
    let mut instances: Vec<IdiomInstance> = Vec::new();
    let mut solutions = BTreeMap::new();
    for kind in IdiomKind::ALL {
        let out = solver.solve_outcome(idioms::compiled(kind), &opts);
        assert!(
            out.complete,
            "{}: reference {kind:?} search truncated",
            f.name
        );
        solutions.insert(kind, out.solutions.len());
        let mut seen_anchor = Vec::new();
        for sol in &out.solutions {
            let (Some(&anchor), Some(&iter)) = (
                sol.bindings.get(kind.anchor_var()),
                sol.bindings.get(kind.outer_iterator_var()),
            ) else {
                continue;
            };
            let Some(header) = an.layout.block_of(iter) else {
                continue;
            };
            let blocks = an
                .loops
                .loop_with_header(header)
                .map_or_else(|| vec![header], |l| l.blocks.clone());
            if seen_anchor.contains(&anchor)
                || instances
                    .iter()
                    .any(|prev| prev.kind != kind && blocks.iter().all(|b| prev.blocks.contains(b)))
            {
                continue;
            }
            seen_anchor.push(anchor);
            let certificate = analysis::classify_region(
                f,
                an,
                &affine,
                &blocks,
                iter,
                &analysis::ParamAliasFacts::default(),
            );
            instances.push(IdiomInstance {
                kind,
                function: f.name.clone(),
                bindings: sol.bindings.clone(),
                anchor,
                blocks,
                certificate,
            });
        }
    }
    Reference {
        instances,
        solutions,
    }
}

/// Instances — kinds, anchors, regions, full bindings and certificates —
/// equal the reference's, and the step total is the skeleton prepass
/// plus the per-kind costs.
fn assert_matches_reference(f: &Function, d: &Detection, r: &Reference) {
    assert!(d.complete, "{}: detection truncated", f.name);
    assert_eq!(
        d.instances, r.instances,
        "{}: detection diverged from the reference",
        f.name
    );
    assert_eq!(
        d.steps,
        d.skeleton_steps + d.steps_by_kind.values().sum::<u64>(),
        "{}: total is the skeleton prepass plus the per-kind costs",
        f.name
    );
}

/// The pruned kinds are exactly those the fingerprint cannot admit; each
/// costs zero steps and has no reference solution (requirements are
/// *necessary* conditions, so pruning never loses an instance).
fn assert_pruning_exact(f: &Function, d: &Detection, r: &Reference) {
    let fingerprint = FunctionFingerprint::of(f);
    let mut pruned = 0;
    for kind in IdiomKind::ALL {
        if idioms::requirements(kind).admitted_by(&fingerprint) {
            continue;
        }
        pruned += 1;
        assert_eq!(d.steps_by_kind[&kind], 0, "{}: pruned {kind:?}", f.name);
        assert_eq!(r.solutions[&kind], 0, "{}: pruned {kind:?}", f.name);
    }
    assert_eq!(d.pruned_pairs, pruned, "{}", f.name);
}

/// The documented per-function step ceiling of a detection pass (see
/// `idioms::detect_with`): per kind a seeded attempt plus a fallback,
/// plus the shared skeleton prepass.
fn step_bound(max_steps: u64) -> u64 {
    max_steps * (2 * IdiomKind::ALL.len() as u64 + idioms::skeleton_key_count() as u64)
}

fn progen_module(seed: u64) -> idiomatch::ssair::Module {
    let spec = idiomatch::progen::generate(seed);
    idiomatch::minicc::compile(&spec.render(), "prop").unwrap()
}

#[test]
fn suite_detection_matches_the_reference_detector_byte_identically() {
    for b in idiomatch::benchsuite::all() {
        let m = idiomatch::minicc::compile(b.source, b.name).unwrap();
        for f in &m.functions {
            let d = idioms::detect_with(f, &DetectOptions::default());
            let r = reference(f);
            assert_matches_reference(f, &d, &r);
            assert_pruning_exact(f, &d, &r);
        }
    }
}

#[test]
fn contained_matches_are_suppressed_like_the_reference() {
    // Each loop is both a store-anchored idiom and a scalar reduction;
    // the reduction's region lies inside the earlier kind's, so only the
    // more specific idiom is reported.
    let cases = [
        (
            "double hs(int* idx, double* w, double* h, int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) { h[idx[i]] += w[i]; s += w[i]; }
                return s;
            }",
            IdiomKind::Histogram,
        ),
        (
            "double st(double* a, double* b, int n) {
                double s = 0.0;
                for (int i = 1; i < n - 1; i++) {
                    b[i] = a[i - 1] + a[i] + a[i + 1];
                    s += a[i];
                }
                return s;
            }",
            IdiomKind::Stencil1D,
        ),
    ];
    for (src, kind) in cases {
        let m = idiomatch::minicc::compile(src, "contained").unwrap();
        let f = &m.functions[0];
        let d = idioms::detect_with(f, &DetectOptions::default());
        let r = reference(f);
        assert_eq!(r.solutions[&IdiomKind::Reduction], 1, "{}", f.name);
        assert_matches_reference(f, &d, &r);
        let kinds: Vec<IdiomKind> = d.instances.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, [kind], "{}", f.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn progen_detection_is_identical_with_and_without_the_skeleton_cache(
        seed in 0u64..500
    ) {
        // Every function of a randomized planted-idiom program
        // (near-misses and filler included).
        for f in &progen_module(seed).functions {
            let d = idioms::detect_with(f, &DetectOptions::default());
            assert_matches_reference(f, &d, &reference(f));
        }
    }

    #[test]
    fn progen_detection_is_identical_with_and_without_fingerprint_pruning(
        seed in 0u64..500
    ) {
        for f in &progen_module(seed).functions {
            let d = idioms::detect_with(f, &DetectOptions::default());
            let r = reference(f);
            assert_pruning_exact(f, &d, &r);
            prop_assert_eq!(&d.instances, &r.instances, "{}", f.name);
        }
    }

    #[test]
    fn truncation_stays_bounded_and_recoverable_with_the_cache_active(
        seed in 0u64..200
    ) {
        // A starved budget must bound total work (skeleton prepass
        // included) and surface `complete == false` instead of silently
        // undercounting; restoring the budget must restore the
        // reference output byte for byte.
        let tiny = DetectOptions { max_steps: 50 };
        for f in &progen_module(seed).functions {
            let starved = idioms::detect_with(f, &tiny);
            prop_assert!(
                starved.steps <= step_bound(tiny.max_steps),
                "{}: spent {} steps, bound {}",
                f.name,
                starved.steps,
                step_bound(tiny.max_steps)
            );
            let full = idioms::detect_with(f, &DetectOptions::default());
            assert_matches_reference(f, &full, &reference(f));
            if !starved.complete {
                prop_assert!(
                    starved.instances.len() <= full.instances.len(),
                    "{}: truncated undercount must not exceed the true population",
                    f.name
                );
            }
        }
    }
}
