//! Crash/timeout containment: a panicking module and a hanging module in
//! the middle of a shard must surface as `crash` / `timeout` records —
//! and must not take down, stall, or skip the healthy modules that share
//! the shard. Uses the documented fixture directives (`// corpus: panic`
//! and `// corpus: hang`) on real `.c` files in a directory corpus.

use idiomatch::corpus::{run, RunConfig, Source, Taxonomy, HANG_DIRECTIVE, PANIC_DIRECTIVE};

/// A real planted idiom so the healthy modules have something to detect.
const OK_SOURCE: &str = "\
// progen: case isolation-fixture
// progen:expect f0 Reduction
double f0(double* d0, double* d1, int n) {
    double s = 0.0;
    for (int i0 = 0; (i0 < n); i0 = (i0 + 1)) {
        s += (d0[i0] * d1[i0]);
    }
    return s;
}
";

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("idiomatch_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn crash_and_timeout_are_contained_within_a_shard() {
    let corpus_dir = scratch("corpus_iso_src");
    std::fs::write(corpus_dir.join("a_ok.c"), OK_SOURCE).unwrap();
    std::fs::write(
        corpus_dir.join("b_crash.c"),
        format!("{PANIC_DIRECTIVE}\n{OK_SOURCE}"),
    )
    .unwrap();
    std::fs::write(
        corpus_dir.join("c_hang.c"),
        format!("{HANG_DIRECTIVE}\n{OK_SOURCE}"),
    )
    .unwrap();
    std::fs::write(corpus_dir.join("d_ok.c"), OK_SOURCE).unwrap();

    let state = scratch("corpus_iso_state");
    let mut cfg = RunConfig::new(Source::dir(&corpus_dir).expect("dir source"), &state);
    // One shard holds all four modules: containment must be per-module,
    // not per-shard.
    cfg.shard_size = 8;
    cfg.timeout = std::time::Duration::from_millis(250);
    let summary = run(&cfg).expect("run survives hostile modules");

    assert!(summary.complete);
    assert_eq!(summary.records.len(), 4);
    let by_id = |id: &str| {
        summary
            .records
            .iter()
            .find(|r| r.module == id)
            .unwrap_or_else(|| panic!("no record for {id}"))
    };

    let crash = by_id("b_crash.c");
    assert_eq!(crash.outcome, Taxonomy::Crash);
    assert!(
        crash.detail.contains("injected panic"),
        "crash detail carries the panic message, got {:?}",
        crash.detail
    );

    let hang = by_id("c_hang.c");
    assert_eq!(hang.outcome, Taxonomy::Timeout);
    assert!(hang.detail.contains("budget"), "got {:?}", hang.detail);

    // The healthy neighbours completed normally, detection intact.
    for id in ["a_ok.c", "d_ok.c"] {
        let r = by_id(id);
        assert_eq!(r.outcome, Taxonomy::Ok, "{id}: {}", r.detail);
        assert_eq!(r.planted, 1);
        assert_eq!(r.planted_hit, 1, "{id} lost its planted reduction");
        assert_eq!(r.false_positives, 0);
    }

    // The taxonomy census reports the mixed outcomes faithfully.
    let tax = summary.taxonomy();
    assert_eq!(tax[&Taxonomy::Ok], 2);
    assert_eq!(tax[&Taxonomy::Crash], 1);
    assert_eq!(tax[&Taxonomy::Timeout], 1);

    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn deeply_nested_files_are_parse_error_records() {
    // Each file nests 10,000 deep; unbounded, the recursive parser and
    // lowering overflow the sandbox thread's stack, and a stack overflow
    // aborts the whole process (no `catch_unwind` can contain it). The
    // frontend's nesting bound turns each into an ordinary parse error.
    let n = 10_000;
    let deep = [
        (
            "b_parens.c",
            format!(
                "int f(int x) {{\n  return {}1{};\n}}\n",
                "(".repeat(n),
                ")".repeat(n)
            ),
        ),
        (
            "c_blocks.c",
            format!("void f() {{\n  {}{}\n}}\n", "{".repeat(n), "}".repeat(n)),
        ),
        (
            "d_ifs.c",
            format!("void f(int x) {{\n  {} x = 1;\n}}\n", "if (x) ".repeat(n)),
        ),
        (
            "e_chain.c",
            format!("int f(int x) {{\n  return x{};\n}}\n", " + x".repeat(n - 1)),
        ),
    ];
    let corpus_dir = scratch("corpus_deep_src");
    std::fs::write(corpus_dir.join("a_ok.c"), OK_SOURCE).unwrap();
    for (name, text) in &deep {
        std::fs::write(corpus_dir.join(name), text).unwrap();
    }
    let state = scratch("corpus_deep_state");
    let summary = run(&RunConfig::new(
        Source::dir(&corpus_dir).expect("dir source"),
        &state,
    ))
    .expect("run survives deeply nested modules");

    assert!(summary.complete);
    assert_eq!(summary.records.len(), 1 + deep.len());
    for (name, _) in &deep {
        let r = summary
            .records
            .iter()
            .find(|r| r.module == *name)
            .unwrap_or_else(|| panic!("no record for {name}"));
        assert_eq!(r.outcome, Taxonomy::ParseError, "{name}: {}", r.detail);
        let expected = format!(
            "line 2: nesting deeper than {} levels",
            idiomatch::minicc::parse::MAX_NESTING
        );
        assert_eq!(r.detail, expected, "{name}");
    }
    let tax = summary.taxonomy();
    assert_eq!(tax[&Taxonomy::Ok], 1, "the healthy neighbour still runs");
    assert_eq!(tax[&Taxonomy::ParseError], deep.len() as u64);

    let _ = std::fs::remove_dir_all(&corpus_dir);
    let _ = std::fs::remove_dir_all(&state);
}
