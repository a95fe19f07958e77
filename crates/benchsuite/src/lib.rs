//! # benchsuite — the 21 NAS / Parboil benchmark reconstructions (§7)
//!
//! The paper evaluates on the SNU NPB C translation of NAS (BT CG DC EP FT
//! IS LU MG SP UA) and all Parboil benchmarks (bfs cutcp histo lbm mri-g
//! mri-q sad sgemm spmv stencil tpacf). The original suites cannot be
//! shipped here, so each program is a kernel-level reconstruction in the
//! minicc C subset that preserves what the evaluation measures:
//!
//! * the idiom population of Figure 16 (which idioms appear where: 45
//!   scalar reductions, 5 histograms, 6 stencils, 1 dense matrix op,
//!   3 sparse ops — 60 in total), including the *reason* each baseline
//!   detector succeeds or fails on it (integer vs FP reductions for
//!   Polly's reassociation limit, call/select kernels for ICC, indirect
//!   accesses for both);
//! * the bimodal runtime-coverage distribution of Figure 17 (the ten
//!   covered benchmarks are dominated by their idioms; the rest have
//!   dominant non-idiomatic kernels — recurrences, data-dependent
//!   control — that no replacement may touch);
//! * realistic workload shapes for the performance model (`scale` lifts
//!   the interpreter-sized arrays to the paper's input classes,
//!   `invocations` models the outer iteration of CG/lbm/spmv/stencil that
//!   makes lazy copying essential in Figure 18).

use interp::{Memory, Value};

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// NAS Parallel Benchmarks (SNU NPB sequential C).
    Nas,
    /// Parboil.
    Parboil,
}

/// One reconstructed benchmark.
pub struct Benchmark {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// Originating suite.
    pub suite: Suite,
    /// minicc source of the whole program.
    pub source: &'static str,
    /// Entry function executed for profiling/coverage.
    pub entry: &'static str,
    /// Allocates inputs for one *input seed* and returns the entry
    /// arguments. [`CANONICAL_SEED`] reproduces the fixed workload the
    /// profiling/coverage numbers are reported on; any other seed
    /// deterministically generates a fresh input vector of the same shape
    /// (array sizes, sparsity structure and index ranges are
    /// seed-independent — only the data varies), which is what lets the
    /// differential validator exercise each benchmark under several
    /// inputs instead of one fixed workload.
    pub setup: fn(&mut Memory, u64) -> Vec<Value>,
    /// Kernel launches over a full program run (outer iterations).
    pub invocations: f64,
    /// Work multiplier from interpreter-sized inputs to the paper's
    /// input class.
    pub scale: f64,
    /// Whether the paper's Figure 17/18 treats this benchmark as
    /// idiom-dominated ("covered").
    pub covered: bool,
    /// Whether the paper applied the lazy-copying runtime optimization
    /// (the red bars of Figure 18: CG, lbm, spmv, stencil).
    pub lazy: bool,
}

const N: usize = 512; // canonical 1-D array length
const GRID: usize = 24; // canonical 2-D grid edge

/// The input seed of the canonical (paper-shaped) workload.
pub const CANONICAL_SEED: u64 = 0;

/// Default seed set for differential validation: the canonical workload
/// plus two randomized input vectors.
pub const VALIDATION_SEEDS: [u64; 3] = [CANONICAL_SEED, 0x5EED_0001, 0x5EED_0002];

/// Mixes the benchmark-level input `seed` into a per-array `salt`
/// (splitmix-style odd-constant multiply) so every array gets an
/// independent stream and seed 0 reproduces the historical fixed data.
///
/// Shared with `progen`: generated programs seed their inputs through the
/// same helpers the hand-reconstructed suite uses, so multi-seed
/// differential validation behaves identically on both program sources.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    salt.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Allocates an `n`-element `double` array of seeded values in
/// `[-0.5, 0.5)` and returns its base address.
pub fn fill_f64(mem: &mut Memory, n: usize, seed: u64) -> u64 {
    let data: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((x >> 33) as f64) / (u32::MAX as f64) - 0.5
        })
        .collect();
    mem.alloc_f64_slice(&data)
}

/// Allocates an `n`-element `int` array of seeded values in
/// `[0, modulo)` (histogram keys, index vectors) and returns its base.
pub fn fill_i32_mod(mem: &mut Memory, n: usize, modulo: i32, seed: u64) -> u64 {
    let data: Vec<i32> = (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(2862933555777941757)
                .wrapping_add(seed);
            ((x >> 33) as i32).rem_euclid(modulo)
        })
        .collect();
    mem.alloc_i32_slice(&data)
}

/// Allocates an `n`-element zeroed `double` array (output buffers).
pub fn zeros_f64(mem: &mut Memory, n: usize) -> u64 {
    mem.alloc_f64_slice(&vec![0.0; n])
}

/// Allocates an `n`-element zeroed `int` array (bins, output buffers).
pub fn zeros_i32(mem: &mut Memory, n: usize) -> u64 {
    mem.alloc_i32_slice(&vec![0; n])
}

/// A CSR matrix with `rows` rows and about `per_row` entries per row,
/// returned as `(values, rowstr, colidx)` base addresses.
/// The sparsity structure is seed-independent; the values are seeded.
pub fn csr(mem: &mut Memory, rows: usize, per_row: usize, seed: u64) -> (u64, u64, u64) {
    let mut rowstr = Vec::with_capacity(rows + 1);
    let mut colidx = Vec::new();
    rowstr.push(0i32);
    for r in 0..rows {
        let k = 1 + (r * 7 + 3) % (2 * per_row);
        for j in 0..k {
            colidx.push(((r * 13 + j * 29) % rows) as i32);
        }
        rowstr.push(colidx.len() as i32);
    }
    let nnz = colidx.len();
    let vals = fill_f64(mem, nnz, mix(seed, 77));
    let rs = mem.alloc_i32_slice(&rowstr);
    let ci = mem.alloc_i32_slice(&colidx);
    (vals, rs, ci)
}

mod sources;
pub use sources::all;

#[cfg(test)]
mod tests {
    use super::*;
    use idioms::IdiomKind;
    use std::collections::BTreeMap;

    #[test]
    fn all_benchmarks_compile_and_run() {
        for b in all() {
            let module =
                minicc::compile(b.source, b.name).unwrap_or_else(|e| panic!("{}: {e}", b.name));
            ssair::verify::verify_module(&module)
                .unwrap_or_else(|e| panic!("{}: {:?}", b.name, e[0]));
            let mut vm = interp::Machine::new(&module);
            let args = (b.setup)(&mut vm.mem, CANONICAL_SEED);
            vm.run(b.entry, &args)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }

    #[test]
    fn seeded_setups_vary_data_but_not_shape() {
        for b in all() {
            let mut m0 = interp::Memory::new();
            let mut m1 = interp::Memory::new();
            let a0 = (b.setup)(&mut m0, CANONICAL_SEED);
            let a1 = (b.setup)(&mut m1, 0x5EED_0001);
            // Same argument shapes and allocation layout ...
            assert_eq!(a0.len(), a1.len(), "{}", b.name);
            assert_eq!(m0.size(), m1.size(), "{}", b.name);
            assert_eq!(m0.allocations(), m1.allocations(), "{}", b.name);
            // ... but at least one array holds different data.
            let differs = m0.allocations().iter().any(|al| {
                (0..al.size_bytes() as u64).any(|off| {
                    m0.load_i8(al.base + off).unwrap() != m1.load_i8(al.base + off).unwrap()
                })
            });
            assert!(differs, "{}: seeds must change the input data", b.name);
        }
    }

    #[test]
    fn idiom_population_matches_the_paper_table_1() {
        // Paper Table 1, IDL row: 45 scalar reductions, 5 histogram
        // reductions, 6 stencils, 1 matrix op, 3 sparse matrix ops.
        let mut by_class: BTreeMap<&str, usize> = BTreeMap::new();
        for b in all() {
            let module = minicc::compile(b.source, b.name).unwrap();
            for inst in idioms::detect_module(&module) {
                *by_class.entry(inst.kind.class_label()).or_default() += 1;
            }
        }
        assert_eq!(
            by_class.get("Scalar Reduction").copied().unwrap_or(0),
            45,
            "{by_class:?}"
        );
        assert_eq!(
            by_class.get("Histogram Reduction").copied().unwrap_or(0),
            5,
            "{by_class:?}"
        );
        assert_eq!(
            by_class.get("Stencil").copied().unwrap_or(0),
            6,
            "{by_class:?}"
        );
        assert_eq!(
            by_class.get("Matrix Op.").copied().unwrap_or(0),
            1,
            "{by_class:?}"
        );
        assert_eq!(
            by_class.get("Sparse Matrix Op.").copied().unwrap_or(0),
            3,
            "{by_class:?}"
        );
    }

    #[test]
    fn baseline_population_matches_the_paper_table_1() {
        // Paper Table 1: Polly 3 reductions + 5 stencils; ICC 28 reductions.
        let (mut polly_red, mut polly_st, mut icc_red) = (0, 0, 0);
        for b in all() {
            let module = minicc::compile(b.source, b.name).unwrap();
            for f in &module.functions {
                let p = baselines::polly_detect(f);
                polly_red += p.reductions();
                polly_st += p.stencils();
                icc_red += baselines::icc_detect(f).reductions();
            }
        }
        assert_eq!(polly_red, 3, "Polly reductions");
        assert_eq!(polly_st, 5, "Polly stencils");
        assert_eq!(icc_red, 28, "ICC reductions");
    }

    #[test]
    fn covered_benchmarks_have_dominant_idiom_coverage() {
        for b in all() {
            let module = minicc::compile(b.source, b.name).unwrap();
            let mut vm = interp::Machine::new(&module);
            let args = (b.setup)(&mut vm.mem, CANONICAL_SEED);
            vm.run(b.entry, &args).unwrap();
            // Coverage: cost inside detected idiom regions / total cost.
            let mut covered_cost = 0.0;
            let mut total = 0.0;
            for f in &module.functions {
                total += vm.profile.total_cost(f);
                for inst in idioms::detect(f) {
                    covered_cost += vm.profile.region_cost(f, |v| {
                        inst.blocks.iter().any(|&blk| {
                            module
                                .function(&f.name)
                                .unwrap()
                                .block(blk)
                                .instrs
                                .contains(&v)
                        })
                    });
                }
            }
            let cov = covered_cost / total.max(1.0);
            if b.covered && b.name != "EP" {
                assert!(cov > 0.5, "{}: coverage {cov:.2} should dominate", b.name);
            }
            if b.name == "EP" {
                assert!(
                    cov > 0.25 && cov < 0.85,
                    "{}: coverage {cov:.2} ~ 50%",
                    b.name
                );
            }
            if !b.covered {
                assert!(cov < 0.5, "{}: coverage {cov:.2} should be minor", b.name);
            }
        }
    }

    #[test]
    fn parallel_driver_matches_serial_detection_over_the_whole_suite() {
        // The parallel module driver must be byte-identical to the serial
        // per-function loop on every benchmark of the suite: same
        // instances, same order, same bindings.
        for b in all() {
            let module = minicc::compile(b.source, b.name).unwrap();
            let serial: Vec<idioms::IdiomInstance> =
                module.functions.iter().flat_map(idioms::detect).collect();
            let parallel = idioms::detect_module(&module);
            assert_eq!(serial, parallel, "{}: parallel != serial", b.name);
        }
    }

    #[test]
    fn suite_detection_is_complete_under_default_budgets() {
        // The default budgets must be generous enough that no benchmark's
        // detection is silently truncated (the Table-1 counts are real).
        for b in all() {
            let module = minicc::compile(b.source, b.name).unwrap();
            for (f, d) in module
                .functions
                .iter()
                .map(|f| (f, idioms::detect_with(f, &idioms::DetectOptions::default())))
            {
                assert!(d.complete, "{}::{} detection truncated", b.name, f.name);
            }
        }
    }

    #[test]
    fn truncated_suite_detection_surfaces_incompleteness_and_recovers() {
        // Module-scale budget exhaustion: with a tiny step budget the
        // solver must cut off cleanly — `complete == false` on at least
        // one function, never a panic — and an undercount must never
        // masquerade as the true population. A full-budget rerun of the
        // same modules must then restore the paper's 60 instances.
        let modules: Vec<ssair::Module> = all()
            .iter()
            .map(|b| minicc::compile(b.source, b.name).unwrap())
            .collect();
        let tiny = idioms::DetectOptions { max_steps: 50 };
        let mut truncated = 0usize;
        let mut tiny_instances = 0usize;
        for m in &modules {
            for f in &m.functions {
                let d = idioms::detect_with(f, &tiny);
                if !d.complete {
                    truncated += 1;
                    // Documented budget accounting (see idioms::detect_with):
                    // per kind at most max_steps for the seeded attempt plus
                    // max_steps for the unseeded fallback, plus max_steps per
                    // distinct skeleton key for the shared prepass.
                    let bound = tiny.max_steps
                        * (2 * idioms::IdiomKind::ALL.len() as u64
                            + idioms::skeleton_key_count() as u64);
                    assert!(
                        d.steps <= bound,
                        "{}: budget must bound the work, spent {} (bound {bound})",
                        f.name,
                        d.steps
                    );
                }
                tiny_instances += d.instances.len();
            }
        }
        assert!(
            truncated > 0,
            "a 50-step budget must truncate somewhere across the suite"
        );
        let full_instances: usize = modules.iter().map(|m| idioms::detect_module(m).len()).sum();
        assert_eq!(full_instances, 60, "full budget restores the population");
        assert!(
            tiny_instances < full_instances,
            "the undercount ({tiny_instances}) must stay visible below the true population"
        );
    }

    #[test]
    fn spmv_benchmarks_detect_sparse_ops() {
        for name in ["CG", "spmv"] {
            let b = all().into_iter().find(|b| b.name == name).unwrap();
            let module = minicc::compile(b.source, b.name).unwrap();
            let found = module
                .functions
                .iter()
                .flat_map(idioms::detect)
                .any(|i| i.kind == IdiomKind::Spmv);
            assert!(found, "{name} must contain SPMV");
        }
    }
}
