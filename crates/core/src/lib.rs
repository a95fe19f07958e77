//! # idiomatch-core — the end-to-end pipeline (paper Figure 1)
//!
//! Ties the workspace together into the workflow of the paper's Figure 1:
//! C source → optimized SSA IR (`minicc`) → constraint-based idiom
//! detection (`idl` + `solver` + `idioms`) → API selection (`hetero`) →
//! code replacement (`xform`) → linked, executable program (`interp`).
//!
//! [`analyze`] runs detection, profiling and modeling for one benchmark
//! and returns everything the evaluation harness (crates/bench) needs to
//! regenerate the paper's tables and figures;
//! [`transform_and_validate_module`] performs *every* detected
//! replacement ([`xform::transform_module`]) and checks the transformed
//! program against the original by seeded differential execution
//! ([`validate_transform`]: element-wise bitwise comparison of every
//! program array plus the entry return value).
//! [`transform_and_validate`] is the single-instance convenience used by
//! the walkthrough examples.

use hetero::{Platform, Workload};
use idioms::{IdiomInstance, IdiomKind};
use interp::{compile_module, Allocation, CompiledModule, Memory, Value, Vm};
use ssair::{Module, Type};
use std::collections::BTreeMap;
use std::time::Instant;

/// A benchmark input generator: allocates the program's arrays for one
/// input seed and returns the entry-point arguments (the signature of
/// [`benchsuite::Benchmark::setup`]). The validation entry points accept
/// any `Fn(&mut Memory, u64) -> Vec<Value>` closure — generated programs
/// (`progen`) capture their input shape in the closure — and this alias
/// remains the plain-`fn` form the static benchmark table uses.
pub type SetupFn = fn(&mut Memory, u64) -> Vec<Value>;

/// Everything measured about one benchmark.
pub struct Analysis {
    /// Benchmark name.
    pub name: &'static str,
    /// Idiom instances per function.
    pub instances: Vec<IdiomInstance>,
    /// Instance counts per Table-1 class label.
    pub by_class: BTreeMap<&'static str, usize>,
    /// Fraction of the sequential dynamic cost inside detected idiom
    /// regions (Figure 17).
    pub coverage: f64,
    /// Modeled sequential time of the full program (milliseconds),
    /// scaled to the paper's input class.
    pub sequential_ms: f64,
    /// Modeled sequential time of the *idiom regions* only.
    pub idiom_ms: f64,
    /// Aggregate device workload of the idiom regions.
    pub workload: Workload,
    /// Measured (unscaled) per-run counts of the idiom regions, straight
    /// from the profiling run — the input to profile-guided offload
    /// decisions ([`hetero::best_configuration_profiled`]).
    pub profile: hetero::RegionProfile,
    /// The dominant idiom kind by dynamic cost (drives API selection).
    pub dominant_kind: Option<IdiomKind>,
    /// Frontend wall-clock seconds (Table 2, "without IDL").
    pub compile_s: f64,
    /// Detection wall-clock seconds (Table 2 adds this on top).
    pub detect_s: f64,
    /// Whether the paper treats this benchmark as idiom-dominated.
    pub covered: bool,
    /// Whether the lazy-copy optimization applies (Figure 18 red bars).
    pub lazy: bool,
    /// Whether the extracted kernels are expressible in Halide (pure
    /// arithmetic without calls or selects — §5.2: "stencils involving
    /// control flow in their computations are not easily expressible").
    pub halide_ok: bool,
    /// Polly baseline counts (reductions, stencils).
    pub polly: (usize, usize),
    /// ICC baseline reduction count.
    pub icc: usize,
}

/// Runs the full detection + profiling + modeling pipeline on one
/// benchmark.
///
/// # Panics
/// Panics if the bundled benchmark fails to compile or execute — that is
/// a bug in the suite, not an input condition.
#[must_use]
pub fn analyze(b: &benchsuite::Benchmark) -> Analysis {
    let t0 = Instant::now();
    let module = minicc::compile(b.source, b.name).expect("bundled benchmark compiles");
    let compile_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    // Parallel fan-out over functions; deterministic module-ordered output.
    let instances = idioms::detect_module(&module);
    let detect_s = t1.elapsed().as_secs_f64();

    let mut by_class: BTreeMap<&'static str, usize> = BTreeMap::new();
    for inst in &instances {
        *by_class.entry(inst.kind.class_label()).or_default() += 1;
    }

    // Profile one full run of the canonical workload. The VM keeps dense
    // per-function counters and maps them back to `ValueId`s.
    let code = compile_module(&module);
    let mut vm = Vm::new(&code);
    vm.set_profiling(true);
    let args = (b.setup)(&mut vm.mem, benchsuite::CANONICAL_SEED);
    vm.run(b.entry, &args).expect("bundled benchmark executes");
    let profile = vm.profile();

    let mut total_cost = 0.0;
    for f in &module.functions {
        total_cost += profile.total_cost(f);
    }
    let mut idiom_cost = 0.0;
    let mut flops = 0.0;
    let mut bytes = 0.0;
    let mut costs_by_kind: BTreeMap<IdiomKind, f64> = BTreeMap::new();
    for inst in &instances {
        let f = module.function(&inst.function).expect("function exists");
        let in_region = |v: ssair::ValueId| {
            inst.blocks
                .iter()
                .any(|&blk| f.block(blk).instrs.contains(&v))
        };
        let c = profile.region_cost(f, in_region);
        idiom_cost += c;
        *costs_by_kind.entry(inst.kind).or_default() += c;
        flops += profile.region_flops(f, in_region);
        bytes += profile.region_bytes(f, in_region);
    }
    let coverage = if total_cost > 0.0 {
        idiom_cost / total_cost
    } else {
        0.0
    };
    let dominant_kind = costs_by_kind
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(&k, _)| k);

    let scaled = |x: f64| x * b.scale;
    let mut workload = Workload {
        flops: scaled(flops),
        bytes: scaled(bytes),
        // Footprint per transfer: the touched bytes of one kernel launch
        // (streaming idioms have ~unit reuse).
        transfer_bytes: scaled(bytes) / b.invocations.max(1.0),
        launches: b.invocations,
    };
    if dominant_kind == Some(IdiomKind::Gemm) {
        // GEMM is the one idiom with O(n) reuse per element: the raw
        // per-load byte count vastly overstates DRAM traffic and the
        // transferred footprint. Model the footprint as the three n×n
        // matrices and the DRAM traffic as a tiled multiple of it.
        let n2 = (workload.flops / 2.0).powf(2.0 / 3.0); // ≈ n²
        workload.transfer_bytes = 3.0 * n2 * 8.0;
        workload.bytes = workload.transfer_bytes * 16.0;
    }

    // Halide expressibility: every stencil/histogram kernel must be free
    // of calls and selects.
    let mut halide_ok = true;
    for inst in &instances {
        let (out_var, killers): (&str, Vec<ssair::ValueId>) = match inst.kind {
            IdiomKind::Stencil1D | IdiomKind::Stencil2D => {
                ("write.value", inst.family("read_value"))
            }
            IdiomKind::Histogram => {
                let mut ks = inst.family("read_value");
                if let Some(old) = inst.value("old_value") {
                    ks.push(old);
                }
                ("new_value", ks)
            }
            _ => continue,
        };
        let f = module.function(&inst.function).expect("function exists");
        let Some(out) = inst.value(out_var) else {
            continue;
        };
        let slice = ssair::analysis::kernel_slice(f, out, &killers, solver::PURE_CALLS);
        let pure_arith_only = slice.is_some_and(|sl| {
            sl.iter().all(|&v| {
                !matches!(
                    f.opcode(v),
                    Some(ssair::Opcode::Call | ssair::Opcode::Select)
                )
            })
        });
        if !pure_arith_only {
            halide_ok = false;
        }
        // Histograms additionally need an expressible index kernel.
        if inst.kind == IdiomKind::Histogram {
            if let Some(idx) = inst.value("bin_idx") {
                let ks = inst.family("read_value");
                let sl = ssair::analysis::kernel_slice(f, idx, &ks, solver::PURE_CALLS);
                let ok = sl.is_some_and(|sl| {
                    sl.iter().all(|&v| {
                        !matches!(
                            f.opcode(v),
                            Some(ssair::Opcode::Call | ssair::Opcode::Select)
                        )
                    })
                });
                if !ok {
                    halide_ok = false;
                }
            }
        }
    }

    let mut polly = (0usize, 0usize);
    let mut icc = 0usize;
    for f in &module.functions {
        let p = baselines::polly_detect(f);
        polly.0 += p.reductions();
        polly.1 += p.stencils();
        icc += baselines::icc_detect(f).reductions();
    }

    Analysis {
        name: b.name,
        instances,
        by_class,
        coverage,
        sequential_ms: hetero::sequential_time_ms(scaled(total_cost)),
        idiom_ms: hetero::sequential_time_ms(scaled(idiom_cost)),
        workload,
        profile: hetero::RegionProfile {
            cost_units: idiom_cost,
            total_cost_units: total_cost,
            flops,
            bytes,
            launches: b.invocations,
        },
        dominant_kind,
        compile_s,
        detect_s,
        covered: b.covered,
        lazy: b.lazy,
        halide_ok,
        polly,
        icc,
    }
}

/// The weakest parallel-safety class among `a`'s instances of the
/// dominant idiom kind — the certificate the whole offloaded region must
/// honour. Defaults to serial when no instance carries a certificate for
/// the kind (nothing is provable about an unseen region).
#[must_use]
pub fn region_safety(a: &Analysis) -> idioms::ParallelSafety {
    let Some(kind) = a.dominant_kind else {
        return idioms::ParallelSafety::Serial;
    };
    a.instances
        .iter()
        .filter(|i| i.kind == kind)
        .map(|i| i.certificate.safety)
        .max() // ParallelSafety orders weakest-last: Serial > ReductionOnly
        .unwrap_or(idioms::ParallelSafety::Serial)
}

/// End-to-end speedup (Figure 18) on `platform`: idiom regions run on the
/// modeled device under the best applicable API, the rest stays
/// sequential (Amdahl). The region's parallel-safety certificate is a
/// hard gate — a serial-certified region is never offered a parallel
/// host, no matter the modeled speedup.
#[must_use]
pub fn speedup_on(a: &Analysis, platform: Platform, lazy_copy: bool) -> Option<(hetero::Api, f64)> {
    let kind = a.dominant_kind?;
    let safety = region_safety(a);
    let (api, kernel_ms) = hetero::Api::AUTO
        .iter()
        .filter(|&&api| a.halide_ok || api != hetero::Api::Halide)
        .filter_map(|&api| {
            hetero::kernel_time_ms_certified(api, platform, kind, &a.workload, lazy_copy, safety)
                .map(|t| (api, t))
        })
        .min_by(|x, y| x.1.total_cmp(&y.1))?;
    let rest_ms = a.sequential_ms - a.idiom_ms;
    let total = rest_ms + kernel_ms;
    Some((api, a.sequential_ms / total))
}

/// Figure 19 reference points: the handwritten OpenMP (CPU) and OpenCL
/// (GPU) implementations. For EP, IS, MG and tpacf the references
/// restructure and parallelize the entire application ("beyond the domain
/// of automation", §8.3), so they accelerate everything, not just the
/// idiom regions.
#[must_use]
pub fn reference_speedup(a: &Analysis, platform: Platform) -> Option<f64> {
    let api = match platform {
        Platform::Cpu => hetero::Api::OpenMpRef,
        Platform::Gpu => hetero::Api::OpenClRef,
        Platform::IGpu => return None,
    };
    let kind = a.dominant_kind?;
    let whole_app = matches!(a.name, "EP" | "IS" | "MG" | "tpacf");
    let (accel_ms_base, rest_ms) = if whole_app {
        // Parallelize everything; approximate the whole program as one
        // region with the full sequential workload.
        let w = Workload {
            flops: a.workload.flops / a.coverage.max(0.05),
            bytes: a.workload.bytes / a.coverage.max(0.05),
            ..a.workload
        };
        (hetero::kernel_time_ms(api, platform, kind, &w, true)?, 0.0)
    } else {
        (
            hetero::kernel_time_ms(api, platform, kind, &a.workload, true)?,
            a.sequential_ms - a.idiom_ms,
        )
    };
    Some(a.sequential_ms / (rest_ms + accel_ms_base))
}

// ---------------------------------------------------------------------
// Differential validation (paper §6: "the transformed program computes
// the same results").
// ---------------------------------------------------------------------

/// Why a transformed program failed differential validation. Every
/// variant pinpoints *where* the two runs diverged; there is no
/// tolerance anywhere — float payloads are compared bitwise, and a
/// memory-size mismatch is itself a failure rather than a reason to
/// truncate the comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// Validation was requested with an empty seed set: nothing was
    /// executed, so an `Ok` would be vacuous evidence of equivalence.
    NoSeeds,
    /// One of the two runs failed to execute (e.g. a type-confused or
    /// out-of-bounds API call introduced by a bad replacement).
    Exec {
        /// Which run failed: `"original"` or `"transformed"`.
        which: &'static str,
        /// The input seed of the failing run.
        seed: u64,
        /// The interpreter's error message.
        message: String,
    },
    /// The two runs ended with different memory sizes.
    MemorySize {
        /// The input seed.
        seed: u64,
        /// Final memory size of the original run.
        original: usize,
        /// Final memory size of the transformed run.
        transformed: usize,
    },
    /// The entry-point return values differ (floats compared bitwise).
    ReturnValue {
        /// The input seed.
        seed: u64,
        /// Return value of the original run.
        original: Value,
        /// Return value of the transformed run.
        transformed: Value,
    },
    /// One element of one program array differs (floats compared
    /// bitwise).
    Element {
        /// The input seed.
        seed: u64,
        /// Index of the diverging array in setup allocation order.
        array: usize,
        /// The diverging array's allocation record.
        allocation: Allocation,
        /// Element index within the array.
        index: usize,
        /// Element value in the original run.
        original: Value,
        /// Element value in the transformed run.
        transformed: Value,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::NoSeeds => {
                write!(f, "validation ran under zero input seeds (vacuous)")
            }
            ValidationError::Exec {
                which,
                seed,
                message,
            } => write!(f, "{which} run failed under seed {seed}: {message}"),
            ValidationError::MemorySize {
                seed,
                original,
                transformed,
            } => write!(
                f,
                "memory size diverged under seed {seed}: original {original} bytes, transformed {transformed} bytes"
            ),
            ValidationError::ReturnValue {
                seed,
                original,
                transformed,
            } => write!(
                f,
                "return value diverged under seed {seed}: original {original:?}, transformed {transformed:?}"
            ),
            ValidationError::Element {
                seed,
                array,
                allocation,
                index,
                original,
                transformed,
            } => write!(
                f,
                "array #{array} ({:?}[{}] at base {}) diverged at index {index} under seed {seed}: original {original:?}, transformed {transformed:?}",
                allocation.elem, allocation.count, allocation.base
            ),
        }
    }
}

/// What a passing validation actually covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationSummary {
    /// Number of input seeds executed.
    pub seeds: usize,
    /// Program arrays compared per seed.
    pub arrays: usize,
    /// Total elements compared across all seeds.
    pub elements: usize,
}

/// Bitwise value equality: floats by bit pattern (NaN-safe, no epsilon),
/// everything else exactly.
fn bitwise_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    }
}

/// Loads element `i` of a recorded allocation with its own type.
fn load_elem(mem: &Memory, al: &Allocation, i: usize) -> Result<Value, String> {
    let addr = al.base + (al.elem.size_bytes() * i) as u64;
    match &al.elem {
        Type::F64 => mem.load_f64(addr).map(Value::F),
        Type::F32 => mem.load_f32(addr).map(Value::F),
        Type::I64 => mem.load_i64(addr).map(Value::I),
        Type::I32 => mem.load_i32(addr).map(Value::I),
        Type::I1 => mem.load_i8(addr).map(Value::I),
        Type::Ptr(_) => mem.load_i64(addr).map(|x| Value::P(x as u64)),
        Type::Void => Err("void allocation".into()),
    }
}

/// One full run over an already-compiled module: fresh [`Vm`],
/// registered vendor hosts, seeded setup, entry execution. Returns the
/// entry's return value, the final memory and how many allocations the
/// setup made (the program's declared arrays — everything allocated later
/// is runtime-internal).
fn run_once(
    code: &CompiledModule<'_>,
    entry: &str,
    setup: &impl Fn(&mut Memory, u64) -> Vec<Value>,
    seed: u64,
) -> Result<(Value, Memory, usize), String> {
    let mut vm = Vm::new(code);
    hetero::hosts::register_all(&mut vm);
    let args = setup(&mut vm.mem, seed);
    let setup_allocs = vm.mem.allocations().len();
    let ret = vm.run(entry, &args).map_err(|e| e.to_string())?;
    Ok((ret, std::mem::take(&mut vm.mem), setup_allocs))
}

/// Differential validation of `transformed` against `original`: runs
/// `entry` on both modules under every seed in `seeds` and compares
/// (1) the entry return value, (2) the final memory size, and (3) every
/// element of every array the setup allocated, typed and bitwise.
///
/// This replaces the earlier whole-memory prefix snapshot, which
/// tolerated out-of-bounds reads (`unwrap_or(0)`), skipped the low
/// bytes, and silently ignored any divergence past the shorter run's
/// memory — and which could not see results that never touch memory at
/// all (a scalar reduction returned from the entry point).
pub fn validate_transform(
    original: &Module,
    transformed: &Module,
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) -> Result<ValidationSummary, ValidationError> {
    // Compile each module exactly once; every seed reuses the flat
    // instruction streams.
    let code_o = compile_module(original);
    let code_t = compile_module(transformed);
    validate_compiled(&code_o, &code_t, entry, &setup, seeds)
}

/// The seed loop of [`validate_transform`] over two compiled modules: runs
/// both under each seed and compares the results bitwise (return value,
/// memory size, every element of every setup-allocated array). The
/// reversal oracle calls it directly, comparing one compiled original
/// against many rewritten variants.
fn validate_compiled(
    code_o: &CompiledModule<'_>,
    code_t: &CompiledModule<'_>,
    entry: &str,
    setup: &impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) -> Result<ValidationSummary, ValidationError> {
    if seeds.is_empty() {
        return Err(ValidationError::NoSeeds);
    }
    let mut arrays = 0usize;
    let mut elements = 0usize;
    for &seed in seeds {
        let (ret_o, mem_o, n_setup) =
            run_once(code_o, entry, setup, seed).map_err(|e| ValidationError::Exec {
                which: "original",
                seed,
                message: e,
            })?;
        let (ret_t, mem_t, n_setup_t) =
            run_once(code_t, entry, setup, seed).map_err(|e| ValidationError::Exec {
                which: "transformed",
                seed,
                message: e,
            })?;
        debug_assert_eq!(n_setup, n_setup_t, "setup is deterministic");
        if !bitwise_eq(ret_o, ret_t) {
            return Err(ValidationError::ReturnValue {
                seed,
                original: ret_o,
                transformed: ret_t,
            });
        }
        if mem_o.size() != mem_t.size() {
            return Err(ValidationError::MemorySize {
                seed,
                original: mem_o.size(),
                transformed: mem_t.size(),
            });
        }
        arrays = n_setup;
        for (array, al) in mem_o.allocations()[..n_setup].iter().enumerate() {
            for index in 0..al.count {
                let exec = |which, message| ValidationError::Exec {
                    which,
                    seed,
                    message,
                };
                let vo = load_elem(&mem_o, al, index).map_err(|e| exec("original", e))?;
                let vt = load_elem(&mem_t, al, index).map_err(|e| exec("transformed", e))?;
                elements += 1;
                if !bitwise_eq(vo, vt) {
                    return Err(ValidationError::Element {
                        seed,
                        array,
                        allocation: al.clone(),
                        index,
                        original: vo,
                        transformed: vt,
                    });
                }
            }
        }
    }
    Ok(ValidationSummary {
        seeds: seeds.len(),
        arrays,
        elements,
    })
}

/// What the reversed-iteration oracle covered for one module.
#[derive(Debug, Clone, Default)]
pub struct ReversalOracle {
    /// Regions whose reversed run compared bitwise-equal.
    pub checked: usize,
    /// Regions the loop rewriter refused, with the reason — a coverage
    /// gap, never a verdict.
    pub skipped: Vec<(String, String)>,
}

/// Dynamically witnesses `IndependentIterations` certificates: for every
/// instance whose region still classifies as independent under
/// module-wide call-site alias facts (the same refinement the transform
/// driver applies), the *original* module is re-run with that loop's
/// iterations reversed ([`xform::reverse_loop`]) and the final machine
/// state compared bitwise against the forward run. Independent
/// iterations commute exactly — even in floating point — so any
/// divergence convicts the certificate.
///
/// Regions certified `ReductionOnly` or `Serial` are out of scope (their
/// iterations do not claim to commute), as are loop shapes the rewriter
/// refuses; both are reported, not failed.
///
/// # Errors
/// The first divergence or execution failure, as a [`ValidationError`].
pub fn check_reversal_oracle(
    module: &Module,
    instances: &[IdiomInstance],
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) -> Result<ReversalOracle, ValidationError> {
    let facts = analysis::ParamAliasFacts::of_module(module);
    let mut oracle = ReversalOracle::default();
    // The forward module compiles once here and is reused against every
    // reversed variant (each of which compiles once and runs under every
    // seed).
    let code_o = compile_module(module);
    for inst in instances {
        let Some(iv) = inst.value(inst.kind.outer_iterator_var()) else {
            continue;
        };
        let Some(f) = module.function(&inst.function) else {
            continue;
        };
        let an = ssair::analysis::Analyses::new(f);
        let map = ssair::analysis::AffineMap::new(f, &an);
        let cert = analysis::classify_region(f, &an, &map, &inst.blocks, iv, Some(&facts));
        if cert.safety != idioms::ParallelSafety::IndependentIterations {
            continue;
        }
        match xform::reverse::reversed_module(module, &inst.function, iv) {
            Ok(reversed) => {
                validate_compiled(&code_o, &compile_module(&reversed), entry, &setup, seeds)?;
                oracle.checked += 1;
            }
            Err(reason) => oracle.skipped.push((inst.function.clone(), reason)),
        }
    }
    Ok(oracle)
}

/// Whole-module transformation plus differential validation: detects all
/// idiom instances, applies every non-overlapping replacement
/// ([`xform::transform_module`]) and validates the surviving module
/// against the original under every seed.
#[derive(Debug)]
pub struct ModuleReport {
    /// The transformation outcomes (transformed module + per-instance
    /// replaced/shadowed/failed records).
    pub xform: xform::ModuleXform,
    /// The differential-validation verdict over all seeds.
    pub validation: Result<ValidationSummary, ValidationError>,
}

/// Runs detect → transform-all → execute-and-compare for one program.
/// The validation runs even when nothing was replaced (it then checks
/// interpreter determinism for free).
#[must_use]
pub fn transform_and_validate_module(
    module: &Module,
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) -> ModuleReport {
    let xf = xform::transform_module(module);
    let validation = validate_transform(module, &xf.module, entry, setup, seeds);
    ModuleReport {
        xform: xf,
        validation,
    }
}

/// The full Figure-1 pipeline over one C source program, as one reusable
/// call: compile (`minicc`) → detect every idiom (`idioms`, with explicit
/// budgets so truncation is observable) → replace every instance
/// (`xform::transform_module`) → differentially validate the transformed
/// module against the original under every input seed.
///
/// This is the entry point the `progen` fuzz driver and the corpus replay
/// tests run per generated program; `incomplete_functions` distinguishes
/// "no instance found" from "the search was cut off".
#[derive(Debug)]
pub struct PipelineOutcome {
    /// The compiled (optimized, verified) original module.
    pub module: Module,
    /// Every detected idiom instance, in module order.
    pub instances: Vec<IdiomInstance>,
    /// Functions whose search hit a solver budget (empty = complete).
    pub incomplete_functions: Vec<String>,
    /// Total solver assignment steps across all functions and idioms
    /// (skeleton prepass included).
    pub solve_steps: u64,
    /// Steps of the shared loop-skeleton prepass (a subset of
    /// `solve_steps`, accounted once per function).
    pub skeleton_steps: u64,
    /// Idiom×function pairs the fingerprint prepass proved matchless
    /// (skipped with zero solver steps).
    pub pruned_pairs: u64,
    /// Wall-clock seconds per pipeline stage (frontend compile /
    /// detection / transformation / validation), so throughput numbers
    /// can separate the pipeline from its drivers.
    pub timings: PipelineTimings,
    /// The whole-module transformation result.
    pub xform: xform::ModuleXform,
    /// Structural IR errors of the transformed module
    /// (`ssair::verify::verify_module` over every function, generated
    /// kernels included), checked before any fault-injection hook runs.
    /// Always empty for a correct backend; the suite and corpus drivers
    /// assert on it.
    pub verify_errors: Vec<String>,
    /// The differential-validation verdict over all seeds.
    pub validation: Result<ValidationSummary, ValidationError>,
}

/// Wall-clock cost of each [`run_pipeline`] stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTimings {
    /// minicc frontend (parse, lower, optimize, verify).
    pub compile_s: f64,
    /// Idiom detection over every function.
    pub detect_s: f64,
    /// Whole-module transformation (`xform::transform_instances`).
    pub transform_s: f64,
    /// Multi-seed differential validation.
    pub validate_s: f64,
}

/// Runs compile → detect → transform-all → validate on `source`.
///
/// # Errors
/// Returns the frontend error when `source` does not compile; every later
/// stage reports through [`PipelineOutcome`] instead of failing the call.
pub fn run_pipeline(
    source: &str,
    name: &str,
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
    opts: &idioms::DetectOptions,
) -> Result<PipelineOutcome, minicc::CompileError> {
    run_pipeline_with(source, name, entry, setup, seeds, opts, |_| {})
}

/// [`run_pipeline`] with a fault-injection hook applied to the
/// transformed module *between* transformation and validation. This is
/// how the fuzz harness proves the validator end-to-end: `progen`'s
/// canary corrupts an offloaded call here and the validation stage must
/// report the divergence. The honest pipeline passes a no-op.
///
/// # Errors
/// As [`run_pipeline`].
pub fn run_pipeline_with(
    source: &str,
    name: &str,
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
    opts: &idioms::DetectOptions,
    post_transform: impl FnOnce(&mut Module),
) -> Result<PipelineOutcome, minicc::CompileError> {
    let t = Instant::now();
    let module = minicc::compile(source, name)?;
    let compile_s = t.elapsed().as_secs_f64();
    let fs: Vec<&ssair::Function> = module.functions.iter().collect();
    let t = Instant::now();
    let detections = idioms::detect_functions(&fs, opts);
    let detect_s = t.elapsed().as_secs_f64();
    let incomplete_functions: Vec<String> = fs
        .iter()
        .zip(&detections)
        .filter(|(_, d)| !d.complete)
        .map(|(f, _)| f.name.clone())
        .collect();
    let solve_steps = detections.iter().map(|d| d.steps).sum();
    let skeleton_steps = detections.iter().map(|d| d.skeleton_steps).sum();
    let pruned_pairs = detections.iter().map(|d| d.pruned_pairs).sum();
    let instances: Vec<IdiomInstance> = detections.into_iter().flat_map(|d| d.instances).collect();
    let t = Instant::now();
    let mut xf = xform::transform_instances(&module, instances.clone());
    let transform_s = t.elapsed().as_secs_f64();
    // Structural check of the honest transformed module, before the
    // fault-injection hook may deliberately damage it.
    let verify_errors: Vec<String> = ssair::verify::verify_module(&xf.module)
        .err()
        .map(|es| es.iter().map(ToString::to_string).collect())
        .unwrap_or_default();
    post_transform(&mut xf.module);
    let t = Instant::now();
    let validation = validate_transform(&module, &xf.module, entry, setup, seeds);
    let validate_s = t.elapsed().as_secs_f64();
    Ok(PipelineOutcome {
        module,
        instances,
        incomplete_functions,
        solve_steps,
        skeleton_steps,
        pruned_pairs,
        timings: PipelineTimings {
            compile_s,
            detect_s,
            transform_s,
            validate_s,
        },
        xform: xf,
        verify_errors,
        validation,
    })
}

/// Applies the first applicable replacement of `kind` in `module` and
/// validates it differentially under the default seed set
/// ([`benchsuite::VALIDATION_SEEDS`]).
///
/// Returns the transformed module and the replacement description.
pub fn transform_and_validate(
    module: &Module,
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    kind: IdiomKind,
) -> Result<(Module, xform::Replacement), String> {
    let insts: Vec<_> = idioms::detect_module(module)
        .into_iter()
        .filter(|i| i.kind == kind)
        .collect();
    let inst = insts
        .first()
        .ok_or_else(|| format!("no {kind:?} instance found"))?;
    let mut transformed = module.clone();
    let rep = xform::apply_replacement(&mut transformed, inst, 0).map_err(|e| e.to_string())?;
    validate_transform(
        module,
        &transformed,
        entry,
        setup,
        &benchsuite::VALIDATION_SEEDS,
    )
    .map_err(|e| e.to_string())?;
    Ok((transformed, rep))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_cg_finds_sparse_ops_and_high_coverage() {
        let b = benchsuite::all()
            .into_iter()
            .find(|b| b.name == "CG")
            .unwrap();
        let a = analyze(&b);
        assert_eq!(a.by_class.get("Sparse Matrix Op."), Some(&2));
        assert_eq!(a.by_class.get("Scalar Reduction"), Some(&4));
        assert!(a.coverage > 0.5, "coverage {}", a.coverage);
        assert_eq!(a.dominant_kind, Some(IdiomKind::Spmv));
        let (api, speed) = speedup_on(&a, Platform::Gpu, true).unwrap();
        assert_eq!(api, hetero::Api::CuSparse);
        assert!(speed > 2.0, "CG GPU speedup {speed}");
    }

    #[test]
    fn uncovered_benchmarks_gain_little() {
        let b = benchsuite::all()
            .into_iter()
            .find(|b| b.name == "BT")
            .unwrap();
        let a = analyze(&b);
        assert!(a.coverage < 0.5);
        if let Some((_, s)) = speedup_on(&a, Platform::Gpu, true) {
            assert!(s < 2.0, "Amdahl caps BT at {s}");
        }
    }

    #[test]
    fn transform_and_validate_spmv_benchmark() {
        let b = benchsuite::all()
            .into_iter()
            .find(|b| b.name == "spmv")
            .unwrap();
        let module = minicc::compile(b.source, b.name).unwrap();
        let (transformed, rep) = transform_and_validate(&module, b.entry, b.setup, IdiomKind::Spmv)
            .expect("spmv replacement validates");
        assert_eq!(rep.callee, "csrmv_f64");
        assert!(transformed.functions.len() >= module.functions.len());
    }

    #[test]
    fn transform_and_validate_stencil_benchmark() {
        let b = benchsuite::all()
            .into_iter()
            .find(|b| b.name == "stencil")
            .unwrap();
        let module = minicc::compile(b.source, b.name).unwrap();
        let (_, rep) = transform_and_validate(&module, b.entry, b.setup, IdiomKind::Stencil2D)
            .expect("stencil replacement validates");
        assert!(rep.callee.starts_with("halide_st2_"));
    }

    /// Applies the first replacement of `kind` and hands the transformed
    /// module to `corrupt` for tampering.
    fn replaced_and_corrupted(
        src: &str,
        fname: &str,
        kind: IdiomKind,
        corrupt: impl Fn(&mut Module),
    ) -> (Module, Module) {
        let module = minicc::compile(src, fname).unwrap();
        let inst = idioms::detect_module(&module)
            .into_iter()
            .find(|i| i.kind == kind)
            .expect("instance detected");
        let mut transformed = module.clone();
        xform::apply_replacement(&mut transformed, &inst, 0).expect("replaces");
        corrupt(&mut transformed);
        (module, transformed)
    }

    /// The masked-divergence regression (old validator bug): a corrupted
    /// replacement whose damage never touches memory — a wrong `init`
    /// argument on a reduction, whose result only flows into the entry's
    /// return value — was invisible to the whole-memory prefix snapshot.
    /// The precise validator must catch it via the return value.
    #[test]
    fn corrupted_call_argument_is_caught_even_when_memory_is_identical() {
        let src = "double s(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) a += x[i]; return a; }";
        let setup: SetupFn = |m, seed| {
            let x = m.alloc_f64_slice(&[1.0, -2.0, 3.5, 0.25, seed as f64]);
            vec![Value::P(x), Value::I(5)]
        };
        let (module, corrupted) = replaced_and_corrupted(src, "s", IdiomKind::Reduction, |t| {
            // Swap the device call's `init` argument (0.0 -> 12.5):
            // args are [read bases.., begin, end, init, extras..].
            let f = t.function_mut("s").expect("entry function");
            let call = f
                .value_ids()
                .find(|&v| {
                    f.instr(v)
                        .and_then(|i| i.callee.as_deref())
                        .is_some_and(|c| c.starts_with("lift_red_"))
                })
                .expect("device call present");
            let bad = f.const_float(Type::F64, 12.5);
            f.instr_mut(call).expect("call").operands[3] = bad;
        });
        let err = validate_transform(&module, &corrupted, "s", setup, &[0])
            .expect_err("corruption must be caught");
        assert!(
            matches!(err, ValidationError::ReturnValue { .. }),
            "divergence is return-value-only (memory identical): {err}"
        );
    }

    /// A corrupted pointer argument redirects the stencil output into its
    /// input array; the validator must name the diverging array and
    /// element instead of a generic "memory differs".
    #[test]
    fn corrupted_pointer_argument_reports_array_and_index() {
        let src = "void st(double* o, double* a, int n) { for (int i = 1; i < n - 1; i++) o[i] = a[i-1] + 2.0*a[i] + a[i+1]; }";
        let setup: SetupFn = |m, _seed| {
            let o = m.alloc_f64_slice(&[0.0; 8]);
            let a = m.alloc_f64_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
            vec![Value::P(o), Value::P(a), Value::I(8)]
        };
        let (module, corrupted) = replaced_and_corrupted(src, "st", IdiomKind::Stencil1D, |t| {
            // Point the device call's output base at the input array:
            // args are [out_base, read bases.., begin, end, extras..].
            let f = t.function_mut("st").expect("entry function");
            let call = f
                .value_ids()
                .find(|&v| {
                    f.instr(v)
                        .and_then(|i| i.callee.as_deref())
                        .is_some_and(|c| c.starts_with("halide_st1_"))
                })
                .expect("device call present");
            let ops = &mut f.instr_mut(call).expect("call").operands;
            ops[0] = ops[1];
        });
        let err = validate_transform(&module, &corrupted, "st", setup, &[0])
            .expect_err("corruption must be caught");
        match err {
            ValidationError::Element { array, index, .. } => {
                // The untouched output array (allocation #0) diverges
                // first, at the first interior element.
                assert_eq!(array, 0, "output array is setup allocation #0");
                assert_eq!(index, 1, "first stencil-written element");
            }
            other => panic!("expected an element divergence, got {other}"),
        }
    }

    /// Zero seeds means zero evidence: the validator refuses instead of
    /// returning a vacuous `Ok`.
    #[test]
    fn empty_seed_set_is_a_validation_error() {
        let src = "double s(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) a += x[i]; return a; }";
        let setup: SetupFn = |m, _seed| {
            let x = m.alloc_f64_slice(&[1.0, 2.0]);
            vec![Value::P(x), Value::I(2)]
        };
        let module = minicc::compile(src, "s").unwrap();
        let err = validate_transform(&module, &module, "s", setup, &[]).unwrap_err();
        assert_eq!(err, ValidationError::NoSeeds);
    }

    /// A type-confused call (bad replacement) fails validation through
    /// `ExecError` instead of aborting the process.
    #[test]
    fn type_confused_replacement_fails_validation_gracefully() {
        let src = "double s(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) a += x[i]; return a; }";
        let setup: SetupFn = |m, _seed| {
            let x = m.alloc_f64_slice(&[1.0, 2.0]);
            vec![Value::P(x), Value::I(2)]
        };
        let (module, corrupted) = replaced_and_corrupted(src, "s", IdiomKind::Reduction, |t| {
            // Pass the float init where the device loop expects the
            // integer end bound.
            let f = t.function_mut("s").expect("entry function");
            let call = f
                .value_ids()
                .find(|&v| {
                    f.instr(v)
                        .and_then(|i| i.callee.as_deref())
                        .is_some_and(|c| c.starts_with("lift_red_"))
                })
                .expect("device call present");
            let bad = f.const_float(Type::F64, 2.0);
            f.instr_mut(call).expect("call").operands[2] = bad;
        });
        let err = validate_transform(&module, &corrupted, "s", setup, &[0])
            .expect_err("type confusion must fail validation");
        assert!(
            matches!(
                &err,
                ValidationError::Exec {
                    which: "transformed",
                    ..
                }
            ),
            "got {err}"
        );
    }
}
