//! The stages of `idiomatch_core::run_pipeline`, called one by one so the
//! traced run can put each layer in its own span, plus the reversal
//! oracle and the interpreter probes both program workloads share.

use crate::trace::Tracer;
use crate::{add, Layers};
use idiomatch_core::{PipelineOutcome, PipelineTimings, ReversalOracle, ValidationError};
use idioms::{DetectOptions, IdiomInstance, IdiomKind};
use interp::{compile_module, Memory, Value, Vm};
use ssair::Module;

/// The idiom library's lazy compile: the program's one-time set-up
/// before its first detection.
pub fn library_setup() {
    for kind in IdiomKind::ALL {
        std::hint::black_box(idioms::compiled(kind));
        std::hint::black_box(idioms::requirements(kind));
    }
    std::hint::black_box(idioms::skeleton_constraints());
}

/// Instructions placed in the blocks of every function of `m`.
#[must_use]
pub fn ir_instrs(m: &Module) -> usize {
    m.functions
        .iter()
        .map(|f| {
            f.block_ids()
                .map(|b| f.block(b).instrs.len())
                .sum::<usize>()
        })
        .sum()
}

/// `idiomatch_core::run_pipeline` split into its layer calls, each in a
/// span: `minicc` parse, lower and optimize, detection, transformation,
/// verification and validation. Adds the layers' work counts to
/// `layers`.
///
/// # Errors
/// The frontend error when `source` does not compile.
pub fn run_pipeline_traced(
    tr: &mut Tracer,
    layers: &mut Layers,
    source: &str,
    name: &str,
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) -> Result<PipelineOutcome, minicc::CompileError> {
    let first = tr.spans().len();
    let program = tr.span("minicc.parse", || minicc::parse::parse_program(source))?;
    let mut module = tr.span("minicc.lower", || {
        minicc::lower::lower_program(&program, name)
    })?;
    tr.span("minicc.opt", || minicc::opt::optimize_module(&mut module));
    let fs: Vec<&ssair::Function> = module.functions.iter().collect();
    let detections = tr.span("idioms.detect", || {
        idioms::detect_functions(&fs, &DetectOptions::default())
    });
    let incomplete_functions: Vec<String> = fs
        .iter()
        .zip(&detections)
        .filter(|(_, d)| !d.complete)
        .map(|(f, _)| f.name.clone())
        .collect();
    let pairs = fs.len() * IdiomKind::ALL.len();
    let solve_steps = detections.iter().map(|d| d.steps).sum();
    let skeleton_steps = detections.iter().map(|d| d.skeleton_steps).sum();
    let pruned_pairs = detections.iter().map(|d| d.pruned_pairs).sum();
    let instances: Vec<IdiomInstance> = detections.into_iter().flat_map(|d| d.instances).collect();
    let xf = tr.span("xform.transform", || {
        xform::transform_instances(&module, instances.clone())
    });
    let verify_errors: Vec<String> = tr
        .span("ssair.verify", || ssair::verify::verify_module(&xf.module))
        .err()
        .map(|es| es.iter().map(ToString::to_string).collect())
        .unwrap_or_default();
    let validation = tr.span("core.validate", || {
        idiomatch_core::validate_transform(&module, &xf.module, entry, &setup, seeds)
    });

    let secs = |names: &[&str]| -> f64 {
        tr.spans()[first..]
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.duration().as_secs_f64())
            .sum()
    };
    let out = PipelineOutcome {
        timings: PipelineTimings {
            compile_s: secs(&["minicc.parse", "minicc.lower", "minicc.opt"]),
            detect_s: secs(&["idioms.detect"]),
            transform_s: secs(&["xform.transform"]),
            validate_s: secs(&["core.validate"]),
        },
        module,
        instances,
        incomplete_functions,
        solve_steps,
        skeleton_steps,
        pruned_pairs,
        xform: xf,
        verify_errors,
        validation,
    };
    for (name, v) in [
        ("minicc.ir_instrs", ir_instrs(&out.module)),
        ("solver.steps", out.solve_steps as usize),
        ("solver.skeleton_steps", out.skeleton_steps as usize),
        ("analysis.pruned_pairs", out.pruned_pairs as usize),
        ("analysis.pairs", pairs),
        ("idioms.instances", out.instances.len()),
        ("idioms.truncated", out.incomplete_functions.len()),
        ("xform.replaced", out.xform.replaced()),
        (
            "ssair.verify_failed",
            usize::from(!out.verify_errors.is_empty()),
        ),
        ("core.validate_failed", usize::from(out.validation.is_err())),
    ] {
        add(layers, name, v as f64);
    }
    Ok(out)
}

/// `idiomatch_core::check_reversal_oracle` in a span.
///
/// # Errors
/// The first reversal divergence.
pub fn reversal_traced(
    tr: &mut Tracer,
    layers: &mut Layers,
    out: &PipelineOutcome,
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) -> Result<ReversalOracle, ValidationError> {
    let r = tr.span("core.reversal", || {
        idiomatch_core::check_reversal_oracle(&out.module, &out.instances, entry, setup, seeds)
    });
    if let Ok(oracle) = &r {
        add(layers, "core.reversal_checked", oracle.checked as f64);
    }
    r
}

/// Interpreter probes, recorded outside the op's span: bytecode compile
/// of the original and the transformed module, then a VM run of `entry`
/// on each under every seed with the vendor hosts registered.
pub fn probe_interp(
    tr: &mut Tracer,
    layers: &mut Layers,
    out: &PipelineOutcome,
    entry: &str,
    setup: impl Fn(&mut Memory, u64) -> Vec<Value>,
    seeds: &[u64],
) {
    let codes = [
        tr.span("interp.compile", || compile_module(&out.module)),
        tr.span("interp.compile", || compile_module(&out.xform.module)),
    ];
    for code in &codes {
        for &seed in seeds {
            let mut vm = Vm::new(code);
            hetero::hosts::register_all(&mut vm);
            let args = setup(&mut vm.mem, seed);
            // The verdict is the validation layer's; the probe only times.
            let _ = tr.span("interp.exec", || vm.run(entry, &args));
            add(layers, "interp.vm_steps", vm.steps() as f64);
        }
    }
}
