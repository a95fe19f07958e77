//! Differential suite for the one execution tier: the bytecode `Vm` must
//! agree **bit-for-bit** with the tree-walking `Machine` oracle — return
//! value, every byte of final memory, and the step counter — on every
//! bundled benchmark under multiple input seeds, on randomized progen
//! programs, and on error paths (same `ExecError` message at the same
//! step count, step-limit and call-depth exhaustion included). Every module compared
//! here must also pass IR verification function by function, since
//! that is what makes `compile_module` lower it.

use idiomatch::benchsuite;
use idiomatch::hetero::hosts::register_all;
use idiomatch::interp::{compile_module, Machine, Memory, Value, Vm, MAX_CALL_DEPTH};
use proptest::prelude::*;

/// Everything one execution produces, in comparable form.
#[derive(Debug, Clone, PartialEq)]
struct Trace {
    /// `Ok(bitwise value)` or `Err(full error message)`.
    result: Result<(&'static str, u64), String>,
    /// The step counter after the run (errors included).
    steps: u64,
    /// Every byte of final memory.
    mem: Vec<u8>,
}

fn value_bits(v: Value) -> (&'static str, u64) {
    match v {
        Value::I(x) => ("I", x as u64),
        Value::F(x) => ("F", x.to_bits()),
        Value::P(x) => ("P", x),
    }
}

/// One walker run with the vendor hosts registered.
fn walk(
    m: &ssair::Module,
    entry: &str,
    setup: &dyn Fn(&mut Memory, u64) -> Vec<Value>,
    seed: u64,
    max_steps: Option<u64>,
) -> Trace {
    let mut vm = Machine::new(m);
    register_all(&mut vm);
    if let Some(ms) = max_steps {
        vm.max_steps = ms;
    }
    let args = setup(&mut vm.mem, seed);
    let result = vm
        .run(entry, &args)
        .map(value_bits)
        .map_err(|e| e.to_string());
    Trace {
        result,
        steps: vm.steps(),
        mem: vm.mem.bytes().to_vec(),
    }
}

/// One bytecode-VM run over a pre-compiled module, same hosts.
fn exec(
    code: &idiomatch::interp::CompiledModule<'_>,
    entry: &str,
    setup: &dyn Fn(&mut Memory, u64) -> Vec<Value>,
    seed: u64,
    max_steps: Option<u64>,
) -> Trace {
    let mut vm = Vm::new(code);
    register_all(&mut vm);
    if let Some(ms) = max_steps {
        vm.max_steps = ms;
    }
    let args = setup(&mut vm.mem, seed);
    let result = vm
        .run(entry, &args)
        .map(value_bits)
        .map_err(|e| e.to_string());
    Trace {
        result,
        steps: vm.steps(),
        mem: vm.mem.bytes().to_vec(),
    }
}

/// Asserts every function of `m` passes verification, so none of it
/// compiles to an error entry.
fn assert_verified(m: &ssair::Module, ctx: &str) {
    for f in &m.functions {
        if let Err(errs) = ssair::verify::verify_function(f) {
            panic!("{ctx}: @{} fails verification: {}", f.name, errs[0]);
        }
    }
}

/// Asserts walker ≡ VM on one module/entry/seed, optionally under a step
/// budget. Returns the shared trace for further checks.
fn assert_parity(
    m: &ssair::Module,
    entry: &str,
    setup: &dyn Fn(&mut Memory, u64) -> Vec<Value>,
    seed: u64,
    max_steps: Option<u64>,
    ctx: &str,
) -> Trace {
    let code = compile_module(m);
    let w = walk(m, entry, setup, seed, max_steps);
    let v = exec(&code, entry, setup, seed, max_steps);
    assert_eq!(w.result, v.result, "{ctx}: result diverged");
    assert_eq!(w.steps, v.steps, "{ctx}: step counter diverged");
    assert_eq!(w.mem, v.mem, "{ctx}: final memory diverged");
    w
}

/// Every bundled benchmark, under every validation seed: identical
/// return bits, identical step counts, identical memory images.
#[test]
fn all_benchmarks_agree_bitwise_across_seeds() {
    for b in benchsuite::all() {
        let m = idiomatch::minicc::compile(b.source, b.name).unwrap();
        assert_verified(&m, b.name);
        for &seed in &benchsuite::VALIDATION_SEEDS {
            let t = assert_parity(
                &m,
                b.entry,
                &|mem, s| (b.setup)(mem, s),
                seed,
                None,
                &format!("{} seed {seed:#x}", b.name),
            );
            assert!(t.result.is_ok(), "{}: benchmark must execute", b.name);
        }
    }
}

/// The same suite run through the *transformed* modules (vendor calls
/// inserted), exercising the host-dispatch path on the VM and the oracle.
#[test]
fn transformed_benchmarks_agree_bitwise() {
    for b in benchsuite::all() {
        let m = idiomatch::minicc::compile(b.source, b.name).unwrap();
        let xf = idiomatch::xform::transform_module(&m);
        assert_verified(&xf.module, &format!("{} (transformed)", b.name));
        for &seed in &benchsuite::VALIDATION_SEEDS[..2] {
            assert_parity(
                &xf.module,
                b.entry,
                &|mem, s| (b.setup)(mem, s),
                seed,
                None,
                &format!("{} (transformed) seed {seed:#x}", b.name),
            );
        }
    }
}

/// Error paths must agree exactly: same message, same step count, same
/// partial memory effects.
#[test]
fn error_paths_agree_bitwise() {
    let cases: [(&str, &str, Vec<Value>); 3] = [
        (
            "int div(int n) { return 100 / n; }",
            "div",
            vec![Value::I(0)],
        ),
        ("int rem(int n) { return 7 % n; }", "rem", vec![Value::I(0)]),
        (
            "double deref(double* p, int i) { return p[i]; }",
            "deref",
            vec![Value::P(8), Value::I(1 << 20)],
        ),
    ];
    for (src, entry, args) in cases {
        let m = idiomatch::minicc::compile(src, entry).unwrap();
        let t = assert_parity(
            &m,
            entry,
            &|_, _| args.clone(),
            0,
            None,
            &format!("error case {entry}"),
        );
        assert!(t.result.is_err(), "{entry}: case must fail");
    }
    // Unknown function name: identical error string on the VM and the oracle.
    let m = idiomatch::minicc::compile("int id(int x) { return x; }", "id").unwrap();
    let t = assert_parity(&m, "nope", &|_, _| vec![], 0, None, "unknown entry");
    assert!(t.result.is_err());
    // Unbounded self-recursion: the call-depth limit, not a native stack
    // overflow, ends the run at the same step on both executors.
    let m = ssair::parser::parse_module(
        "define i64 @f(i64 %a) {\nentry:\n  %r = call i64 @f(i64 %a)\n  ret i64 %r\n}\n",
    )
    .unwrap();
    assert_verified(&m, "self-recursion");
    let t = assert_parity(
        &m,
        "f",
        &|_, _| vec![Value::I(1)],
        0,
        None,
        "self-recursion",
    );
    assert_eq!(
        t.result,
        Err(format!(
            "execution error: call depth limit of {MAX_CALL_DEPTH} exceeded calling @f"
        ))
    );
    assert_eq!(t.steps, MAX_CALL_DEPTH as u64 + 1);
    // A gep below address 0 wraps to the top of the address space; the
    // load is out of bounds there (the bounds check must not overflow).
    let m = ssair::parser::parse_module(
        "define double @f(double* %p) {\nentry:\n  %a = getelementptr double, double* %p, i64 -2\n  %v = load double, double* %a\n  ret double %v\n}\n",
    )
    .unwrap();
    assert_verified(&m, "address wrap");
    let t = assert_parity(&m, "f", &|_, _| vec![Value::P(8)], 0, None, "address wrap");
    assert_eq!(
        t.result,
        Err("execution error: out-of-bounds access at 18446744073709551608 (+8)".into())
    );
    assert_eq!(t.steps, 2);
}

/// `gep` arithmetic wraps in every build profile: an index whose byte
/// offset overflows `i64` lands where two's-complement arithmetic puts
/// it (here back on `%p`) on both executors.
#[test]
fn gep_offsets_wrap_identically_in_every_profile() {
    let m = ssair::parser::parse_module(
        "define double @f(double* %p) {\nentry:\n  %a = getelementptr double, double* %p, i64 4611686018427387904\n  %v = load double, double* %a\n  ret double %v\n}\n",
    )
    .unwrap();
    assert_verified(&m, "gep wrap");
    let t = assert_parity(
        &m,
        "f",
        &|mem, _| vec![Value::P(mem.alloc_f64_slice(&[1.0]))],
        0,
        None,
        "gep wrap",
    );
    assert_eq!(t.result, Ok(value_bits(Value::F(1.0))));
}

/// Step-limit exhaustion is bitwise too: sweep budgets across a loop so
/// the limit lands on every instruction class (phi updates included) and
/// demand identical cutoff messages and counters.
#[test]
fn step_limit_cutoffs_agree_at_every_budget() {
    let src = "double sum(double* x, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s += x[i];
        return s;
    }";
    let m = idiomatch::minicc::compile(src, "sum").unwrap();
    let setup = |mem: &mut Memory, _seed: u64| {
        let p = mem.alloc_f64_slice(&[1.0, 2.0, 3.0, 4.0]);
        vec![Value::P(p), Value::I(4)]
    };
    let full = assert_parity(&m, "sum", &setup, 0, None, "sum unlimited");
    let total = full.steps;
    assert!(total > 10, "loop must take a nontrivial number of steps");
    let mut saw_cutoff = false;
    for budget in 1..=total {
        let t = assert_parity(
            &m,
            "sum",
            &setup,
            0,
            Some(budget),
            &format!("sum budget {budget}"),
        );
        if budget < total {
            assert!(t.result.is_err(), "budget {budget} of {total} must cut off");
            saw_cutoff = true;
        } else {
            assert_eq!(t.result, full.result, "exact budget must finish");
        }
    }
    assert!(saw_cutoff);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Randomized planted-idiom programs (near-misses and filler
    /// included) execute identically on the VM and the oracle under every fuzz
    /// seed — original and transformed module alike.
    #[test]
    fn progen_programs_agree_bitwise(seed in 0u64..300) {
        let spec = idiomatch::progen::generate(seed);
        let m = idiomatch::minicc::compile(&spec.render(), "prop").unwrap();
        let xf = idiomatch::xform::transform_module(&m);
        assert_verified(&m, &format!("progen {seed}"));
        assert_verified(&xf.module, &format!("progen {seed} (transformed)"));
        for &input in &idiomatch::progen::FUZZ_SEEDS {
            let setup = |mem: &mut Memory, s: u64| idiomatch::progen::setup(mem, s);
            assert_parity(
                &m,
                idiomatch::progen::Spec::ENTRY,
                &setup,
                input,
                None,
                &format!("progen {seed} input {input:#x}"),
            );
            assert_parity(
                &xf.module,
                idiomatch::progen::Spec::ENTRY,
                &setup,
                input,
                None,
                &format!("progen {seed} (transformed) input {input:#x}"),
            );
        }
    }
}
