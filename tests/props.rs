//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

/// Random small straight-line programs for printer/parser round-trips.
fn arb_program() -> impl Strategy<Value = String> {
    // ops chosen per step: add/mul on accumulated values
    proptest::collection::vec((0u8..3, any::<bool>()), 1..20).prop_map(|steps| {
        let mut body = String::new();
        let mut vals = vec!["%a".to_owned(), "%b".to_owned()];
        for (k, (op, pick)) in steps.iter().enumerate() {
            let x = vals[k % vals.len()].clone();
            let y = if *pick {
                vals[0].clone()
            } else {
                vals[vals.len() - 1].clone()
            };
            let mn = match op {
                0 => "add",
                1 => "mul",
                _ => "sub",
            };
            body.push_str(&format!("  %t{k} = {mn} i64 {x}, {y}\n"));
            vals.push(format!("%t{k}"));
        }
        format!(
            "define i64 @f(i64 %a, i64 %b) {{\nentry:\n{body}  ret i64 {}\n}}\n",
            vals.last().unwrap()
        )
    })
}

/// Random small minicc programs exercising the statement/expression forms
/// the frontend supports: loops, compound assignment, intrinsic calls,
/// ternaries, guards and array writes.
fn arb_minicc() -> impl Strategy<Value = String> {
    let stmt = (0u8..6, -4i32..5).prop_map(|(kind, c)| match kind {
        0 => format!("s = s + x[i] * {c}.0;"),
        1 => "s = fmax(s, fabs(x[i]));".to_owned(),
        2 => format!("y[i] = x[i] * {c}.0;"),
        3 => format!("s += x[i] > {c}.0 ? x[i] : 0.0;"),
        4 => format!("if (x[i] > {c}.0) {{ y[i] = x[i]; }}"),
        _ => format!("t = t + {c};"),
    });
    (proptest::collection::vec(stmt, 1..6), 0u8..3).prop_map(|(stmts, bound)| {
        let body = stmts.join("\n                ");
        let header = match bound {
            0 => "for (int i = 0; i < n; i++)",
            1 => "for (int i = 0; i < n - 1; i += 2)",
            _ => "for (int i = 1; n > i; i++)",
        };
        format!(
            "double f(double* x, double* y, int n) {{
            double s = 0.0;
            int t = 0;
            {header} {{
                {body}
            }}
            return s + (double)t;
        }}"
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn printer_parser_fixpoint(src in arb_program()) {
        let f1 = idiomatch::ssair::parser::parse_function_text(&src).unwrap();
        let p1 = idiomatch::ssair::printer::print_function(&f1);
        let f2 = idiomatch::ssair::parser::parse_function_text(&p1).unwrap();
        let p2 = idiomatch::ssair::printer::print_function(&f2);
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn printer_parser_round_trip_preserves_module_equality(src in arb_program()) {
        // Module-level: parsing the printed form reproduces the module
        // structurally (same arenas, blocks and operands), not just the
        // same text.
        let m1 = idiomatch::ssair::parser::parse_module(&src).unwrap();
        let p1 = idiomatch::ssair::printer::print_module(&m1);
        let m2 = idiomatch::ssair::parser::parse_module(&p1).unwrap();
        prop_assert_eq!(&m1, &m2);
    }

    #[test]
    fn verify_accepts_everything_minicc_lowers(src in arb_minicc()) {
        // The frontend contract: both the raw lowering and the optimized
        // pipeline only ever produce verifier-clean modules.
        let raw = idiomatch::minicc::compile_unoptimized(&src, "prop").unwrap();
        prop_assert!(idiomatch::ssair::verify::verify_module(&raw).is_ok(),
            "unoptimized module fails verification");
        let opt = idiomatch::minicc::compile(&src, "prop").unwrap();
        prop_assert!(idiomatch::ssair::verify::verify_module(&opt).is_ok(),
            "optimized module fails verification");
    }

    #[test]
    fn interpreter_is_deterministic(src in arb_program(), a in -100i64..100, b in -100i64..100) {
        let m = idiomatch::ssair::parser::parse_module(&src).unwrap();
        use idiomatch::interp::{Machine, Value};
        let mut vm1 = Machine::new(&m);
        let mut vm2 = Machine::new(&m);
        let r1 = vm1.run("f", &[Value::I(a), Value::I(b)]).unwrap();
        let r2 = vm2.run("f", &[Value::I(a), Value::I(b)]).unwrap();
        prop_assert_eq!(r1, r2);
    }

    #[test]
    fn reduction_replacement_matches_for_random_inputs(
        xs in proptest::collection::vec(-100.0f64..100.0, 1..40)
    ) {
        let src = "double s(double* x, int n) { double a = 0.0; for (int i = 0; i < n; i++) a += x[i] * 0.5; return a; }";
        let module = idiomatch::minicc::compile(src, "prop").unwrap();
        let insts = idiomatch::idioms::detect(module.function("s").unwrap());
        let red = insts.iter().find(|i| i.kind == idiomatch::idioms::IdiomKind::Reduction).unwrap();
        let mut transformed = module.clone();
        idiomatch::xform::apply_replacement(&mut transformed, red, 0, &idiomatch::analysis::ParamAliasFacts::default()).unwrap();
        use idiomatch::interp::{Machine, Value};
        let run = |m: &idiomatch::ssair::Module| {
            let mut vm = Machine::new(m);
            let p = vm.mem.alloc_f64_slice(&xs);
            vm.run("s", &[Value::P(p), Value::I(xs.len() as i64)]).unwrap().as_f()
        };
        prop_assert_eq!(run(&module), run(&transformed));
    }

    #[test]
    fn gemm_host_matches_oracle(
        n in 1usize..6,
        seed in 0u64..1000
    ) {
        // Random matrices through the simulated cuBLAS entry point vs a
        // naive oracle.
        let mk = |s: u64, len: usize| -> Vec<f64> {
            (0..len).map(|i| (((i as u64 + s) * 2654435761) % 17) as f64 - 8.0).collect()
        };
        let a = mk(seed, n * n);
        let b = mk(seed + 1, n * n);
        let text = "define void @run(double* %a, double* %b, double* %c, i64 %n) {\nentry:\n  call void @gemm_f64(double* %a, double* %b, double* %c, i64 %n, i64 %n, i64 %n, i64 %n, i64 %n, i64 %n, i64 0, i64 0, i64 0, double 0.0)\n  ret void\n}\n";
        let m = idiomatch::ssair::parser::parse_module(text).unwrap();
        use idiomatch::interp::{Machine, Value};
        let mut vm = Machine::new(&m);
        idiomatch::hetero::hosts::register_all(&mut vm);
        let ap = vm.mem.alloc_f64_slice(&a);
        let bp = vm.mem.alloc_f64_slice(&b);
        let cp = vm.mem.alloc_f64_slice(&vec![0.0; n * n]);
        vm.run("run", &[Value::P(ap), Value::P(bp), Value::P(cp), Value::I(n as i64)]).unwrap();
        let got = vm.mem.read_f64_slice(cp, n * n);
        // addr(col,row) with row_scaled=0: idx = col*n + row.
        for i0 in 0..n {
            for i1 in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a[i0 * n + k] * b[i1 * n + k];
                }
                prop_assert!((got[i0 * n + i1] - acc).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn transform_module_overlap_resolution_is_input_order_independent(
        progen_seed in 0u64..400,
        shuffle_seed in proptest::arbitrary::any::<u64>()
    ) {
        // Shuffling the detected-instance input order must not change
        // the transformation: byte-identical transformed module, and the
        // same per-instance Replaced/Shadowed/Failed verdicts (shadow
        // edges compared by the winning instance's identity, since
        // `Shadowed { by }` indexes into the input order).
        use idiomatch::xform::{transform_instances, ModuleXform, Outcome};
        let spec = idiomatch::progen::generate(progen_seed);
        let module = idiomatch::minicc::compile(&spec.render(), "prop").unwrap();
        let instances = idiomatch::idioms::detect_module(&module);
        // Every progen program plants at least one idiom, so the shuffle
        // always has material to permute.
        prop_assert!(!instances.is_empty());

        let mut shuffled = instances.clone();
        idiomatch::progen::Rng::new(shuffle_seed).shuffle(&mut shuffled);

        // One comparable verdict per instance, keyed by instance
        // identity and independent of input position.
        let describe = |xf: &ModuleXform| -> Vec<String> {
            let mut rows: Vec<String> = xf
                .outcomes
                .iter()
                .map(|o| {
                    let inst = &o.instance;
                    let verdict = match &o.outcome {
                        Outcome::Replaced(r) => format!("replaced:{}", r.kind.constraint_name()),
                        Outcome::Shadowed { by } => {
                            let w = &xf.outcomes[*by].instance;
                            format!("shadowed-by:{}:{:?}:{}", w.function, w.kind, w.anchor)
                        }
                        Outcome::Failed(e) => format!("failed:{e}"),
                    };
                    format!("{}:{:?}:{}:{verdict}", inst.function, inst.kind, inst.anchor)
                })
                .collect();
            rows.sort();
            rows
        };
        let a = transform_instances(&module, instances);
        let b = transform_instances(&module, shuffled);
        prop_assert_eq!(
            idiomatch::ssair::printer::print_module(&a.module),
            idiomatch::ssair::printer::print_module(&b.module),
            "transformed modules must be byte-identical"
        );
        prop_assert_eq!(describe(&a), describe(&b));
    }

    #[test]
    fn solver_solutions_always_satisfy_the_formula(
        ops in proptest::collection::vec(0u8..2, 1..12)
    ) {
        // Soundness: every factorization the solver reports really has a
        // shared factor.
        let mut body = String::new();
        let mut names = vec!["%a".to_owned(), "%b".to_owned(), "%c".to_owned()];
        for (k, op) in ops.iter().enumerate() {
            let x = names[k % names.len()].clone();
            let y = names[(k + 1) % names.len()].clone();
            let mn = if *op == 0 { "mul" } else { "add" };
            body.push_str(&format!("  %t{k} = {mn} i32 {x}, {y}\n"));
            names.push(format!("%t{k}"));
        }
        let src = format!(
            "define i32 @f(i32 %a, i32 %b, i32 %c) {{\nentry:\n{body}  ret i32 {}\n}}\n",
            names.last().unwrap()
        );
        let f = idiomatch::ssair::parser::parse_function_text(&src).unwrap();
        let lib = idiomatch::idl::parse_library(
            "Constraint F ( {s} is add instruction and {l} is first argument of {s} and {l} is mul instruction and {r} is second argument of {s} and {r} is mul instruction and ( {x} is first argument of {l} or {x} is second argument of {l} ) and ( {x} is first argument of {r} or {x} is second argument of {r} ) ) End",
        ).unwrap();
        let c = idiomatch::idl::compile(&lib, "F").unwrap();
        let solver = idiomatch::solver::Solver::new(&f);
        for sol in solver.solve(&c, &idiomatch::solver::SolveOptions::default()) {
            let s = sol.bindings["s"];
            let l = sol.bindings["l"];
            let r = sol.bindings["r"];
            let x = sol.bindings["x"];
            let i_s = f.instr(s).unwrap();
            prop_assert_eq!(i_s.opcode, idiomatch::ssair::Opcode::Add);
            prop_assert_eq!(i_s.operands[0], l);
            prop_assert_eq!(i_s.operands[1], r);
            prop_assert!(f.instr(l).unwrap().operands.contains(&x));
            prop_assert!(f.instr(r).unwrap().operands.contains(&x));
        }
    }
}
