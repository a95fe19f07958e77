//! End-to-end replacement validation: compile C → detect → replace →
//! execute original and transformed programs and compare results. This is
//! the §6 pipeline with the §6.3 soundness checks on the rejection paths.

use analysis::ParamAliasFacts;
use idioms::{detect, IdiomKind};
use interp::{Machine, Value};
use ssair::Module;
use std::sync::Arc;

fn compile(src: &str) -> Module {
    minicc::compile(src, "t").expect("compiles")
}

/// Register the fixed-function "vendor library" entry points the library
/// path calls (these mirror the hetero crate's executors).
fn register_hosts(vm: &mut Machine) {
    vm.register_host(
        "gemm_f64",
        Arc::new(|mem, args| {
            let (a, b, c) = (args[0].as_p(), args[1].as_p(), args[2].as_p());
            let (m, n, k) = (args[3].as_i(), args[4].as_i(), args[5].as_i());
            let (sa, sb, sc) = (args[6].as_i(), args[7].as_i(), args[8].as_i());
            let (ar, br, cr) = (args[9].as_i(), args[10].as_i(), args[11].as_i());
            let beta = args[12].as_f();
            let addr = |base: u64, col: i64, row: i64, stride: i64, row_scaled: i64| {
                let idx = if row_scaled != 0 {
                    row * stride + col
                } else {
                    col * stride + row
                };
                base + 8 * idx as u64
            };
            for i0 in 0..m {
                for i1 in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..k {
                        let av = mem.load_f64(addr(a, i0, kk, sa, ar))?;
                        let bv = mem.load_f64(addr(b, i1, kk, sb, br))?;
                        acc += av * bv;
                    }
                    let ca = addr(c, i0, i1, sc, cr);
                    let old = if beta != 0.0 {
                        mem.load_f64(ca)? * beta
                    } else {
                        0.0
                    };
                    mem.store_f64(ca, acc + old)?;
                }
            }
            Ok(Value::I(0))
        }),
    );
    vm.register_host(
        "csrmv_f64",
        Arc::new(|mem, args| {
            let (vals, rowptr, colidx, x, y) = (
                args[0].as_p(),
                args[1].as_p(),
                args[2].as_p(),
                args[3].as_p(),
                args[4].as_p(),
            );
            let m = args[5].as_i();
            let (rw, cw) = (args[6].as_i(), args[7].as_i());
            let load_idx = |mem: &interp::Memory, base: u64, k: i64, w: i64| {
                if w == 4 {
                    mem.load_i32(base + 4 * k as u64)
                } else {
                    mem.load_i64(base + 8 * k as u64)
                }
            };
            for j in 0..m {
                let lo = load_idx(mem, rowptr, j, rw)?;
                let hi = load_idx(mem, rowptr, j + 1, rw)?;
                let mut d = 0.0;
                for k in lo..hi {
                    let col = load_idx(mem, colidx, k, cw)?;
                    d += mem.load_f64(vals + 8 * k as u64)? * mem.load_f64(x + 8 * col as u64)?;
                }
                mem.store_f64(y + 8 * j as u64, d)?;
            }
            Ok(Value::I(0))
        }),
    );
}

#[test]
fn reduction_replacement_preserves_results() {
    let src = "double dot(double* x, double* y, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s += x[i] * y[i];
        return s;
    }";
    let original = compile(src);
    let mut transformed = original.clone();
    let insts = detect(original.function("dot").unwrap());
    let red = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Reduction)
        .expect("found");
    let rep = xform::apply_replacement(&mut transformed, red, 0, &ParamAliasFacts::default())
        .expect("replaced");
    assert!(rep.callee.starts_with("lift_red_"));
    assert!(
        transformed.function(&rep.callee).is_some(),
        "device code linked in"
    );

    let xs: Vec<f64> = (0..37).map(|i| 0.5 + i as f64).collect();
    let ys: Vec<f64> = (0..37).map(|i| 2.0 - 0.25 * i as f64).collect();
    let run = |m: &Module| {
        let mut vm = Machine::new(m);
        let xp = vm.mem.alloc_f64_slice(&xs);
        let yp = vm.mem.alloc_f64_slice(&ys);
        vm.run("dot", &[Value::P(xp), Value::P(yp), Value::I(37)])
            .unwrap()
            .as_f()
    };
    assert_eq!(run(&original), run(&transformed));
}

#[test]
fn max_reduction_with_intrinsics_round_trips() {
    let src = "double norm(double* x, int n) {
        double m = 0.0;
        for (int i = 0; i < n; i++) m = fmax(m, fabs(x[i]));
        return m;
    }";
    let original = compile(src);
    let mut transformed = original.clone();
    let insts = detect(original.function("norm").unwrap());
    let red = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Reduction)
        .expect("found");
    xform::apply_replacement(&mut transformed, red, 1, &ParamAliasFacts::default())
        .expect("replaced");
    let xs: Vec<f64> = (0..29).map(|i| ((i * 37) % 13) as f64 - 6.0).collect();
    let run = |m: &Module| {
        let mut vm = Machine::new(m);
        let xp = vm.mem.alloc_f64_slice(&xs);
        vm.run("norm", &[Value::P(xp), Value::I(29)])
            .unwrap()
            .as_f()
    };
    assert_eq!(run(&original), run(&transformed));
}

#[test]
fn histogram_replacement_preserves_bins() {
    let src = "void histo(int* img, int* bins, int n) {
        for (int i = 0; i < n; i++) bins[img[i]] = bins[img[i]] + 1;
    }";
    let original = compile(src);
    let mut transformed = original.clone();
    let insts = detect(original.function("histo").unwrap());
    let h = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Histogram)
        .expect("found");
    xform::apply_replacement(&mut transformed, h, 2, &ParamAliasFacts::default())
        .expect("replaced");
    let img: Vec<i32> = (0..101).map(|i| (i * 7) % 16).collect();
    let run = |m: &Module| {
        let mut vm = Machine::new(m);
        let ip = vm.mem.alloc_i32_slice(&img);
        let bp = vm.mem.alloc_i32_slice(&[0; 16]);
        vm.run("histo", &[Value::P(ip), Value::P(bp), Value::I(101)])
            .unwrap();
        vm.mem.read_i32_slice(bp, 16)
    };
    assert_eq!(run(&original), run(&transformed));
}

#[test]
fn stencil1d_replacement_preserves_output() {
    let src = "void blur(double* out, double* in_, int n) {
        for (int i = 1; i < n - 1; i++)
            out[i] = 0.25*in_[i-1] + 0.5*in_[i] + 0.25*in_[i+1];
    }";
    let original = compile(src);
    let mut transformed = original.clone();
    let insts = detect(original.function("blur").unwrap());
    let st = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Stencil1D)
        .expect("found");
    xform::apply_replacement(&mut transformed, st, 3, &ParamAliasFacts::default())
        .expect("replaced");
    let input: Vec<f64> = (0..50).map(|i| (i as f64).sin()).collect();
    let run = |m: &Module| {
        let mut vm = Machine::new(m);
        let op = vm.mem.alloc_f64_slice(&vec![0.0; 50]);
        let ip = vm.mem.alloc_f64_slice(&input);
        vm.run("blur", &[Value::P(op), Value::P(ip), Value::I(50)])
            .unwrap();
        vm.mem.read_f64_slice(op, 50)
    };
    assert_eq!(run(&original), run(&transformed));
}

#[test]
fn stencil2d_replacement_preserves_output() {
    let src = "void jacobi(double* out, double* in_, int n) {
        for (int i = 1; i < n - 1; i++)
            for (int j = 1; j < n - 1; j++)
                out[i*n+j] = 0.2 * (in_[i*n+j] + in_[(i-1)*n+j] + in_[(i+1)*n+j]
                                    + in_[i*n+(j-1)] + in_[i*n+(j+1)]);
    }";
    let original = compile(src);
    let mut transformed = original.clone();
    let insts = detect(original.function("jacobi").unwrap());
    let st = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Stencil2D)
        .expect("found");
    xform::apply_replacement(&mut transformed, st, 4, &ParamAliasFacts::default())
        .expect("replaced");
    let n = 12;
    let input: Vec<f64> = (0..n * n).map(|i| ((i * 31) % 17) as f64 * 0.5).collect();
    let run = |m: &Module| {
        let mut vm = Machine::new(m);
        let op = vm.mem.alloc_f64_slice(&vec![0.0; n * n]);
        let ip = vm.mem.alloc_f64_slice(&input);
        vm.run("jacobi", &[Value::P(op), Value::P(ip), Value::I(n as i64)])
            .unwrap();
        vm.mem.read_f64_slice(op, n * n)
    };
    assert_eq!(run(&original), run(&transformed));
}

#[test]
fn gemm_replacement_calls_the_library() {
    let src = "void mm(double* M1, double* M2, double* M3, int n) {
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
                M3[i*n+j] = 0.0;
                for (int k = 0; k < n; k++)
                    M3[i*n+j] += M1[i*n+k] * M2[k*n+j];
            }
    }";
    let original = compile(src);
    let mut transformed = original.clone();
    let insts = detect(original.function("mm").unwrap());
    let g = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Gemm)
        .expect("found");
    let rep = xform::apply_replacement(&mut transformed, g, 5, &ParamAliasFacts::default())
        .expect("replaced");
    assert_eq!(rep.callee, "gemm_f64");
    let n = 9;
    let a: Vec<f64> = (0..n * n).map(|i| ((i * 13) % 7) as f64).collect();
    let b: Vec<f64> = (0..n * n).map(|i| ((i * 5) % 11) as f64 - 3.0).collect();
    let run = |m: &Module| {
        let mut vm = Machine::new(m);
        register_hosts(&mut vm);
        let ap = vm.mem.alloc_f64_slice(&a);
        let bp = vm.mem.alloc_f64_slice(&b);
        let cp = vm.mem.alloc_f64_slice(&vec![0.0; n * n]);
        vm.run(
            "mm",
            &[Value::P(ap), Value::P(bp), Value::P(cp), Value::I(n as i64)],
        )
        .unwrap();
        vm.mem.read_f64_slice(cp, n * n)
    };
    assert_eq!(run(&original), run(&transformed));
}

#[test]
fn spmv_replacement_calls_the_library() {
    let src = "void spmv(double* a, int* rowstr, int* colidx, double* z, double* r, int m) {
        for (int j = 0; j < m; j++) {
            double d = 0.0;
            for (int k = rowstr[j]; k < rowstr[j+1]; k++)
                d = d + a[k] * z[colidx[k]];
            r[j] = d;
        }
    }";
    let original = compile(src);
    let mut transformed = original.clone();
    let insts = detect(original.function("spmv").unwrap());
    let s = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Spmv)
        .expect("found");
    let rep = xform::apply_replacement(&mut transformed, s, 6, &ParamAliasFacts::default())
        .expect("replaced");
    assert_eq!(rep.callee, "csrmv_f64");
    // A small CSR matrix: 4 rows.
    let rowstr: Vec<i32> = vec![0, 2, 4, 5, 7];
    let colidx: Vec<i32> = vec![0, 1, 1, 2, 3, 0, 3];
    let vals: Vec<f64> = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    let z: Vec<f64> = vec![1.5, -2.0, 0.5, 3.0];
    let run = |m: &Module| {
        let mut vm = Machine::new(m);
        register_hosts(&mut vm);
        let ap = vm.mem.alloc_f64_slice(&vals);
        let rp = vm.mem.alloc_i32_slice(&rowstr);
        let cp = vm.mem.alloc_i32_slice(&colidx);
        let zp = vm.mem.alloc_f64_slice(&z);
        let yp = vm.mem.alloc_f64_slice(&[0.0; 4]);
        vm.run(
            "spmv",
            &[
                Value::P(ap),
                Value::P(rp),
                Value::P(cp),
                Value::P(zp),
                Value::P(yp),
                Value::I(4),
            ],
        )
        .unwrap();
        vm.mem.read_f64_slice(yp, 4)
    };
    assert_eq!(run(&original), run(&transformed));
}

#[test]
fn certificates_map_covers_committed_callees() {
    let src = "void mm(double* M1, double* M2, double* M3, int n) {
        for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
                M3[i*n+j] = 0.0;
                for (int k = 0; k < n; k++)
                    M3[i*n+j] += M1[i*n+k] * M2[k*n+j];
            }
    }
    double dot(double* x, double* y, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) s += x[i] * y[i];
        return s;
    }";
    let m = compile(src);
    let xf = xform::transform_module(&m);
    let certs = xf.certificates();
    // One certificate per introduced callee, none of them serial (the
    // parallel executor registry is keyed off this map).
    assert_eq!(certs.len(), xf.replaced());
    assert!(certs.contains_key("gemm_f64"));
    assert!(certs.keys().any(|c| c.starts_with("lift_red_")));
    for (callee, safety) in &certs {
        assert_ne!(
            *safety,
            idioms::ParallelSafety::Serial,
            "{callee} unexpectedly serial"
        );
    }
}

#[test]
fn unsound_regions_are_rejected() {
    // The loop logs partial sums: an extra store the reduction replacement
    // would lose. Detection may fire, replacement must refuse.
    let src = "double weird(double* x, double* log_, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) { s += x[i]; log_[i] = s; }
        return s;
    }";
    let m = compile(src);
    let insts = detect(m.function("weird").unwrap());
    for inst in insts.iter().filter(|i| i.kind == IdiomKind::Reduction) {
        let mut t = m.clone();
        let err =
            xform::apply_replacement(&mut t, inst, 9, &ParamAliasFacts::default()).unwrap_err();
        assert!(matches!(err, xform::XformError::Unsound(_)), "got {err:?}");
    }
}

#[test]
fn conditional_histogram_is_not_offloaded() {
    let src = "void chisto(int* img, int* bins, int n) {
        for (int i = 0; i < n; i++) {
            if (img[i] > 0) { bins[img[i]] = bins[img[i]] + 1; }
        }
    }";
    let m = compile(src);
    let insts = detect(m.function("chisto").unwrap());
    for inst in insts.iter().filter(|i| i.kind == IdiomKind::Histogram) {
        let mut t = m.clone();
        assert!(xform::apply_replacement(&mut t, inst, 10, &ParamAliasFacts::default()).is_err());
    }
}

#[test]
fn alpha_beta_gemm_is_detected_but_not_offloaded() {
    // The Figure-8 first form with the full alpha/beta epilogue: the
    // library backend's calling convention does not cover it, so the
    // rewrite refuses with Unsupported while detection stands.
    let src = "void g(double* A, double* B, double* C, int m, int n, int k,
                      double alpha, double beta) {
        for (int mm = 0; mm < m; mm++)
            for (int nn = 0; nn < n; nn++) {
                double c = 0.0;
                for (int i = 0; i < k; i++) c += A[mm + i*m] * B[nn + i*n];
                C[mm + nn*m] = C[mm + nn*m] * beta + alpha * c;
            }
    }";
    let m = compile(src);
    let insts = detect(m.function("g").unwrap());
    let g = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Gemm)
        .expect("detected");
    let mut t = m.clone();
    let err = xform::apply_replacement(&mut t, g, 20, &ParamAliasFacts::default()).unwrap_err();
    assert!(
        matches!(err, xform::XformError::Unsupported(_)),
        "got {err:?}"
    );
}

#[test]
fn strided_reduction_is_detected_but_not_offloaded() {
    let src = "double s(double* x, int n) {
        double a = 0.0;
        for (int i = 0; i < n; i += 3) a += x[i];
        return a;
    }";
    let m = compile(src);
    let insts = detect(m.function("s").unwrap());
    let r = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Reduction)
        .expect("detected");
    let mut t = m.clone();
    let err = xform::apply_replacement(&mut t, r, 21, &ParamAliasFacts::default()).unwrap_err();
    assert!(matches!(err, xform::XformError::Unsupported(_)));
}

#[test]
fn generated_device_code_always_verifies() {
    // Each DSL-path replacement links generated IR; the generator refuses
    // rather than linking unverifiable code. Spot-check across kinds.
    let cases = [
        ("double s(double* x, double* y, int n) { double a = 1.0; for (int i = 0; i < n; i++) a = a * (x[i] + y[i]); return a; }", "s", IdiomKind::Reduction),
        ("void h(int* k, int* b, int n) { for (int i = 0; i < n; i++) b[k[i]] = b[k[i]] + k[i]; }", "h", IdiomKind::Histogram),
    ];
    for (src, fname, kind) in cases {
        let m = compile(src);
        let insts = detect(m.function(fname).unwrap());
        let inst = insts.iter().find(|i| i.kind == kind).expect("detected");
        let mut t = m.clone();
        let rep = xform::apply_replacement(&mut t, inst, 22, &ParamAliasFacts::default())
            .expect("replaced");
        for g in &rep.generated {
            let f = t.function(g).expect("linked");
            ssair::verify::verify_function(f).expect("generated code verifies");
        }
    }
}
