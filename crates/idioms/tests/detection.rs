//! End-to-end detection tests: C source → minicc → optimized SSA →
//! idiom detection. These are the executable versions of the paper's §4
//! claims, including the Figure 8 semantic-equivalence example.

use idioms::{detect, IdiomKind};

fn kinds_in(src: &str) -> Vec<IdiomKind> {
    let m = minicc::compile(src, "t").expect("compiles");
    let mut out = Vec::new();
    for f in &m.functions {
        for inst in detect(f) {
            out.push(inst.kind);
        }
    }
    out
}

#[test]
fn detects_scalar_sum_reduction() {
    let kinds = kinds_in(
        "double sum(double* x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s += x[i];
            return s;
        }",
    );
    assert_eq!(kinds, vec![IdiomKind::Reduction]);
}

#[test]
fn detects_dot_product_as_reduction() {
    let kinds = kinds_in(
        "double dot(double* x, double* y, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s += x[i] * y[i];
            return s;
        }",
    );
    assert_eq!(kinds, vec![IdiomKind::Reduction]);
}

#[test]
fn detects_complex_reduction_with_kernel() {
    // Max-abs reduction through pure intrinsics: ICC-style dependence
    // analysis handles plain sums; the IDL kernel formulation also takes
    // this (paper §4.2 "generalized reductions").
    let kinds = kinds_in(
        "double norm(double* x, int n) {
            double m = 0.0;
            for (int i = 0; i < n; i++) m = fmax(m, fabs(x[i]));
            return m;
        }",
    );
    assert_eq!(kinds, vec![IdiomKind::Reduction]);
}

#[test]
fn detects_gemm_form_one_of_figure_8() {
    // First form of Figure 8: pointer arithmetic, alpha/beta epilogue.
    let kinds = kinds_in(
        "void sgemm(double* A, double* B, double* C, int m, int n, int k,
                    double alpha, double beta, int lda, int ldb, int ldc) {
            for (int mm = 0; mm < m; mm++) {
                for (int nn = 0; nn < n; nn++) {
                    double c = 0.0;
                    for (int i = 0; i < k; i++) {
                        double a = A[mm + i * lda];
                        double b = B[nn + i * ldb];
                        c += a * b;
                    }
                    C[mm + nn * ldc] = C[mm + nn * ldc] * beta + alpha * c;
                }
            }
        }",
    );
    assert!(kinds.contains(&IdiomKind::Gemm), "got {kinds:?}");
}

#[test]
fn detects_gemm_form_two_of_figure_8() {
    // Second form: 2D-style indexing, in-place accumulation (promoted to a
    // register by the optimizer, exactly like clang -O2).
    let kinds = kinds_in(
        "void mm(double* M1, double* M2, double* M3, int n) {
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++) {
                    M3[i*n+j] = 0.0;
                    for (int k = 0; k < n; k++)
                        M3[i*n+j] += M1[i*n+k] * M2[k*n+j];
                }
        }",
    );
    assert!(kinds.contains(&IdiomKind::Gemm), "got {kinds:?}");
}

#[test]
fn detects_spmv_csr() {
    // The NAS CG kernel of Figure 4.
    let kinds = kinds_in(
        "void spmv(double* a, int* rowstr, int* colidx, double* z, double* r, int m) {
            for (int j = 0; j < m; j++) {
                double d = 0.0;
                for (int k = rowstr[j]; k < rowstr[j+1]; k++)
                    d = d + a[k] * z[colidx[k]];
                r[j] = d;
            }
        }",
    );
    assert!(kinds.contains(&IdiomKind::Spmv), "got {kinds:?}");
    assert!(
        !kinds.contains(&IdiomKind::Reduction),
        "inner dot product is part of the SPMV"
    );
}

#[test]
fn detects_histogram() {
    let kinds = kinds_in(
        "void histo(int* img, int* bins, int n) {
            for (int i = 0; i < n; i++) {
                bins[img[i]] = bins[img[i]] + 1;
            }
        }",
    );
    assert_eq!(kinds, vec![IdiomKind::Histogram]);
}

#[test]
fn detects_stencil_1d() {
    let kinds = kinds_in(
        "void blur(double* out, double* in, int n) {
            for (int i = 1; i < n - 1; i++)
                out[i] = 0.25*in[i-1] + 0.5*in[i] + 0.25*in[i+1];
        }",
    );
    assert!(kinds.contains(&IdiomKind::Stencil1D), "got {kinds:?}");
}

#[test]
fn detects_stencil_2d() {
    let kinds = kinds_in(
        "void jacobi(double* out, double* in, int n) {
            for (int i = 1; i < n - 1; i++)
                for (int j = 1; j < n - 1; j++)
                    out[i*n+j] = 0.2 * (in[i*n+j] + in[(i-1)*n+j] + in[(i+1)*n+j]
                                        + in[i*n+(j-1)] + in[i*n+(j+1)]);
        }",
    );
    assert!(kinds.contains(&IdiomKind::Stencil2D), "got {kinds:?}");
}

#[test]
fn rejects_non_idiomatic_loops() {
    // A loop-carried recurrence (prefix dependence) is not a reduction,
    // histogram or stencil.
    let kinds = kinds_in(
        "void scan(double* x, int n) {
            for (int i = 1; i < n; i++) x[i] = x[i] + x[i-1];
        }",
    );
    assert!(kinds.is_empty(), "got {kinds:?}");
}

#[test]
fn rejects_impure_reduction_kernels() {
    // The update writes memory through a second store: not a pure kernel.
    let kinds = kinds_in(
        "double weird(double* x, double* log_, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) { s += x[i]; log_[i] = s; }
            return s;
        }",
    );
    // The reduction *is* structurally present; what must NOT match is a
    // stencil or histogram. The extraction-time side-effect check (xform)
    // rejects the replacement; see crates/xform tests.
    assert!(!kinds.contains(&IdiomKind::Histogram));
    assert!(!kinds.contains(&IdiomKind::Stencil1D));
}

#[test]
fn multiple_reductions_in_one_function_all_found() {
    let kinds = kinds_in(
        "double two(double* x, double* y, int n) {
            double a = 0.0;
            double b = 1.0;
            for (int i = 0; i < n; i++) a += x[i];
            for (int j = 0; j < n; j++) b = b * y[j];
            return a + b;
        }",
    );
    let reductions = kinds.iter().filter(|&&k| k == IdiomKind::Reduction).count();
    assert_eq!(reductions, 2, "got {kinds:?}");
}

#[test]
fn bindings_expose_the_figure_5_variables() {
    let m = minicc::compile(
        "void spmv(double* a, int* rowstr, int* colidx, double* z, double* r, int m) {
            for (int j = 0; j < m; j++) {
                double d = 0.0;
                for (int k = rowstr[j]; k < rowstr[j+1]; k++)
                    d = d + a[k] * z[colidx[k]];
                r[j] = d;
            }
        }",
        "t",
    )
    .unwrap();
    let f = m.function("spmv").unwrap();
    let insts = detect(f);
    let spmv = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Spmv)
        .expect("spmv found");
    // The variables of the paper's Figure 5 solution table are all bound.
    for var in [
        "iterator",
        "inner.iter_begin",
        "inner.iter_end",
        "inner.iterator",
        "idx_read.value",
        "indir_read.value",
        "output.address",
        "idx_read.base_pointer",
        "seq_read.base_pointer",
        "indir_read.base_pointer",
    ] {
        assert!(spmv.value(var).is_some(), "missing binding for {var}");
    }
}

#[test]
fn detect_module_matches_the_serial_per_function_loop() {
    // The parallel driver must be observably identical to the serial
    // loop: same instances, same order, same bindings.
    let m = minicc::compile(
        "double mixed(double* x, double* y, int* bins, int* key, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s += x[i];
            for (int i = 0; i < n; i++) bins[key[i]] += 1;
            for (int i = 1; i < n - 1; i++) y[i] = x[i-1] + x[i] + x[i+1];
            return s;
        }
        double dot(double* x, double* y, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s += x[i] * y[i];
            return s;
        }
        double plain(double* x, int n) {
            double last = 0.0;
            for (int i = 0; i < n; i++) last = x[i];
            return last;
        }",
        "t",
    )
    .unwrap();
    let serial: Vec<_> = m.functions.iter().flat_map(detect).collect();
    let parallel = idioms::detect_module(&m);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.kind, p.kind);
        assert_eq!(s.function, p.function);
        assert_eq!(s.anchor, p.anchor);
        assert_eq!(s.blocks, p.blocks);
        assert_eq!(s.bindings, p.bindings);
    }
}

#[test]
fn detect_with_surfaces_truncation() {
    let m = minicc::compile(
        "double many(double* x, double* y, double* z, int n) {
            double a = 0.0; double b = 0.0; double c = 0.0;
            for (int i = 0; i < n; i++) a += x[i];
            for (int i = 0; i < n; i++) b += y[i];
            for (int i = 0; i < n; i++) c += z[i];
            return a + b + c;
        }",
        "t",
    )
    .unwrap();
    let f = m.function("many").unwrap();
    let full = idioms::detect_with(f, &idioms::DetectOptions::default());
    assert!(full.complete, "generous limits: enumeration finishes");
    assert_eq!(full.instances.len(), 3);
    assert!(full.steps > 0);
    assert_eq!(full.steps_by_kind.len(), 6, "one entry per idiom kind");
    assert_eq!(
        full.steps,
        full.skeleton_steps + full.steps_by_kind.values().sum::<u64>(),
        "total is the shared skeleton prepass plus the per-kind costs"
    );
    assert!(
        full.skeleton_steps > 0,
        "the loop-skeleton prepass runs by default"
    );
    // A starved budget must be reported, not silently undercounted.
    let starved = idioms::detect_with(f, &idioms::DetectOptions { max_steps: 10 });
    assert!(
        !starved.complete,
        "step-starved detection reports truncation"
    );
    assert!(starved.instances.len() < 3);
}

#[test]
fn fingerprint_pruning_skips_obvious_non_matches_with_zero_steps() {
    // Loop-free: every idiom requires at least one loop, so all six
    // idiom×function pairs are pruned before the solver ever runs.
    let m = minicc::compile(
        "double clamp(double x, double lo, double hi) {
            if (x < lo) return lo;
            if (x > hi) return hi;
            return x;
        }",
        "t",
    )
    .unwrap();
    let f = m.function("clamp").unwrap();
    let d = idioms::detect_with(f, &idioms::DetectOptions::default());
    assert!(d.complete);
    assert!(d.instances.is_empty());
    assert_eq!(d.pruned_pairs, 6, "all six kinds pruned");
    assert_eq!(d.steps, 0, "pruned pairs must cost zero solver steps");
    assert_eq!(d.steps_by_kind.len(), 6, "pruned kinds still report (as 0)");

    // A store-free loop keeps Reduction in play (its store-free spine)
    // but prunes every store-anchored idiom.
    let m = minicc::compile(
        "double sum(double* x, int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s += x[i];
            return s;
        }",
        "t",
    )
    .unwrap();
    let f = m.function("sum").unwrap();
    let d = idioms::detect_with(f, &idioms::DetectOptions::default());
    assert!(d.complete);
    assert_eq!(d.instances.len(), 1);
    assert!(
        d.pruned_pairs >= 4,
        "store/depth requirements prune most kinds, got {}",
        d.pruned_pairs
    );
    // Pruning never loses matches: the pruned kinds are exactly those
    // the fingerprint cannot admit, and the unseeded, unpruned search
    // finds no solution for any of them.
    let fingerprint = analysis::FunctionFingerprint::of(f);
    let solver = solver::Solver::new(f);
    let opts = solver::SolveOptions {
        max_solutions: idioms::MAX_SOLUTIONS,
        max_steps: idioms::DetectOptions::default().max_steps,
    };
    let mut pruned = 0;
    for kind in IdiomKind::ALL {
        if idioms::requirements(kind).admitted_by(&fingerprint) {
            continue;
        }
        pruned += 1;
        assert_eq!(d.steps_by_kind[&kind], 0, "{kind:?} pruned at zero cost");
        let reference = solver.solve_outcome(idioms::compiled(kind), &opts);
        assert!(reference.complete);
        assert!(
            reference.solutions.is_empty(),
            "{kind:?} pruned but the unpruned search matches"
        );
    }
    assert_eq!(d.pruned_pairs, pruned);
}
