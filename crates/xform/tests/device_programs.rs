//! Pins the exact text of the device programs the DSL backends generate
//! (the IR standing in for the Lift/Halide output, paper §6.2): one
//! reduction, histogram, Stencil1D and Stencil2D replacement each over an
//! `i32` and an `i64` iterator. Any change to the emitted program — value
//! names, parameter order, widening, offsets — fails here, so a refactor
//! of the emitters must reproduce them byte for byte.

use idioms::IdiomKind;
use xform::Outcome;

/// Transforms `src` and prints the device program (the call target) of its
/// `kind` replacement.
fn device_program(src: &str, kind: IdiomKind) -> String {
    let module = minicc::compile(src, "t").expect("compiles");
    let xf = xform::transform_module(&module);
    let callee = xf
        .outcomes
        .iter()
        .find_map(|o| match &o.outcome {
            Outcome::Replaced(r) if r.kind == kind => Some(r.callee.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no {kind:?} replacement: {:?}", xf.outcomes));
    ssair::printer::print_function(xf.module.function(&callee).expect("device program linked"))
}

/// Reduction: an i32 iterator widened per read, and one extra kernel operand (`a`).
#[test]
fn reduction_over_an_i32_iterator_passes_kernel_operands_through() {
    let src = "double s(double* x, double a, int n) { double acc = 0.0; for (int i = 0; i < n; i++) acc += a * x[i]; return acc; }";
    assert_eq!(
        device_program(src, IdiomKind::Reduction),
        r"define double @lift_red_0(double* %b0, i32 %begin, i32 %end, double %init, double %x0) {
entry:
  br label %header
header:
  %i = phi i32 [ %begin, %entry ], [ %inext, %latch ]
  %acc = phi double [ %init, %entry ], [ %nacc, %latch ]
  %c = icmp slt i32 %i, %end
  br i1 %c, label %latch, label %exit
latch:
  %iw0 = sext i32 %i to i64
  %a0 = getelementptr double, double* %b0, i64 %iw0
  %v0 = load double, double* %a0
  %nacc = call double @red_kernel_0(double %v0, double %acc, double %x0)
  %inext = add i32 %i, 1
  br label %header
exit:
  ret double %acc
}
"
    );
}

/// Reduction: an i64 iterator indexing two reads directly.
#[test]
fn reduction_over_an_i64_iterator_loads_every_read() {
    let src = "double s(double* x, double* y, long n) { double acc = 1.0; for (long i = 0; i < n; i++) acc = acc * x[i] + y[i]; return acc; }";
    assert_eq!(
        device_program(src, IdiomKind::Reduction),
        r"define double @lift_red_0(double* %b0, double* %b1, i64 %begin, i64 %end, double %init) {
entry:
  br label %header
header:
  %i = phi i64 [ %begin, %entry ], [ %inext, %latch ]
  %acc = phi double [ %init, %entry ], [ %nacc, %latch ]
  %c = icmp slt i64 %i, %end
  br i1 %c, label %latch, label %exit
latch:
  %a0 = getelementptr double, double* %b0, i64 %i
  %v0 = load double, double* %a0
  %a1 = getelementptr double, double* %b1, i64 %i
  %v1 = load double, double* %a1
  %nacc = call double @red_kernel_0(double %v0, double %v1, double %acc)
  %inext = add i64 %i, 1
  br label %header
exit:
  ret double %acc
}
"
    );
}

/// Histogram: an i32 iterator and an extra index-kernel operand (`m`).
#[test]
fn histogram_over_an_i32_iterator_passes_index_kernel_operands() {
    let src = "void h(int* img, int* bins, int m, int n) { for (int i = 0; i < n; i++) bins[img[i] % m] = bins[img[i] % m] + 1; }";
    assert_eq!(
        device_program(src, IdiomKind::Histogram),
        r"define void @lift_histo_0(i32* %bins, i32* %b0, i32 %begin, i32 %end, i32 %ix0) {
entry:
  br label %header
header:
  %i = phi i32 [ %begin, %entry ], [ %inext, %latch ]
  %c = icmp slt i32 %i, %end
  br i1 %c, label %latch, label %exit
latch:
  %iw0 = sext i32 %i to i64
  %a0 = getelementptr i32, i32* %b0, i64 %iw0
  %v0 = load i32, i32* %a0
  %xidx = call i64 @histo_idx_kernel_0(i32 %v0, i32 %ix0)
  %ba = getelementptr i32, i32* %bins, i64 %xidx
  %old = load i32, i32* %ba
  %new = call i32 @histo_val_kernel_0(i32 %v0, i32 %old)
  store i32 %new, i32* %ba
  %inext = add i32 %i, 1
  br label %header
exit:
  ret void
}
"
    );
}

/// Histogram: an i64 iterator, two reads and an extra value-kernel operand (`s`).
#[test]
fn histogram_over_an_i64_iterator_passes_value_kernel_operands() {
    let src = "void h(long* key, double* w, double* bins, double s, long n) { for (long i = 0; i < n; i++) bins[key[i]] = bins[key[i]] + s * w[i]; }";
    assert_eq!(
        device_program(src, IdiomKind::Histogram),
        r"define void @lift_histo_0(double* %bins, i64* %b0, double* %b1, i64 %begin, i64 %end, double %vx0) {
entry:
  br label %header
header:
  %i = phi i64 [ %begin, %entry ], [ %inext, %latch ]
  %c = icmp slt i64 %i, %end
  br i1 %c, label %latch, label %exit
latch:
  %a0 = getelementptr i64, i64* %b0, i64 %i
  %v0 = load i64, i64* %a0
  %a1 = getelementptr double, double* %b1, i64 %i
  %v1 = load double, double* %a1
  %xidx = call i64 @histo_idx_kernel_0(i64 %v0, double %v1)
  %ba = getelementptr double, double* %bins, i64 %xidx
  %old = load double, double* %ba
  %new = call double @histo_val_kernel_0(i64 %v0, double %v1, double %old, double %vx0)
  store double %new, double* %ba
  %inext = add i64 %i, 1
  br label %header
exit:
  ret void
}
"
    );
}

/// Stencil1D: an i32 iterator, reads at offsets -1/0/+1 and an extra kernel operand (`c`).
#[test]
fn stencil1d_over_an_i32_iterator_offsets_each_read() {
    let src = "void b(double* out, double* in_, double c, int n) { for (int i = 1; i < n - 1; i++) out[i] = c * in_[i-1] + 0.5 * in_[i] + c * in_[i+1]; }";
    assert_eq!(
        device_program(src, IdiomKind::Stencil1D),
        r"define void @halide_st1_0(double* %out, double* %b0, double* %b1, double* %b2, i32 %begin, i32 %end, double %x0) {
entry:
  br label %header
header:
  %i = phi i32 [ %begin, %entry ], [ %inext, %latch ]
  %c = icmp slt i32 %i, %end
  br i1 %c, label %latch, label %exit
latch:
  %off0 = add i32 %i, -1
  %iw0 = sext i32 %off0 to i64
  %a0 = getelementptr double, double* %b0, i64 %iw0
  %v0 = load double, double* %a0
  %iw1 = sext i32 %i to i64
  %a1 = getelementptr double, double* %b1, i64 %iw1
  %v1 = load double, double* %a1
  %off2 = add i32 %i, 1
  %iw2 = sext i32 %off2 to i64
  %a2 = getelementptr double, double* %b2, i64 %iw2
  %v2 = load double, double* %a2
  %res = call double @halide_kernel_0(double %v0, double %v1, double %v2, double %x0)
  %ow = sext i32 %i to i64
  %oa = getelementptr double, double* %out, i64 %ow
  store double %res, double* %oa
  %inext = add i32 %i, 1
  br label %header
exit:
  ret void
}
"
    );
}

/// Stencil1D: an i64 iterator and a read at offset -2.
#[test]
fn stencil1d_over_an_i64_iterator_offsets_each_read() {
    let src = "void b(float* out, float* in_, long n) { for (long i = 2; i < n; i++) out[i] = in_[i-2] - in_[i]; }";
    assert_eq!(
        device_program(src, IdiomKind::Stencil1D),
        r"define void @halide_st1_0(float* %out, float* %b0, float* %b1, i64 %begin, i64 %end) {
entry:
  br label %header
header:
  %i = phi i64 [ %begin, %entry ], [ %inext, %latch ]
  %c = icmp slt i64 %i, %end
  br i1 %c, label %latch, label %exit
latch:
  %off0 = add i64 %i, -2
  %a0 = getelementptr float, float* %b0, i64 %off0
  %v0 = load float, float* %a0
  %a1 = getelementptr float, float* %b1, i64 %i
  %v1 = load float, float* %a1
  %res = call float @halide_kernel_0(float %v0, float %v1)
  %oa = getelementptr float, float* %out, i64 %i
  store float %res, float* %oa
  %inext = add i64 %i, 1
  br label %header
exit:
  ret void
}
"
    );
}

/// Stencil2D: i32 iterators and the five-point row/column offsets.
#[test]
fn stencil2d_over_i32_iterators_offsets_rows_and_columns() {
    let src = "void j(double* out, double* in_, int n) { for (int i = 1; i < n - 1; i++) for (int j = 1; j < n - 1; j++) out[i*n+j] = 0.2 * (in_[i*n+j] + in_[(i-1)*n+j] + in_[(i+1)*n+j] + in_[i*n+(j-1)] + in_[i*n+(j+1)]); }";
    assert_eq!(
        device_program(src, IdiomKind::Stencil2D),
        r"define void @halide_st2_0(double* %out, i32 %sw, double* %b0, i32 %s0, double* %b1, i32 %s1, double* %b2, i32 %s2, double* %b3, i32 %s3, double* %b4, i32 %s4, i32 %b0r, i32 %e0r, i32 %b1c, i32 %e1c) {
entry:
  br label %h0
h0:
  %i = phi i32 [ %b0r, %entry ], [ %inext, %l0 ]
  %c0 = icmp slt i32 %i, %e0r
  br i1 %c0, label %pre1, label %x0
pre1:
  br label %h1
h1:
  %j = phi i32 [ %b1c, %pre1 ], [ %jnext, %l1 ]
  %c1 = icmp slt i32 %j, %e1c
  br i1 %c1, label %l1, label %x1
l1:
  %m0 = mul i32 %i, %s0
  %f0 = add i32 %m0, %j
  %fw0 = sext i32 %f0 to i64
  %a0 = getelementptr double, double* %b0, i64 %fw0
  %v0 = load double, double* %a0
  %ro1 = add i32 %i, -1
  %m1 = mul i32 %ro1, %s1
  %f1 = add i32 %m1, %j
  %fw1 = sext i32 %f1 to i64
  %a1 = getelementptr double, double* %b1, i64 %fw1
  %v1 = load double, double* %a1
  %ro2 = add i32 %i, 1
  %m2 = mul i32 %ro2, %s2
  %f2 = add i32 %m2, %j
  %fw2 = sext i32 %f2 to i64
  %a2 = getelementptr double, double* %b2, i64 %fw2
  %v2 = load double, double* %a2
  %co3 = add i32 %j, -1
  %m3 = mul i32 %i, %s3
  %f3 = add i32 %m3, %co3
  %fw3 = sext i32 %f3 to i64
  %a3 = getelementptr double, double* %b3, i64 %fw3
  %v3 = load double, double* %a3
  %co4 = add i32 %j, 1
  %m4 = mul i32 %i, %s4
  %f4 = add i32 %m4, %co4
  %fw4 = sext i32 %f4 to i64
  %a4 = getelementptr double, double* %b4, i64 %fw4
  %v4 = load double, double* %a4
  %res = call double @halide_kernel_0(double %v0, double %v1, double %v2, double %v3, double %v4)
  %mo = mul i32 %i, %sw
  %fo = add i32 %mo, %j
  %fow = sext i32 %fo to i64
  %oa = getelementptr double, double* %out, i64 %fow
  store double %res, double* %oa
  %jnext = add i32 %j, 1
  br label %h1
x1:
  br label %l0
l0:
  %inext = add i32 %i, 1
  br label %h0
x0:
  ret void
}
"
    );
}

/// Stencil2D: i64 iterators, row and column offsets and an extra kernel operand (`c`).
#[test]
fn stencil2d_over_i64_iterators_passes_kernel_operands() {
    let src = "void j(double* out, double* in_, double c, long n) { for (long i = 1; i < n - 1; i++) for (long j = 1; j < n - 1; j++) out[i*n+j] = c * (in_[(i-1)*n+j] + in_[i*n+(j+1)]); }";
    assert_eq!(
        device_program(src, IdiomKind::Stencil2D),
        r"define void @halide_st2_0(double* %out, i64 %sw, double* %b0, i64 %s0, double* %b1, i64 %s1, i64 %b0r, i64 %e0r, i64 %b1c, i64 %e1c, double %x0) {
entry:
  br label %h0
h0:
  %i = phi i64 [ %b0r, %entry ], [ %inext, %l0 ]
  %c0 = icmp slt i64 %i, %e0r
  br i1 %c0, label %pre1, label %x0
pre1:
  br label %h1
h1:
  %j = phi i64 [ %b1c, %pre1 ], [ %jnext, %l1 ]
  %c1 = icmp slt i64 %j, %e1c
  br i1 %c1, label %l1, label %x1
l1:
  %ro0 = add i64 %i, -1
  %m0 = mul i64 %ro0, %s0
  %f0 = add i64 %m0, %j
  %a0 = getelementptr double, double* %b0, i64 %f0
  %v0 = load double, double* %a0
  %co1 = add i64 %j, 1
  %m1 = mul i64 %i, %s1
  %f1 = add i64 %m1, %co1
  %a1 = getelementptr double, double* %b1, i64 %f1
  %v1 = load double, double* %a1
  %res = call double @halide_kernel_0(double %v0, double %v1, double %x0)
  %mo = mul i64 %i, %sw
  %fo = add i64 %mo, %j
  %oa = getelementptr double, double* %out, i64 %fo
  store double %res, double* %oa
  %jnext = add i64 %j, 1
  br label %h1
x1:
  br label %l0
l0:
  %inext = add i64 %i, 1
  br label %h0
x0:
  ret void
}
"
    );
}
