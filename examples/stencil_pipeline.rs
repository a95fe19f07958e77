//! The DSL path (§6.2): a 2D Jacobi stencil is detected, its kernel is
//! outlined, Halide/Lift surface programs are rendered, device code is
//! generated as IR and linked back.
//!
//!     cargo run --example stencil_pipeline

use idiomatch::analysis::ParamAliasFacts;
use idiomatch::idioms::IdiomKind;
use idiomatch::xform;

const JACOBI: &str = "
void jacobi(double* out, double* in_, int n) {
    for (int i = 1; i < n - 1; i++)
        for (int j = 1; j < n - 1; j++)
            out[i*n+j] = 0.2 * (in_[i*n+j] + in_[(i-1)*n+j] + in_[(i+1)*n+j]
                                + in_[i*n+(j-1)] + in_[i*n+(j+1)]);
}";

fn main() {
    let mut module = idiomatch::minicc::compile(JACOBI, "jacobi").expect("compiles");
    let f = module.function("jacobi").unwrap();
    let insts = idiomatch::idioms::detect(f);
    let st = insts
        .iter()
        .find(|i| i.kind == IdiomKind::Stencil2D)
        .expect("stencil found");
    println!(
        "detected Stencil2D with {} taps",
        st.family("read_value").len()
    );

    // Outline the kernel and show the paper's IR-to-C backend output.
    let reads = st.family("read_value");
    let out_value = st.value("write.value").unwrap();
    let kernel = xform::outline_kernel(f, out_value, &reads, "jacobi_kernel").expect("pure");
    let c = xform::ir_to_c(&kernel.function).expect("expressible in C");
    println!("\n== kernel function (IR-to-C backend, for Lift) ==\n{c}");
    println!(
        "== Lift program ==\n{}",
        xform::dsl::lift_program(f, st, &c)
    );
    println!(
        "== Halide pipeline ==\n{}",
        xform::dsl::halide_program(f, st).unwrap()
    );

    // Generate device code and rewrite the program.
    let rep = xform::apply_replacement(&mut module, st, 0, &ParamAliasFacts::default())
        .expect("replaced");
    println!("== generated functions ==  {:?}", rep.generated);
    println!("{}", module.function(&rep.callee).unwrap());
}
