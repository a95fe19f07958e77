//! Nesting depth is bounded ([`minicc::parse::MAX_NESTING`]): parsing,
//! lowering and dropping a syntax tree recurse once per level, so an
//! unbounded input would overflow the stack and abort the process. Past
//! the bound every shape is a [`minicc::CompileError`] with the line it
//! went too deep on; up to the bound every shape compiles on a default
//! 2 MiB thread, even in a debug build.

use minicc::parse::MAX_NESTING;

/// `name(n)` renders a program whose `n`-deep nest sits on line 2.
type Shape = (&'static str, fn(usize) -> String);

const SHAPES: &[Shape] = &[
    ("parentheses", |n| {
        format!(
            "int f(int x) {{\n  return {}1{};\n}}",
            "(".repeat(n),
            ")".repeat(n)
        )
    }),
    ("blocks", |n| {
        format!("void f() {{\n  {}{}\n}}", "{".repeat(n), "}".repeat(n))
    }),
    ("ifs", |n| {
        format!("void f(int x) {{\n  {} x = 1;\n}}", "if (x) ".repeat(n))
    }),
    ("flat chain", |n| {
        format!("int f(int x) {{\n  return x{};\n}}", " + x".repeat(n - 1))
    }),
    ("right-nested chain", |n| {
        format!(
            "int f(int x) {{\n  return {}x{};\n}}",
            "x * (".repeat(n),
            ")".repeat(n)
        )
    }),
    ("negations", |n| {
        format!("int f(int x) {{\n  return {}x;\n}}", "- ".repeat(n))
    }),
    ("casts", |n| {
        format!("long f(int x) {{\n  return {}x;\n}}", "(long)".repeat(n))
    }),
    ("ternaries", |n| {
        format!("int f(int x) {{\n  return {}x;\n}}", "x ? x : ".repeat(n))
    }),
    ("subscripts", |n| {
        format!(
            "int f(int* a) {{\n  return {}0{};\n}}",
            "a[".repeat(n),
            "]".repeat(n)
        )
    }),
    ("calls", |n| {
        format!(
            "int f(int x) {{\n  return {}x{};\n}}",
            "f(".repeat(n),
            ")".repeat(n)
        )
    }),
    ("loops", |n| {
        let heads: String = (0..n)
            .map(|k| {
                if k % 2 == 0 {
                    "while (x) "
                } else {
                    "for (;x;) "
                }
            })
            .collect();
        format!("void f(int x) {{\n  {heads} x = 1;\n}}")
    }),
];

/// Runs `f` on a thread with the default 2 MiB test-thread stack.
fn on_2mib_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("no panic")
}

fn assert_too_deep(shape: &str, src: String) {
    let err = on_2mib_thread(move || minicc::compile(&src, "deep")).expect_err(shape);
    assert_eq!(err.line, 2, "{shape}: {err}");
    assert_eq!(
        err.message,
        format!("nesting deeper than {MAX_NESTING} levels"),
        "{shape}"
    );
}

#[test]
fn every_shape_is_a_compile_error_ten_thousand_deep() {
    for &(shape, render) in SHAPES {
        assert_too_deep(shape, render(10_000));
    }
}

/// The deepest input of every shape the bound admits compiles — parse,
/// lower, optimize and drop — on a 2 MiB thread, and one level deeper is
/// the nesting error.
#[test]
fn the_deepest_accepted_input_of_every_shape_compiles_on_a_2mib_thread() {
    for &(shape, render) in SHAPES {
        let deepest = (1..=2 * MAX_NESTING)
            .take_while(|&n| minicc::parse::parse_program(&render(n)).is_ok())
            .last()
            .unwrap_or_else(|| panic!("{shape}: even depth 1 is refused"));
        assert!(
            deepest * 2 >= MAX_NESTING,
            "{shape}: only {deepest} levels accepted"
        );
        let src = render(deepest);
        on_2mib_thread(move || minicc::compile(&src, "deep"))
            .unwrap_or_else(|e| panic!("{shape} at {deepest}: {e}"));
        assert_too_deep(shape, render(deepest + 1));
    }
}
