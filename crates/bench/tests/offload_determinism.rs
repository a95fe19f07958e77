//! The offload determinism suite: every transformed benchmark must
//! produce bitwise-identical results under the thread-pool executors
//! ([`hetero::exec`]) on the production bytecode `Vm` and under the
//! serial hosts on the tree-walking `Machine` oracle, for every
//! validation seed and worker count — and a `serial`-certified region
//! must never reach a parallel executor.
//!
//! The type system carries half the guarantee: [`hetero::ParallelCert`]
//! has no `Serial` variant, so a parallel executor for a serial region
//! cannot even be constructed (`TryFrom` is the only way in, and it
//! refuses). The audited runtime backstop —
//! [`hetero::ExecStats::serial_cert_parallel_entries`] — is asserted
//! zero across the full sweep here.

use hetero::exec::{register_parallel, ExecConfig, ExecStats, ParallelCert};
use idioms::ParallelSafety;
use interp::{compile_module, Machine, Value, Vm};
use std::sync::Arc;

const SEEDS: [u64; 2] = [
    benchsuite::VALIDATION_SEEDS[0],
    benchsuite::VALIDATION_SEEDS[1],
];
const WORKERS: [usize; 2] = [1, 4];

fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::I(x), Value::I(y)) => x == y,
        (Value::P(x), Value::P(y)) => x == y,
        (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

#[test]
fn parallel_execution_is_bitwise_equal_to_serial_for_every_benchmark() {
    let stats = Arc::new(ExecStats::default());
    let mut replaced_total = 0usize;
    let mut serial_certs = 0usize;
    for b in benchsuite::all() {
        let module = minicc::compile(b.source, b.name).expect("bundled benchmark compiles");
        let xf = xform::transform_module(&module);
        let certs = xf.certificates();
        replaced_total += xf.replaced();
        serial_certs += certs
            .values()
            .filter(|&&s| s == ParallelSafety::Serial)
            .count();

        let code = compile_module(&xf.module);
        for &seed in &SEEDS {
            // Serial oracle: the sequential library hosts, everything
            // else tree-walked in place.
            let mut oracle = Machine::new(&xf.module);
            hetero::hosts::register_all(&mut oracle);
            let args = (b.setup)(&mut oracle.mem, seed);
            let want = oracle
                .run(b.entry, &args)
                .unwrap_or_else(|e| panic!("{}: serial run failed: {e}", b.name));

            for &w in &WORKERS {
                let mut vm = Vm::new(&code);
                register_parallel(
                    &mut vm,
                    &xf.module,
                    &certs,
                    &ExecConfig::with_workers(w),
                    &stats,
                );
                let pargs = (b.setup)(&mut vm.mem, seed);
                let got = vm.run(b.entry, &pargs).unwrap_or_else(|e| {
                    panic!("{}: parallel run (workers={w}) failed: {e}", b.name)
                });
                assert!(
                    bits_eq(&got, &want),
                    "{}: return value diverged (seed={seed:#x}, workers={w})",
                    b.name
                );
                assert!(
                    vm.mem.bytes() == oracle.mem.bytes(),
                    "{}: memory image diverged (seed={seed:#x}, workers={w})",
                    b.name
                );
            }
        }
    }
    assert_eq!(replaced_total, 60, "the paper's 60 replaced regions");
    assert_eq!(
        stats.serial_cert_parallel_entries(),
        0,
        "a serial-certified region reached a parallel entry point"
    );
    assert_eq!(
        serial_certs, 0,
        "no committed replacement is serial-certified"
    );
    assert!(
        stats.parallel_launches() > 0,
        "the pool actually ran kernels"
    );
}

#[test]
fn serial_certificates_cannot_construct_a_parallel_executor() {
    // Compile-time face: ParallelCert has no Serial variant, so the only
    // conversion refuses. Runtime face: the audited admit() counts it.
    assert!(ParallelCert::try_from(ParallelSafety::Serial).is_err());
    let stats = ExecStats::default();
    assert!(ParallelCert::admit(ParallelSafety::Serial, &stats).is_err());
    assert_eq!(stats.serial_cert_parallel_entries(), 1);
}
