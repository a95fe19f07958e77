//! The `kernels` workload: launches of the replacement APIs on large
//! operands through the certificate-gated thread pool, checked bitwise
//! against plain-Rust loops in the original C accumulation order.
//!
//! `gemm_f64` at n = 160 (about 600 KB, cache-resident, compute-bound)
//! and `csrmv_f64` over 150k rows × ~8 nonzeros (about 18 MB,
//! memory-bound) run at the machine's worker count under an
//! independence certificate from `ParallelCert::admit`.

use crate::trace::{Tracer, OP};
use crate::{add, Layers, OpFailure, OpResult, Workload};
use benchsuite::{csr, fill_f64, mix, zeros_f64};
use hetero::{exec, hosts, ExecConfig, ExecStats, ParallelCert};
use idioms::ParallelSafety;
use interp::{Memory, Value};
use std::time::{Duration, Instant};

/// GEMM edge: C (n×n) = A (n×n) · Bᵀ (n×n).
pub const GEMM_N: usize = 160;
/// CSR rows of the SpMV operand.
pub const CSR_ROWS: usize = 150_000;
/// Mean nonzeros per CSR row requested from `benchsuite::csr`.
pub const CSR_PER_ROW: usize = 8;

/// Launch order within a pass: indices into [`Kernels`]' launches
/// (0 = `gemm_f64`, 1 = `csrmv_f64`). One kernel runs twice per pass so
/// the median latency falls inside one kernel's mode; with an even mix
/// it would fall in the gap between the two and jump between runs.
pub const CYCLE: [usize; 3] = [0, 1, 1];

type ParallelFn = fn(ParallelCert, usize, &mut Memory, &[Value]) -> Result<Value, String>;
type SerialFn = fn(&mut Memory, &[Value]) -> Result<Value, String>;

/// The program's one-time set-up for a launch: sizing the pool from the
/// machine's parallelism and admitting the certificate.
///
/// # Panics
/// If an independence certificate is refused.
#[must_use]
pub fn setup(stats: &ExecStats) -> (usize, ParallelCert) {
    let workers = ExecConfig::default().workers;
    let cert = ParallelCert::admit(ParallelSafety::IndependentIterations, stats)
        .expect("independent iterations admit a parallel launch");
    (workers, cert)
}

/// One API entry point with its operands.
struct Launch {
    name: &'static str,
    parallel: ParallelFn,
    serial: SerialFn,
    args: Vec<Value>,
    /// Operands for the pool.
    mem: Memory,
    /// The same operands for the serial host.
    serial_mem: Memory,
    /// Byte offset and element count of the output array.
    out: (usize, usize),
    /// Expected output bits, from the plain-Rust reference loop.
    reference: Vec<u64>,
    mflop: f64,
    bytes_moved: f64,
}

impl Launch {
    /// Overwrites the output with NaN so a launch that skips an element
    /// cannot pass on a previous launch's result.
    fn poison(mem: &mut Memory, (at, n): (usize, usize)) {
        mem.bytes_mut()[at..at + 8 * n].fill(0xFF);
    }

    fn output(mem: &Memory, (at, n): (usize, usize)) -> impl Iterator<Item = u64> + '_ {
        mem.bytes()[at..at + 8 * n]
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
    }

    /// Compares the launch's return and output with the reference.
    fn check(&self, mem: &Memory, r: Result<Value, String>) -> Option<OpFailure> {
        if let Err(e) = r {
            return Some(OpFailure {
                class: "launch_error",
                wrong_output: true,
                message: e,
            });
        }
        let (idx, (got, want)) = Launch::output(mem, self.out)
            .zip(self.reference.iter().copied())
            .enumerate()
            .find(|(_, (g, w))| g != w)?;
        Some(OpFailure {
            class: "kernel_mismatch",
            wrong_output: true,
            message: format!(
                "{} output[{idx}] = {} (bits {got:#x}), reference {} (bits {want:#x})",
                self.name,
                f64::from_bits(got),
                f64::from_bits(want)
            ),
        })
    }

    fn result(&self, failure: Option<OpFailure>) -> OpResult {
        OpResult {
            label: self.name.to_owned(),
            failure,
            counts: Vec::new(),
        }
    }
}

fn addr(a: u64) -> usize {
    usize::try_from(a).expect("addresses fit in usize")
}

/// `gemm_f64` operands, row-major (`row_scaled = 0`, beta = +0.0) and
/// the reference `C[i][j] = Σ_k A[i][k]·B[j][k]`, summed in k order.
fn gemm(seed: u64) -> Launch {
    let n = GEMM_N;
    let mut mem = Memory::new();
    let a = fill_f64(&mut mem, n * n, mix(seed, 1));
    let b = fill_f64(&mut mem, n * n, mix(seed, 2));
    let c = zeros_f64(&mut mem, n * n);
    let av = mem.read_f64_slice(a, n * n);
    let bv = mem.read_f64_slice(b, n * n);
    let mut reference = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0;
            for k in 0..n {
                acc += av[i * n + k] * bv[j * n + k];
            }
            reference.push(f64::to_bits(acc));
        }
    }
    let ni = n as i64;
    let args = vec![
        Value::P(a),
        Value::P(b),
        Value::P(c),
        Value::I(ni),
        Value::I(ni),
        Value::I(ni),
        Value::I(ni),
        Value::I(ni),
        Value::I(ni),
        Value::I(0),
        Value::I(0),
        Value::I(0),
        Value::F(0.0),
    ];
    let elems = (3 * n * n) as f64;
    Launch {
        name: "gemm_f64",
        parallel: exec::gemm_parallel,
        serial: hosts::gemm_serial,
        args,
        serial_mem: mem.clone(),
        mem,
        out: (addr(c), n * n),
        reference,
        mflop: 2.0 * (n * n * n) as f64 / 1e6,
        bytes_moved: 8.0 * elems,
    }
}

/// `csrmv_f64` operands over `benchsuite::csr` (32-bit indices) and the
/// reference `y[r] = Σ vals[k]·x[colidx[k]]` over `rowptr[r]..rowptr[r+1]`.
fn csrmv(seed: u64) -> Launch {
    let m = CSR_ROWS;
    let mut mem = Memory::new();
    let (vals, rowptr, colidx) = csr(&mut mem, m, CSR_PER_ROW, seed);
    let x = fill_f64(&mut mem, m, mix(seed, 3));
    let y = zeros_f64(&mut mem, m);
    let rp = mem.read_i32_slice(rowptr, m + 1);
    let nnz = usize::try_from(rp[m]).expect("non-negative nonzero count");
    let vv = mem.read_f64_slice(vals, nnz);
    let ci = mem.read_i32_slice(colidx, nnz);
    let xv = mem.read_f64_slice(x, m);
    let reference = (0..m)
        .map(|r| {
            let mut d = 0.0;
            for k in rp[r]..rp[r + 1] {
                let k = k as usize;
                d += vv[k] * xv[ci[k] as usize];
            }
            f64::to_bits(d)
        })
        .collect();
    let args = vec![
        Value::P(vals),
        Value::P(rowptr),
        Value::P(colidx),
        Value::P(x),
        Value::P(y),
        Value::I(m as i64),
        Value::I(4),
        Value::I(4),
    ];
    Launch {
        name: "csrmv_f64",
        parallel: exec::csrmv_parallel,
        serial: hosts::csrmv_serial,
        args,
        serial_mem: mem.clone(),
        mem,
        out: (addr(y), m),
        reference,
        mflop: 2.0 * nnz as f64 / 1e6,
        // vals + colidx + rowptr + x + y, each once.
        bytes_moved: (12 * nnz + 4 * (m + 1) + 16 * m) as f64,
    }
}

/// The workload's inputs and the pool configuration.
pub struct Kernels {
    launches: [Launch; 2],
    workers: usize,
    cert: ParallelCert,
    setup_checks: Vec<Result<String, String>>,
}

impl Kernels {
    /// Builds both operand sets from `seed`, computes the references and
    /// checks each serial host against its reference once.
    #[must_use]
    pub fn new(seed: u64) -> Kernels {
        let stats = ExecStats::default();
        let (workers, cert) = setup(&stats);
        let mut launches = [gemm(seed), csrmv(seed)];
        let mut setup_checks = Vec::new();
        for l in &mut launches {
            let r = (l.serial)(&mut l.serial_mem, &l.args);
            setup_checks.push(match l.check(&l.serial_mem, r) {
                None => Ok(format!(
                    "{}: serial host bitwise equal to the reference loop",
                    l.name
                )),
                Some(f) => Err(format!("{} serial host: {}", l.name, f.message)),
            });
        }
        Kernels {
            launches,
            workers,
            cert,
            setup_checks,
        }
    }

    /// Pool workers per launch.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Workload for Kernels {
    fn pass_len(&self) -> usize {
        CYCLE.len()
    }

    fn op(&mut self, i: usize) -> (Duration, OpResult) {
        let (cert, workers) = (self.cert, self.workers);
        let l = &mut self.launches[CYCLE[i % CYCLE.len()]];
        Launch::poison(&mut l.mem, l.out);
        let t = Instant::now();
        let r = (l.parallel)(cert, workers, &mut l.mem, &l.args);
        let dt = t.elapsed();
        let failure = l.check(&l.mem, r);
        (dt, l.result(failure))
    }

    fn op_traced(&mut self, i: usize, tr: &mut Tracer, layers: &mut Layers) -> OpResult {
        let (cert, workers) = (self.cert, self.workers);
        let l = &mut self.launches[CYCLE[i % CYCLE.len()]];
        Launch::poison(&mut l.mem, l.out);
        Launch::poison(&mut l.serial_mem, l.out);
        tr.set_op(i);
        tr.begin(OP);
        let r = tr.span("hetero.kernel", || {
            (l.parallel)(cert, workers, &mut l.mem, &l.args)
        });
        tr.end();
        // Probe: the serial host on the same operands.
        let rs = tr.span("hetero.serial_kernel", || {
            (l.serial)(&mut l.serial_mem, &l.args)
        });
        add(layers, "hetero.mflop", l.mflop);
        add(layers, "hetero.bytes_moved", l.bytes_moved);
        let failure = l.check(&l.mem, r).or_else(|| {
            let serial = l.check(&l.serial_mem, rs)?;
            Some(OpFailure {
                class: "serial_mismatch",
                ..serial
            })
        });
        l.result(failure)
    }

    fn check_run(&self, _results: &[OpResult]) -> Vec<Result<String, String>> {
        self.setup_checks.clone()
    }
}
