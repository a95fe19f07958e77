//! Scoped thread-pool execution of replaced kernels, gated by
//! parallel-safety certificates.
//!
//! This is the repo's stand-in for the paper's accelerator backends
//! (§7): instead of modeled GPU milliseconds, replaced regions run on
//! real host threads and are timed for real. Dispatch is keyed off the
//! region's [`SafetyCertificate`](idioms::SafetyCertificate):
//!
//! | certificate               | executor                                     |
//! |---------------------------|----------------------------------------------|
//! | `independent_iterations`  | rows partitioned across workers, each writing a disjoint `split_at_mut`/`chunks_mut` slice of the output window that [`Memory::split_out`] carves out |
//! | `reduction_only`          | per-worker partial accumulators, combined on the launching thread in ascending worker order |
//! | `serial`                  | sequential host; [`ParallelCert`] makes it unrepresentable at parallel entry points |
//!
//! **Bitwise determinism.** The oracle for every parallel run is the
//! serial host, compared bitwise. Floating-point addition does not
//! reassociate, so only *per-output-element* work is distributed: each
//! element's full accumulation chain (the `k` loop of GEMM, the row of
//! SPMV) runs in serial order on one worker. Scalar reductions
//! (`lift_red_*`) and histograms (`lift_histo_*`) have a single
//! accumulation chain and therefore degenerate to owner-computes — the
//! sequential executor — rather than trade bitwise equality for a
//! reassociated combine.
//!
//! **One check per launch.** `gemm_f64` and `csrmv_f64` validate their
//! operands on the launching thread before any worker starts (see
//! [`crate::hosts`]); workers then run the same numeric core as the
//! serial hosts over already-checked byte windows. Only `csrmv`'s `x`
//! read, whose offset is data, is checked per nonzero. Reads go through
//! an [`interp::ReadView`], which refuses any byte of the output window,
//! so an input that aliases the output still fails with an
//! "independence certificate" error instead of racing.

use crate::hosts::{parse_csrmv, parse_gemm, Csr, Gemm};
use idioms::ParallelSafety;
use interp::{compile_module, CompiledModule, HostFn, HostRegistry, Memory, Value, Vm};
use ssair::{Function, Module};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-pool configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Worker count for every parallel launch (≥ 1).
    pub workers: usize,
}

impl ExecConfig {
    /// A pool of exactly `workers` threads.
    #[must_use]
    pub fn with_workers(workers: usize) -> ExecConfig {
        ExecConfig {
            workers: workers.max(1),
        }
    }
}

impl Default for ExecConfig {
    /// Default worker count: the machine's available parallelism.
    fn default() -> ExecConfig {
        ExecConfig::with_workers(
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        )
    }
}

/// Execution counters, shared (`Arc`) between the registered executors
/// and the harness that wants to audit them.
#[derive(Debug, Default)]
pub struct ExecStats {
    parallel_launches: AtomicU64,
    sequential_launches: AtomicU64,
    serial_cert_parallel_entries: AtomicU64,
}

impl ExecStats {
    /// Kernel launches that ran on the thread pool.
    pub fn parallel_launches(&self) -> u64 {
        self.parallel_launches.load(Ordering::Relaxed)
    }

    /// Kernel launches routed to the sequential executor.
    pub fn sequential_launches(&self) -> u64 {
        self.sequential_launches.load(Ordering::Relaxed)
    }

    /// Times a `serial`-certified region reached a parallel entry point
    /// and was refused. Must be zero in any correct configuration; the
    /// determinism suite and the offload bench assert it.
    pub fn serial_cert_parallel_entries(&self) -> u64 {
        self.serial_cert_parallel_entries.load(Ordering::Relaxed)
    }
}

/// A certificate strong enough for parallel execution. `serial` has no
/// representation here, so a parallel executor cannot even be *built*
/// for a serial region — the `TryFrom` conversion is the compile-time
/// face of the guarantee, [`ParallelCert::admit`] the audited runtime
/// backstop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelCert {
    /// `independent_iterations`: disjoint output windows, no combine.
    Independent,
    /// `reduction_only`: partial accumulators + ordered combine.
    ReductionOnly,
}

impl TryFrom<ParallelSafety> for ParallelCert {
    type Error = String;

    fn try_from(safety: ParallelSafety) -> Result<ParallelCert, String> {
        match safety {
            ParallelSafety::IndependentIterations => Ok(ParallelCert::Independent),
            ParallelSafety::ReductionOnly => Ok(ParallelCert::ReductionOnly),
            ParallelSafety::Serial => {
                Err("serial-certified region must not enter a parallel executor".into())
            }
        }
    }
}

impl ParallelCert {
    /// Converts a safety classification at a parallel entry point,
    /// counting (and refusing) any `serial` certificate that shows up.
    pub fn admit(safety: ParallelSafety, stats: &ExecStats) -> Result<ParallelCert, String> {
        ParallelCert::try_from(safety).inspect_err(|_| {
            stats
                .serial_cert_parallel_entries
                .fetch_add(1, Ordering::Relaxed);
        })
    }
}

/// Partitions `[begin, end)` into at most `workers` contiguous chunks in
/// ascending order (never empty; a degenerate range yields one empty
/// chunk).
fn chunk_range(begin: i64, end: i64, workers: usize) -> Vec<(i64, i64)> {
    let total = end.saturating_sub(begin).max(0) as u64;
    let w = (workers.max(1) as u64).min(total.max(1));
    let base = total / w;
    let extra = total % w;
    let mut parts = Vec::with_capacity(w as usize);
    let mut lo = begin;
    for i in 0..w {
        let hi = lo + (base + u64::from(i < extra)) as i64;
        parts.push((lo, hi));
        lo = hi;
    }
    parts
}

/// Runs `callee` from the pre-compiled module on the calling thread
/// against the caller's memory (swapped in and out) — the sequential
/// executor. The bytecode was compiled once at registration; each launch
/// only pays the dispatch loop.
fn run_inline(
    code: &CompiledModule<'_>,
    callee: &str,
    mem: &mut Memory,
    args: &[Value],
) -> Result<Value, String> {
    let mut inner = Vm::new(code);
    inner.mem = std::mem::take(mem);
    let r = inner.run(callee, args).map_err(|e| e.message);
    *mem = std::mem::take(&mut inner.mem);
    r
}

/// [`chunk_range`] over the rows `0..rows`.
fn row_chunks(rows: usize, workers: usize) -> Vec<(usize, usize)> {
    chunk_range(0, rows as i64, workers)
        .into_iter()
        .map(|(lo, hi)| (lo as usize, hi as usize))
        .collect()
}

/// Splits an output window into one disjoint piece per chunk of rows,
/// `row` bytes per row; the last piece takes whatever remains.
fn split_rows<'w>(
    mut window: &'w mut [u8],
    parts: &[(usize, usize)],
    row: usize,
) -> Vec<&'w mut [u8]> {
    let mut pieces = Vec::with_capacity(parts.len());
    for &(lo, hi) in parts {
        let (head, tail) = window.split_at_mut(((hi - lo) * row).min(window.len()));
        pieces.push(head);
        window = tail;
    }
    pieces
}

/// Joins every worker of a launch; the first failing worker in ascending
/// order (an error or a panic) fails the launch.
fn join_all<T>(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<T, String>>>,
    kernel: &str,
) -> Result<Vec<T>, String> {
    let results: Vec<Result<T, String>> = handles
        .into_iter()
        .map(|h| {
            h.join()
                .unwrap_or_else(|_| Err(format!("parallel {kernel} worker panicked")))
        })
        .collect();
    results.into_iter().collect()
}

/// Parallel `gemm_f64`: output rows (`i0`) are partitioned across
/// workers. With an independence certificate and an `i0`-major `C`
/// layout the workers write disjoint in-place slices of the output
/// window; otherwise each worker fills a partial buffer and the launching
/// thread combines them in ascending worker order (identical to the
/// serial store order, hence bitwise identical). Operands are checked
/// once, on the launching thread, before any worker starts.
pub fn gemm_parallel(
    cert: ParallelCert,
    workers: usize,
    mem: &mut Memory,
    args: &[Value],
) -> Result<Value, String> {
    let ga = parse_gemm(args)?;
    let Some(g) = Gemm::check(&mem.view(), &ga)? else {
        return Ok(Value::I(0));
    };
    let parts = row_chunks(g.m, workers);
    if parts.len() <= 1 {
        g.serial(mem)?;
        return Ok(Value::I(0));
    }
    // Rows of C are i0-major and do not overlap (so `g.c.row > 0`).
    let windowed = cert == ParallelCert::Independent && ga.cr == 0 && ga.sc >= ga.n;
    if windowed && gemm_windowed(&g, &parts, mem)? {
        return Ok(Value::I(0));
    }

    // Partial-accumulator path: the compute phase only reads memory; the
    // launching thread then replays the serial store order.
    let view = mem.view();
    let partials = std::thread::scope(|s| {
        let (g, view) = (&g, &view);
        let handles = parts
            .iter()
            .map(|&(lo, hi)| {
                s.spawn(move || {
                    (lo..hi)
                        .flat_map(|i0| (0..g.n).map(move |i1| g.dot(view, i0, i1)))
                        .collect()
                })
            })
            .collect();
        join_all::<Vec<f64>>(handles, "gemm")
    })?;
    for (cell, acc) in g.cells().zip(partials.into_iter().flatten()) {
        g.store(mem, cell, acc);
    }
    Ok(Value::I(0))
}

/// The in-place path of [`gemm_parallel`]: carves C's window out of
/// memory and hands each worker its rows. Returns `false`, having written
/// nothing, when a strided A or B spans the window without any element
/// inside it (it cannot be read as one slice beside the window); an
/// element inside the window is an alias and fails the launch.
fn gemm_windowed(g: &Gemm, parts: &[(usize, usize)], mem: &mut Memory) -> Result<bool, String> {
    let (view, window) = mem.split_out(g.c.base, g.c.len)?;
    for (op, rows) in [(&g.a, g.m), (&g.b, g.n)] {
        if op.len > 0 && view.bytes(op.base, op.len).is_err() {
            for addr in op.addrs(rows, g.k) {
                view.load_f64(addr)?;
            }
            return Ok(false);
        }
    }
    let pieces = split_rows(window, parts, g.c.row);
    std::thread::scope(|s| {
        let view = &view;
        let handles = parts
            .iter()
            .zip(pieces)
            .map(|(&(lo, hi), piece)| {
                s.spawn(move || {
                    for (i0, row) in (lo..hi).zip(piece.chunks_mut(g.c.row)) {
                        for (i1, cell) in row.chunks_exact_mut(8).take(g.n).enumerate() {
                            g.update(cell, g.dot(view, i0, i1)?);
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        join_all(handles, "gemm")
    })?;
    Ok(true)
}

/// Parallel `csrmv_f64`: rows partitioned across workers. `y` is
/// contiguous, so an independence certificate gets disjoint in-place
/// slices of its window; a reduction certificate computes per-worker
/// partial row buffers combined in ascending order. Row dot products keep
/// their serial `rowptr` order either way.
pub fn csrmv_parallel(
    cert: ParallelCert,
    workers: usize,
    mem: &mut Memory,
    args: &[Value],
) -> Result<Value, String> {
    let Some(sp) = Csr::check(&mem.view(), parse_csrmv(args)?)? else {
        return Ok(Value::I(0));
    };
    let parts = row_chunks(sp.m, workers);
    if parts.len() <= 1 {
        sp.serial(mem)?;
        return Ok(Value::I(0));
    }

    match cert {
        ParallelCert::Independent => {
            let (view, window) = mem.split_out(sp.y(), 8 * sp.m)?;
            let pieces = split_rows(window, &parts, 8);
            std::thread::scope(|s| {
                let (sp, view) = (&sp, &view);
                let handles = parts
                    .iter()
                    .zip(pieces)
                    .map(|(&(lo, hi), piece)| {
                        s.spawn(move || {
                            for (j, cell) in (lo..hi).zip(piece.chunks_exact_mut(8)) {
                                cell.copy_from_slice(&sp.row(view, j)?.to_le_bytes());
                            }
                            Ok(())
                        })
                    })
                    .collect();
                join_all(handles, "csrmv")
            })?;
        }
        ParallelCert::ReductionOnly => {
            let view = mem.view();
            let partials = std::thread::scope(|s| {
                let (sp, view) = (&sp, &view);
                let handles = parts
                    .iter()
                    .map(|&(lo, hi)| s.spawn(move || (lo..hi).map(|j| sp.row(view, j)).collect()))
                    .collect();
                join_all::<Vec<f64>>(handles, "csrmv")
            })?;
            for (j, d) in partials.into_iter().flatten().enumerate() {
                sp.store(mem, j, d);
            }
        }
    }
    Ok(Value::I(0))
}

fn param_pos(f: &Function, name: &str) -> Option<usize> {
    f.params
        .iter()
        .position(|&p| f.value(p).name.as_deref() == Some(name))
}

/// Parallel executor for a generated stencil kernel (`halide_st1_*` /
/// `halide_st2_*`): the outer iteration range — located by parameter
/// name — is chunked across workers, each of which interprets its chunk
/// of the *same* kernel against a private clone of memory. The launching
/// thread merges the byte diffs back in ascending worker order; two
/// workers dirtying the same byte differently means the independence
/// certificate lied, and the launch fails instead of racing.
fn stencil_host<'m>(
    code: Arc<CompiledModule<'m>>,
    callee: String,
    range: (&'static str, &'static str),
    workers: usize,
    safety: ParallelSafety,
    stats: Arc<ExecStats>,
) -> HostFn<'m> {
    Arc::new(move |mem, args| {
        ParallelCert::admit(safety, &stats)?;
        stats.parallel_launches.fetch_add(1, Ordering::Relaxed);
        let f = code
            .module()
            .function(&callee)
            .ok_or_else(|| format!("unknown kernel {callee}"))?;
        let bi = param_pos(f, range.0)
            .ok_or_else(|| format!("{callee} has no parameter %{}", range.0))?;
        let ei = param_pos(f, range.1)
            .ok_or_else(|| format!("{callee} has no parameter %{}", range.1))?;
        if args.len() != f.params.len() {
            return Err(format!(
                "{callee} expects {} arguments, got {}",
                f.params.len(),
                args.len()
            ));
        }
        let parts = chunk_range(args[bi].try_i()?, args[ei].try_i()?, workers);
        if parts.len() <= 1 {
            return run_inline(&code, &callee, mem, args);
        }

        let baseline = mem.clone();
        let results: Vec<Result<Memory, String>> = std::thread::scope(|s| {
            let baseline = &baseline;
            let callee = &callee;
            let code = &code;
            let handles: Vec<_> = parts
                .iter()
                .map(|&(lo, hi)| {
                    let mut cargs = args.to_vec();
                    s.spawn(move || {
                        cargs[bi] = Value::I(lo);
                        cargs[ei] = Value::I(hi);
                        let mut inner = Vm::new(code);
                        inner.mem = baseline.clone();
                        inner.run(callee, &cargs).map_err(|e| e.message)?;
                        Ok(std::mem::take(&mut inner.mem))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("parallel stencil worker panicked".into()))
                })
                .collect()
        });

        let base_bytes = baseline.bytes();
        let mut claimed = vec![false; base_bytes.len()];
        let out = mem.bytes_mut();
        for r in results {
            let wmem = r?;
            let wb = wmem.bytes();
            for i in 0..base_bytes.len().min(wb.len()) {
                if wb[i] != base_bytes[i] {
                    if claimed[i] && out[i] != wb[i] {
                        return Err(format!(
                            "overlapping parallel writes at address {i} — \
                             independence certificate violated for {callee}"
                        ));
                    }
                    claimed[i] = true;
                    out[i] = wb[i];
                }
            }
        }
        Ok(Value::I(0))
    })
}

/// The sequential executor: interprets the kernel inline and counts the
/// launch. Used for `serial` certificates and for kernels whose single
/// accumulation chain makes bitwise-deterministic parallelism impossible
/// (scalar reductions, histograms).
fn sequential_host<'m>(
    code: Arc<CompiledModule<'m>>,
    callee: String,
    stats: Arc<ExecStats>,
) -> HostFn<'m> {
    Arc::new(move |mem, args| {
        stats.sequential_launches.fetch_add(1, Ordering::Relaxed);
        run_inline(&code, &callee, mem, args)
    })
}

/// Registers an executor for every certified callee of a transformed
/// module, keyed off its parallel-safety certificate:
/// `independent_iterations`/`reduction_only` regions get the thread-pool
/// executors, `serial` regions (and single-accumulator kernels, which
/// cannot be split without reassociating float adds) get the sequential
/// one. `certs` is typically
/// [`ModuleXform::certificates`](../xform/struct.ModuleXform.html).
///
/// The module is lowered to bytecode once here; every registered host
/// shares that [`CompiledModule`], so repeated kernel launches pay only
/// the dispatch loop. Generic over [`HostRegistry`], so hosts install on
/// a walker `Machine` or a bytecode `Vm` alike.
pub fn register_parallel<'m>(
    vm: &mut impl HostRegistry<'m>,
    module: &'m Module,
    certs: &BTreeMap<String, ParallelSafety>,
    cfg: &ExecConfig,
    stats: &Arc<ExecStats>,
) {
    let workers = cfg.workers.max(1);
    let code = Arc::new(compile_module(module));
    for (callee, &safety) in certs {
        let name = callee.clone();
        let st = Arc::clone(stats);
        let host: HostFn<'m> = match ParallelCert::try_from(safety) {
            Err(_) => sequential_host(Arc::clone(&code), name.clone(), st),
            Ok(_) if name == "gemm_f64" => Arc::new(move |mem, args| {
                let cert = ParallelCert::admit(safety, &st)?;
                st.parallel_launches.fetch_add(1, Ordering::Relaxed);
                gemm_parallel(cert, workers, mem, args)
            }),
            Ok(_) if name == "csrmv_f64" => Arc::new(move |mem, args| {
                let cert = ParallelCert::admit(safety, &st)?;
                st.parallel_launches.fetch_add(1, Ordering::Relaxed);
                csrmv_parallel(cert, workers, mem, args)
            }),
            Ok(ParallelCert::Independent) if name.starts_with("halide_st1_") => stencil_host(
                Arc::clone(&code),
                name.clone(),
                ("begin", "end"),
                workers,
                safety,
                st,
            ),
            Ok(ParallelCert::Independent) if name.starts_with("halide_st2_") => stencil_host(
                Arc::clone(&code),
                name.clone(),
                ("b0r", "e0r"),
                workers,
                safety,
                st,
            ),
            // lift_red_* / lift_histo_*: one accumulation chain; bitwise
            // determinism forbids splitting it (owner-computes).
            Ok(_) => sequential_host(Arc::clone(&code), name.clone(), st),
        };
        vm.register_host(&name, host);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::{csrmv_serial, gemm_serial, register_all};
    use interp::Machine;

    #[test]
    fn serial_certificates_are_unrepresentable_as_parallel() {
        assert!(ParallelCert::try_from(ParallelSafety::Serial).is_err());
        let stats = ExecStats::default();
        assert!(ParallelCert::admit(ParallelSafety::Serial, &stats).is_err());
        assert_eq!(stats.serial_cert_parallel_entries(), 1);
        assert!(ParallelCert::admit(ParallelSafety::IndependentIterations, &stats).is_ok());
        assert_eq!(stats.serial_cert_parallel_entries(), 1);
    }

    #[test]
    fn chunk_range_covers_and_orders() {
        assert_eq!(chunk_range(0, 10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        assert_eq!(chunk_range(2, 5, 8), vec![(2, 3), (3, 4), (4, 5)]);
        assert_eq!(chunk_range(5, 5, 4), vec![(5, 5)]);
        assert_eq!(chunk_range(7, 3, 4), vec![(7, 7)]);
    }

    fn gemm_fixture(mem: &mut Memory, m: usize, n: usize, k: usize, beta: f64) -> Vec<Value> {
        let a: Vec<f64> = (0..m * k).map(|i| (i as f64).sin()).collect();
        let b: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.7).cos()).collect();
        let c: Vec<f64> = (0..m * n).map(|i| i as f64 * 0.01 - 1.0).collect();
        let (ap, bp, cp) = (
            mem.alloc_f64_slice(&a),
            mem.alloc_f64_slice(&b),
            mem.alloc_f64_slice(&c),
        );
        vec![
            Value::P(ap),
            Value::P(bp),
            Value::P(cp),
            Value::I(m as i64),
            Value::I(n as i64),
            Value::I(k as i64),
            Value::I(k as i64),
            Value::I(k as i64),
            Value::I(n as i64),
            Value::I(0),
            Value::I(0),
            Value::I(0),
            Value::F(beta),
        ]
    }

    #[test]
    fn parallel_gemm_is_bitwise_equal_to_serial() {
        for cert in [ParallelCert::Independent, ParallelCert::ReductionOnly] {
            for workers in [1usize, 3, 4, 9] {
                let mut m1 = Memory::new();
                let args1 = gemm_fixture(&mut m1, 7, 5, 6, 0.5);
                gemm_serial(&mut m1, &args1).unwrap();
                let mut m2 = Memory::new();
                let args2 = gemm_fixture(&mut m2, 7, 5, 6, 0.5);
                gemm_parallel(cert, workers, &mut m2, &args2).unwrap();
                assert_eq!(m1.bytes(), m2.bytes(), "{cert:?} at {workers} workers");
            }
        }
    }

    #[test]
    fn parallel_gemm_column_major_c_uses_ordered_combine() {
        // cr != 0 defeats the in-place window layout check, forcing the
        // partial-buffer path; the result must still match serial bitwise.
        let make = |mem: &mut Memory| {
            let mut a = gemm_fixture(mem, 6, 4, 5, -0.25);
            a[8] = Value::I(6); // sc = m for a column-major C
            a[11] = Value::I(1); // cr = 1
            a
        };
        let mut m1 = Memory::new();
        let a1 = make(&mut m1);
        gemm_serial(&mut m1, &a1).unwrap();
        let mut m2 = Memory::new();
        let a2 = make(&mut m2);
        gemm_parallel(ParallelCert::Independent, 4, &mut m2, &a2).unwrap();
        assert_eq!(m1.bytes(), m2.bytes());
    }

    fn csrmv_fixture(mem: &mut Memory, rows: usize) -> Vec<Value> {
        let mut rowptr = vec![0i32];
        let mut colidx = Vec::new();
        let mut vals = Vec::new();
        for j in 0..rows {
            for t in 0..(j % 4) {
                colidx.push(((j + t * 3) % rows) as i32);
                vals.push((j * 7 + t) as f64 * 0.3 - 1.0);
            }
            rowptr.push(colidx.len() as i32);
        }
        let x: Vec<f64> = (0..rows).map(|i| (i as f64 * 1.3).sin()).collect();
        let (vp, rp, cp, xp) = (
            mem.alloc_f64_slice(&vals),
            mem.alloc_i32_slice(&rowptr),
            mem.alloc_i32_slice(&colidx),
            mem.alloc_f64_slice(&x),
        );
        let yp = mem.alloc_f64_slice(&vec![0.0; rows]);
        vec![
            Value::P(vp),
            Value::P(rp),
            Value::P(cp),
            Value::P(xp),
            Value::P(yp),
            Value::I(rows as i64),
            Value::I(4),
            Value::I(4),
        ]
    }

    #[test]
    fn parallel_csrmv_is_bitwise_equal_to_serial() {
        for cert in [ParallelCert::Independent, ParallelCert::ReductionOnly] {
            for workers in [1usize, 2, 4, 7] {
                let mut m1 = Memory::new();
                let a1 = csrmv_fixture(&mut m1, 23);
                csrmv_serial(&mut m1, &a1).unwrap();
                let mut m2 = Memory::new();
                let a2 = csrmv_fixture(&mut m2, 23);
                csrmv_parallel(cert, workers, &mut m2, &a2).unwrap();
                assert_eq!(m1.bytes(), m2.bytes(), "{cert:?} at {workers} workers");
            }
        }
    }

    /// Three-row CSR operands with unit `x`; `y` directly follows `x`.
    fn csrmv_small(mem: &mut Memory, rowptr: &[i32], colidx: &[i32]) -> Vec<Value> {
        let vp = mem.alloc_f64_slice(&[1.0; 5]);
        let rp = mem.alloc_i32_slice(rowptr);
        let cp = mem.alloc_i32_slice(colidx);
        let xp = mem.alloc_f64_slice(&[1.0, 1.0, 1.0]);
        let yp = mem.alloc_f64_slice(&[0.0; 3]);
        assert_eq!(yp, xp + 24);
        vec![
            Value::P(vp),
            Value::P(rp),
            Value::P(cp),
            Value::P(xp),
            Value::P(yp),
            Value::I(rowptr.len() as i64 - 1),
            Value::I(4),
            Value::I(4),
        ]
    }

    #[test]
    fn parallel_csrmv_rejects_negative_indices_under_both_certificates() {
        let cases: [(&[i32], &[i32]); 2] = [
            (&[0, -2, 3, 5], &[0, 2, 1, 0, 2]),
            (&[0, 2, 3, 5], &[0, -1, 1, 0, 2]),
        ];
        for cert in [ParallelCert::Independent, ParallelCert::ReductionOnly] {
            for (rowptr, colidx) in cases {
                let mut mem = Memory::new();
                let args = csrmv_small(&mut mem, rowptr, colidx);
                let err = csrmv_parallel(cert, 2, &mut mem, &args).unwrap_err();
                assert!(err.contains("negative element index"), "{cert:?}: {err}");
            }
        }
    }

    #[test]
    fn parallel_csrmv_refuses_x_reads_inside_the_y_window() {
        // colidx 3 addresses x[3], which is y[0]: under an independence
        // certificate the read view convicts the alias.
        let mut mem = Memory::new();
        let args = csrmv_small(&mut mem, &[0, 2, 3, 5], &[0, 3, 1, 0, 2]);
        let err = csrmv_parallel(ParallelCert::Independent, 2, &mut mem, &args).unwrap_err();
        assert!(err.contains("independence certificate"), "{err}");
    }

    #[test]
    fn empty_launches_touch_only_what_the_serial_loops_touch() {
        // k = 0: C = 0 + beta*C, A and B are never read (null is fine).
        let beta = -0.5;
        let mut mem = Memory::new();
        let mut args = gemm_fixture(&mut mem, 5, 3, 4, beta);
        args[0] = Value::P(0);
        args[1] = Value::P(0);
        args[5] = Value::I(0);
        let cp = args[2].try_p().unwrap();
        let mut want = mem.clone();
        for (i, v) in mem.read_f64_slice(cp, 15).into_iter().enumerate() {
            want.store_f64(cp + 8 * i as u64, 0.0 + v * beta).unwrap();
        }
        let mut serial = mem.clone();
        gemm_serial(&mut serial, &args).unwrap();
        assert_eq!(serial.bytes(), want.bytes());
        for cert in [ParallelCert::Independent, ParallelCert::ReductionOnly] {
            let mut par = mem.clone();
            gemm_parallel(cert, 2, &mut par, &args).unwrap();
            assert_eq!(par.bytes(), want.bytes(), "{cert:?}");
        }
        // m = 0 or n = 0: no element is read or written, even through null
        // pointers; likewise csrmv with m = 0.
        for (mi, ni) in [(0, 3), (5, 0), (-1, 3)] {
            let mut args = gemm_fixture(&mut mem, 5, 3, 4, beta);
            args[2] = Value::P(0);
            args[3] = Value::I(mi);
            args[4] = Value::I(ni);
            let before = mem.bytes().to_vec();
            gemm_serial(&mut mem, &args).unwrap();
            for cert in [ParallelCert::Independent, ParallelCert::ReductionOnly] {
                gemm_parallel(cert, 2, &mut mem, &args).unwrap();
            }
            assert_eq!(mem.bytes(), &before[..], "m {mi}, n {ni}");
        }
        let mut args = csrmv_fixture(&mut mem, 4);
        args[4] = Value::P(0);
        args[5] = Value::I(0);
        let before = mem.bytes().to_vec();
        csrmv_serial(&mut mem, &args).unwrap();
        for cert in [ParallelCert::Independent, ParallelCert::ReductionOnly] {
            csrmv_parallel(cert, 2, &mut mem, &args).unwrap();
        }
        assert_eq!(mem.bytes(), &before[..]);
    }

    #[test]
    fn parallel_gemm_refuses_aliased_output() {
        // Point A at the C buffer: the windowed executor's read view must
        // refuse the in-window load instead of racing on it.
        let mut mem = Memory::new();
        let mut args = gemm_fixture(&mut mem, 4, 4, 4, 0.0);
        args[0] = args[2];
        let err = gemm_parallel(ParallelCert::Independent, 2, &mut mem, &args).unwrap_err();
        assert!(err.contains("independence certificate"), "{err}");
    }

    #[test]
    fn strided_input_around_the_output_window_is_not_an_alias() {
        // One array holds A's row 0, then C (2×2), then A's row 1 at
        // stride `sa`: with sa = 8 A's span encloses C's window without an
        // element inside it, which must run (and match serial bitwise);
        // with sa = 3 A's row 1 lands inside C, which is an alias.
        let make = |mem: &mut Memory, sa: i64| {
            let buf: Vec<f64> = (0..10).map(|i| 1.0 + i as f64 * 0.5).collect();
            let base = mem.alloc_f64_slice(&buf);
            let bp = mem.alloc_f64_slice(&[0.25, -1.0, 2.0, 0.125]);
            vec![
                Value::P(base),
                Value::P(bp),
                Value::P(base + 16),
                Value::I(2),
                Value::I(2),
                Value::I(2),
                Value::I(sa),
                Value::I(2),
                Value::I(2),
                Value::I(0),
                Value::I(0),
                Value::I(0),
                Value::F(0.5),
            ]
        };
        let mut m1 = Memory::new();
        let a1 = make(&mut m1, 8);
        gemm_serial(&mut m1, &a1).unwrap();
        let mut m2 = Memory::new();
        let a2 = make(&mut m2, 8);
        gemm_parallel(ParallelCert::Independent, 2, &mut m2, &a2).unwrap();
        assert_eq!(m1.bytes(), m2.bytes());
        let mut m3 = Memory::new();
        let a3 = make(&mut m3, 3);
        let err = gemm_parallel(ParallelCert::Independent, 2, &mut m3, &a3).unwrap_err();
        assert!(err.contains("independence certificate"), "{err}");
    }

    #[test]
    fn register_parallel_routes_serial_certificates_sequentially() {
        let text = r#"
define void @run(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m) {
entry:
  call void @csrmv_f64(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m, i64 4, i64 4)
  ret void
}
define void @csrmv_f64(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m, i64 %rw, i64 %cw) {
entry:
  ret void
}
"#;
        let module = ssair::parser::parse_module(text).unwrap();
        let mut certs = BTreeMap::new();
        certs.insert("csrmv_f64".to_string(), ParallelSafety::Serial);
        let stats = Arc::new(ExecStats::default());
        let mut vm = Machine::new(&module);
        register_parallel(
            &mut vm,
            &module,
            &certs,
            &ExecConfig::with_workers(4),
            &stats,
        );
        let mut m0 = Memory::new();
        let args = csrmv_fixture(&mut m0, 5);
        vm.mem = m0;
        vm.run("run", &args[..6]).unwrap();
        assert_eq!(stats.sequential_launches(), 1);
        assert_eq!(stats.parallel_launches(), 0);
        assert_eq!(stats.serial_cert_parallel_entries(), 0);
    }

    #[test]
    fn register_parallel_runs_library_kernels_on_the_pool() {
        let text = r#"
define void @run(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m) {
entry:
  call void @csrmv_f64(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m, i64 4, i64 4)
  ret void
}
"#;
        let module = ssair::parser::parse_module(text).unwrap();
        let mut certs = BTreeMap::new();
        certs.insert(
            "csrmv_f64".to_string(),
            ParallelSafety::IndependentIterations,
        );
        let stats = Arc::new(ExecStats::default());
        let mut vm = Machine::new(&module);
        register_parallel(
            &mut vm,
            &module,
            &certs,
            &ExecConfig::with_workers(4),
            &stats,
        );
        let mut m0 = Memory::new();
        let args = csrmv_fixture(&mut m0, 17);
        vm.mem = m0;
        vm.run("run", &args[..6]).unwrap();
        assert_eq!(stats.parallel_launches(), 1);

        // Oracle: serial host on identical inputs, bitwise.
        let mut vm2 = Machine::new(&module);
        register_all(&mut vm2);
        let mut m1 = Memory::new();
        let args2 = csrmv_fixture(&mut m1, 17);
        vm2.mem = m1;
        vm2.run("run", &args2[..6]).unwrap();
        assert_eq!(vm.mem.bytes(), vm2.mem.bytes());
    }
}
