//! Functional executors for the fixed-function library entry points.
//!
//! These are the "vendor libraries" of the simulation: registering them
//! with an [`interp::Machine`] makes transformed programs executable (the
//! timing of the simulated devices is handled separately by
//! [`crate::model`], and the parallel thread-pool variants live in
//! [`crate::exec`]).
//!
//! Each launch checks its operands once, then runs the numeric core over
//! byte windows that are already known to be in bounds:
//!
//! * a GEMM operand is affine in (row, k), so checking its corners with
//!   the per-element address arithmetic (`gemm_addr`, `elem_addr`)
//!   proves every element non-negative, free of overflow and in bounds
//!   (`Grid`);
//! * `csrmv` checks `rowptr` and `y` once per launch and each row's
//!   `rowptr[j]..rowptr[j+1]` range of `colidx`/`vals` once per row; only
//!   the `x` read, whose address is data (`colidx[k]`), is checked per
//!   nonzero.
//!
//! All address arithmetic is checked and signed: a negative index or
//! stride — a corrupted `rowptr`, or hostile layout facts from a bad
//! replacement — fails with a descriptive error instead of wrapping to a
//! huge `u64` offset. A failed check reports the same text as the
//! per-element accessor that would have hit the bad element.
//!
//! `Gemm` and `Csr` hold the one numeric body of each API; the serial
//! hosts here and every parallel worker in [`crate::exec`] call it, so
//! only the partitioning differs and the bitwise serial/parallel oracle
//! compares like with like.

use interp::{HostRegistry, Memory, ReadView, Value};
use std::sync::Arc;

/// Address of signed element `idx` (of `width` bytes) at `base`.
///
/// Rejects negative indices and overflowing offsets; `base + width * idx`
/// with `idx as u64` would wrap a negative index to the top of the
/// address space and turn a data corruption into a wild read.
#[inline]
pub(crate) fn elem_addr(base: u64, idx: i64, width: u64) -> Result<u64, String> {
    u64::try_from(idx)
        .ok()
        .and_then(|i| i.checked_mul(width))
        .and_then(|off| base.checked_add(off))
        .ok_or_else(|| bad_elem(base, idx, width))
}

#[cold]
fn bad_elem(base: u64, idx: i64, width: u64) -> String {
    if idx < 0 {
        format!("negative element index {idx} (base {base})")
    } else {
        format!("address overflow: {base} + {width} * {idx}")
    }
}

/// Decodes a little-endian `f64` from the first 8 bytes of a window.
fn f64_at(bytes: &[u8]) -> f64 {
    f64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// Rejects calls with the wrong argument count — a corrupted replacement
/// must fail its validation run, not index out of bounds and abort.
fn arity(name: &str, args: &[Value], n: usize) -> Result<(), String> {
    if args.len() == n {
        Ok(())
    } else {
        Err(format!("{name} expects {n} arguments, got {}", args.len()))
    }
}

/// Parsed `gemm_f64` arguments (see [`register_all`] for the contract).
pub(crate) struct GemmArgs {
    pub a: u64,
    pub b: u64,
    pub c: u64,
    pub m: i64,
    pub n: i64,
    pub k: i64,
    pub sa: i64,
    pub sb: i64,
    pub sc: i64,
    pub ar: i64,
    pub br: i64,
    pub cr: i64,
    pub beta: f64,
}

pub(crate) fn parse_gemm(args: &[Value]) -> Result<GemmArgs, String> {
    arity("gemm_f64", args, 13)?;
    Ok(GemmArgs {
        a: args[0].try_p()?,
        b: args[1].try_p()?,
        c: args[2].try_p()?,
        m: args[3].try_i()?,
        n: args[4].try_i()?,
        k: args[5].try_i()?,
        sa: args[6].try_i()?,
        sb: args[7].try_i()?,
        sc: args[8].try_i()?,
        ar: args[9].try_i()?,
        br: args[10].try_i()?,
        cr: args[11].try_i()?,
        beta: args[12].try_f()?,
    })
}

/// Element address under the solution's orientation facts:
/// `idx = row*stride + col` when row-scaled, else `col*stride + row` —
/// computed with checked signed arithmetic so negative strides fail
/// descriptively.
pub(crate) fn gemm_addr(
    base: u64,
    col: i64,
    row: i64,
    stride: i64,
    row_scaled: i64,
) -> Result<u64, String> {
    let idx = if row_scaled != 0 {
        row.checked_mul(stride).and_then(|t| t.checked_add(col))
    } else {
        col.checked_mul(stride).and_then(|t| t.checked_add(row))
    }
    .ok_or_else(|| format!("index overflow: stride {stride} at ({col}, {row})"))?;
    elem_addr(base, idx, 8)
}

/// A GEMM operand checked over its whole `rows × cols` extent: element
/// `(r, c)` is the `f64` at byte `r * row + c * col` of the window
/// `[base, base + len)`. An empty extent has an empty window.
pub(crate) struct Grid {
    /// Address of element `(0, 0)`, the lowest element.
    pub base: u64,
    /// Bytes from `base` to the end of the highest element.
    pub len: usize,
    /// Byte step between consecutive rows.
    pub row: usize,
    /// Byte step between consecutive columns.
    pub col: usize,
}

impl Grid {
    /// Checks the operand `(r, c) ↦ gemm_addr(base, r, c, stride,
    /// row_scaled)`. Its index is affine in `(r, c)` and zero at `(0, 0)`,
    /// so the extremes lie at the corners: three corner addresses with no
    /// negative index or overflow prove both steps non-negative and every
    /// element's address valid, and loading the lowest and highest
    /// element through `view` proves every element in bounds.
    fn new(
        view: &ReadView<'_>,
        base: u64,
        rows: i64,
        cols: i64,
        stride: i64,
        row_scaled: i64,
    ) -> Result<Grid, String> {
        if rows <= 0 || cols <= 0 {
            return Ok(Grid {
                base,
                len: 0,
                row: 0,
                col: 0,
            });
        }
        let (r1, c1) = (rows - 1, cols - 1);
        let down = gemm_addr(base, r1, 0, stride, row_scaled)?;
        let right = gemm_addr(base, 0, c1, stride, row_scaled)?;
        let last = gemm_addr(base, r1, c1, stride, row_scaled)?;
        view.load_f64(base)?;
        view.load_f64(last)?;
        // In bounds, so every offset below fits in `usize`.
        let step = |to: u64, n: i64| if n > 0 { (to - base) / n as u64 } else { 0 };
        Ok(Grid {
            base,
            len: (last - base) as usize + 8,
            row: step(down, r1) as usize,
            col: step(right, c1) as usize,
        })
    }

    /// The operand's bytes from element `(r, 0)` on.
    fn row_bytes<'v>(&self, view: &ReadView<'v>, r: usize) -> Result<&'v [u8], String> {
        if self.len == 0 {
            return Ok(&[]);
        }
        Ok(&view.bytes(self.base, self.len)?[r * self.row..])
    }

    /// Element addresses in row-major order.
    pub(crate) fn addrs(&self, rows: usize, cols: usize) -> impl Iterator<Item = u64> + '_ {
        (0..rows).flat_map(move |r| {
            (0..cols).map(move |c| self.base + (r * self.row + c * self.col) as u64)
        })
    }
}

/// A `gemm_f64` launch with at least one output element, its operands
/// checked once ([`Grid`]).
pub(crate) struct Gemm {
    pub a: Grid,
    pub b: Grid,
    pub c: Grid,
    pub m: usize,
    pub n: usize,
    pub k: usize,
    pub beta: f64,
}

impl Gemm {
    /// Checks A, B and C against `view`; `None` for a launch with no
    /// output element, which reads and writes nothing. A and B are not
    /// read when `k <= 0`.
    pub(crate) fn check(view: &ReadView<'_>, g: &GemmArgs) -> Result<Option<Gemm>, String> {
        if g.m <= 0 || g.n <= 0 {
            return Ok(None);
        }
        let k = g.k.max(0);
        Ok(Some(Gemm {
            a: Grid::new(view, g.a, g.m, k, g.sa, g.ar)?,
            b: Grid::new(view, g.b, g.n, k, g.sb, g.br)?,
            c: Grid::new(view, g.c, g.m, g.n, g.sc, g.cr)?,
            m: g.m as usize,
            n: g.n as usize,
            k: k as usize,
            beta: g.beta,
        }))
    }

    /// Output elements `(i0, i1)` in the serial store order.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (usize, usize)> {
        let n = self.n;
        (0..self.m).flat_map(move |i0| (0..n).map(move |i1| (i0, i1)))
    }

    /// The dot product for output element `(i0, i1)`: the full
    /// accumulation chain in the original `k` order, shared verbatim by
    /// the serial host and every parallel worker (bitwise determinism).
    pub(crate) fn dot(&self, view: &ReadView<'_>, i0: usize, i1: usize) -> Result<f64, String> {
        let a = self.a.row_bytes(view, i0)?;
        let b = self.b.row_bytes(view, i1)?;
        let mut acc = 0.0;
        if self.a.col == 8 && self.b.col == 8 {
            for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)).take(self.k) {
                acc += f64_at(x) * f64_at(y);
            }
        } else {
            for kk in 0..self.k {
                acc += f64_at(&a[kk * self.a.col..]) * f64_at(&b[kk * self.b.col..]);
            }
        }
        Ok(acc)
    }

    /// Writes `acc + beta * C` into one 8-byte C cell.
    pub(crate) fn update(&self, cell: &mut [u8], acc: f64) {
        let v = acc + beta_old(f64_at(cell), self.beta);
        cell.copy_from_slice(&v.to_le_bytes());
    }

    /// Updates C element `(i0, i1)` in memory.
    pub(crate) fn store(&self, mem: &mut Memory, (i0, i1): (usize, usize), acc: f64) {
        let at = self.c.base as usize + i0 * self.c.row + i1 * self.c.col;
        self.update(&mut mem.bytes_mut()[at..at + 8], acc);
    }

    /// The serial host's loop. A and B are re-read from memory after
    /// every store, so an operand aliasing C sees each earlier result.
    pub(crate) fn serial(&self, mem: &mut Memory) -> Result<(), String> {
        for cell in self.cells() {
            let acc = self.dot(&mem.view(), cell.0, cell.1)?;
            self.store(mem, cell, acc);
        }
        Ok(())
    }
}

/// The `beta * C` term. Only `+0.0` short-circuits (the BLAS "don't use
/// C" contract); `-0.0` differs bitwise and takes the multiply path, so
/// a NaN or infinity in `C` propagates per IEEE semantics instead of
/// silently reading as zero. The caller has always loaded `cur` — the
/// `C` address is bounds-probed on every path, including `beta == 0`.
pub(crate) fn beta_old(cur: f64, beta: f64) -> f64 {
    if beta.to_bits() == 0.0f64.to_bits() {
        0.0
    } else {
        cur * beta
    }
}

/// The sequential `gemm_f64` executor (also the parallel backend's
/// oracle; see [`crate::exec`]).
pub fn gemm_serial(mem: &mut Memory, args: &[Value]) -> Result<Value, String> {
    if let Some(g) = Gemm::check(&mem.view(), &parse_gemm(args)?)? {
        g.serial(mem)?;
    }
    Ok(Value::I(0))
}

/// Parsed `csrmv_f64` arguments.
pub(crate) struct CsrArgs {
    pub vals: u64,
    pub rowptr: u64,
    pub colidx: u64,
    pub x: u64,
    pub y: u64,
    pub m: i64,
    pub rw: i64,
    pub cw: i64,
}

pub(crate) fn parse_csrmv(args: &[Value]) -> Result<CsrArgs, String> {
    arity("csrmv_f64", args, 8)?;
    Ok(CsrArgs {
        vals: args[0].try_p()?,
        rowptr: args[1].try_p()?,
        colidx: args[2].try_p()?,
        x: args[3].try_p()?,
        y: args[4].try_p()?,
        m: args[5].try_i()?,
        rw: args[6].try_i()?,
        cw: args[7].try_i()?,
    })
}

/// Byte width of a `rowptr`/`colidx` entry: `4` is `i32`, anything else
/// `i64`.
fn idx_width(w: i64) -> usize {
    if w == 4 {
        4
    } else {
        8
    }
}

/// Decodes one `rowptr`/`colidx` entry of [`idx_width`] bytes.
fn idx_at(bytes: &[u8]) -> i64 {
    match *bytes {
        [a, b, c, d] => i64::from(i32::from_le_bytes([a, b, c, d])),
        _ => i64::from_le_bytes(bytes.try_into().expect("8 bytes")),
    }
}

/// The bytes of elements `lo..hi` (`lo < hi`) of the `width`-byte array
/// at `base`, checked once: both ends through the per-element address
/// arithmetic, then the whole range against `view`. A refused range
/// reports the refused end element when there is one.
fn span<'v>(
    view: &ReadView<'v>,
    base: u64,
    lo: i64,
    hi: i64,
    width: usize,
) -> Result<&'v [u8], String> {
    let first = elem_addr(base, lo, width as u64)?;
    let last = elem_addr(base, hi - 1, width as u64)?;
    view.bytes(first, (last - first) as usize + width)
        .or_else(|e| {
            view.bytes(first, width)?;
            view.bytes(last, width)?;
            Err(e)
        })
}

/// A `csrmv_f64` launch with at least one row, `rowptr[0..=m]` and
/// `y[0..m]` checked once.
pub(crate) struct Csr {
    s: CsrArgs,
    pub m: usize,
    rw: usize,
    cw: usize,
}

impl Csr {
    /// Checks `rowptr` and `y` against `view`; `None` for a launch with
    /// no rows, which reads and writes nothing.
    pub(crate) fn check(view: &ReadView<'_>, s: CsrArgs) -> Result<Option<Csr>, String> {
        if s.m <= 0 {
            return Ok(None);
        }
        let rw = idx_width(s.rw);
        span(view, s.rowptr, 0, s.m.saturating_add(1), rw)?;
        span(view, s.y, 0, s.m, 8)?;
        Ok(Some(Csr {
            m: s.m as usize,
            rw,
            cw: idx_width(s.cw),
            s,
        }))
    }

    /// Address of `y[0]`.
    pub(crate) fn y(&self) -> u64 {
        self.s.y
    }

    /// Row `j`'s sparse dot product, in `rowptr` order — shared by the
    /// serial host and every parallel worker.
    pub(crate) fn row(&self, view: &ReadView<'_>, j: usize) -> Result<f64, String> {
        let rp = view.bytes(self.s.rowptr, (self.m + 1) * self.rw)?;
        let lo = idx_at(&rp[j * self.rw..(j + 1) * self.rw]);
        let hi = idx_at(&rp[(j + 1) * self.rw..(j + 2) * self.rw]);
        if hi <= lo {
            return Ok(0.0);
        }
        let cols = span(view, self.s.colidx, lo, hi, self.cw)?;
        let vals = span(view, self.s.vals, lo, hi, 8)?;
        let xs = view.tail(self.s.x);
        let mut d = 0.0;
        for (c, v) in cols.chunks_exact(self.cw).zip(vals.chunks_exact(8)) {
            // The one per-nonzero check: `colidx[k]` is data.
            let col = idx_at(c);
            let x = match usize::try_from(col)
                .ok()
                .and_then(|i| xs.get(i.checked_mul(8)?..)?.get(..8))
            {
                Some(b) => f64_at(b),
                None => view.load_f64(elem_addr(self.s.x, col, 8)?)?,
            };
            d += f64_at(v) * x;
        }
        Ok(d)
    }

    /// Stores `y[j]`.
    pub(crate) fn store(&self, mem: &mut Memory, j: usize, d: f64) {
        let at = self.s.y as usize + 8 * j;
        mem.bytes_mut()[at..at + 8].copy_from_slice(&d.to_le_bytes());
    }

    /// The serial host's loop; each row re-reads memory after the
    /// previous row's store.
    pub(crate) fn serial(&self, mem: &mut Memory) -> Result<(), String> {
        for j in 0..self.m {
            let d = self.row(&mem.view(), j)?;
            self.store(mem, j, d);
        }
        Ok(())
    }
}

/// The sequential `csrmv_f64` executor.
pub fn csrmv_serial(mem: &mut Memory, args: &[Value]) -> Result<Value, String> {
    if let Some(s) = Csr::check(&mem.view(), parse_csrmv(args)?)? {
        s.serial(mem)?;
    }
    Ok(Value::I(0))
}

/// Registers `gemm_f64` and `csrmv_f64` with the machine.
///
/// `gemm_f64(a, b, c, m, n, k, sa, sb, sc, a_row_scaled, b_row_scaled,
/// c_row_scaled, beta)` computes
/// `C[addr(i0,i1)] = beta*C[...] + Σ_k A[addr(i0,k)] * B[addr(i1,k)]`
/// where `addr(col,row) = row*stride+col` when row-scaled, else
/// `col*stride+row` — mirroring the orientation facts the constraint
/// solution provides (paper Figure 6 inserts solution variables into the
/// call template the same way).
///
/// `csrmv_f64(vals, rowptr, colidx, x, y, m, rowptr_width, colidx_width)`
/// is the cuSPARSE `csrmv` equivalent of the paper's Figure 6.
///
/// Generic over [`HostRegistry`] so the same registration serves the
/// tree-walking `Machine` and the bytecode `Vm`.
pub fn register_all<'m>(vm: &mut impl HostRegistry<'m>) {
    vm.register_host("gemm_f64", Arc::new(gemm_serial));
    vm.register_host("csrmv_f64", Arc::new(csrmv_serial));
}

#[cfg(test)]
mod tests {
    use super::*;
    use interp::Machine;

    #[test]
    fn gemm_host_matches_naive_oracle() {
        let (mm, nn, kk) = (3usize, 4usize, 5usize);
        let a: Vec<f64> = (0..mm * kk).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..nn * kk).map(|i| 1.0 - i as f64 * 0.25).collect();
        // Layout facts passed to the entry point: all three matrices use
        // idx = col*stride + row (row_scaled = 0), A/B stride k, C stride n.
        // Oracle comparison through the public interpreter path:
        let text = r#"
define void @run(double* %a, double* %b, double* %c, i64 %m, i64 %n, i64 %k) {
entry:
  call void @gemm_f64(double* %a, double* %b, double* %c, i64 %m, i64 %n, i64 %k, i64 %k, i64 %k, i64 %n, i64 0, i64 0, i64 0, double 0.0)
  ret void
}
"#;
        let m2 = ssair::parser::parse_module(text).unwrap();
        let mut vm3 = Machine::new(&m2);
        register_all(&mut vm3);
        let ap = vm3.mem.alloc_f64_slice(&a);
        let bp = vm3.mem.alloc_f64_slice(&b);
        let cp = vm3.mem.alloc_f64_slice(&vec![0.0; mm * nn]);
        vm3.run(
            "run",
            &[
                Value::P(ap),
                Value::P(bp),
                Value::P(cp),
                Value::I(mm as i64),
                Value::I(nn as i64),
                Value::I(kk as i64),
            ],
        )
        .unwrap();
        let got = vm3.mem.read_f64_slice(cp, mm * nn);
        for i0 in 0..mm {
            for i1 in 0..nn {
                let mut acc = 0.0;
                for x in 0..kk {
                    acc += a[i0 * kk + x] * b[i1 * kk + x];
                }
                assert!((got[i0 * nn + i1] - acc).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn csrmv_host_matches_naive_oracle() {
        let text = r#"
define void @run(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m) {
entry:
  call void @csrmv_f64(double* %v, i32* %r, i32* %c, double* %x, double* %y, i64 %m, i64 4, i64 4)
  ret void
}
"#;
        let m = ssair::parser::parse_module(text).unwrap();
        let mut vm = Machine::new(&m);
        register_all(&mut vm);
        let rowstr = [0, 2, 3, 5];
        let colidx = [0, 2, 1, 0, 2];
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0];
        let x = [0.5, -1.0, 2.0];
        let vp = vm.mem.alloc_f64_slice(&vals);
        let rp = vm.mem.alloc_i32_slice(&rowstr);
        let cp = vm.mem.alloc_i32_slice(&colidx);
        let xp = vm.mem.alloc_f64_slice(&x);
        let yp = vm.mem.alloc_f64_slice(&[0.0; 3]);
        vm.run(
            "run",
            &[
                Value::P(vp),
                Value::P(rp),
                Value::P(cp),
                Value::P(xp),
                Value::P(yp),
                Value::I(3),
            ],
        )
        .unwrap();
        let y = vm.mem.read_f64_slice(yp, 3);
        assert_eq!(y, vec![1.0 * 0.5 + 2.0 * 2.0, -3.0, 4.0 * 0.5 + 5.0 * 2.0]);
    }

    fn csrmv_args(m: &mut Memory, rowptr: &[i32], colidx: &[i32], vals: &[f64]) -> Vec<Value> {
        let vp = m.alloc_f64_slice(vals);
        let rp = m.alloc_i32_slice(rowptr);
        let cp = m.alloc_i32_slice(colidx);
        let xp = m.alloc_f64_slice(&[1.0, 1.0, 1.0]);
        let yp = m.alloc_f64_slice(&[0.0; 3]);
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
    fn csrmv_rejects_negative_rowptr_entries() {
        // A corrupted rowptr with a negative entry used to wrap
        // `base + 4 * k as u64` to the top of the address space.
        let mut mem = Memory::new();
        let args = csrmv_args(&mut mem, &[0, -2, 3, 5], &[0, 2, 1, 0, 2], &[1.0; 5]);
        let err = csrmv_serial(&mut mem, &args).unwrap_err();
        assert!(err.contains("negative element index"), "{err}");
    }

    #[test]
    fn csrmv_rejects_negative_colidx_entries() {
        let mut mem = Memory::new();
        let args = csrmv_args(&mut mem, &[0, 2, 3, 5], &[0, -1, 1, 0, 2], &[1.0; 5]);
        let err = csrmv_serial(&mut mem, &args).unwrap_err();
        assert!(err.contains("negative element index"), "{err}");
    }

    fn gemm_args(mem: &mut Memory, sc: i64, beta: f64, c_init: &[f64]) -> Vec<Value> {
        let ap = mem.alloc_f64_slice(&[1.0, 2.0]);
        let bp = mem.alloc_f64_slice(&[3.0, 4.0]);
        let cp = mem.alloc_f64_slice(c_init);
        vec![
            Value::P(ap),
            Value::P(bp),
            Value::P(cp),
            Value::I(1),
            Value::I(1),
            Value::I(2),
            Value::I(2),
            Value::I(2),
            Value::I(sc),
            Value::I(0),
            Value::I(0),
            Value::I(0),
            Value::F(beta),
        ]
    }

    #[test]
    fn gemm_rejects_negative_strides() {
        // A hostile stride fact from a bad replacement: idx goes negative
        // for i0 > 0, which used to wrap instead of erroring. With m=n=1
        // the C index is 0*sc+0, so poison A's stride instead.
        let mut mem = Memory::new();
        let mut args = gemm_args(&mut mem, 1, 0.0, &[0.0]);
        args[6] = Value::I(-3); // sa: a index = i0 * -3 + kk → kk=1 gives... still >= 0 for i0=0
        args[3] = Value::I(2); // m=2 so i0=1 drives idx negative: 1*-3+0 = -3... col*stride+row = i0*sa+kk
        let err = gemm_serial(&mut mem, &args).unwrap_err();
        assert!(err.contains("negative element index"), "{err}");
    }

    #[test]
    fn gemm_beta_negative_zero_reads_c() {
        // beta == -0.0 compares equal to 0.0 but differs bitwise; the old
        // `beta != 0.0` guard skipped the C load, silently reading-as-zero
        // and swallowing a NaN/inf already in C. IEEE: inf * -0.0 = NaN.
        let mut mem = Memory::new();
        let args = gemm_args(&mut mem, 1, -0.0, &[f64::INFINITY]);
        let cp = args[2].try_p().unwrap();
        gemm_serial(&mut mem, &args).unwrap();
        assert!(mem.load_f64(cp).unwrap().is_nan());
        // +0.0 keeps the BLAS contract: C's value is not used.
        let mut mem2 = Memory::new();
        let args2 = gemm_args(&mut mem2, 1, 0.0, &[f64::INFINITY]);
        let cp2 = args2[2].try_p().unwrap();
        gemm_serial(&mut mem2, &args2).unwrap();
        assert_eq!(mem2.load_f64(cp2).unwrap(), 11.0);
    }

    #[test]
    fn gemm_serial_with_a_aliasing_c_rereads_c_after_every_store() {
        // A is C (square, same stride): each output element's dot product
        // reads C as left by every earlier store.
        let n = 4usize;
        let b: Vec<f64> = (0..n * n).map(|i| 0.5 - i as f64 * 0.125).collect();
        let c0: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.3).sin()).collect();
        for beta in [0.0, -0.0, 0.75] {
            let mut want = c0.clone();
            for i0 in 0..n {
                for i1 in 0..n {
                    let mut acc = 0.0;
                    for kk in 0..n {
                        acc += want[i0 * n + kk] * b[i1 * n + kk];
                    }
                    let cur = want[i0 * n + i1];
                    want[i0 * n + i1] = acc + beta_old(cur, beta);
                }
            }
            let mut mem = Memory::new();
            let bp = mem.alloc_f64_slice(&b);
            let cp = mem.alloc_f64_slice(&c0);
            let ni = n as i64;
            let args = [
                Value::P(cp),
                Value::P(bp),
                Value::P(cp),
                Value::I(ni),
                Value::I(ni),
                Value::I(ni),
                Value::I(ni),
                Value::I(ni),
                Value::I(ni),
                Value::I(0),
                Value::I(0),
                Value::I(0),
                Value::F(beta),
            ];
            gemm_serial(&mut mem, &args).unwrap();
            let got: Vec<u64> = mem
                .read_f64_slice(cp, n * n)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "beta {beta}");
        }
    }

    #[test]
    fn gemm_probes_c_even_when_beta_is_zero() {
        // An out-of-bounds C pointer must fail on the beta == 0 path too.
        let mut mem = Memory::new();
        let mut args = gemm_args(&mut mem, 1, 0.0, &[0.0]);
        args[2] = Value::P(1 << 40);
        assert!(gemm_serial(&mut mem, &args).is_err());
    }
}
