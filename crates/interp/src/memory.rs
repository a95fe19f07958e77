//! Byte-addressable linear memory with typed accessors.
//!
//! Address 0 is reserved as null; allocations are 8-byte aligned. The
//! memory is the single shared address space of a simulated run — the
//! "host" arrays of a benchmark live here, and the simulated heterogeneous
//! APIs read and write them directly (data-transfer *cost* is modeled
//! separately by `hetero`; correctness uses this one space).

use ssair::Type;

/// One typed allocation, as recorded by [`Memory::alloc`].
///
/// The differential validator replays a benchmark's `setup` on two
/// machines and then compares exactly these arrays element-wise; the
/// record is what makes that comparison typed and in-bounds by
/// construction (no whole-memory byte scans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Base address.
    pub base: u64,
    /// Element type.
    pub elem: Type,
    /// Number of elements.
    pub count: usize,
}

impl Allocation {
    /// Size of the allocation in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.elem.size_bytes() * self.count
    }
}

/// Linear memory.
#[derive(Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    allocations: Vec<Allocation>,
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

impl Memory {
    /// Creates an empty memory (address 0 reserved).
    #[must_use]
    pub fn new() -> Memory {
        Memory {
            bytes: vec![0; 8],
            allocations: Vec::new(),
        }
    }

    /// Current size in bytes.
    #[must_use]
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Every typed allocation made so far, in allocation order. Untyped
    /// [`Memory::alloc_bytes`] calls are not recorded.
    #[must_use]
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// Allocates `n` bytes, zero-initialized, 8-byte aligned.
    pub fn alloc_bytes(&mut self, n: usize) -> u64 {
        let addr = (self.bytes.len() + 7) & !7;
        self.bytes.resize(addr + n, 0);
        addr as u64
    }

    /// Allocates an array of `n` elements of `ty` and records it (see
    /// [`Memory::allocations`]).
    pub fn alloc(&mut self, ty: &Type, n: usize) -> u64 {
        let base = self.alloc_bytes(ty.size_bytes() * n);
        self.allocations.push(Allocation {
            base,
            elem: ty.clone(),
            count: n,
        });
        base
    }

    fn check(&self, addr: u64, n: usize) -> Result<usize, String> {
        if addr == 0 {
            return Err("null pointer access".into());
        }
        usize::try_from(addr)
            .ok()
            .filter(|a| a.checked_add(n).is_some_and(|end| end <= self.bytes.len()))
            .ok_or_else(|| out_of_bounds(addr, n))
    }

    /// Loads an `i64` (or pointer) value.
    pub fn load_i64(&self, addr: u64) -> Result<i64, String> {
        let a = self.check(addr, 8)?;
        Ok(i64::from_le_bytes(
            self.bytes[a..a + 8].try_into().expect("8 bytes"),
        ))
    }

    /// Stores an `i64` (or pointer) value.
    pub fn store_i64(&mut self, addr: u64, v: i64) -> Result<(), String> {
        let a = self.check(addr, 8)?;
        self.bytes[a..a + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Loads an `i32` value (sign-preserved in `i64`).
    pub fn load_i32(&self, addr: u64) -> Result<i64, String> {
        let a = self.check(addr, 4)?;
        Ok(i64::from(i32::from_le_bytes(
            self.bytes[a..a + 4].try_into().expect("4 bytes"),
        )))
    }

    /// Stores an `i32` value (truncating).
    pub fn store_i32(&mut self, addr: u64, v: i64) -> Result<(), String> {
        let a = self.check(addr, 4)?;
        self.bytes[a..a + 4].copy_from_slice(&(v as i32).to_le_bytes());
        Ok(())
    }

    /// Loads an `i1` value.
    pub fn load_i8(&self, addr: u64) -> Result<i64, String> {
        let a = self.check(addr, 1)?;
        Ok(i64::from(self.bytes[a]))
    }

    /// Stores an `i1` value.
    pub fn store_i8(&mut self, addr: u64, v: i64) -> Result<(), String> {
        let a = self.check(addr, 1)?;
        self.bytes[a] = (v & 1) as u8;
        Ok(())
    }

    /// Loads an `f64`.
    pub fn load_f64(&self, addr: u64) -> Result<f64, String> {
        let a = self.check(addr, 8)?;
        Ok(f64::from_le_bytes(
            self.bytes[a..a + 8].try_into().expect("8 bytes"),
        ))
    }

    /// Stores an `f64`.
    pub fn store_f64(&mut self, addr: u64, v: f64) -> Result<(), String> {
        let a = self.check(addr, 8)?;
        self.bytes[a..a + 8].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Loads an `f32` widened to `f64`.
    pub fn load_f32(&self, addr: u64) -> Result<f64, String> {
        let a = self.check(addr, 4)?;
        Ok(f64::from(f32::from_le_bytes(
            self.bytes[a..a + 4].try_into().expect("4 bytes"),
        )))
    }

    /// Stores an `f32` (narrowing).
    pub fn store_f32(&mut self, addr: u64, v: f64) -> Result<(), String> {
        let a = self.check(addr, 4)?;
        self.bytes[a..a + 4].copy_from_slice(&(v as f32).to_le_bytes());
        Ok(())
    }

    // ----- bulk helpers for harnesses and tests -----

    /// Allocates and fills an `f64` array; returns its address.
    pub fn alloc_f64_slice(&mut self, data: &[f64]) -> u64 {
        let addr = self.alloc(&Type::F64, data.len());
        for (i, &v) in data.iter().enumerate() {
            self.store_f64(addr + 8 * i as u64, v).expect("in bounds");
        }
        addr
    }

    /// Allocates and fills an `f32` array; returns its address.
    pub fn alloc_f32_slice(&mut self, data: &[f32]) -> u64 {
        let addr = self.alloc(&Type::F32, data.len());
        for (i, &v) in data.iter().enumerate() {
            self.store_f32(addr + 4 * i as u64, f64::from(v))
                .expect("in bounds");
        }
        addr
    }

    /// Allocates and fills an `i32` array; returns its address.
    pub fn alloc_i32_slice(&mut self, data: &[i32]) -> u64 {
        let addr = self.alloc(&Type::I32, data.len());
        for (i, &v) in data.iter().enumerate() {
            self.store_i32(addr + 4 * i as u64, i64::from(v))
                .expect("in bounds");
        }
        addr
    }

    /// Reads back an `f64` array.
    pub fn read_f64_slice(&self, addr: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| self.load_f64(addr + 8 * i as u64).expect("in bounds"))
            .collect()
    }

    /// Reads back an `f32` array (widened).
    pub fn read_f32_slice(&self, addr: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| self.load_f32(addr + 4 * i as u64).expect("in bounds"))
            .collect()
    }

    /// Reads back an `i32` array.
    pub fn read_i32_slice(&self, addr: u64, n: usize) -> Vec<i64> {
        (0..n)
            .map(|i| self.load_i32(addr + 4 * i as u64).expect("in bounds"))
            .collect()
    }

    // ----- parallel-backend support -----

    /// The raw byte image (for snapshotting and bitwise comparison).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the raw byte image. Used by parallel executors
    /// to merge disjoint worker writes back; the allocation table is
    /// unaffected.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// A shared read view of the whole memory: the read side of the serial
    /// kernel hosts, with no output window carved out.
    #[must_use]
    pub fn view(&self) -> ReadView<'_> {
        let end = self.bytes.len();
        ReadView {
            lo: &self.bytes,
            hi: &[],
            win_start: end,
            win_end: end,
        }
    }

    /// Splits the memory into a shared read view of everything *outside*
    /// `[base, base + len)` and an exclusive output window over exactly
    /// those bytes. The view is `Sync` (workers share it); the window is
    /// handed to workers as disjoint `split_at_mut`/`chunks_mut` pieces.
    /// Together they are the threading contract of the parallel kernel
    /// hosts: concurrent reads anywhere except the output, exclusive
    /// writes inside it.
    pub fn split_out(
        &mut self,
        base: u64,
        len: usize,
    ) -> Result<(ReadView<'_>, &mut [u8]), String> {
        if base == 0 {
            return Err("null pointer output window".into());
        }
        let Some((b, end)) = usize::try_from(base)
            .ok()
            .and_then(|b| Some((b, b.checked_add(len)?)))
            .filter(|&(_, end)| end <= self.bytes.len())
        else {
            return Err(format!("out-of-bounds output window at {base} (+{len})"));
        };
        let (lo, rest) = self.bytes.split_at_mut(b);
        let (win, hi) = rest.split_at_mut(len);
        Ok((
            ReadView {
                lo,
                hi,
                win_start: b,
                win_end: end,
            },
            win,
        ))
    }
}

#[cold]
fn out_of_bounds(addr: u64, n: usize) -> String {
    format!("out-of-bounds access at {addr} (+{n})")
}

/// Read-only view of a [`Memory`], possibly with one address range carved
/// out (the output window of a parallel kernel). Reads that overlap the
/// carved-out range fail with a descriptive error — an input overlapping
/// the output means the independence certificate was wrong, and the
/// parallel backend reports that instead of racing.
pub struct ReadView<'a> {
    lo: &'a [u8],
    hi: &'a [u8],
    win_start: usize,
    win_end: usize,
}

impl<'a> ReadView<'a> {
    /// The `n` bytes at `addr`, checked once: null, out of bounds and
    /// overlap with the carved-out window are errors, with the same text
    /// as [`Memory`]'s own accessors.
    #[inline]
    pub fn bytes(&self, addr: u64, n: usize) -> Result<&'a [u8], String> {
        if let Some(a) = usize::try_from(addr).ok().filter(|&a| a != 0) {
            if let Some(end) = a.checked_add(n) {
                if end <= self.win_start {
                    return Ok(&self.lo[a..end]);
                }
                if a >= self.win_end {
                    if let Some(b) = self.hi.get(a - self.win_end..end - self.win_end) {
                        return Ok(b);
                    }
                }
            }
        }
        Err(self.refusal(addr, n))
    }

    /// The readable bytes from `addr` up to the carved-out window or the
    /// end of memory, whichever comes first; empty when `addr` is null,
    /// out of bounds or inside the window. A cheap first try for reads
    /// whose offsets are data: what it does not cover goes through
    /// [`ReadView::bytes`].
    #[inline]
    #[must_use]
    pub fn tail(&self, addr: u64) -> &'a [u8] {
        match usize::try_from(addr) {
            Ok(a) if a != 0 && a < self.win_start => &self.lo[a..],
            Ok(a) if a >= self.win_end => self.hi.get(a - self.win_end..).unwrap_or(&[]),
            _ => &[],
        }
    }

    /// Why [`ReadView::bytes`] refused `addr` (+`n`).
    #[cold]
    #[inline(never)]
    fn refusal(&self, addr: u64, n: usize) -> String {
        if addr == 0 {
            return "null pointer access".into();
        }
        let a = usize::try_from(addr).unwrap_or(usize::MAX);
        let overlaps = self.win_start < self.win_end
            && a < self.win_end
            && a.checked_add(n).is_some_and(|end| end > self.win_start);
        if !overlaps {
            return out_of_bounds(addr, n);
        }
        format!(
            "read at {addr} (+{n}) overlaps the parallel output window [{}, {}) — \
             input/output alias violates the independence certificate",
            self.win_start, self.win_end
        )
    }

    /// Loads an `f64`.
    #[inline]
    pub fn load_f64(&self, addr: u64) -> Result<f64, String> {
        Ok(f64::from_le_bytes(
            self.bytes(addr, 8)?.try_into().expect("8 bytes"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        let mut m = Memory::new();
        let a = m.alloc(&Type::F64, 2);
        m.store_f64(a, 1.5).unwrap();
        m.store_f64(a + 8, -2.5).unwrap();
        assert_eq!(m.load_f64(a).unwrap(), 1.5);
        assert_eq!(m.load_f64(a + 8).unwrap(), -2.5);
        let b = m.alloc(&Type::I32, 1);
        m.store_i32(b, -7).unwrap();
        assert_eq!(m.load_i32(b).unwrap(), -7);
    }

    #[test]
    fn rejects_null_and_out_of_bounds() {
        let mut m = Memory::new();
        assert!(m.load_f64(0).is_err());
        let a = m.alloc(&Type::F64, 1);
        assert!(m.load_f64(a + 8).is_err());
        assert!(m.store_i64(0, 1).is_err());
    }

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut m = Memory::new();
        let a = m.alloc(&Type::I32, 3); // 12 bytes
        let b = m.alloc(&Type::F64, 1);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 8, 0);
        assert!(b >= a + 12);
    }

    #[test]
    fn typed_allocations_are_recorded() {
        let mut m = Memory::new();
        let a = m.alloc_f64_slice(&[1.0, 2.0]);
        let b = m.alloc(&Type::I32, 3);
        let _raw = m.alloc_bytes(16); // untyped: not recorded
        assert_eq!(
            m.allocations(),
            &[
                Allocation {
                    base: a,
                    elem: Type::F64,
                    count: 2
                },
                Allocation {
                    base: b,
                    elem: Type::I32,
                    count: 3
                },
            ]
        );
        assert_eq!(m.allocations()[0].size_bytes(), 16);
    }

    #[test]
    fn split_out_gives_disjoint_view_and_window() {
        let mut m = Memory::new();
        let a = m.alloc_f64_slice(&[1.0, 2.0]);
        let out = m.alloc_f64_slice(&[0.0, 0.0, 0.0]);
        let tail = m.alloc_f64_slice(&[3.0]);
        let (view, win) = m.split_out(out, 24).unwrap();
        // Reads outside the window succeed, on both sides of it.
        assert_eq!(view.load_f64(a).unwrap(), 1.0);
        assert_eq!(view.load_f64(a + 8).unwrap(), 2.0);
        assert_eq!(view.load_f64(tail).unwrap(), 3.0);
        assert_eq!(view.bytes(a, 16).unwrap().len(), 16);
        // Reads overlapping the window are refused (alias = broken
        // certificate), as are null and out-of-bounds reads.
        let err = view.load_f64(out + 8).unwrap_err();
        assert!(err.contains("independence certificate"), "{err}");
        let err = view.bytes(a, 24).unwrap_err();
        assert!(err.contains("independence certificate"), "{err}");
        assert!(view.load_f64(0).is_err());
        assert_eq!(
            view.load_f64(tail + 8).unwrap_err(),
            format!("out-of-bounds access at {} (+8)", tail + 8)
        );
        // The window is exactly the carved-out bytes; its pieces split
        // disjointly and stores land in the parent memory.
        assert_eq!(win.len(), 24);
        let (l, r) = win.split_at_mut(16);
        l[8..16].copy_from_slice(&1.0f64.to_le_bytes());
        r.copy_from_slice(&7.5f64.to_le_bytes());
        assert_eq!(m.read_f64_slice(out, 3), vec![0.0, 1.0, 7.5]);
    }

    #[test]
    fn whole_view_matches_the_memory_accessors() {
        let mut m = Memory::new();
        let a = m.alloc_f64_slice(&[1.5, -2.0]);
        let view = m.view();
        assert_eq!(view.load_f64(a + 8).unwrap(), -2.0);
        for (addr, n) in [(0, 8), (a + 12, 8), (a + 16, 8), (u64::MAX - 3, 8)] {
            let want = m.load_f64(addr).unwrap_err();
            assert_eq!(view.bytes(addr, n).unwrap_err(), want, "at {addr}");
        }
    }

    #[test]
    fn accesses_near_the_top_of_the_address_space_are_out_of_bounds() {
        // `addr + n` wraps past u64::MAX: an error, never a panic.
        let mut m = Memory::new();
        m.alloc_f64_slice(&[1.0]);
        let top = u64::MAX - 3;
        let oob = |n: usize| format!("out-of-bounds access at {top} (+{n})");
        assert_eq!(m.load_f64(top).unwrap_err(), oob(8));
        assert_eq!(m.load_i64(top).unwrap_err(), oob(8));
        assert_eq!(m.load_i32(top).unwrap_err(), oob(4));
        assert_eq!(m.load_f32(top).unwrap_err(), oob(4));
        assert_eq!(m.store_f64(top, 1.0).unwrap_err(), oob(8));
        assert_eq!(m.store_i64(top, 1).unwrap_err(), oob(8));
        assert_eq!(m.store_i32(top, 1).unwrap_err(), oob(4));
        assert_eq!(m.store_f32(top, 1.0).unwrap_err(), oob(4));
        assert_eq!(m.view().load_f64(top).unwrap_err(), oob(8));
        assert!(m.split_out(top, 8).is_err());
        let len = m.size() as u64;
        let (view, _) = m.split_out(8, 8).unwrap();
        assert_eq!(view.bytes(top, 8).unwrap_err(), oob(8));
        assert!(view.bytes(len, 8).is_err());
    }

    #[test]
    fn split_out_rejects_null_and_oob_windows() {
        let mut m = Memory::new();
        assert!(m.split_out(0, 8).is_err());
        let a = m.alloc_f64_slice(&[1.0]);
        assert!(m.split_out(a, 16).is_err());
    }

    #[test]
    fn memory_clone_is_independent() {
        let mut m = Memory::new();
        let a = m.alloc_f64_slice(&[1.0]);
        let mut c = m.clone();
        c.store_f64(a, 2.0).unwrap();
        assert_eq!(m.load_f64(a).unwrap(), 1.0);
        assert_eq!(c.load_f64(a).unwrap(), 2.0);
        assert_eq!(m.allocations(), c.allocations());
    }

    #[test]
    fn slice_helpers_round_trip() {
        let mut m = Memory::new();
        let a = m.alloc_f64_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(m.read_f64_slice(a, 3), vec![1.0, 2.0, 3.0]);
        let b = m.alloc_i32_slice(&[-1, 5]);
        assert_eq!(m.read_i32_slice(b, 2), vec![-1, 5]);
        let c = m.alloc_f32_slice(&[0.5]);
        assert_eq!(m.read_f32_slice(c, 1), vec![0.5]);
    }
}
