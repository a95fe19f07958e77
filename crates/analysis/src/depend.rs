//! Loop-carried dependence testing, alias classification and
//! parallel-safety certificates.
//!
//! Built on the SCEV-lite affine forms of [`ssair::analysis::AffineMap`]:
//! memory accesses become `base + affine(index)` pairs, base pointers are
//! classified against each other ([`AliasClass`]), and same-base access
//! pairs go through ZIV / strong-SIV / GCD / delinearization tests
//! ([`disjoint_across`]) to decide whether two *different* iterations of
//! a given loop can touch the same element. The region-level summary is a
//! [`SafetyCertificate`]: independent-iterations, reduction-only (carried
//! accumulator or same-address read-modify-write), or serial.
//!
//! Certificates computed without module context treat distinct pointer
//! parameters under the restrict model (no-alias *assumed*). When the
//! whole module is available, [`ParamAliasFacts`] refines that: if every
//! call site passes provably distinct objects the assumption becomes a
//! proof, and if any call site passes the same object the pair is
//! demoted to may-alias — which is how the "same array twice" adversary
//! is kept off the parallel path.

use crate::legality::{classify_base, MemoryBase};
use ssair::analysis::{AffineIndex, AffineMap, Analyses, Bound, Coeff};
use ssair::{BlockId, Function, Module, Opcode, Type, ValueId};
use std::collections::{BTreeMap, BTreeSet};

/// The relation between two base pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasClass {
    /// Provably distinct objects (distinct `alloca`s, an `alloca` vs a
    /// parameter, incompatible pointee types, or call-site-proven
    /// distinct parameters).
    NoAliasProven,
    /// Distinct under the restrict-parameter assumption only.
    NoAliasAssumed,
    /// No information; overlap must be assumed.
    MayAlias,
    /// The same object (same root, or call-site-proven identical).
    MustAlias,
}

/// What a parallel executor may do with a replaced region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParallelSafety {
    /// Iterations of the region's outermost loop are independent: all
    /// stores land on provably per-iteration-disjoint addresses and no
    /// may-alias read/write pair crosses iterations.
    IndependentIterations,
    /// The only loop-carried state is an accumulator (a carried header
    /// phi or a same-address read-modify-write), so the region needs
    /// reduction support but nothing stronger.
    ReductionOnly,
    /// No parallel execution is justified.
    Serial,
}

impl ParallelSafety {
    /// The stable wire name used in BENCH artifacts and corpus records.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ParallelSafety::IndependentIterations => "independent_iterations",
            ParallelSafety::ReductionOnly => "reduction_only",
            ParallelSafety::Serial => "serial",
        }
    }

    /// Parses a wire name back.
    #[must_use]
    pub fn parse(s: &str) -> Option<ParallelSafety> {
        [
            ParallelSafety::IndependentIterations,
            ParallelSafety::ReductionOnly,
            ParallelSafety::Serial,
        ]
        .into_iter()
        .find(|p| p.as_str() == s)
    }
}

/// A parallel-safety certificate: the classification plus the fact that
/// justifies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SafetyCertificate {
    /// The classification.
    pub safety: ParallelSafety,
    /// One human-readable justification.
    pub reason: String,
}

impl SafetyCertificate {
    /// A serial certificate with the given reason.
    #[must_use]
    pub fn serial(reason: impl Into<String>) -> SafetyCertificate {
        SafetyCertificate {
            safety: ParallelSafety::Serial,
            reason: reason.into(),
        }
    }
}

/// Call-site alias facts for pointer-parameter pairs, computed over a
/// whole module.
#[derive(Debug, Clone, Default)]
pub struct ParamAliasFacts {
    /// `(callee, param i, param j)` with `i < j` → the strongest fact
    /// the call sites support.
    pairs: BTreeMap<(String, usize, usize), PairFact>,
}

/// What the call sites of one pointer-parameter pair showed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairFact {
    /// Every call site passes provably distinct objects.
    AllDistinctProven,
    /// Call sites exist but at least one passes roots we cannot prove
    /// distinct (e.g. the caller's own distinct parameters).
    Unproven,
    /// At least one call site passes the same underlying object.
    SomeSame,
}

impl ParamAliasFacts {
    /// Scans every call in `m` and records, per callee pointer-parameter
    /// pair, whether the passed objects are provably distinct at every
    /// call site.
    #[must_use]
    pub fn of_module(m: &Module) -> ParamAliasFacts {
        let mut pairs: BTreeMap<(String, usize, usize), PairFact> = BTreeMap::new();
        for caller in &m.functions {
            for v in caller.value_ids() {
                let Some(i) = caller.instr(v) else { continue };
                if i.opcode != Opcode::Call {
                    continue;
                }
                let Some(callee) = i.callee.as_deref() else {
                    continue;
                };
                if m.function(callee).is_none() {
                    continue;
                }
                let args = &i.operands;
                for a in 0..args.len() {
                    if !caller.value(args[a]).ty.is_pointer() {
                        continue;
                    }
                    for b in a + 1..args.len() {
                        if !caller.value(args[b]).ty.is_pointer() {
                            continue;
                        }
                        let fact = call_site_fact(caller, args[a], args[b]);
                        let key = (callee.to_owned(), a, b);
                        let merged = match (pairs.get(&key), fact) {
                            (_, PairFact::SomeSame) | (Some(PairFact::SomeSame), _) => {
                                PairFact::SomeSame
                            }
                            (Some(PairFact::Unproven), _) | (_, PairFact::Unproven) => {
                                PairFact::Unproven
                            }
                            _ => PairFact::AllDistinctProven,
                        };
                        pairs.insert(key, merged);
                    }
                }
            }
        }
        ParamAliasFacts { pairs }
    }

    fn lookup(&self, callee: &str, i: usize, j: usize) -> Option<PairFact> {
        let key = (callee.to_owned(), i.min(j), i.max(j));
        self.pairs.get(&key).copied()
    }
}

/// What one call site shows about two passed pointers.
fn call_site_fact(caller: &Function, a: ValueId, b: ValueId) -> PairFact {
    let (ra, rb) = (caller.address_root(a), caller.address_root(b));
    if ra == rb {
        return PairFact::SomeSame;
    }
    let (ca, cb) = (classify_base(caller, ra), classify_base(caller, rb));
    match (ca, cb) {
        // Two distinct allocas, or a local vs anything named, are
        // provably distinct storage.
        (MemoryBase::Alloca, MemoryBase::Alloca)
        | (MemoryBase::Alloca, MemoryBase::Param(_))
        | (MemoryBase::Param(_), MemoryBase::Alloca) => PairFact::AllDistinctProven,
        _ => PairFact::Unproven,
    }
}

/// Classifies two base pointers of `f` (function name needed for
/// call-site fact lookup). Per-function contexts pass
/// `&ParamAliasFacts::default()`, which leaves every parameter pair an
/// assumption; module-wide facts ([`ParamAliasFacts::of_module`]) upgrade
/// or demote parameter pairs.
#[must_use]
pub fn classify_alias(f: &Function, facts: &ParamAliasFacts, a: ValueId, b: ValueId) -> AliasClass {
    if a == b {
        return AliasClass::MustAlias;
    }
    let (ca, cb) = (classify_base(f, a), classify_base(f, b));
    // Distinct local storage never aliases anything else named.
    match (ca, cb) {
        (MemoryBase::Alloca, MemoryBase::Alloca)
        | (MemoryBase::Alloca, MemoryBase::Param(_))
        | (MemoryBase::Param(_), MemoryBase::Alloca) => return AliasClass::NoAliasProven,
        _ => {}
    }
    // Incompatible pointee types cannot name the same object in this
    // memory model (objects are typed arrays laid out by `setup`).
    if let (Type::Ptr(pa), Type::Ptr(pb)) = (&f.value(a).ty, &f.value(b).ty) {
        if pa != pb {
            return AliasClass::NoAliasProven;
        }
    }
    match (ca, cb) {
        (MemoryBase::Param(i), MemoryBase::Param(j)) => match facts.lookup(&f.name, i, j) {
            Some(PairFact::AllDistinctProven) => AliasClass::NoAliasProven,
            Some(PairFact::SomeSame) => AliasClass::MustAlias,
            Some(PairFact::Unproven) | None => AliasClass::NoAliasAssumed,
        },
        _ => AliasClass::MayAlias,
    }
}

/// A bound expressed linearly in one symbolic stride `S`: `m·S + c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LinBound {
    m: i64,
    c: i64,
}

impl LinBound {
    const fn konst(c: i64) -> LinBound {
        LinBound { m: 0, c }
    }

    fn add(self, o: LinBound) -> LinBound {
        LinBound {
            m: self.m + o.m,
            c: self.c + o.c,
        }
    }

    fn neg(self) -> LinBound {
        LinBound {
            m: -self.m,
            c: -self.c,
        }
    }

    fn scale(self, k: i64) -> LinBound {
        LinBound {
            m: k * self.m,
            c: k * self.c,
        }
    }

    /// `self <= o` for every `S >= 1`.
    fn le_for_all(self, o: LinBound) -> bool {
        let (dm, dc) = (o.m - self.m, o.c - self.c);
        dm >= 0 && dm + dc >= 0
    }
}

/// Expresses `v`'s value as `m·S + c` when its affine form is constant
/// plus a multiple of the symbol `stride`.
fn lin_of(map: &AffineMap, f: &Function, v: ValueId, stride: ValueId) -> Option<LinBound> {
    let a = map.index_of(f, v);
    if !a.terms.is_empty() {
        return None;
    }
    let mut m = 0;
    for (&s, &k) in &a.syms {
        if s == stride {
            m = k;
        } else {
            return None;
        }
    }
    Some(LinBound { m, c: a.konst })
}

/// Tests whether two affine accesses (element-unit indexes off the
/// *same* base) are provably disjoint across *different* iterations of
/// the loop with index `loop_idx`: for all `i ≠ i'` (and inner
/// induction variables ranging freely over their guard ranges) the two
/// indexes differ.
///
/// Handles, in order: the GCD no-solution test, ZIV (no loop term on
/// either side), strong SIV with constant strides and constant-bounded
/// remainders, and the delinearized symbolic-stride case `±1·S·i + inner`
/// where every inner range is `[const, m·S + c)` — the `i*dim + j`
/// row-major shape.
#[must_use]
pub fn disjoint_across(
    f: &Function,
    an: &Analyses,
    map: &AffineMap,
    loop_idx: usize,
    a: &AffineIndex,
    b: &AffineIndex,
) -> bool {
    // Every opaque symbol must be invariant in the tested loop;
    // non-affine subscripts (`a[i*i]`) fail here.
    let syms_ok = |x: &AffineIndex| {
        x.syms
            .keys()
            .chain(x.terms.values().filter_map(|c| c.sym.as_ref()))
            .all(|&s| AffineMap::invariant_in(f, &an.loops, loop_idx, s))
    };
    if !syms_ok(a) || !syms_ok(b) {
        return false;
    }
    // The symbolic parts that do not vary between the two instances must
    // cancel exactly: remaining symbolic offsets are unbounded.
    if a.syms != b.syms {
        return false;
    }
    // Split each side's IV terms relative to the tested loop: the tested
    // IV itself, inner IVs (range freely between instances), and outer
    // IVs (equal in both instances — they cancel if coefficients match).
    let tested = |iv: ValueId| map.iv(iv).is_some_and(|i| i.loop_idx == loop_idx);
    let inner = |iv: ValueId| {
        map.iv(iv).is_some_and(|i| {
            i.loop_idx != loop_idx && !AffineMap::invariant_in(f, &an.loops, loop_idx, iv)
        })
    };
    let mut ca: Option<Coeff> = None;
    let mut cb: Option<Coeff> = None;
    let mut tested_iv: Option<ValueId> = None;
    let mut inner_coeffs: Vec<(ValueId, Option<Coeff>, Option<Coeff>)> = Vec::new();
    let all_ivs: BTreeSet<ValueId> = a.terms.keys().chain(b.terms.keys()).copied().collect();
    for iv in all_ivs {
        let ka = a.terms.get(&iv).copied();
        let kb = b.terms.get(&iv).copied();
        if tested(iv) {
            ca = ka;
            cb = kb;
            tested_iv = Some(iv);
        } else if inner(iv) {
            inner_coeffs.push((iv, ka, kb));
        } else {
            // Outer or invariant IV: equal in both instances, cancels
            // only with identical coefficients.
            if ka != kb {
                return false;
            }
        }
    }
    // Both sides need the same, non-zero stride on the tested IV.
    let (Some(ca), Some(cb)) = (ca, cb) else {
        // ZIV relative to this loop: neither index moves with the
        // iteration. Disjoint across iterations only if the two indexes
        // can never be equal at all.
        if ca.is_some() || cb.is_some() {
            return false;
        }
        let d = a.konst - b.konst;
        return inner_coeffs.is_empty() && d != 0;
    };
    if ca != cb || ca.k == 0 {
        return false;
    }
    let d = a.konst - b.konst;
    match ca.sym {
        None if inner_coeffs
            .iter()
            .any(|(_, ka, kb)| [ka, kb].into_iter().flatten().any(|c| c.sym.is_some())) =>
        {
            // Column-major dual of the delinearized case below:
            // `±1·i + S·(...)` with the tested IV `i` itself ranging over
            // `[lo, m·S + c)` and that span provably below `S`. Every
            // inner contribution is then an exact multiple of `S`, so a
            // collision would need `S | Δi` — impossible for
            // `0 < |Δi| < S`. This is `mo[i + j*dim]` with outer `i`.
            if ca.k.abs() != 1 || d != 0 {
                return false;
            }
            // Every inner term on both sides must be a multiple of one
            // shared stride symbol (constant or mixed-symbol inner terms
            // would break the divisibility argument).
            let mut stride_sym: Option<ValueId> = None;
            for (_, ka, kb) in &inner_coeffs {
                for c in [ka, kb].into_iter().flatten() {
                    match c.sym {
                        Some(s) if stride_sym.is_none() || stride_sym == Some(s) => {
                            stride_sym = Some(s);
                        }
                        _ => return false,
                    }
                }
            }
            let (Some(stride_sym), Some(tested_iv)) = (stride_sym, tested_iv) else {
                return false;
            };
            let Some(info) = map.iv(tested_iv) else {
                return false;
            };
            let (Bound::Const(lo), Bound::Sym(h)) = (info.range.lo, info.range.hi) else {
                return false;
            };
            let Some(hi) = lin_of(map, f, h, stride_sym) else {
                return false;
            };
            // A non-empty range `[lo, m·S + c)` with `m ≥ 1` forces
            // `S ≥ 1` whenever the loop runs at all (vacuous otherwise).
            if hi.m < 1 || lo + 1 - hi.c < hi.m {
                return false;
            }
            // `Δi` spans `[-(R), R]` with `R = (m·S + c - 1) - lo`;
            // need `R ≤ S - 1` for every `S ≥ 1`.
            let r = hi.add(LinBound::konst(-1 - lo));
            r.le_for_all(LinBound { m: 1, c: -1 })
        }
        None => {
            let inner_terms: Vec<(ValueId, i64, i64)> = inner_coeffs
                .iter()
                .map(|&(iv, ka, kb)| (iv, ka.map_or(0, |c| c.k), kb.map_or(0, |c| c.k)))
                .collect();
            let stride = ca.k.abs();
            // GCD test: `stride·Δi + Σ k·Δt + d = 0` has no integer
            // solution when gcd of all coefficients does not divide d.
            let mut g = stride;
            for &(_, ka, kb) in &inner_terms {
                g = gcd(g, gcd(ka.abs(), kb.abs()));
            }
            if g > 1 && d % g != 0 {
                return true;
            }
            // Strong SIV: bound the remainder by constant inner ranges.
            let (mut lo, mut hi) = (d, d);
            for &(iv, ka, kb) in &inner_terms {
                let r = map
                    .iv(iv)
                    .map_or(ssair::analysis::VRange::UNKNOWN, |i| i.range);
                let (Bound::Const(rlo), Bound::Const(rhi)) = (r.lo, r.hi) else {
                    return false;
                };
                if rhi <= rlo {
                    return true; // empty range: the access never executes
                }
                for (k, sign) in [(ka, 1), (kb, -1)] {
                    let k = k * sign;
                    let (tlo, thi) = if k >= 0 {
                        (k * rlo, k * (rhi - 1))
                    } else {
                        (k * (rhi - 1), k * rlo)
                    };
                    lo += tlo;
                    hi += thi;
                }
            }
            // |remainder| < stride ⇒ a non-zero iteration distance can
            // never be compensated.
            lo > -stride && hi < stride
        }
        Some(stride_sym) => {
            // Delinearized case: stride = ±1·S. Prove |remainder| < S
            // for all S ≥ 1, and that execution of the accesses implies
            // S ≥ 1 (via at least one inner range reaching m·S + c).
            if ca.k.abs() != 1 {
                return false;
            }
            // Symbolic coefficients on inner IVs are out of scope here
            // (the guard above already routed pure multiples of `S` with
            // a constant-stride tested IV to the dual case).
            let mut inner_terms: Vec<(ValueId, i64, i64)> = Vec::new();
            for &(iv, ka, kb) in &inner_coeffs {
                if [ka, kb].into_iter().flatten().any(|c| c.sym.is_some()) {
                    return false;
                }
                inner_terms.push((iv, ka.map_or(0, |c| c.k), kb.map_or(0, |c| c.k)));
            }
            let (mut lo, mut hi) = (LinBound::konst(d), LinBound::konst(d));
            let mut implies_positive_stride = false;
            for &(iv, ka, kb) in &inner_terms {
                let Some(info) = map.iv(iv) else { return false };
                let (blo, bhi) = match (info.range.lo, info.range.hi) {
                    (Bound::Const(l), Bound::Sym(h)) => {
                        let Some(h) = lin_of(map, f, h, stride_sym) else {
                            return false;
                        };
                        (LinBound::konst(l), h)
                    }
                    (Bound::Const(l), Bound::Const(h)) => (LinBound::konst(l), LinBound::konst(h)),
                    _ => return false,
                };
                // Non-empty range [blo, bhi) with bhi linear in S and
                // m ≥ 1 forces S ≥ (blo + 1 - c) / m ≥ 1.
                if bhi.m >= 1 && blo.c + 1 - bhi.c >= bhi.m {
                    implies_positive_stride = true;
                }
                let top = bhi.add(LinBound::konst(-1)); // inclusive max
                for k in [ka, -kb] {
                    // A term k·t with t ∈ [blo, top] contributes
                    // [k·blo, k·top] (flipped for negative k).
                    if k > 0 {
                        lo = lo.add(blo.scale(k));
                        hi = hi.add(top.scale(k));
                    } else if k < 0 {
                        lo = lo.add(top.scale(k));
                        hi = hi.add(blo.scale(k));
                    }
                }
            }
            if !implies_positive_stride {
                return false;
            }
            // Need -(S-1) ≤ lo and hi ≤ S-1 for all S ≥ 1.
            let s_minus_1 = LinBound { m: 1, c: -1 };
            s_minus_1.neg().le_for_all(lo) && hi.le_for_all(s_minus_1)
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// One memory access of a region, in affine form.
#[derive(Debug, Clone)]
struct Access {
    /// The load/store instruction.
    inst: ValueId,
    /// The pointer operand.
    ptr: ValueId,
    /// The root object.
    root: ValueId,
    /// The affine index off the root, when the whole `gep` chain folded.
    index: Option<AffineIndex>,
    /// `true` for stores.
    is_store: bool,
}

/// Classifies a replacement region (the blocks of a detected instance,
/// iterated by the loop whose header contains `outer_iv`) into a
/// [`SafetyCertificate`].
#[must_use]
pub fn classify_region(
    f: &Function,
    an: &Analyses,
    map: &AffineMap,
    blocks: &[BlockId],
    outer_iv: ValueId,
    facts: &ParamAliasFacts,
) -> SafetyCertificate {
    let Some(iv) = map.iv(outer_iv) else {
        return SafetyCertificate::serial(format!(
            "anchor {} is not a recognised induction variable",
            f.display_name(outer_iv)
        ));
    };
    let loop_idx = iv.loop_idx;
    let header = iv.header;
    // Carried (non-IV) phis in the outermost header are accumulators.
    let mut carried: Vec<ValueId> = Vec::new();
    if blocks.contains(&header) {
        for &v in &f.block(header).instrs {
            if f.opcode(v) == Some(Opcode::Phi) && map.iv(v).is_none() {
                carried.push(v);
            }
        }
    }
    // Collect the region's accesses.
    let mut accesses: Vec<Access> = Vec::new();
    for &b in blocks {
        for &v in &f.block(b).instrs {
            let Some(i) = f.instr(v) else { continue };
            let (ptr, is_store) = match i.opcode {
                Opcode::Load => (i.operands[0], false),
                Opcode::Store => (i.operands[1], true),
                _ => continue,
            };
            accesses.push(Access {
                inst: v,
                ptr,
                root: f.address_root(ptr),
                index: map.address_of(f, ptr).map(|a| a.index),
                is_store,
            });
        }
    }
    // A store is RMW when its stored value is derived from a load of the
    // same address in the region.
    let rmw_load_of = |st: &Access| -> Option<ValueId> {
        let val = f.instr(st.inst)?.operands[0];
        let mut seen = BTreeSet::new();
        let mut stack = vec![val];
        while let Some(v) = stack.pop() {
            if !seen.insert(v) || seen.len() > 64 {
                continue;
            }
            if let Some(i) = f.instr(v) {
                if i.opcode == Opcode::Load
                    && (i.operands[0] == st.ptr
                        || (st.index.is_some()
                            && map.address_of(f, i.operands[0]).map(|a| a.index) == st.index
                            && f.address_root(i.operands[0]) == st.root))
                {
                    return Some(v);
                }
                stack.extend(i.operands.iter().copied());
            }
        }
        None
    };
    let mut rmw_loads: BTreeSet<ValueId> = BTreeSet::new();
    let mut rmw_stores: BTreeSet<ValueId> = BTreeSet::new();
    for st in accesses.iter().filter(|a| a.is_store) {
        if let Some(l) = rmw_load_of(st) {
            rmw_loads.insert(l);
            rmw_stores.insert(st.inst);
        }
    }
    // Every store must be either per-iteration disjoint from all other
    // accesses it may share an object with, or part of an RMW pair.
    let mut needs_reduction = !carried.is_empty();
    let mut reduction_reason = carried
        .first()
        .map(|&v| format!("loop-carried accumulator {}", f.display_name(v)));
    for st in accesses.iter().filter(|a| a.is_store) {
        for other in &accesses {
            if other.inst == st.inst && !other.is_store {
                continue;
            }
            if !other.is_store && rmw_loads.contains(&other.inst) {
                continue; // the RMW companion load
            }
            let same_object = if st.root == other.root {
                true
            } else {
                match classify_alias(f, facts, st.root, other.root) {
                    AliasClass::NoAliasProven | AliasClass::NoAliasAssumed => false,
                    AliasClass::MayAlias | AliasClass::MustAlias => true,
                }
            };
            if !same_object {
                continue;
            }
            let disjoint = match (&st.index, &other.index) {
                (Some(a), Some(b)) if st.root == other.root => {
                    disjoint_across(f, an, map, loop_idx, a, b)
                }
                // May-alias across *different* roots, or a non-affine
                // chain: nothing provable.
                _ => false,
            };
            if disjoint {
                continue;
            }
            if rmw_stores.contains(&st.inst) && (other.inst == st.inst || !other.is_store) {
                // Same-address accumulate (histogram-style).
                needs_reduction = true;
                reduction_reason.get_or_insert_with(|| {
                    format!("read-modify-write through {}", f.display_name(st.root))
                });
                continue;
            }
            return SafetyCertificate::serial(format!(
                "store {} may overlap {} across iterations of {}",
                f.display_name(st.inst),
                f.display_name(other.inst),
                f.display_name(outer_iv)
            ));
        }
    }
    if needs_reduction {
        SafetyCertificate {
            safety: ParallelSafety::ReductionOnly,
            reason: reduction_reason.unwrap_or_else(|| "accumulating region".into()),
        }
    } else {
        SafetyCertificate {
            safety: ParallelSafety::IndependentIterations,
            reason: format!(
                "all stores per-iteration disjoint over {}",
                f.display_name(outer_iv)
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssair::parser::parse_function_text;

    fn prep(src: &str) -> (Function, Analyses) {
        let f = parse_function_text(src).unwrap();
        let an = Analyses::new(&f);
        (f, an)
    }

    fn get(f: &Function, name: &str) -> ValueId {
        f.named(name).unwrap()
    }

    const STENCIL: &str = r#"
define void @sten(double* %in, double* %out, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 1, %entry ], [ %i.next, %b ]
  %nm1 = sub i64 %n, 1
  %c = icmp slt i64 %i, %nm1
  br i1 %c, label %b, label %x
b:
  %im1 = sub i64 %i, 1
  %p0 = getelementptr double, double* %in, i64 %im1
  %v0 = load double, double* %p0
  %p1 = getelementptr double, double* %in, i64 %i
  %v1 = load double, double* %p1
  %s = fadd double %v0, %v1
  %q = getelementptr double, double* %out, i64 %i
  store double %s, double* %q
  %i.next = add i64 %i, 1
  br label %h
x:
  ret void
}
"#;

    #[test]
    fn stencil_region_is_independent_iterations() {
        let (f, an) = prep(STENCIL);
        let map = AffineMap::new(&f, &an);
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let cert = classify_region(
            &f,
            &an,
            &map,
            &blocks,
            get(&f, "i"),
            &ParamAliasFacts::default(),
        );
        assert_eq!(
            cert.safety,
            ParallelSafety::IndependentIterations,
            "{}",
            cert.reason
        );
    }

    #[test]
    fn same_array_twice_at_a_call_site_demotes_the_pair() {
        let (f, an) = prep(STENCIL);
        let map = AffineMap::new(&f, &an);
        // Build a module whose only call passes the same array twice.
        let mut m = Module::new("adv");
        m.functions.push(f.clone());
        let mut entry = Function::new("entry", &[], Type::Void);
        let b = entry.add_block("entry");
        let n = entry.const_int(Type::I64, 8);
        let count = entry.const_int(Type::I64, 64);
        let arr = entry.append_simple(b, Type::F64.ptr_to(), Opcode::Alloca, vec![count]);
        entry.append_call(b, Type::Void, "sten", vec![arr, arr, n]);
        entry.append_ret(b, None);
        m.functions.push(entry);
        let facts = ParamAliasFacts::of_module(&m);
        let f = m.function("sten").unwrap();
        let (inp, out) = (get(f, "in"), get(f, "out"));
        assert_eq!(classify_alias(f, &facts, inp, out), AliasClass::MustAlias);
        // Without facts the restrict model assumes distinctness...
        assert_eq!(
            classify_alias(f, &ParamAliasFacts::default(), inp, out),
            AliasClass::NoAliasAssumed
        );
        // ...and with them the region is no longer parallel-safe.
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let cert = classify_region(f, &an, &map, &blocks, get(f, "i"), &facts);
        assert_eq!(cert.safety, ParallelSafety::Serial, "{}", cert.reason);
    }

    #[test]
    fn distinct_allocas_at_all_call_sites_prove_the_pair() {
        let f = parse_function_text(STENCIL).unwrap();
        let mut m = Module::new("ok");
        m.functions.push(f);
        let mut entry = Function::new("entry", &[], Type::Void);
        let b = entry.add_block("entry");
        let n = entry.const_int(Type::I64, 8);
        let count = entry.const_int(Type::I64, 64);
        let a1 = entry.append_simple(b, Type::F64.ptr_to(), Opcode::Alloca, vec![count]);
        let a2 = entry.append_simple(b, Type::F64.ptr_to(), Opcode::Alloca, vec![count]);
        entry.append_call(b, Type::Void, "sten", vec![a1, a2, n]);
        entry.append_ret(b, None);
        m.functions.push(entry);
        let facts = ParamAliasFacts::of_module(&m);
        let f = m.function("sten").unwrap();
        assert_eq!(
            classify_alias(f, &facts, get(f, "in"), get(f, "out")),
            AliasClass::NoAliasProven
        );
    }

    #[test]
    fn non_affine_subscript_is_serial() {
        let (f, an) = prep(
            r#"
define void @sq(double* %a, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i.next, %b ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %b, label %x
b:
  %ii = mul i64 %i, %i
  %p = getelementptr double, double* %a, i64 %ii
  store double 1.0, double* %p
  %i.next = add i64 %i, 1
  br label %h
x:
  ret void
}
"#,
        );
        let map = AffineMap::new(&f, &an);
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let cert = classify_region(
            &f,
            &an,
            &map,
            &blocks,
            get(&f, "i"),
            &ParamAliasFacts::default(),
        );
        assert_eq!(cert.safety, ParallelSafety::Serial, "{}", cert.reason);
    }

    #[test]
    fn row_major_store_is_disjoint_across_outer_iterations() {
        let (f, an) = prep(
            r#"
define void @mm(double* %mo, i64 %dim) {
entry:
  br label %oh
oh:
  %i = phi i64 [ 0, %entry ], [ %i.next, %ol ]
  %oc = icmp slt i64 %i, %dim
  br i1 %oc, label %ih0, label %done
ih0:
  br label %ih
ih:
  %j = phi i64 [ 0, %ih0 ], [ %j.next, %il ]
  %ic = icmp slt i64 %j, %dim
  br i1 %ic, label %il, label %ol
il:
  %row = mul i64 %i, %dim
  %idx = add i64 %row, %j
  %p = getelementptr double, double* %mo, i64 %idx
  %old = load double, double* %p
  %new = fadd double %old, 1.0
  store double %new, double* %p
  %j.next = add i64 %j, 1
  br label %ih
ol:
  %i.next = add i64 %i, 1
  br label %oh
done:
  ret void
}
"#,
        );
        let map = AffineMap::new(&f, &an);
        let idx = map.address_of(&f, get(&f, "p")).unwrap().index;
        let outer = map.iv(get(&f, "i")).unwrap().loop_idx;
        assert!(disjoint_across(&f, &an, &map, outer, &idx, &idx));
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let cert = classify_region(
            &f,
            &an,
            &map,
            &blocks,
            get(&f, "i"),
            &ParamAliasFacts::default(),
        );
        assert_eq!(
            cert.safety,
            ParallelSafety::IndependentIterations,
            "{}",
            cert.reason
        );
    }

    #[test]
    fn column_major_store_is_disjoint_across_outer_iterations() {
        // The Parboil sgemm shape: `mo[i + j*dim]` with outer `i`. The
        // tested IV carries the *unit* stride and the inner IV the
        // symbolic one, so disjointness needs the outer guard range
        // `i ∈ [0, dim)` — a collision would require `dim | Δi`.
        let (f, an) = prep(
            r#"
define void @mmc(double* %mo, i64 %dim) {
entry:
  br label %oh
oh:
  %i = phi i64 [ 0, %entry ], [ %i.next, %ol ]
  %oc = icmp slt i64 %i, %dim
  br i1 %oc, label %ih0, label %done
ih0:
  br label %ih
ih:
  %j = phi i64 [ 0, %ih0 ], [ %j.next, %il ]
  %ic = icmp slt i64 %j, %dim
  br i1 %ic, label %il, label %ol
il:
  %col = mul i64 %j, %dim
  %idx = add i64 %i, %col
  %p = getelementptr double, double* %mo, i64 %idx
  %old = load double, double* %p
  %new = fadd double %old, 1.0
  store double %new, double* %p
  %j.next = add i64 %j, 1
  br label %ih
ol:
  %i.next = add i64 %i, 1
  br label %oh
done:
  ret void
}
"#,
        );
        let map = AffineMap::new(&f, &an);
        let idx = map.address_of(&f, get(&f, "p")).unwrap().index;
        let outer = map.iv(get(&f, "i")).unwrap().loop_idx;
        assert!(disjoint_across(&f, &an, &map, outer, &idx, &idx));
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let cert = classify_region(
            &f,
            &an,
            &map,
            &blocks,
            get(&f, "i"),
            &ParamAliasFacts::default(),
        );
        assert_eq!(
            cert.safety,
            ParallelSafety::IndependentIterations,
            "{}",
            cert.reason
        );
    }

    #[test]
    fn column_major_store_with_offset_base_stays_conservative() {
        // `mo[i + j*dim + 1]` store vs `mo[i + j*dim]` load: the konst
        // difference is non-zero, so the divisibility argument does not
        // apply and the dual case must refuse.
        let (f, an) = prep(
            r#"
define void @mmo(double* %mo, i64 %dim) {
entry:
  br label %oh
oh:
  %i = phi i64 [ 0, %entry ], [ %i.next, %ol ]
  %oc = icmp slt i64 %i, %dim
  br i1 %oc, label %ih0, label %done
ih0:
  br label %ih
ih:
  %j = phi i64 [ 0, %ih0 ], [ %j.next, %il ]
  %ic = icmp slt i64 %j, %dim
  br i1 %ic, label %il, label %ol
il:
  %col = mul i64 %j, %dim
  %idx = add i64 %i, %col
  %idx1 = add i64 %idx, 1
  %p = getelementptr double, double* %mo, i64 %idx
  %v = load double, double* %p
  %q = getelementptr double, double* %mo, i64 %idx1
  store double %v, double* %q
  %j.next = add i64 %j, 1
  br label %ih
ol:
  %i.next = add i64 %i, 1
  br label %oh
done:
  ret void
}
"#,
        );
        let map = AffineMap::new(&f, &an);
        let st = map.address_of(&f, get(&f, "q")).unwrap().index;
        let ld = map.address_of(&f, get(&f, "p")).unwrap().index;
        let outer = map.iv(get(&f, "i")).unwrap().loop_idx;
        // `i1 + 1 = i2 + (j2-j1)·dim` has solutions (e.g. Δj=0, Δi=-1),
        // so the pair must stay "may overlap".
        assert!(!disjoint_across(&f, &an, &map, outer, &st, &ld));
    }

    #[test]
    fn triangular_transpose_overlap_is_serial() {
        let (f, an) = prep(
            r#"
define void @tri(double* %mo, i64 %dim) {
entry:
  br label %oh
oh:
  %i = phi i64 [ 0, %entry ], [ %i.next, %ol ]
  %oc = icmp slt i64 %i, %dim
  br i1 %oc, label %ih0, label %done
ih0:
  br label %ih
ih:
  %j = phi i64 [ 0, %ih0 ], [ %j.next, %il ]
  %ic = icmp slt i64 %j, %i
  br i1 %ic, label %il, label %ol
il:
  %row = mul i64 %i, %dim
  %idx = add i64 %row, %j
  %trow = mul i64 %j, %dim
  %tidx = add i64 %trow, %i
  %tp = getelementptr double, double* %mo, i64 %tidx
  %tv = load double, double* %tp
  %p = getelementptr double, double* %mo, i64 %idx
  store double %tv, double* %p
  %j.next = add i64 %j, 1
  br label %ih
ol:
  %i.next = add i64 %i, 1
  br label %oh
done:
  ret void
}
"#,
        );
        let map = AffineMap::new(&f, &an);
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let cert = classify_region(
            &f,
            &an,
            &map,
            &blocks,
            get(&f, "i"),
            &ParamAliasFacts::default(),
        );
        assert_eq!(cert.safety, ParallelSafety::Serial, "{}", cert.reason);
    }

    #[test]
    fn carried_accumulator_is_reduction_only() {
        let (f, an) = prep(
            r#"
define double @sum(double* %x, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i.next, %b ]
  %acc = phi double [ 0.0, %entry ], [ %acc.next, %b ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %b, label %x2
b:
  %p = getelementptr double, double* %x, i64 %i
  %v = load double, double* %p
  %acc.next = fadd double %acc, %v
  %i.next = add i64 %i, 1
  br label %h
x2:
  ret double %acc
}
"#,
        );
        let map = AffineMap::new(&f, &an);
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let cert = classify_region(
            &f,
            &an,
            &map,
            &blocks,
            get(&f, "i"),
            &ParamAliasFacts::default(),
        );
        assert_eq!(
            cert.safety,
            ParallelSafety::ReductionOnly,
            "{}",
            cert.reason
        );
    }

    #[test]
    fn histogram_rmw_is_reduction_only() {
        let (f, an) = prep(
            r#"
define void @hist(i64* %bins, i64* %data, i64 %n) {
entry:
  br label %h
h:
  %i = phi i64 [ 0, %entry ], [ %i.next, %b ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %b, label %x
b:
  %dp = getelementptr i64, i64* %data, i64 %i
  %d = load i64, i64* %dp
  %bp = getelementptr i64, i64* %bins, i64 %d
  %old = load i64, i64* %bp
  %new = add i64 %old, 1
  store i64 %new, i64* %bp
  %i.next = add i64 %i, 1
  br label %h
x:
  ret void
}
"#,
        );
        let map = AffineMap::new(&f, &an);
        let blocks: Vec<BlockId> = f.block_ids().collect();
        let cert = classify_region(
            &f,
            &an,
            &map,
            &blocks,
            get(&f, "i"),
            &ParamAliasFacts::default(),
        );
        assert_eq!(
            cert.safety,
            ParallelSafety::ReductionOnly,
            "{}",
            cert.reason
        );
    }

    #[test]
    fn parallel_safety_wire_names_round_trip() {
        for p in [
            ParallelSafety::IndependentIterations,
            ParallelSafety::ReductionOnly,
            ParallelSafety::Serial,
        ] {
            assert_eq!(ParallelSafety::parse(p.as_str()), Some(p));
        }
        assert_eq!(ParallelSafety::parse("vectorized"), None);
    }
}
