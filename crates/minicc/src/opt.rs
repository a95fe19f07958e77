//! Mid-level optimizer.
//!
//! Plays the role of clang/LLVM `-O2` for the idiom-detection pipeline: the
//! passes here produce the canonical IR shapes the IDL idiom library (and
//! the paper's detector) expects:
//!
//! * **constant folding / algebraic simplification** — `instcombine`-lite;
//! * **LICM** — hoists loop-invariant pure computations (notably address
//!   arithmetic) into preheaders;
//! * **read-modify-write promotion** — turns `C[i][j] += ...` inner loops
//!   into register accumulation with a phi, the shape `DotProductLoop`
//!   matches (clang gets this from LICM + scalar promotion under TBAA;
//!   we justify it with the frontend's restrict-parameter guarantee);
//! * **dead code elimination**.
//!
//! All passes preserve the verifier invariants; `optimize_module` asserts
//! this in debug builds.

use ssair::analysis::{Analyses, Cfg, DomTree, Layout};
use ssair::pass::{eliminate_dead_code, replace_all_uses};
use ssair::{BlockId, Function, ICmpPred, Module, Opcode, Type, ValueId, ValueKind};

/// Runs the full pass pipeline over every function.
pub fn optimize_module(m: &mut Module) {
    for f in &mut m.functions {
        optimize_function(f);
    }
}

/// Runs the full pass pipeline over one function.
pub fn optimize_function(f: &mut Function) {
    // Two rounds reach a fixpoint on all benchmark inputs: promotion can
    // expose new folding opportunities and vice versa.
    for _ in 0..2 {
        while fold_constants(f) > 0 {}
        while common_subexpression_elimination(f) > 0 {}
        while eliminate_redundant_loads(f) > 0 {}
        hoist_loop_invariants(f);
        promote_read_modify_write(f);
        eliminate_dead_code(f);
    }
}

/// Block-local redundant-load elimination and store-to-load forwarding
/// (EarlyCSE's memory half). Within one block, a load from an address seen
/// earlier — by a load or a store — reuses the known value, as long as no
/// intervening store or call may alias it. Aliasing uses the frontend's
/// restrict model: addresses rooted at distinct parameters/allocas do not
/// alias. Returns the number of loads removed.
pub fn eliminate_redundant_loads(f: &mut Function) -> usize {
    let mut rewrites: Vec<(ValueId, ValueId)> = Vec::new();
    for b in f.block_ids().collect::<Vec<_>>() {
        // address value -> known content value
        let mut known: std::collections::HashMap<ValueId, ValueId> =
            std::collections::HashMap::new();
        for &v in &f.block(b).instrs {
            let Some(i) = f.instr(v) else { continue };
            match i.opcode {
                Opcode::Load => {
                    let addr = i.operands[0];
                    match known.get(&addr) {
                        Some(&val) if f.value(val).ty == f.value(v).ty => {
                            rewrites.push((v, val));
                        }
                        _ => {
                            known.insert(addr, v);
                        }
                    }
                }
                Opcode::Store => {
                    let (val, addr) = (i.operands[0], i.operands[1]);
                    let root = f.address_root(addr);
                    known.retain(|&a, _| a == addr || f.address_root(a) != root);
                    known.insert(addr, val);
                }
                Opcode::Call => known.clear(),
                _ => {}
            }
        }
    }
    let n = rewrites.len();
    for (from, to) in rewrites {
        replace_all_uses(f, from, to);
        ssair::pass::remove_instruction(f, from);
    }
    if n > 0 {
        eliminate_dead_code(f);
    }
    n
}

/// Dominance-based common subexpression elimination over pure instructions
/// (including `gep`). Two instructions are congruent when they have the
/// same opcode (and predicate), type and identical operand values; the
/// dominating one replaces the dominated one. Returns rewrites performed.
///
/// This mirrors LLVM's EarlyCSE and matters for the idiom pipeline: the
/// frontend lowers every `C[i][j]` occurrence to a fresh gep chain, and
/// read-modify-write promotion needs the load and store of `C[i][j] += x`
/// to share one address value.
pub fn common_subexpression_elimination(f: &mut Function) -> usize {
    // Only placement and forward dominance are queried, so build just
    // those (the full `Analyses` bundle also pays for post-dominators,
    // def-use chains and the loop forest on every fixpoint iteration).
    let layout = Layout::new(f);
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(&cfg);
    let strictly_dominates = |a: ValueId, b: ValueId| {
        let (Some(ba), Some(bb)) = (layout.block_of(a), layout.block_of(b)) else {
            return false;
        };
        a != b
            && if ba == bb {
                layout.position(a) <= layout.position(b)
            } else {
                dom.dominates(ba, bb)
            }
    };
    let mut table: std::collections::HashMap<(Opcode, &Type, Vec<ValueId>), Vec<ValueId>> =
        std::collections::HashMap::new();
    let mut rewrites: Vec<(ValueId, ValueId)> = Vec::new();
    // Reverse post-order guarantees dominators are visited before their
    // dominated blocks (for reducible CFGs, which the frontend produces).
    for &b in &cfg.rpo {
        for &v in &f.block(b).instrs {
            let Some(i) = f.instr(v) else { continue };
            if !(i.opcode.is_pure_arith() || i.opcode == Opcode::Gep) {
                continue;
            }
            let key = (i.opcode, &f.value(v).ty, i.operands.clone());
            let entry = table.entry(key).or_default();
            if let Some(&prior) = entry.iter().find(|&&p| strictly_dominates(p, v)) {
                rewrites.push((v, prior));
            } else {
                entry.push(v);
            }
        }
    }
    let n = rewrites.len();
    for (from, to) in rewrites {
        replace_all_uses(f, from, to);
    }
    if n > 0 {
        eliminate_dead_code(f);
    }
    n
}

fn const_int_of(f: &Function, v: ValueId) -> Option<i64> {
    match f.value(v).kind {
        ValueKind::ConstInt(c) => Some(c),
        _ => None,
    }
}

fn const_float_of(f: &Function, v: ValueId) -> Option<f64> {
    match f.value(v).kind {
        ValueKind::ConstFloat(c) => Some(c),
        _ => None,
    }
}

/// One round of constant folding + algebraic identities. Returns the number
/// of rewrites performed.
pub fn fold_constants(f: &mut Function) -> usize {
    let mut rewrites: Vec<(ValueId, Replacement)> = Vec::new();
    enum Replacement {
        Int(i64),
        Float(f64),
        Value(ValueId),
    }
    for b in f.block_ids() {
        for &v in &f.block(b).instrs {
            let Some(i) = f.instr(v) else { continue };
            let ty = f.value(v).ty.clone();
            let ops = i.operands.clone();
            let repl = match i.opcode {
                Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::SDiv | Opcode::SRem => {
                    let (a, bo) = (ops[0], ops[1]);
                    match (const_int_of(f, a), const_int_of(f, bo)) {
                        (Some(x), Some(y)) => {
                            let r = match i.opcode {
                                Opcode::Add => x.wrapping_add(y),
                                Opcode::Sub => x.wrapping_sub(y),
                                Opcode::Mul => x.wrapping_mul(y),
                                Opcode::SDiv if y != 0 => x.wrapping_div(y),
                                Opcode::SRem if y != 0 => x.wrapping_rem(y),
                                _ => continue,
                            };
                            Some(Replacement::Int(r))
                        }
                        (Some(0), None) if i.opcode == Opcode::Add => Some(Replacement::Value(bo)),
                        (None, Some(0)) if matches!(i.opcode, Opcode::Add | Opcode::Sub) => {
                            Some(Replacement::Value(a))
                        }
                        (Some(1), None) if i.opcode == Opcode::Mul => Some(Replacement::Value(bo)),
                        (None, Some(1)) if matches!(i.opcode, Opcode::Mul | Opcode::SDiv) => {
                            Some(Replacement::Value(a))
                        }
                        (Some(0), None) | (None, Some(0)) if i.opcode == Opcode::Mul => {
                            Some(Replacement::Int(0))
                        }
                        _ => None,
                    }
                }
                Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => {
                    match (const_float_of(f, ops[0]), const_float_of(f, ops[1])) {
                        (Some(x), Some(y)) => {
                            let r = match i.opcode {
                                Opcode::FAdd => x + y,
                                Opcode::FSub => x - y,
                                Opcode::FMul => x * y,
                                Opcode::FDiv => x / y,
                                _ => unreachable!(),
                            };
                            let r = if ty == Type::F32 { r as f32 as f64 } else { r };
                            Some(Replacement::Float(r))
                        }
                        // Float identities are only safe where rounding and
                        // NaN behaviour are unaffected: x*1.0 and x/1.0.
                        (None, Some(y))
                            if y == 1.0 && matches!(i.opcode, Opcode::FMul | Opcode::FDiv) =>
                        {
                            Some(Replacement::Value(ops[0]))
                        }
                        (Some(x), None) if x == 1.0 && i.opcode == Opcode::FMul => {
                            Some(Replacement::Value(ops[1]))
                        }
                        _ => None,
                    }
                }
                Opcode::SExt | Opcode::ZExt | Opcode::Trunc => {
                    const_int_of(f, ops[0]).map(Replacement::Int)
                }
                Opcode::SIToFP => const_int_of(f, ops[0]).map(|x| Replacement::Float(x as f64)),
                Opcode::FPExt => const_float_of(f, ops[0]).map(Replacement::Float),
                Opcode::FPTrunc => {
                    const_float_of(f, ops[0]).map(|x| Replacement::Float(x as f32 as f64))
                }
                Opcode::ICmp(pred) => match (const_int_of(f, ops[0]), const_int_of(f, ops[1])) {
                    (Some(x), Some(y)) => {
                        let r = match pred {
                            ICmpPred::Eq => x == y,
                            ICmpPred::Ne => x != y,
                            ICmpPred::Slt => x < y,
                            ICmpPred::Sle => x <= y,
                            ICmpPred::Sgt => x > y,
                            ICmpPred::Sge => x >= y,
                        };
                        Some(Replacement::Int(i64::from(r)))
                    }
                    _ => None,
                },
                Opcode::Select => match const_int_of(f, ops[0]) {
                    Some(c) => Some(Replacement::Value(if c != 0 { ops[1] } else { ops[2] })),
                    None if ops[1] == ops[2] => Some(Replacement::Value(ops[1])),
                    None => None,
                },
                _ => None,
            };
            if let Some(r) = repl {
                rewrites.push((v, r));
            }
        }
    }
    let n = rewrites.len();
    for (v, r) in rewrites {
        let ty = f.value(v).ty.clone();
        let to = match r {
            Replacement::Int(c) => f.const_int(ty, c),
            Replacement::Float(c) => f.const_float(ty, c),
            Replacement::Value(w) => w,
        };
        replace_all_uses(f, v, to);
    }
    if n > 0 {
        eliminate_dead_code(f);
    }
    n
}

/// Hoists loop-invariant pure instructions into loop preheaders, innermost
/// loops first, iterating until nothing moves. Division is not hoisted
/// (speculative traps); memory operations are never moved.
pub fn hoist_loop_invariants(f: &mut Function) {
    loop {
        let an = Analyses::new(f);
        let mut moved = false;
        // Innermost first: process deeper loops before their parents.
        let mut loop_order: Vec<usize> = (0..an.loops.loops.len()).collect();
        loop_order.sort_by_key(|&i| std::cmp::Reverse(an.loops.loops[i].depth));
        for &li in &loop_order {
            let l = &an.loops.loops[li];
            let Some(preheader) = unique_preheader(f, &an, l) else {
                continue;
            };
            // Candidates: pure instructions in the loop whose operands are
            // all defined outside the loop.
            let mut to_move: Vec<ValueId> = Vec::new();
            for &b in &l.blocks {
                for &v in &f.block(b).instrs {
                    let Some(i) = f.instr(v) else { continue };
                    let hoistable = (i.opcode.is_pure_arith() || i.opcode == Opcode::Gep)
                        && !matches!(i.opcode, Opcode::SDiv | Opcode::SRem);
                    if !hoistable {
                        continue;
                    }
                    let invariant = i.operands.iter().all(|&op| {
                        match an.layout.block_of(op) {
                            Some(ob) => !l.contains(ob),
                            None => true, // constants / arguments
                        }
                    });
                    if invariant {
                        to_move.push(v);
                    }
                }
            }
            if to_move.is_empty() {
                continue;
            }
            for v in to_move {
                // Remove from current block, insert before preheader terminator.
                for b in f.block_ids().collect::<Vec<_>>() {
                    f.block_mut(b).instrs.retain(|&x| x != v);
                }
                let instrs = &mut f.block_mut(preheader).instrs;
                let at = instrs.len().saturating_sub(1); // before the terminator
                instrs.insert(at, v);
                moved = true;
            }
            if moved {
                break; // recompute analyses after structural change
            }
        }
        if !moved {
            return;
        }
    }
}

/// The unique predecessor of the loop header outside the loop, if the loop
/// is in canonical form (one preheader, one latch).
fn unique_preheader(f: &Function, an: &Analyses, l: &ssair::analysis::Loop) -> Option<BlockId> {
    let _ = f;
    let preds = an.cfg.preds(l.header);
    let outside: Vec<BlockId> = preds.iter().copied().filter(|p| !l.contains(*p)).collect();
    if outside.len() == 1 && l.latches.len() == 1 {
        Some(outside[0])
    } else {
        None
    }
}

/// Promotes single-location read-modify-write loops to register
/// accumulation:
///
/// ```text
/// for k { t = load A; t2 = f(t, ...); store t2, A }   // A loop-invariant
/// ```
///
/// becomes a phi accumulator with the load hoisted to the preheader and the
/// store sunk to the exit block. Soundness relies on the frontend's
/// restrict-parameter model: addresses rooted at distinct parameters or
/// allocas do not alias.
pub fn promote_read_modify_write(f: &mut Function) {
    loop {
        if !promote_one(f) {
            return;
        }
    }
}

fn promote_one(f: &mut Function) -> bool {
    let an = Analyses::new(f);
    for l in &an.loops.loops {
        let Some(preheader) = unique_preheader(f, &an, l) else {
            continue;
        };
        let latch = l.latches[0];
        // Canonical single exit from the header.
        let exits: Vec<BlockId> = an
            .cfg
            .succs(l.header)
            .iter()
            .copied()
            .filter(|s| !l.contains(*s))
            .collect();
        let exit_ok = exits.len() == 1 && an.cfg.preds(exits[0]).len() == 1;
        if !exit_ok {
            continue;
        }
        let exit = exits[0];
        // Gather memory operations of the loop.
        let mut loads: Vec<ValueId> = Vec::new();
        let mut stores: Vec<ValueId> = Vec::new();
        let mut has_call = false;
        for &b in &l.blocks {
            for &v in &f.block(b).instrs {
                match f.opcode(v) {
                    Some(Opcode::Load) => loads.push(v),
                    Some(Opcode::Store) => stores.push(v),
                    Some(Opcode::Call) => {
                        let callee = f.instr(v).and_then(|i| i.callee.clone());
                        let pure = callee.as_deref().is_some_and(|c| {
                            crate::lower::MATH_INTRINSICS.iter().any(|(n, _)| *n == c)
                        });
                        if !pure {
                            has_call = true;
                        }
                    }
                    _ => {}
                }
            }
        }
        if has_call {
            continue;
        }
        for &store in &stores {
            let addr = f.instr(store).expect("store").operands[1];
            // Address must be defined outside the loop.
            if an.layout.block_of(addr).is_some_and(|b| l.contains(b)) {
                continue;
            }
            let root = f.address_root(addr);
            // The store must execute every iteration.
            let sb = an.layout.block_of(store).expect("placed");
            if !an.dom.dominates(sb, latch) {
                continue;
            }
            // No other store in the loop may alias; same-root loads must use
            // the identical address value.
            let other_store_conflicts = stores.iter().any(|&s| {
                s != store && f.address_root(f.instr(s).expect("store").operands[1]) == root
            });
            if other_store_conflicts {
                continue;
            }
            let same_addr_loads: Vec<ValueId> = loads
                .iter()
                .copied()
                .filter(|&ld| f.instr(ld).expect("load").operands[0] == addr)
                .collect();
            let aliasing_other_load = loads.iter().any(|&ld| {
                let a = f.instr(ld).expect("load").operands[0];
                a != addr && f.address_root(a) == root
            });
            if aliasing_other_load {
                continue;
            }
            // All loads must be dominated by the header (they are in the
            // loop) and must happen before the store rewrites the location
            // — guaranteed in SSA by dominance of uses; the rotation below
            // is value-accurate regardless of order because the phi carries
            // the latest value.
            let header_preds = an.cfg.preds(l.header);
            if header_preds.len() != 2 {
                continue;
            }
            let stored_value = f.instr(store).expect("store").operands[0];
            // The stored value must dominate the latch terminator.
            let latch_term = f.terminator(latch).expect("terminated");
            if f.is_instruction(stored_value) && !an.inst_dominates(stored_value, latch_term) {
                continue;
            }
            let ty = f
                .value(addr)
                .ty
                .pointee()
                .expect("store address is a pointer")
                .clone();

            // --- transform ---
            let init = f.append_simple(preheader, ty.clone(), Opcode::Load, vec![addr]);
            // Move the load before the preheader terminator.
            {
                let instrs = &mut f.block_mut(preheader).instrs;
                let v = instrs.pop().expect("just appended");
                let at = instrs.len().saturating_sub(1);
                instrs.insert(at, v);
            }
            let phi = f.append_phi(l.header, ty.clone());
            f.set_name(phi, "promoted");
            f.add_phi_incoming(phi, init, preheader);
            f.add_phi_incoming(phi, stored_value, latch);
            for ld in same_addr_loads {
                replace_all_uses(f, ld, phi);
                ssair::pass::remove_instruction(f, ld);
            }
            ssair::pass::remove_instruction(f, store);
            // Store the final value at the exit (its single pred is the header).
            let sunk = f.append_simple(exit, Type::Void, Opcode::Store, vec![phi, addr]);
            let v = f.block_mut(exit).instrs.pop().expect("just appended");
            debug_assert_eq!(v, sunk);
            // Insert after any phis at the block head.
            let mut at = 0;
            while at < f.block(exit).instrs.len()
                && matches!(f.opcode(f.block(exit).instrs[at]), Some(Opcode::Phi))
            {
                at += 1;
            }
            f.block_mut(exit).instrs.insert(at, sunk);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use crate::{compile, compile_unoptimized};
    use ssair::{Opcode, ValueKind};

    #[test]
    fn folds_constant_arithmetic() {
        let m = compile("int f() { return 2 * 3 + 4; }", "t").unwrap();
        let f = m.function("f").unwrap();
        let entry = ssair::BlockId(0);
        assert_eq!(f.block(entry).instrs.len(), 1, "only ret remains");
        let ret = f.block(entry).instrs[0];
        let op = f.instr(ret).unwrap().operands[0];
        assert!(matches!(f.value(op).kind, ValueKind::ConstInt(10)));
    }

    #[test]
    fn folds_identities() {
        let m = compile("long f(long x) { return x * 1 + 0; }", "t").unwrap();
        let f = m.function("f").unwrap();
        let entry = ssair::BlockId(0);
        assert_eq!(f.block(entry).instrs.len(), 1, "x*1+0 folds to x");
    }

    #[test]
    fn hoists_invariant_address_math() {
        let src = "void f(double* a, int i, int n) { for (int k = 0; k < n; k++) { a[i] = a[i] + 1.0; } }";
        let m = compile(src, "t").unwrap();
        let f = m.function("f").unwrap();
        let text = format!("{f}");
        // After LICM + promotion there is exactly one load (preheader) and
        // one store (exit), and a phi accumulator in the loop header.
        let n_loads = text.matches("load double").count();
        let n_stores = text.matches("store double").count();
        assert_eq!(n_loads, 1, "{text}");
        assert_eq!(n_stores, 1, "{text}");
        assert!(text.contains("phi double"), "{text}");
    }

    #[test]
    fn promotion_produces_accumulator_phi_for_array_accumulation() {
        // The Figure-8 "second form" inner loop of GEMM.
        let src = "void f(double* c, double* a, double* b, int n, int i, int j) {
            for (int k = 0; k < n; k++)
                c[i*n+j] = c[i*n+j] + a[i*n+k] * b[k*n+j];
        }";
        let m = compile(src, "t").unwrap();
        let f = m.function("f").unwrap();
        let header = ssair::BlockId(1);
        let phis = f
            .block(header)
            .instrs
            .iter()
            .filter(|&&v| f.opcode(v) == Some(Opcode::Phi))
            .count();
        assert_eq!(phis, 2, "iterator and promoted accumulator:\n{f}");
        // The store moved to the exit block.
        let exit_has_store = f
            .block_ids()
            .filter(|&b| f.block(b).name.as_deref() == Some("loop.exit"))
            .any(|b| {
                f.block(b)
                    .instrs
                    .iter()
                    .any(|&v| f.opcode(v) == Some(Opcode::Store))
            });
        assert!(exit_has_store, "{f}");
    }

    #[test]
    fn promotion_is_blocked_by_possible_aliasing() {
        // Same root on both accesses with different indices: no promotion.
        let src = "void f(double* a, int i, int j, int n) {
            for (int k = 0; k < n; k++) a[i] = a[i] + a[j];
        }";
        let m = compile(src, "t").unwrap();
        let f = m.function("f").unwrap();
        let header_phis = f
            .block(ssair::BlockId(1))
            .instrs
            .iter()
            .filter(|&&v| f.opcode(v) == Some(Opcode::Phi))
            .count();
        assert_eq!(header_phis, 1, "only the iterator gets a phi:\n{f}");
    }

    #[test]
    fn promotion_is_blocked_for_conditional_stores() {
        let src = "void f(double* a, double* x, int i, int n) {
            for (int k = 0; k < n; k++) { if (x[k] > 0.0) { a[i] = a[i] + 1.0; } }
        }";
        let m = compile(src, "t").unwrap();
        let f = m.function("f").unwrap();
        // The store stays inside the loop (no store in any exit block).
        let exit_store = f
            .block_ids()
            .filter(|&b| f.block(b).name.as_deref() == Some("loop.exit"))
            .any(|b| {
                f.block(b)
                    .instrs
                    .iter()
                    .any(|&v| f.opcode(v) == Some(Opcode::Store))
            });
        assert!(!exit_store, "{f}");
    }

    #[test]
    fn scalar_accumulation_still_works_end_to_end() {
        let m = compile(
            "double dot(double* x, double* y, int n) { double acc = 0.0; for (int i = 0; i < n; i++) acc += x[i] * y[i]; return acc; }",
            "t",
        )
        .unwrap();
        let f = m.function("dot").unwrap();
        let header = ssair::BlockId(1);
        // acc and i phis survive optimization.
        let phis = f
            .block(header)
            .instrs
            .iter()
            .filter(|&&v| f.opcode(v) == Some(Opcode::Phi))
            .count();
        assert_eq!(phis, 2);
    }

    #[test]
    fn optimizer_output_verifies() {
        let srcs = [
            "double f(double* a, int n) { double s = 0.0; for (int i = 0; i < n; i++) { if (a[i] > 0.0) s += a[i]; } return s; }",
            "void g(double* c, double* a, double* b, int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { double acc = 0.0; for (int k = 0; k < n; k++) acc += a[i*n+k]*b[k*n+j]; c[i*n+j] = acc; } } }",
        ];
        for (k, s) in srcs.iter().enumerate() {
            let m = compile(s, &format!("v{k}")).unwrap();
            ssair::verify::verify_module(&m).expect("optimized IR verifies");
        }
    }

    #[test]
    fn unoptimized_vs_optimized_instruction_counts() {
        let src = "double f() { return 1.0 + 2.0 * 3.0; }";
        let u = compile_unoptimized(src, "t").unwrap();
        let o = compile(src, "t").unwrap();
        let count = |m: &ssair::Module| -> usize {
            let f = m.function("f").unwrap();
            f.block_ids().map(|b| f.block(b).instrs.len()).sum()
        };
        assert!(count(&o) < count(&u));
    }
}
