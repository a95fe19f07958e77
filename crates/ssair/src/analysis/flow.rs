//! Path-sensitive flow queries for the IDL atomics
//! `all control flow from A to B passes through C` and
//! `all data flow from A to B passes through C`.
//!
//! Both are answered by deletion + reachability: every path from `a` to
//! `b` passes through `c` iff `b` is unreachable from `a` once `c` is
//! removed from the graph. Paths have length at least one edge, so the
//! queries are meaningful even when `a == b` (e.g. cyclic control flow in
//! the SESE idiom). When `c` equals `a` or `b` the answer is trivially
//! `true` — the endpoint itself is on every path.

use super::Analyses;
use crate::function::{Function, ValueId, ValueKind};
use std::collections::HashSet;

/// `true` iff every instruction-level control-flow path from `a` to `b`
/// (of length ≥ 1) passes through `c`.
#[must_use]
pub fn all_control_flow_passes_through(
    f: &Function,
    an: &Analyses,
    a: ValueId,
    b: ValueId,
    c: ValueId,
) -> bool {
    if c == a || c == b {
        return true;
    }
    // BFS from a's successors, never expanding c.
    let mut seen: HashSet<ValueId> = HashSet::new();
    let mut stack: Vec<ValueId> = an
        .control_flow_successors(f, a)
        .into_iter()
        .filter(|&s| s != c)
        .collect();
    while let Some(v) = stack.pop() {
        if v == b {
            return false; // found a path avoiding c
        }
        if !seen.insert(v) {
            continue;
        }
        for s in an.control_flow_successors(f, v) {
            if s != c && !seen.contains(&s) {
                stack.push(s);
            }
        }
    }
    true
}

/// `true` iff every def-use (data-flow) path from `a` to `b` (length ≥ 1)
/// passes through `c`. Data flow follows operand-to-user edges only; memory
/// is not traversed.
#[must_use]
pub fn all_data_flow_passes_through(
    _f: &Function,
    an: &Analyses,
    a: ValueId,
    b: ValueId,
    c: ValueId,
) -> bool {
    if c == a || c == b {
        return true;
    }
    let mut seen: HashSet<ValueId> = HashSet::new();
    let mut stack: Vec<ValueId> = an
        .defuse
        .users(a)
        .iter()
        .copied()
        .filter(|&u| u != c)
        .collect();
    while let Some(v) = stack.pop() {
        if v == b {
            return false;
        }
        if !seen.insert(v) {
            continue;
        }
        for &u in an.defuse.users(v) {
            if u != c && !seen.contains(&u) {
                stack.push(u);
            }
        }
    }
    true
}

/// The pure backward slice of `sink` up to `killers` (exclusive), in
/// arbitrary order, or `None` if the slice is not a pure function of the
/// killers. `sink` itself is included unless it is a killer.
///
/// Every backward data-flow path from `sink` must end at a killer, a
/// constant or a function argument, through pure arithmetic and calls to
/// the intrinsics in `pure_calls`. This is the varlist atomic `all flow
/// to {sink} is killed by {killers}` of the `KernelFunction` building
/// block: the kernel value is a detachable pure function of its declared
/// inputs, which makes histogram/reduction/stencil kernels extractable
/// (§4.2, §6.2 of the paper).
#[must_use]
pub fn kernel_slice(
    f: &Function,
    sink: ValueId,
    killers: &[ValueId],
    pure_calls: &[&str],
) -> Option<Vec<ValueId>> {
    let mut slice = Vec::new();
    let mut seen: HashSet<ValueId> = HashSet::new();
    let mut stack = vec![sink];
    while let Some(v) = stack.pop() {
        if killers.contains(&v) || !seen.insert(v) {
            continue;
        }
        match &f.value(v).kind {
            ValueKind::ConstInt(_) | ValueKind::ConstFloat(_) | ValueKind::Argument { .. } => {}
            ValueKind::Instr(i) => {
                let pure_call = i.opcode == crate::Opcode::Call
                    && i.callee.as_deref().is_some_and(|c| pure_calls.contains(&c));
                if !(i.opcode.is_pure_arith() || pure_call) {
                    return None; // impure instruction inside the slice
                }
                slice.push(v);
                for &op in &i.operands {
                    stack.push(op);
                }
            }
        }
    }
    Some(slice)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyses;
    use crate::parser::parse_function_text;

    fn get(f: &Function, name: &str) -> ValueId {
        f.named(name)
            .unwrap_or_else(|| panic!("no value named {name}"))
    }

    const LOOP: &str = r#"
define i64 @sum(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %latch, label %exit
latch:
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret i64 %i
}
"#;

    #[test]
    fn control_flow_cut_points() {
        let f = parse_function_text(LOOP).unwrap();
        let an = Analyses::new(&f);
        let i = get(&f, "i");
        let cond = get(&f, "cond");
        let i_next = get(&f, "i.next");
        // Flow from the latch body back to the phi must pass the latch br
        // and the phi... the only path latch->header goes through the
        // header's first instruction, which IS %i; check an interior cut:
        assert!(all_control_flow_passes_through(&f, &an, i, i_next, cond));
        // cond is NOT on the path from i.next back to i (path goes
        // i.next -> br -> header phi).
        assert!(!all_control_flow_passes_through(&f, &an, i_next, i, cond));
        // Endpoint cases are trivially true.
        assert!(all_control_flow_passes_through(&f, &an, i, cond, i));
        assert!(all_control_flow_passes_through(&f, &an, i, cond, cond));
    }

    #[test]
    fn data_flow_cut_points() {
        let f = parse_function_text(
            "define i32 @g(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n  %y = mul i32 %x, %x\n  %z = add i32 %y, %a\n  ret i32 %z\n}\n",
        )
        .unwrap();
        let an = Analyses::new(&f);
        let a = f.params[0];
        let x = get(&f, "x");
        let y = get(&f, "y");
        let z = get(&f, "z");
        // All data flow from x to z passes through y.
        assert!(all_data_flow_passes_through(&f, &an, x, z, y));
        // But a reaches z directly, bypassing x and y.
        assert!(!all_data_flow_passes_through(&f, &an, a, z, y));
    }

    #[test]
    fn kernel_slice_accepts_pure_and_rejects_memory() {
        let f = parse_function_text(
            r#"
define double @k(double* %p, double %u, double %v) {
entry:
  %m = fmul double %u, %v
  %s = fadd double %m, 1.0
  %x = load double, double* %p
  %bad = fadd double %s, %x
  ret double %bad
}
"#,
        )
        .unwrap();
        let u = f.params[1];
        let v = f.params[2];
        let s = get(&f, "s");
        let bad = get(&f, "bad");
        let x = get(&f, "x");
        // s is a pure function of u and v.
        let slice = kernel_slice(&f, s, &[u, v], &[]).expect("pure slice");
        assert_eq!(slice.len(), 2, "fmul and fadd");
        // bad pulls in a load -> not pure.
        assert!(kernel_slice(&f, bad, &[u, v], &[]).is_none());
        // Unless the load result itself is declared an input (killer).
        assert!(kernel_slice(&f, bad, &[u, v, x], &[]).is_some());
    }

    #[test]
    fn kernel_slice_allows_whitelisted_calls() {
        let f = parse_function_text(
            r#"
define double @k(double %u) {
entry:
  %r = call double @sqrt(double %u)
  %s = fadd double %r, 1.0
  ret double %s
}
"#,
        )
        .unwrap();
        let u = f.params[0];
        let s = get(&f, "s");
        assert!(kernel_slice(&f, s, &[u], &["sqrt"]).is_some());
        assert!(kernel_slice(&f, s, &[u], &[]).is_none());
    }
}
