//! Structural SSA well-formedness checks.
//!
//! The verifier catches frontend and transformation bugs early: every block
//! must end in exactly one terminator, phis must match their predecessors,
//! uses must be dominated by definitions, and operand/result types must be
//! consistent for the common instruction shapes.

use crate::analysis::{inst_dominates_in, Cfg, DomTree, Layout};
use crate::function::{BlockId, Function, Instr, Opcode};
use crate::module::Module;
use crate::types::Type;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the problem was found.
    pub function: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "in @{}: {}", self.function, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every function of `m`.
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for f in &m.functions {
        if let Err(mut es) = verify_function(f) {
            errors.append(&mut es);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Verifies one function.
pub fn verify_function(f: &Function) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    macro_rules! err {
        ($($arg:tt)*) => {
            errors.push(VerifyError { function: f.name.clone(), message: format!($($arg)*) })
        };
    }

    // Block structure: non-empty, exactly one terminator, at the end;
    // per-instruction operand/target/callee shape; no phis in (and no
    // edges into) the entry block.
    for b in f.block_ids() {
        let instrs = &f.block(b).instrs;
        if instrs.is_empty() {
            err!("block {b} is empty");
            continue;
        }
        for (pos, &v) in instrs.iter().enumerate() {
            let Some(i) = ((v.0 as usize) < f.num_values())
                .then(|| f.instr(v))
                .flatten()
            else {
                err!("block {b} lists non-instruction value {v}");
                continue;
            };
            if let Err(msg) = check_shape(f, i) {
                err!("{} {v} in {b}: {msg}", i.opcode.mnemonic());
            }
            if i.opcode == Opcode::Phi && b == BlockId(0) {
                err!("phi {v} in the entry block");
            }
            let is_last = pos + 1 == instrs.len();
            if i.opcode.is_terminator() != is_last {
                err!(
                    "block {b}: {} at position {pos} (of {}): terminators must be last and only last",
                    i.opcode.mnemonic(),
                    instrs.len()
                );
            }
            if i.opcode == Opcode::Phi
                && instrs[..pos]
                    .iter()
                    .any(|&p| f.opcode(p) != Some(Opcode::Phi))
            {
                err!("block {b}: phi {v} after non-phi instruction");
            }
        }
    }
    if !errors.is_empty() {
        return Err(errors); // analyses below need structural sanity
    }

    // Only the tables the checks below read, not the full `Analyses`.
    let layout = Layout::new(f);
    let cfg = Cfg::new(f);
    let dom = DomTree::dominators(&cfg);
    let dominates = |a, b| inst_dominates_in(&layout, &dom, a, b);

    for b in f.block_ids() {
        if !cfg.is_reachable(b) {
            err!("block {b} is unreachable");
        }
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    for b in f.block_ids() {
        for &v in &f.block(b).instrs {
            let i = f.instr(v).expect("checked above");
            // Phi incoming edges must exactly match CFG predecessors.
            if i.opcode == Opcode::Phi {
                let preds = cfg.preds(b);
                if i.incoming.len() != preds.len() || !preds.iter().all(|p| i.incoming.contains(p))
                {
                    err!(
                        "phi {v} in {b}: incoming blocks {:?} do not match predecessors {:?}",
                        i.incoming,
                        preds
                    );
                }
            }
            // Dominance: each use must be dominated by its definition.
            for (k, &op) in i.operands.iter().enumerate() {
                if !f.is_instruction(op) {
                    continue;
                }
                let ok = if i.opcode == Opcode::Phi {
                    // Phi uses must dominate the end of the incoming block.
                    let from = i.incoming[k];
                    let term = f.terminator(from).expect("terminated block");
                    dominates(op, term)
                } else {
                    op != v && dominates(op, v)
                };
                if !ok {
                    err!(
                        "use of {} in {} is not dominated by its definition",
                        f.display_name(op),
                        f.display_name(v)
                    );
                }
            }
            // Simple type rules.
            verify_types(f, v, &mut errors);
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// The operand, target and callee counts each opcode requires, plus
/// range checks on every id — everything later passes (and executors)
/// index without checking.
fn check_shape(f: &Function, i: &Instr) -> Result<(), String> {
    if let Some(op) = i.operands.iter().find(|op| op.0 as usize >= f.num_values()) {
        return Err(format!("operand {op} is out of range"));
    }
    if let Some(b) = i
        .targets
        .iter()
        .chain(&i.incoming)
        .find(|b| b.0 as usize >= f.num_blocks())
    {
        return Err(format!("block {b} is out of range"));
    }
    if i.targets.contains(&BlockId(0)) {
        return Err("branches to the entry block, which must have no predecessors".into());
    }
    let (operands, targets) = match i.opcode {
        Opcode::Add
        | Opcode::Sub
        | Opcode::Mul
        | Opcode::SDiv
        | Opcode::SRem
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::Shl
        | Opcode::AShr
        | Opcode::FAdd
        | Opcode::FSub
        | Opcode::FMul
        | Opcode::FDiv
        | Opcode::ICmp(_)
        | Opcode::FCmp(_)
        | Opcode::Gep
        | Opcode::Store => (2..=2, 0),
        Opcode::Select => (3..=3, 0),
        Opcode::Load
        | Opcode::Alloca
        | Opcode::SExt
        | Opcode::ZExt
        | Opcode::Trunc
        | Opcode::SIToFP
        | Opcode::FPToSI
        | Opcode::FPExt
        | Opcode::FPTrunc => (1..=1, 0),
        Opcode::Call => (0..=usize::MAX, 0),
        Opcode::Phi => {
            if i.operands.len() != i.incoming.len() {
                return Err("operand/incoming arity mismatch".into());
            }
            (0..=usize::MAX, 0)
        }
        Opcode::Br => (0..=0, 1),
        Opcode::CondBr => (1..=1, 2),
        Opcode::Ret => (0..=1, 0),
    };
    if !operands.contains(&i.operands.len()) {
        return Err(format!("has {} operands", i.operands.len()));
    }
    if i.targets.len() != targets {
        return Err(format!(
            "has {} targets, expects {targets}",
            i.targets.len()
        ));
    }
    if i.opcode == Opcode::Call && i.callee.is_none() {
        return Err("call without callee".into());
    }
    Ok(())
}

// Collapsing the per-opcode checks into match guards would make failing
// arms fall through to `_`, losing the per-opcode error messages.
#[allow(clippy::collapsible_match)]
fn verify_types(f: &Function, v: crate::ValueId, errors: &mut Vec<VerifyError>) {
    let i = f.instr(v).expect("instruction");
    let ty = &f.value(v).ty;
    macro_rules! err {
        ($($arg:tt)*) => {
            errors.push(VerifyError { function: f.name.clone(), message: format!($($arg)*) })
        };
    }
    let opty = |k: usize| &f.value(i.operands[k]).ty;
    match i.opcode {
        Opcode::Add
        | Opcode::Sub
        | Opcode::Mul
        | Opcode::SDiv
        | Opcode::SRem
        | Opcode::And
        | Opcode::Or
        | Opcode::Xor
        | Opcode::Shl
        | Opcode::AShr => {
            if !ty.is_integer() || opty(0) != ty || opty(1) != ty {
                err!("integer binop {} has inconsistent types", f.display_name(v));
            }
        }
        Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => {
            if !ty.is_float() || opty(0) != ty || opty(1) != ty {
                err!("float binop {} has inconsistent types", f.display_name(v));
            }
        }
        Opcode::ICmp(_) => {
            if *ty != Type::I1 || !opty(0).is_integer() && !opty(0).is_pointer() {
                err!("icmp {} has bad types", f.display_name(v));
            }
        }
        Opcode::FCmp(_) => {
            if *ty != Type::I1 || !opty(0).is_float() {
                err!("fcmp {} has bad types", f.display_name(v));
            }
        }
        Opcode::Gep => {
            if !opty(0).is_pointer() || ty != opty(0) || !opty(1).is_integer() {
                err!("gep {} has bad types", f.display_name(v));
            }
        }
        Opcode::Load => {
            if *ty == Type::Void {
                err!("load {} of void", f.display_name(v));
            } else if opty(0).pointee() != Some(ty) {
                err!("load {} type does not match pointer", f.display_name(v));
            }
        }
        Opcode::Store => {
            if *opty(0) == Type::Void {
                err!("store {} of void", f.display_name(v));
            } else if opty(1).pointee() != Some(opty(0)) {
                err!("store {} type does not match pointer", f.display_name(v));
            }
        }
        Opcode::Alloca => {
            if !ty.is_pointer() {
                err!("alloca {} does not yield a pointer", f.display_name(v));
            }
        }
        Opcode::CondBr => {
            if *opty(0) != Type::I1 {
                err!("condbr {} condition is not i1", f.display_name(v));
            }
        }
        Opcode::Ret => {
            if let Some(&rv) = i.operands.first() {
                if f.value(rv).ty != f.ret_ty {
                    err!("ret value type does not match @{} return type", f.name);
                }
            } else if f.ret_ty != Type::Void {
                err!("ret void in non-void @{}", f.name);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{BlockId, Function};
    use crate::parser::parse_function_text;

    #[test]
    fn accepts_well_formed_loop() {
        let f = parse_function_text(
            r#"
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
"#,
        )
        .unwrap();
        verify_function(&f).expect("verifies");
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut f = Function::new("bad", &[], Type::Void);
        let e = BlockId(0);
        let c = f.const_int(Type::I32, 1);
        f.append_simple(e, Type::I32, Opcode::Add, vec![c, c]);
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("terminators")));
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut f = Function::new("bad2", &[("x".into(), Type::F64)], Type::Void);
        let e = BlockId(0);
        let x = f.params[0];
        let one = f.const_int(Type::I64, 1);
        f.append_simple(e, Type::I64, Opcode::Add, vec![x, one]);
        f.append_ret(e, None);
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("inconsistent")));
    }

    #[test]
    fn rejects_use_before_def() {
        let mut f = Function::new("order", &[], Type::Void);
        let e = BlockId(0);
        let c = f.const_int(Type::I32, 1);
        // Manually create b using a value defined after it.
        let a_id = crate::ValueId(f.num_values() as u32 + 1); // will be the add below
        let b = f.append_simple(e, Type::I32, Opcode::Add, vec![c, a_id]);
        let a = f.append_simple(e, Type::I32, Opcode::Add, vec![c, c]);
        assert_eq!(a, a_id);
        let _ = b;
        f.append_ret(e, None);
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("not dominated")));
    }

    #[test]
    fn rejects_phi_incoming_mismatch() {
        let f = parse_function_text(
            r#"
define void @l(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ]
  %c = icmp slt i64 %i, %n
  br i1 %c, label %header, label %exit
exit:
  ret void
}
"#,
        )
        .unwrap();
        let errs = verify_function(&f).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("incoming")));
    }

    #[test]
    fn reports_malformed_instruction_shapes_instead_of_panicking() {
        let x = |f: &Function| f.params[0];
        let one_operand_add = {
            let mut f = Function::new("short", &[("x".into(), Type::I64)], Type::I64);
            let r = f.append_simple(BlockId(0), Type::I64, Opcode::Add, vec![x(&f)]);
            f.append_ret(BlockId(0), Some(r));
            f
        };
        let targetless_br = {
            let mut f = Function::new("nobr", &[("x".into(), Type::I64)], Type::Void);
            f.append_simple(BlockId(0), Type::Void, Opcode::Br, vec![]);
            f
        };
        let dangling_target = {
            let mut f = Function::new("far", &[("x".into(), Type::I64)], Type::Void);
            f.append_br(BlockId(0), BlockId(7));
            f
        };
        let calleeless_call = {
            let mut f = Function::new("anon", &[("x".into(), Type::I64)], Type::Void);
            f.append_simple(BlockId(0), Type::I64, Opcode::Call, vec![x(&f)]);
            f.append_ret(BlockId(0), None);
            f
        };
        let integer_alloca = {
            let mut f = Function::new("alloc", &[("x".into(), Type::I64)], Type::Void);
            f.append_simple(BlockId(0), Type::I64, Opcode::Alloca, vec![x(&f)]);
            f.append_ret(BlockId(0), None);
            f
        };
        for (f, want) in [
            (one_operand_add, "has 1 operands"),
            (integer_alloca, "does not yield a pointer"),
            (targetless_br, "has 0 targets, expects 1"),
            (dangling_target, "block bb7 is out of range"),
            (calleeless_call, "call without callee"),
        ] {
            let errs = verify_function(&f).unwrap_err();
            assert!(
                errs.iter().any(|e| e.message.contains(want)),
                "@{}: {errs:?}",
                f.name
            );
        }
    }

    #[test]
    fn rejects_entry_block_predecessors_and_phis() {
        let looped = parse_function_text(
            r#"
define i64 @f(i64 %n) {
entry:
  %i = phi i64 [ %i.next, %entry ]
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, %n
  br i1 %c, label %entry, label %exit
exit:
  ret i64 %i
}
"#,
        )
        .unwrap();
        let errs = verify_function(&looped).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("no predecessors")),
            "{errs:?}"
        );
        // An entry phi with no incoming edges at all is rejected too.
        let mut lone = Function::new("lone", &[], Type::I64);
        let phi = lone.append_phi(BlockId(0), Type::I64);
        lone.append_ret(BlockId(0), Some(phi));
        let errs = verify_function(&lone).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.message.contains("in the entry block")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_void_loads_and_stores() {
        for text in [
            "define void @f(void* %p) {\nentry:\n  %x = load void, void* %p\n  ret void\n}\n",
            "define void @f(void* %p) {\nentry:\n  %x = call void @g()\n  store void %x, void* %p\n  ret void\n}\n",
        ] {
            let f = parse_function_text(text).unwrap();
            let errs = verify_function(&f).unwrap_err();
            assert!(
                errs.iter().any(|e| e.message.contains("of void")),
                "{text}: {errs:?}"
            );
        }
    }

    #[test]
    fn verify_module_aggregates_errors() {
        let mut m = Module::new("unit");
        let mut good = Function::new("good", &[], Type::Void);
        good.append_ret(BlockId(0), None);
        m.add_function(good);
        let bad = Function::new("bad", &[], Type::Void); // empty entry block
        m.add_function(bad);
        let errs = verify_module(&m).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].function, "bad");
    }
}
