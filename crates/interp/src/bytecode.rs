//! One-shot lowering of ssair functions to a flat register bytecode.
//!
//! Detection got fast by compiling once and executing many times (interned
//! symbols, dense ids, precomputed orders); this module applies the same
//! discipline to execution. A [`CompiledModule`] is built once per
//! [`Module`] and reused across every validation seed, the reversal oracle
//! and every host-dispatched kernel launch:
//!
//! * operands become plain indices into a dense `Vec<Value>` register file
//!   (no `Option` unwrap, no const-vs-reg match per operand) — constants
//!   are folded into the per-function `init_regs` template;
//! * phi nodes are eliminated into per-CFG-edge parallel-move snippets
//!   ([`Op::PhiMoves`]), so block entry is a handful of register moves;
//! * branch targets are pc offsets into one contiguous code array;
//! * type dispatch (`AddI` vs `AddF`, load/store width, i32 wrapping) is
//!   resolved at compile time into typed [`Op`] variants;
//! * call sites are pre-bound: the callee is interned to a symbol id (host
//!   lookup becomes a slot load, not a `HashMap<String, _>` probe) and
//!   statically resolved to an intrinsic or a module function index.
//!
//! **Total over verified IR.** [`compile_module`] runs
//! [`ssair::verify::verify_function`] on every function and lowers each
//! one that passes, unconditionally. The verifier's rules are exactly what
//! the lowering relies on: phis form a block prefix and cover every
//! predecessor edge, each block ends in its only terminator, the entry
//! block has no phis and no predecessors, every use is dominated by its
//! definition, operand/target counts match the opcode, and no load or
//! store moves `void`. A function that fails verification compiles to an
//! error entry instead; calling it is an `ExecError` carrying the first
//! verifier message. The tree-walking [`crate::Machine`] is the reference
//! oracle the differential tests hold this tier to, bit-for-bit.

use crate::machine::Value;
use ssair::{BlockId, FCmpPred, Function, ICmpPred, Module, Opcode, Type, ValueId, ValueKind};
use std::collections::HashMap;

/// Marker for "no source value" in [`CompiledFunction::vids`].
pub(crate) const NO_VID: u32 = u32::MAX;

/// Integer binary operators (operand extraction stays checked at runtime
/// so type confusion reports the walker's exact `ExecError`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum IntOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    AShr,
}

/// Result wrapping, resolved from the result type at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IntWrap {
    None,
    I1,
    I32,
}

impl IntWrap {
    pub(crate) fn of(ty: &Type) -> IntWrap {
        match ty {
            Type::I1 => IntWrap::I1,
            Type::I32 => IntWrap::I32,
            _ => IntWrap::None,
        }
    }

    #[inline]
    pub(crate) fn apply(self, x: i64) -> i64 {
        match self {
            IntWrap::None => x,
            IntWrap::I1 => x & 1,
            IntWrap::I32 => i64::from(x as i32),
        }
    }
}

/// Float binary operators.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FloatOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Memory access width/kind, resolved from the value type at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MemKind {
    I8,
    I32,
    I64,
    F32,
    F64,
    Ptr,
}

impl MemKind {
    fn of(ty: &Type) -> MemKind {
        match ty {
            Type::I1 => MemKind::I8,
            Type::I32 => MemKind::I32,
            Type::I64 => MemKind::I64,
            Type::F32 => MemKind::F32,
            Type::F64 => MemKind::F64,
            Type::Ptr(_) => MemKind::Ptr,
            Type::Void => unreachable!("the verifier rejects void loads and stores"),
        }
    }
}

/// The math intrinsics the walker recognizes, pre-resolved at compile
/// time (arity/type errors stay runtime `ExecError`s, exactly like the
/// walker, because a host registration may shadow the intrinsic).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Intrinsic {
    Sqrt,
    Fabs,
    Exp,
    Log,
    Sin,
    Cos,
    Pow,
    Fmin,
    Fmax,
}

impl Intrinsic {
    pub(crate) fn by_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "sqrt" => Intrinsic::Sqrt,
            "fabs" => Intrinsic::Fabs,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "pow" => Intrinsic::Pow,
            "fmin" => Intrinsic::Fmin,
            "fmax" => Intrinsic::Fmax,
            _ => return None,
        })
    }

    /// Evaluates the intrinsic with the walker's exact arity/type errors.
    pub(crate) fn eval(self, args: &[Value]) -> Result<Value, String> {
        let unary = |g: fn(f64) -> f64| match args {
            [a] => Ok(Value::F(g(a.try_f()?))),
            _ => Err("unary math intrinsic expects 1 argument".to_owned()),
        };
        let binary = |g: fn(f64, f64) -> f64| match args {
            [a, b] => Ok(Value::F(g(a.try_f()?, b.try_f()?))),
            _ => Err("binary math intrinsic expects 2 arguments".to_owned()),
        };
        match self {
            Intrinsic::Sqrt => unary(f64::sqrt),
            Intrinsic::Fabs => unary(f64::abs),
            Intrinsic::Exp => unary(f64::exp),
            Intrinsic::Log => unary(f64::ln),
            Intrinsic::Sin => unary(f64::sin),
            Intrinsic::Cos => unary(f64::cos),
            Intrinsic::Pow => binary(f64::powf),
            Intrinsic::Fmin => binary(f64::min),
            Intrinsic::Fmax => binary(f64::max),
        }
    }
}

/// Where a call site statically resolves when no host overrides it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CallTarget {
    /// A math intrinsic (checked before module functions, like the
    /// walker's dispatch order).
    Intrinsic(Intrinsic),
    /// A module function, by index into [`Module::functions`].
    Function(u32),
    /// Nothing static matches: an error at execution time unless a host
    /// is registered under the symbol.
    Unknown,
}

/// A pre-bound call site.
#[derive(Debug)]
pub(crate) struct CallSite {
    /// Argument registers, in operand order.
    pub(crate) args: Box<[u32]>,
    /// Result register.
    pub(crate) dst: u32,
    /// Interned callee symbol (index into [`CompiledModule::symbols`]).
    pub(crate) sym: u32,
    /// Static resolution.
    pub(crate) target: CallTarget,
}

/// One phi move on a CFG edge: `dst` is the phi's own value id (also used
/// for profile bumps), `src` the register of its incoming operand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhiMove {
    pub(crate) dst: u32,
    pub(crate) src: u32,
}

/// A bytecode instruction. One [`Op`] executes per walker step, so step
/// accounting stays identical by construction.
#[derive(Debug)]
pub(crate) enum Op {
    /// Integer binary op with compile-time result wrapping.
    IntBin {
        op: IntOp,
        wrap: IntWrap,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Float binary op; `round` narrows through f32 (result type F32).
    FloatBin {
        op: FloatOp,
        round: bool,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Integer/pointer comparison.
    ICmp {
        pred: ICmpPred,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Ordered float comparison.
    FCmp {
        pred: FCmpPred,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Ternary select.
    Select {
        dst: u32,
        cond: u32,
        on_true: u32,
        on_false: u32,
    },
    /// Pointer arithmetic with the element size precomputed.
    Gep {
        dst: u32,
        base: u32,
        idx: u32,
        elem: i64,
    },
    /// Typed memory load.
    Load { kind: MemKind, dst: u32, addr: u32 },
    /// Typed memory store (value register, then address register).
    Store { kind: MemKind, val: u32, addr: u32 },
    /// Stack allocation of `n` (a register) elements.
    Alloca { dst: u32, n: u32, elem: Type },
    /// SExt/ZExt/Trunc: re-wrap to the result width.
    IntCast { wrap: IntWrap, dst: u32, src: u32 },
    /// Signed int → float; `round` narrows through f32.
    SiToFp { round: bool, dst: u32, src: u32 },
    /// Float → signed int, wrapped to the result width.
    FpToSi { wrap: IntWrap, dst: u32, src: u32 },
    /// f32 → f64 (a checked move in this value model).
    FpExt { dst: u32, src: u32 },
    /// f64 → f32 narrowing.
    FpTrunc { dst: u32, src: u32 },
    /// Call through a pre-bound site.
    Call { site: u32 },
    /// Unconditional jump to a pc.
    Jump { target: u32 },
    /// Conditional jump (`cond` must hold an integer at runtime).
    CondJump {
        cond: u32,
        on_true: u32,
        on_false: u32,
    },
    /// Return the register (or `I(0)` for a bare `ret`).
    Ret { val: Option<u32> },
    /// Per-edge phi elimination: read every source, then write every
    /// destination (parallel-move semantics), then jump. Each move counts
    /// one step, exactly like one walker phi evaluation.
    PhiMoves { moves: Box<[PhiMove]>, target: u32 },
}

/// One function lowered to bytecode.
#[derive(Debug)]
pub(crate) struct CompiledFunction {
    /// Function name (for arity-error messages).
    pub(crate) name: Box<str>,
    /// Expected argument count.
    pub(crate) arity: usize,
    /// Parameter registers, in order.
    pub(crate) params: Box<[u32]>,
    /// Register-file template: constants prefilled, everything else
    /// `I(0)` (never read before a write: every use is dominated by its
    /// definition).
    pub(crate) init_regs: Vec<Value>,
    /// The flat instruction stream. Entry is pc 0.
    pub(crate) code: Vec<Op>,
    /// pc → source [`ValueId`] for the optional profile ([`NO_VID`] for
    /// ops with no single source value, i.e. phi-move snippets).
    pub(crate) vids: Vec<u32>,
    /// Pre-bound call sites referenced by [`Op::Call`].
    pub(crate) sites: Vec<CallSite>,
}

/// A module lowered to bytecode, plus the interning tables the VM needs.
/// Build once with [`compile_module`], execute many times with
/// [`crate::Vm`].
pub struct CompiledModule<'m> {
    pub(crate) module: &'m Module,
    /// Per function (same order as [`Module::functions`]): the lowered
    /// code, or the error every call to an unverifiable function returns.
    pub(crate) funcs: Vec<Result<CompiledFunction, String>>,
    /// First function index per name (the walker's `Module::function`
    /// takes the first match too).
    pub(crate) func_index: HashMap<String, u32>,
    /// Interned callee symbols, module-wide.
    pub(crate) symbols: Vec<String>,
    /// Symbol name → id.
    pub(crate) sym_index: HashMap<String, u32>,
}

impl<'m> CompiledModule<'m> {
    /// The module this code was compiled from.
    #[must_use]
    pub fn module(&self) -> &'m Module {
        self.module
    }
}

/// Verifies and lowers every function of `module`. Never fails: a function
/// that fails verification becomes an error entry, reported when called.
#[must_use]
pub fn compile_module(module: &Module) -> CompiledModule<'_> {
    let mut func_index = HashMap::new();
    for (i, f) in module.functions.iter().enumerate() {
        func_index.entry(f.name.clone()).or_insert(i as u32);
    }
    let mut interner = Interner {
        symbols: Vec::new(),
        map: HashMap::new(),
    };
    let funcs = module
        .functions
        .iter()
        .map(|f| compile_function(f, &func_index, &mut interner))
        .collect();
    CompiledModule {
        module,
        funcs,
        func_index,
        symbols: interner.symbols,
        sym_index: interner.map,
    }
}

struct Interner {
    symbols: Vec<String>,
    map: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.map.get(name) {
            return id;
        }
        let id = self.symbols.len() as u32;
        self.symbols.push(name.to_owned());
        self.map.insert(name.to_owned(), id);
        id
    }
}

fn compile_function(
    f: &Function,
    func_index: &HashMap<String, u32>,
    interner: &mut Interner,
) -> Result<CompiledFunction, String> {
    if let Err(errs) = ssair::verify::verify_function(f) {
        return Err(format!(
            "@{} failed IR verification: {}",
            f.name, errs[0].message
        ));
    }
    // Each block splits into its phi prefix and its body (terminator
    // last), as the verifier guarantees.
    let shapes: Vec<(&[ValueId], &[ValueId])> = f
        .block_ids()
        .map(|b| {
            let instrs = &f.block(b).instrs;
            let n = instrs
                .iter()
                .take_while(|&&v| f.opcode(v) == Some(Opcode::Phi))
                .count();
            instrs.split_at(n)
        })
        .collect();

    // Emission. Pass 1: block bodies, with branch targets recorded as
    // (pc, edge) fixups; pass 2: per-edge phi-move snippets + patching.
    let mut code: Vec<Op> = Vec::new();
    let mut vids: Vec<u32> = Vec::new();
    let mut sites: Vec<CallSite> = Vec::new();
    let mut body_start: Vec<u32> = Vec::with_capacity(shapes.len());
    // (pc, operand slot, from-block, to-block)
    let mut fixups: Vec<(usize, u8, BlockId, BlockId)> = Vec::new();
    for (bi, &(_, body)) in shapes.iter().enumerate() {
        body_start.push(code.len() as u32);
        let from = BlockId(bi as u32);
        for &v in body {
            let i = f.instr(v).expect("verified: blocks list instructions");
            let op = match i.opcode {
                Opcode::Br => {
                    fixups.push((code.len(), 0, from, i.targets[0]));
                    Op::Jump { target: u32::MAX }
                }
                Opcode::CondBr => {
                    fixups.push((code.len(), 0, from, i.targets[0]));
                    fixups.push((code.len(), 1, from, i.targets[1]));
                    Op::CondJump {
                        cond: i.operands[0].0,
                        on_true: u32::MAX,
                        on_false: u32::MAX,
                    }
                }
                Opcode::Ret => Op::Ret {
                    val: i.operands.first().map(|r| r.0),
                },
                _ => lower_instr(f, v, func_index, interner, &mut sites),
            };
            code.push(op);
            vids.push(v.0);
        }
    }
    // Pass 2: one snippet per (pred, phi-block) edge, shared by every
    // branch along it.
    let mut edge_pc: HashMap<(BlockId, BlockId), u32> = HashMap::new();
    for (pc, slot, from, to) in fixups {
        let phis = shapes[to.0 as usize].0;
        let target = if phis.is_empty() {
            body_start[to.0 as usize]
        } else {
            *edge_pc.entry((from, to)).or_insert_with(|| {
                let moves: Box<[PhiMove]> = phis
                    .iter()
                    .map(|&phi| {
                        let i = f.instr(phi).expect("verified: phis are instructions");
                        let k = i
                            .incoming
                            .iter()
                            .position(|&b| b == from)
                            .expect("verified: phis cover every predecessor");
                        PhiMove {
                            dst: phi.0,
                            src: i.operands[k].0,
                        }
                    })
                    .collect();
                let pc = code.len() as u32;
                code.push(Op::PhiMoves {
                    moves,
                    target: body_start[to.0 as usize],
                });
                vids.push(NO_VID);
                pc
            })
        };
        match &mut code[pc] {
            Op::Jump { target: t } => *t = target,
            Op::CondJump {
                on_true, on_false, ..
            } => {
                if slot == 0 {
                    *on_true = target;
                } else {
                    *on_false = target;
                }
            }
            _ => unreachable!("fixups only point at branches"),
        }
    }

    // Register-file template: constants prefilled.
    let mut init_regs = vec![Value::I(0); f.num_values()];
    for v in f.value_ids() {
        match f.value(v).kind {
            ValueKind::ConstInt(c) => init_regs[v.0 as usize] = Value::I(c),
            ValueKind::ConstFloat(c) => init_regs[v.0 as usize] = Value::F(c),
            _ => {}
        }
    }

    Ok(CompiledFunction {
        name: f.name.as_str().into(),
        arity: f.params.len(),
        params: f.params.iter().map(|p| p.0).collect(),
        init_regs,
        code,
        vids,
        sites,
    })
}

fn lower_instr(
    f: &Function,
    v: ValueId,
    func_index: &HashMap<String, u32>,
    interner: &mut Interner,
    sites: &mut Vec<CallSite>,
) -> Op {
    let i = f.instr(v).expect("verified: blocks list instructions");
    let ty = &f.value(v).ty;
    let dst = v.0;
    let r = |k: usize| i.operands[k].0;
    let int_bin = |op: IntOp| Op::IntBin {
        op,
        wrap: IntWrap::of(ty),
        dst,
        a: r(0),
        b: r(1),
    };
    let float_bin = |op: FloatOp| Op::FloatBin {
        op,
        round: *ty == Type::F32,
        dst,
        a: r(0),
        b: r(1),
    };
    let pointee = || {
        ty.pointee()
            .expect("verified: gep and alloca yield pointers")
    };
    match i.opcode {
        Opcode::Add => int_bin(IntOp::Add),
        Opcode::Sub => int_bin(IntOp::Sub),
        Opcode::Mul => int_bin(IntOp::Mul),
        Opcode::SDiv => int_bin(IntOp::Div),
        Opcode::SRem => int_bin(IntOp::Rem),
        Opcode::And => int_bin(IntOp::And),
        Opcode::Or => int_bin(IntOp::Or),
        Opcode::Xor => int_bin(IntOp::Xor),
        Opcode::Shl => int_bin(IntOp::Shl),
        Opcode::AShr => int_bin(IntOp::AShr),
        Opcode::FAdd => float_bin(FloatOp::Add),
        Opcode::FSub => float_bin(FloatOp::Sub),
        Opcode::FMul => float_bin(FloatOp::Mul),
        Opcode::FDiv => float_bin(FloatOp::Div),
        Opcode::ICmp(pred) => Op::ICmp {
            pred,
            dst,
            a: r(0),
            b: r(1),
        },
        Opcode::FCmp(pred) => Op::FCmp {
            pred,
            dst,
            a: r(0),
            b: r(1),
        },
        Opcode::Select => Op::Select {
            dst,
            cond: r(0),
            on_true: r(1),
            on_false: r(2),
        },
        Opcode::Gep => Op::Gep {
            dst,
            base: r(0),
            idx: r(1),
            elem: pointee().size_bytes() as i64,
        },
        Opcode::Load => Op::Load {
            kind: MemKind::of(ty),
            dst,
            addr: r(0),
        },
        Opcode::Store => Op::Store {
            kind: MemKind::of(&f.value(i.operands[0]).ty),
            val: r(0),
            addr: r(1),
        },
        Opcode::Alloca => Op::Alloca {
            dst,
            n: r(0),
            elem: pointee().clone(),
        },
        Opcode::SExt | Opcode::ZExt | Opcode::Trunc => Op::IntCast {
            wrap: IntWrap::of(ty),
            dst,
            src: r(0),
        },
        Opcode::SIToFP => Op::SiToFp {
            round: *ty == Type::F32,
            dst,
            src: r(0),
        },
        Opcode::FPToSI => Op::FpToSi {
            wrap: IntWrap::of(ty),
            dst,
            src: r(0),
        },
        Opcode::FPExt => Op::FpExt { dst, src: r(0) },
        Opcode::FPTrunc => Op::FpTrunc { dst, src: r(0) },
        Opcode::Call => {
            let callee = i.callee.as_deref().expect("verified: calls name a callee");
            let sym = interner.intern(callee);
            // Walker dispatch order with hosts factored out: intrinsics
            // shadow module functions of the same name.
            let target = match Intrinsic::by_name(callee) {
                Some(k) => CallTarget::Intrinsic(k),
                None => match func_index.get(callee) {
                    Some(&idx) => CallTarget::Function(idx),
                    None => CallTarget::Unknown,
                },
            };
            let site = sites.len() as u32;
            sites.push(CallSite {
                args: i.operands.iter().map(|o| o.0).collect(),
                dst,
                sym,
                target,
            });
            Op::Call { site }
        }
        Opcode::Phi | Opcode::Br | Opcode::CondBr | Opcode::Ret => {
            unreachable!("phis and terminators are emitted by compile_function")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile_text(text: &str) -> ssair::Module {
        ssair::parser::parse_module(text).expect("test IR parses")
    }

    #[test]
    fn straight_line_and_loop_functions_compile() {
        let m = compile_text(
            r#"
define i64 @sum(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %latch ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %latch, label %exit
latch:
  %acc.next = add i64 %acc, %i
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"#,
        );
        let c = compile_module(&m);
        let cf = c.funcs[0].as_ref().unwrap();
        // Two edges into the phi-bearing header → two move snippets.
        let snippets = cf
            .code
            .iter()
            .filter(|op| matches!(op, Op::PhiMoves { .. }))
            .count();
        assert_eq!(snippets, 2);
        // Every branch target was patched.
        for op in &cf.code {
            match op {
                Op::Jump { target } => assert_ne!(*target, u32::MAX),
                Op::CondJump {
                    on_true, on_false, ..
                } => {
                    assert_ne!(*on_true, u32::MAX);
                    assert_ne!(*on_false, u32::MAX);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn constants_are_prefilled_in_the_register_template() {
        let m = compile_text(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 7\n  ret i32 %x\n}\n",
        );
        let c = compile_module(&m);
        let cf = c.funcs[0].as_ref().unwrap();
        assert!(cf.init_regs.contains(&Value::I(7)));
    }

    #[test]
    fn unverifiable_functions_compile_to_their_first_verifier_error() {
        // An entry-block phi: the function becomes an error entry, its
        // neighbour still compiles.
        let mut m = compile_text(
            "define i64 @f(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n\ndefine i64 @g(i64 %a) {\nentry:\n  ret i64 %a\n}\n",
        );
        m.functions[0].append_phi(BlockId(0), Type::I64);
        let c = compile_module(&m);
        let e = c.funcs[0].as_ref().unwrap_err();
        assert!(e.starts_with("@f failed IR verification: "), "{e}");
        assert!(c.funcs[1].is_ok());
    }

    #[test]
    fn calls_are_prebound_and_symbols_interned() {
        let m = compile_text(
            r#"
define i64 @sq(i64 %x) {
entry:
  %r = mul i64 %x, %x
  ret i64 %r
}

define double @f(i64 %x, double %y) {
entry:
  %a = call i64 @sq(i64 %x)
  %b = call double @sqrt(double %y)
  %c = call double @mystery(double %y)
  ret double %c
}
"#,
        );
        let c = compile_module(&m);
        let cf = c.funcs[1].as_ref().unwrap();
        assert_eq!(cf.sites.len(), 3);
        assert!(matches!(cf.sites[0].target, CallTarget::Function(0)));
        assert!(matches!(cf.sites[1].target, CallTarget::Intrinsic(_)));
        assert!(matches!(cf.sites[2].target, CallTarget::Unknown));
        assert_eq!(c.symbols.len(), 3);
        assert_eq!(c.sym_index.len(), 3);
    }
}
