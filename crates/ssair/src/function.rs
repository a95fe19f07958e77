//! Functions, basic blocks, instructions and values.
//!
//! Every SSA value in a function — arguments, constants and instructions —
//! lives in a single per-function arena and is addressed by [`ValueId`].
//! This flat addressing is what the constraint solver searches over: an IDL
//! variable is assigned a `ValueId`, exactly as the paper's solver assigns
//! LLVM `Value*`s.

use crate::types::Type;
use std::fmt;

/// Index of a value (argument, constant or instruction) within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Index of a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Integer comparison predicates (a subset of LLVM's `icmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ICmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
}

impl ICmpPred {
    /// The textual mnemonic, e.g. `slt`.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            ICmpPred::Eq => "eq",
            ICmpPred::Ne => "ne",
            ICmpPred::Slt => "slt",
            ICmpPred::Sle => "sle",
            ICmpPred::Sgt => "sgt",
            ICmpPred::Sge => "sge",
        }
    }

    /// The predicate with operands swapped (`a < b` becomes `b > a`).
    #[must_use]
    pub fn swapped(self) -> ICmpPred {
        match self {
            ICmpPred::Eq => ICmpPred::Eq,
            ICmpPred::Ne => ICmpPred::Ne,
            ICmpPred::Slt => ICmpPred::Sgt,
            ICmpPred::Sle => ICmpPred::Sge,
            ICmpPred::Sgt => ICmpPred::Slt,
            ICmpPred::Sge => ICmpPred::Sle,
        }
    }
}

/// Floating-point comparison predicates (ordered forms only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpPred {
    /// Ordered equal.
    Oeq,
    /// Ordered not-equal.
    One,
    /// Ordered less-than.
    Olt,
    /// Ordered less-or-equal.
    Ole,
    /// Ordered greater-than.
    Ogt,
    /// Ordered greater-or-equal.
    Oge,
}

impl FCmpPred {
    /// The textual mnemonic, e.g. `olt`.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            FCmpPred::Oeq => "oeq",
            FCmpPred::One => "one",
            FCmpPred::Olt => "olt",
            FCmpPred::Ole => "ole",
            FCmpPred::Ogt => "ogt",
            FCmpPred::Oge => "oge",
        }
    }
}

/// Instruction opcodes.
///
/// This is the instruction inventory of the IDL atomic constraints plus the
/// conversions and calls needed to express the benchmark programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Integer addition: `add a, b`.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Signed integer division.
    SDiv,
    /// Signed integer remainder.
    SRem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    AShr,
    /// Floating-point addition.
    FAdd,
    /// Floating-point subtraction.
    FSub,
    /// Floating-point multiplication.
    FMul,
    /// Floating-point division.
    FDiv,
    /// Integer comparison; predicate stored in [`Instr::icmp_pred`].
    ICmp(ICmpPred),
    /// Floating-point comparison.
    FCmp(FCmpPred),
    /// `select cond, a, b` — ternary choice.
    Select,
    /// `gep ptr, idx` — typed pointer arithmetic: `ptr + idx * sizeof(elem)`.
    /// Always exactly one index operand (multi-dimensional arrays are
    /// flattened by the frontend).
    Gep,
    /// Memory load through a pointer operand.
    Load,
    /// `store value, ptr`.
    Store,
    /// SSA phi; operand `i` flows in from [`Instr::incoming`] block `i`.
    Phi,
    /// Unconditional branch; target in [`Instr::targets`].
    Br,
    /// Conditional branch: operand 0 is the `i1` condition;
    /// `targets[0]` is taken on true, `targets[1]` on false.
    CondBr,
    /// Function return; zero or one operand.
    Ret,
    /// Direct call to a named callee (runtime intrinsics, extracted
    /// kernels, heterogeneous API entry points).
    Call,
    /// Stack allocation of `count` elements of the pointee type;
    /// operand 0 is the element count.
    Alloca,
    /// Sign-extend an integer to a wider integer type.
    SExt,
    /// Zero-extend an integer to a wider integer type.
    ZExt,
    /// Truncate an integer to a narrower integer type.
    Trunc,
    /// Signed integer to floating point.
    SIToFP,
    /// Floating point to signed integer.
    FPToSI,
    /// Extend `f32` to `f64`.
    FPExt,
    /// Truncate `f64` to `f32`.
    FPTrunc,
}

impl Opcode {
    /// The textual mnemonic, e.g. `fadd`.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::SDiv => "sdiv",
            Opcode::SRem => "srem",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::AShr => "ashr",
            Opcode::FAdd => "fadd",
            Opcode::FSub => "fsub",
            Opcode::FMul => "fmul",
            Opcode::FDiv => "fdiv",
            Opcode::ICmp(_) => "icmp",
            Opcode::FCmp(_) => "fcmp",
            Opcode::Select => "select",
            Opcode::Gep => "getelementptr",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::Phi => "phi",
            Opcode::Br => "br",
            Opcode::CondBr => "br",
            Opcode::Ret => "ret",
            Opcode::Call => "call",
            Opcode::Alloca => "alloca",
            Opcode::SExt => "sext",
            Opcode::ZExt => "zext",
            Opcode::Trunc => "trunc",
            Opcode::SIToFP => "sitofp",
            Opcode::FPToSI => "fptosi",
            Opcode::FPExt => "fpext",
            Opcode::FPTrunc => "fptrunc",
        }
    }

    /// `true` for `br` and conditional `br`.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self, Opcode::Br | Opcode::CondBr)
    }

    /// `true` for instructions that end a basic block.
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(self, Opcode::Br | Opcode::CondBr | Opcode::Ret)
    }

    /// `true` for pure data computations with no memory or control effect
    /// (the instruction set a detached kernel function may contain).
    #[must_use]
    pub fn is_pure_arith(&self) -> bool {
        matches!(
            self,
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
                | Opcode::Select
                | Opcode::SExt
                | Opcode::ZExt
                | Opcode::Trunc
                | Opcode::SIToFP
                | Opcode::FPToSI
                | Opcode::FPExt
                | Opcode::FPTrunc
        )
    }

    /// `true` if the instruction reads or writes memory.
    #[must_use]
    pub fn touches_memory(&self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store | Opcode::Call)
    }
}

/// An instruction: opcode, operands and placement.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// What the instruction does.
    pub opcode: Opcode,
    /// Value operands (for `phi`, the incoming values).
    pub operands: Vec<ValueId>,
    /// For `phi`: incoming blocks, parallel to `operands`.
    pub incoming: Vec<BlockId>,
    /// For `br`/`condbr`: successor blocks.
    pub targets: Vec<BlockId>,
    /// For `call`: the callee symbol.
    pub callee: Option<String>,
}

impl Instr {
    fn simple(opcode: Opcode, operands: Vec<ValueId>) -> Instr {
        Instr {
            opcode,
            operands,
            incoming: Vec::new(),
            targets: Vec::new(),
            callee: None,
        }
    }
}

/// What a value is: argument, constant or instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueKind {
    /// The `index`-th formal parameter of the function.
    Argument {
        /// Zero-based parameter position.
        index: usize,
    },
    /// An integer constant (also used for `i1` with values 0/1).
    ConstInt(i64),
    /// A floating-point constant; bit pattern stored exactly.
    ConstFloat(f64),
    /// An instruction; the payload holds opcode and operands.
    Instr(Instr),
}

/// A value in the function arena.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueData {
    /// Result type (`Void` for non-producing instructions).
    pub ty: Type,
    /// The value payload.
    pub kind: ValueKind,
    /// Optional source-level name, kept for readable printing
    /// (`%j`, `%a_load`, ...).
    pub name: Option<String>,
}

/// A basic block: an ordered list of instruction value ids, the last of
/// which is a terminator once the block is finished.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockData {
    /// Instructions in execution order.
    pub instrs: Vec<ValueId>,
    /// Optional label, for readable printing.
    pub name: Option<String>,
}

/// A function: a flat value arena plus basic blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Return type.
    pub ret_ty: Type,
    /// Value ids of the formal parameters, in order.
    pub params: Vec<ValueId>,
    /// All values (arguments, constants, instructions).
    values: Vec<ValueData>,
    /// All basic blocks; `BlockId(0)` is the entry block.
    blocks: Vec<BlockData>,
}

impl Function {
    /// Creates an empty function with the given parameter types. The entry
    /// block (`BlockId(0)`) is created immediately.
    #[must_use]
    pub fn new(name: impl Into<String>, params: &[(String, Type)], ret_ty: Type) -> Function {
        let mut f = Function {
            name: name.into(),
            ret_ty,
            params: Vec::new(),
            values: Vec::new(),
            blocks: vec![BlockData {
                instrs: Vec::new(),
                name: Some("entry".to_owned()),
            }],
        };
        for (i, (pname, pty)) in params.iter().enumerate() {
            let id = f.push_value(ValueData {
                ty: pty.clone(),
                kind: ValueKind::Argument { index: i },
                name: Some(pname.clone()),
            });
            f.params.push(id);
        }
        f
    }

    fn push_value(&mut self, data: ValueData) -> ValueId {
        let id = ValueId(u32::try_from(self.values.len()).expect("function too large"));
        self.values.push(data);
        id
    }

    /// Number of values in the arena (the solver's raw search domain size).
    #[must_use]
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of basic blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over all value ids.
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        (0..self.values.len()).map(|i| ValueId(i as u32))
    }

    /// Iterates over all block ids in creation order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(|i| BlockId(i as u32))
    }

    /// Immutable access to a value.
    #[must_use]
    pub fn value(&self, id: ValueId) -> &ValueData {
        &self.values[id.0 as usize]
    }

    /// Mutable access to a value.
    pub fn value_mut(&mut self, id: ValueId) -> &mut ValueData {
        &mut self.values[id.0 as usize]
    }

    /// Immutable access to a block.
    #[must_use]
    pub fn block(&self, id: BlockId) -> &BlockData {
        &self.blocks[id.0 as usize]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        &mut self.blocks[id.0 as usize]
    }

    /// The instruction payload of `id`, or `None` if `id` is not an
    /// instruction.
    #[must_use]
    pub fn instr(&self, id: ValueId) -> Option<&Instr> {
        match &self.value(id).kind {
            ValueKind::Instr(i) => Some(i),
            _ => None,
        }
    }

    /// Mutable instruction payload.
    pub fn instr_mut(&mut self, id: ValueId) -> Option<&mut Instr> {
        match &mut self.value_mut(id).kind {
            ValueKind::Instr(i) => Some(i),
            _ => None,
        }
    }

    /// The opcode of `id` if it is an instruction.
    #[must_use]
    pub fn opcode(&self, id: ValueId) -> Option<Opcode> {
        self.instr(id).map(|i| i.opcode)
    }

    /// The memory object an address points into: follows `gep` chains
    /// from `addr` back to their base pointer (an argument, an `alloca`,
    /// or whatever non-`gep` value starts the chain).
    #[must_use]
    pub fn address_root(&self, mut addr: ValueId) -> ValueId {
        loop {
            match self.instr(addr) {
                Some(i) if i.opcode == Opcode::Gep => addr = i.operands[0],
                _ => return addr,
            }
        }
    }

    /// `true` if `id` is an instruction.
    #[must_use]
    pub fn is_instruction(&self, id: ValueId) -> bool {
        matches!(self.value(id).kind, ValueKind::Instr(_))
    }

    /// `true` if `id` is an integer or float constant.
    #[must_use]
    pub fn is_constant(&self, id: ValueId) -> bool {
        matches!(
            self.value(id).kind,
            ValueKind::ConstInt(_) | ValueKind::ConstFloat(_)
        )
    }

    /// `true` if `id` is a formal parameter.
    #[must_use]
    pub fn is_argument(&self, id: ValueId) -> bool {
        matches!(self.value(id).kind, ValueKind::Argument { .. })
    }

    /// The block containing instruction `id`, found by scanning. Prefer
    /// [`crate::analysis::Layout`] for repeated queries.
    #[must_use]
    pub fn find_block_of(&self, id: ValueId) -> Option<BlockId> {
        self.block_ids()
            .find(|&b| self.block(b).instrs.contains(&id))
    }

    /// Creates a new empty basic block and returns its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(u32::try_from(self.blocks.len()).expect("too many blocks"));
        self.blocks.push(BlockData {
            instrs: Vec::new(),
            name: Some(name.into()),
        });
        id
    }

    /// Interns an integer constant of the given type (deduplicated).
    pub fn const_int(&mut self, ty: Type, v: i64) -> ValueId {
        for (i, vd) in self.values.iter().enumerate() {
            if vd.ty == ty {
                if let ValueKind::ConstInt(c) = vd.kind {
                    if c == v {
                        return ValueId(i as u32);
                    }
                }
            }
        }
        self.push_value(ValueData {
            ty,
            kind: ValueKind::ConstInt(v),
            name: None,
        })
    }

    /// Interns a floating-point constant of the given type (deduplicated,
    /// by bit pattern).
    pub fn const_float(&mut self, ty: Type, v: f64) -> ValueId {
        for (i, vd) in self.values.iter().enumerate() {
            if vd.ty == ty {
                if let ValueKind::ConstFloat(c) = vd.kind {
                    if c.to_bits() == v.to_bits() {
                        return ValueId(i as u32);
                    }
                }
            }
        }
        self.push_value(ValueData {
            ty,
            kind: ValueKind::ConstFloat(v),
            name: None,
        })
    }

    /// Appends an instruction to `block` and returns its value id.
    pub fn append(&mut self, block: BlockId, ty: Type, instr: Instr) -> ValueId {
        let id = self.push_value(ValueData {
            ty,
            kind: ValueKind::Instr(instr),
            name: None,
        });
        self.blocks[block.0 as usize].instrs.push(id);
        id
    }

    /// Appends a simple (non-control, non-phi) instruction.
    pub fn append_simple(
        &mut self,
        block: BlockId,
        ty: Type,
        opcode: Opcode,
        operands: Vec<ValueId>,
    ) -> ValueId {
        self.append(block, ty, Instr::simple(opcode, operands))
    }

    /// Appends a `phi` with no incoming edges yet (see [`Function::add_phi_incoming`]).
    pub fn append_phi(&mut self, block: BlockId, ty: Type) -> ValueId {
        let instr = Instr {
            opcode: Opcode::Phi,
            operands: Vec::new(),
            incoming: Vec::new(),
            targets: Vec::new(),
            callee: None,
        };
        // Phis must precede non-phi instructions in their block.
        let id = self.push_value(ValueData {
            ty,
            kind: ValueKind::Instr(instr),
            name: None,
        });
        let blk = &mut self.blocks[block.0 as usize];
        let pos = blk
            .instrs
            .iter()
            .position(|&v| {
                !matches!(&self.values[v.0 as usize].kind,
                    ValueKind::Instr(i) if i.opcode == Opcode::Phi)
            })
            .unwrap_or(blk.instrs.len());
        blk.instrs.insert(pos, id);
        id
    }

    /// Adds an incoming (value, predecessor-block) pair to a phi.
    ///
    /// # Panics
    /// Panics if `phi` is not a phi instruction.
    pub fn add_phi_incoming(&mut self, phi: ValueId, value: ValueId, from: BlockId) {
        let instr = self
            .instr_mut(phi)
            .expect("add_phi_incoming: not an instruction");
        assert_eq!(instr.opcode, Opcode::Phi, "add_phi_incoming: not a phi");
        instr.operands.push(value);
        instr.incoming.push(from);
    }

    /// Appends an unconditional branch.
    pub fn append_br(&mut self, block: BlockId, target: BlockId) -> ValueId {
        self.append(
            block,
            Type::Void,
            Instr {
                opcode: Opcode::Br,
                operands: Vec::new(),
                incoming: Vec::new(),
                targets: vec![target],
                callee: None,
            },
        )
    }

    /// Appends a conditional branch (`on_true` taken when `cond` is 1).
    pub fn append_condbr(
        &mut self,
        block: BlockId,
        cond: ValueId,
        on_true: BlockId,
        on_false: BlockId,
    ) -> ValueId {
        self.append(
            block,
            Type::Void,
            Instr {
                opcode: Opcode::CondBr,
                operands: vec![cond],
                incoming: Vec::new(),
                targets: vec![on_true, on_false],
                callee: None,
            },
        )
    }

    /// Appends a return (with optional value).
    pub fn append_ret(&mut self, block: BlockId, value: Option<ValueId>) -> ValueId {
        self.append(
            block,
            Type::Void,
            Instr {
                opcode: Opcode::Ret,
                operands: value.into_iter().collect(),
                incoming: Vec::new(),
                targets: Vec::new(),
                callee: None,
            },
        )
    }

    /// Appends a call to `callee`.
    pub fn append_call(
        &mut self,
        block: BlockId,
        ty: Type,
        callee: impl Into<String>,
        args: Vec<ValueId>,
    ) -> ValueId {
        self.append(
            block,
            ty,
            Instr {
                opcode: Opcode::Call,
                operands: args,
                incoming: Vec::new(),
                targets: Vec::new(),
                callee: Some(callee.into()),
            },
        )
    }

    /// The terminator instruction of `block`, if the block is terminated.
    #[must_use]
    pub fn terminator(&self, block: BlockId) -> Option<ValueId> {
        let last = *self.block(block).instrs.last()?;
        let op = self.opcode(last)?;
        op.is_terminator().then_some(last)
    }

    /// Successor blocks of `block` (empty for `ret`-terminated blocks).
    #[must_use]
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        match self.terminator(block).and_then(|t| self.instr(t)) {
            Some(i) => i.targets.clone(),
            None => Vec::new(),
        }
    }

    /// Appends a formal parameter (used by kernel outlining when free
    /// scalars are promoted into the signature). Returns the new argument
    /// value.
    pub fn add_param(&mut self, name: &str, ty: Type) -> ValueId {
        let index = self.params.len();
        let id = self.push_value(ValueData {
            ty,
            kind: ValueKind::Argument { index },
            name: Some(name.to_owned()),
        });
        self.params.push(id);
        id
    }

    /// Rebuilds the block vector keeping only blocks for which `keep`
    /// holds, and rewrites all branch targets and phi incoming blocks with
    /// `remap` (which must map every *kept* old id to its new id).
    ///
    /// The caller is responsible for having removed control references to
    /// dropped blocks first (see `pass::remove_unreachable_blocks`).
    pub fn retain_blocks(
        &mut self,
        keep: impl Fn(BlockId) -> bool,
        remap: impl Fn(BlockId) -> BlockId,
    ) {
        let old_blocks = std::mem::take(&mut self.blocks);
        for (i, b) in old_blocks.into_iter().enumerate() {
            if keep(BlockId(i as u32)) {
                self.blocks.push(b);
            }
        }
        let kept: std::collections::HashSet<ValueId> = self
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter().copied())
            .collect();
        for idx in 0..self.values.len() {
            let id = ValueId(idx as u32);
            if !kept.contains(&id) {
                // Retire dropped instructions so ghost operands vanish.
                if let ValueKind::Instr(instr) = &mut self.values[idx].kind {
                    instr.operands.clear();
                    instr.incoming.clear();
                    instr.targets.clear();
                }
                continue;
            }
            if let ValueKind::Instr(instr) = &mut self.values[idx].kind {
                for t in &mut instr.targets {
                    *t = remap(*t);
                }
                for inb in &mut instr.incoming {
                    *inb = remap(*inb);
                }
            }
        }
    }

    /// Looks up a value by its source name (`%name`), or `None` when no
    /// value carries that name.
    ///
    /// This is the safe boundary for name-based lookups (the replacement
    /// phase and tests used to open-code this with a panic on a missing
    /// name): callers decide how a miss is handled.
    #[must_use]
    pub fn named(&self, name: &str) -> Option<ValueId> {
        self.value_ids()
            .find(|&v| self.value(v).name.as_deref() == Some(name))
    }

    /// A human-readable name for a value: its source name if any, else `v<n>`.
    #[must_use]
    pub fn display_name(&self, id: ValueId) -> String {
        match &self.value(id).name {
            Some(n) => format!("%{n}"),
            None => format!("%{}", id.0),
        }
    }

    /// Sets the display name of a value (builder convenience).
    pub fn set_name(&mut self, id: ValueId, name: impl Into<String>) {
        self.value_mut(id).name = Some(name.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Function {
        // int f(int a, int b) { return a*b + a; }
        let mut f = Function::new(
            "f",
            &[("a".into(), Type::I32), ("b".into(), Type::I32)],
            Type::I32,
        );
        let entry = BlockId(0);
        let (a, b) = (f.params[0], f.params[1]);
        let m = f.append_simple(entry, Type::I32, Opcode::Mul, vec![a, b]);
        let s = f.append_simple(entry, Type::I32, Opcode::Add, vec![m, a]);
        f.append_ret(entry, Some(s));
        f
    }

    #[test]
    fn named_lookup_is_an_option_not_a_panic() {
        let mut f = sample();
        assert_eq!(f.named("a"), Some(f.params[0]));
        assert_eq!(f.named("no_such_value"), None);
        let m = f.block(BlockId(0)).instrs[0];
        f.set_name(m, "prod");
        assert_eq!(f.named("prod"), Some(m));
    }

    #[test]
    fn arena_and_kinds() {
        let f = sample();
        assert_eq!(f.params.len(), 2);
        assert!(f.is_argument(f.params[0]));
        assert!(!f.is_instruction(f.params[0]));
        let entry = BlockId(0);
        assert_eq!(f.block(entry).instrs.len(), 3);
        let mul = f.block(entry).instrs[0];
        assert_eq!(f.opcode(mul), Some(Opcode::Mul));
        assert!(f.is_instruction(mul));
    }

    #[test]
    fn constants_are_interned() {
        let mut f = sample();
        let c1 = f.const_int(Type::I64, 42);
        let c2 = f.const_int(Type::I64, 42);
        let c3 = f.const_int(Type::I32, 42);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        let f1 = f.const_float(Type::F64, 0.0);
        let f2 = f.const_float(Type::F64, -0.0);
        assert_ne!(f1, f2, "0.0 and -0.0 are distinct bit patterns");
    }

    #[test]
    fn terminator_and_successors() {
        let mut f = Function::new("g", &[], Type::Void);
        let entry = BlockId(0);
        let next = f.add_block("next");
        f.append_br(entry, next);
        f.append_ret(next, None);
        assert_eq!(f.successors(entry), vec![next]);
        assert!(f.successors(next).is_empty());
        assert!(f.terminator(entry).is_some());
    }

    #[test]
    fn phis_stay_grouped_at_block_head() {
        let mut f = Function::new("h", &[], Type::Void);
        let entry = BlockId(0);
        let header = f.add_block("header");
        f.append_br(entry, header);
        let c0 = f.const_int(Type::I64, 0);
        let one = f.const_int(Type::I64, 1);
        let phi1 = f.append_phi(header, Type::I64);
        let add = f.append_simple(header, Type::I64, Opcode::Add, vec![phi1, one]);
        let phi2 = f.append_phi(header, Type::I64);
        f.add_phi_incoming(phi1, c0, entry);
        f.add_phi_incoming(phi2, add, entry);
        let instrs = &f.block(header).instrs;
        assert_eq!(instrs[0], phi1);
        assert_eq!(
            instrs[1], phi2,
            "late phi inserted before non-phi instructions"
        );
        assert_eq!(instrs[2], add);
    }

    #[test]
    fn icmp_swapped_is_involutive_on_strict() {
        assert_eq!(ICmpPred::Slt.swapped(), ICmpPred::Sgt);
        assert_eq!(ICmpPred::Slt.swapped().swapped(), ICmpPred::Slt);
        assert_eq!(ICmpPred::Eq.swapped(), ICmpPred::Eq);
    }

    #[test]
    fn opcode_classes() {
        assert!(Opcode::Br.is_branch());
        assert!(Opcode::CondBr.is_terminator());
        assert!(!Opcode::Ret.is_branch());
        assert!(Opcode::FMul.is_pure_arith());
        assert!(!Opcode::Load.is_pure_arith());
        assert!(Opcode::Load.touches_memory());
        assert!(!Opcode::Add.touches_memory());
    }
}
