//! The tree-walking SSA evaluator: the reference oracle that tests hold
//! the bytecode [`crate::Vm`] to.

use crate::memory::Memory;
use crate::profile::Profile;
use ssair::{BlockId, FCmpPred, Function, ICmpPred, Module, Opcode, Type, ValueId, ValueKind};
use std::collections::HashMap;
use std::sync::Arc;

/// A runtime value. Integers of all widths are kept sign-extended in `I`;
/// both float widths are kept in `F` (narrowing happens at stores and
/// truncation casts); pointers are memory addresses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer (i1/i32/i64).
    I(i64),
    /// Floating point (f32 values are stored rounded).
    F(f64),
    /// Pointer (address in [`Memory`]).
    P(u64),
}

impl Value {
    /// The integer payload, or an error describing the type confusion.
    ///
    /// The interpreter and the host-function executors use this (not the
    /// panicking accessors) so a type-confused call — e.g. a corrupted
    /// replacement passing a float where an API expects a length — fails
    /// the run with an [`ExecError`] instead of aborting the process.
    pub fn try_i(self) -> std::result::Result<i64, String> {
        match self {
            Value::I(v) => Ok(v),
            other => Err(format!("expected integer, got {other:?}")),
        }
    }

    /// The float payload, or an error describing the type confusion.
    pub fn try_f(self) -> std::result::Result<f64, String> {
        match self {
            Value::F(v) => Ok(v),
            other => Err(format!("expected float, got {other:?}")),
        }
    }

    /// The pointer payload, or an error describing the type confusion.
    pub fn try_p(self) -> std::result::Result<u64, String> {
        match self {
            Value::P(v) => Ok(v),
            other => Err(format!("expected pointer, got {other:?}")),
        }
    }

    /// The integer payload.
    ///
    /// # Panics
    /// Panics if the value is not an integer. Use [`Value::try_i`] in any
    /// path that must survive malformed programs.
    #[must_use]
    pub fn as_i(self) -> i64 {
        self.try_i().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The float payload.
    ///
    /// # Panics
    /// Panics if the value is not a float. Use [`Value::try_f`] in any
    /// path that must survive malformed programs.
    #[must_use]
    pub fn as_f(self) -> f64 {
        self.try_f().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The pointer payload.
    ///
    /// # Panics
    /// Panics if the value is not a pointer. Use [`Value::try_p`] in any
    /// path that must survive malformed programs.
    #[must_use]
    pub fn as_p(self) -> u64 {
        self.try_p().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// An execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

type Result<T> = std::result::Result<T, ExecError>;

/// The deepest chain of nested module-function calls either executor
/// runs. Each IR call recurses natively, so without a limit a
/// self-recursive module would overflow the native stack — aborting the
/// process — before `max_steps` could stop it. The call that would go
/// one level deeper fails with [`call_depth_error`] instead. One level
/// costs about 8.3 KiB of native stack in an x86-64 debug build (under
/// 1 KiB in release), so the limit uses about a quarter of a 2 MiB
/// thread stack.
pub const MAX_CALL_DEPTH: usize = 64;

/// The error of a call to `@callee` past [`MAX_CALL_DEPTH`] (shared so
/// both executors fail with the identical message).
pub(crate) fn call_depth_error(callee: &str) -> ExecError {
    ExecError {
        message: format!("call depth limit of {MAX_CALL_DEPTH} exceeded calling @{callee}"),
    }
}

/// A host function: receives the machine's memory and argument values.
/// Returns the call's result value and the simulated "device work"
/// descriptor is the host function's own business (the `hetero` crate logs
/// kernel launches through captured state).
///
/// `Send + Sync` (behind `Arc`) so a registry can be shared with the
/// parallel kernel backend; the `'m` lifetime lets executors capture the
/// module they interpret chunks of.
pub type HostFn<'m> =
    Arc<dyn Fn(&mut Memory, &[Value]) -> std::result::Result<Value, String> + Send + Sync + 'm>;

/// Anything that can install host functions — the tree-walking
/// [`Machine`] and the bytecode [`crate::Vm`]. The `hetero` crate
/// registers its simulated heterogeneous APIs through this trait so the
/// same registration code serves either executor.
pub trait HostRegistry<'m> {
    /// Registers a host function under `name`; calls to it dispatch to
    /// the host before intrinsics and module functions are considered.
    fn register_host(&mut self, name: &str, f: HostFn<'m>);
}

/// The interpreter.
pub struct Machine<'m> {
    module: &'m Module,
    /// The linear memory of the run.
    pub mem: Memory,
    host: HashMap<String, HostFn<'m>>,
    /// Per-instruction execution counts.
    pub profile: Profile,
    /// Abort knob for runaway programs.
    pub max_steps: u64,
    steps: u64,
    /// Nested module-function calls in progress.
    depth: usize,
}

impl<'m> Machine<'m> {
    /// Creates a machine for `module` with fresh memory.
    #[must_use]
    pub fn new(module: &'m Module) -> Machine<'m> {
        Machine {
            module,
            mem: Memory::new(),
            host: HashMap::new(),
            profile: Profile::new(),
            max_steps: 2_000_000_000,
            steps: 0,
            depth: 0,
        }
    }

    /// Registers a host function; calls to `name` dispatch to it before
    /// intrinsics and module functions are considered.
    pub fn register_host(&mut self, name: impl Into<String>, f: HostFn<'m>) {
        self.host.insert(name.into(), f);
    }

    /// Steps executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Runs `func` with `args`; returns its return value (`I(0)` for void).
    pub fn run(&mut self, func: &str, args: &[Value]) -> Result<Value> {
        let f = self.module.function(func).ok_or_else(|| ExecError {
            message: format!("no function named {func:?}"),
        })?;
        self.exec_function(f, args)
    }

    fn err(msg: impl Into<String>) -> ExecError {
        ExecError {
            message: msg.into(),
        }
    }

    fn const_value(f: &Function, v: ValueId) -> Option<Value> {
        match &f.value(v).kind {
            ValueKind::ConstInt(c) => Some(Value::I(*c)),
            ValueKind::ConstFloat(c) => Some(Value::F(*c)),
            _ => None,
        }
    }

    fn exec_function(&mut self, f: &Function, args: &[Value]) -> Result<Value> {
        if args.len() != f.params.len() {
            return Err(Self::err(format!(
                "@{} expects {} arguments, got {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        let mut regs: Vec<Option<Value>> = vec![None; f.num_values()];
        for (&p, &a) in f.params.iter().zip(args) {
            regs[p.0 as usize] = Some(a);
        }
        let mut block = BlockId(0);
        let mut prev: Option<BlockId> = None;
        loop {
            // Phis evaluate simultaneously on block entry. Each phi is a
            // real execution step: it counts against the runaway budget
            // exactly like a body instruction (and exactly like the
            // bytecode VM's parallel-move snippets).
            let mut phi_updates: Vec<(ValueId, Value)> = Vec::new();
            for &v in &f.block(block).instrs {
                let Some(i) = f.instr(v) else { continue };
                if i.opcode != Opcode::Phi {
                    break;
                }
                self.steps += 1;
                if self.steps > self.max_steps {
                    return Err(Self::err("step limit exceeded (infinite loop?)"));
                }
                let from = prev
                    .ok_or_else(|| Self::err(format!("phi {} in entry block of @{}", v, f.name)))?;
                let k = i
                    .incoming
                    .iter()
                    .position(|&b| b == from)
                    .ok_or_else(|| Self::err(format!("phi {v}: no incoming from {from}")))?;
                let val = self.operand(f, &regs, i.operands[k])?;
                phi_updates.push((v, val));
                self.profile.bump(f, v);
            }
            for (v, val) in phi_updates {
                regs[v.0 as usize] = Some(val);
            }
            // Straight-line body. `f` borrows from the `'m` module, not
            // from `self`, so the instruction list is iterated in place —
            // no per-block-iteration clone.
            let mut next: Option<BlockId> = None;
            for &v in &f.block(block).instrs {
                let Some(i) = f.instr(v) else { continue };
                if i.opcode == Opcode::Phi {
                    continue;
                }
                self.steps += 1;
                if self.steps > self.max_steps {
                    return Err(Self::err("step limit exceeded (infinite loop?)"));
                }
                self.profile.bump(f, v);
                match i.opcode {
                    Opcode::Br => {
                        next = Some(i.targets[0]);
                    }
                    Opcode::CondBr => {
                        let c = self
                            .operand(f, &regs, i.operands[0])?
                            .try_i()
                            .map_err(Self::err)?;
                        next = Some(if c != 0 { i.targets[0] } else { i.targets[1] });
                    }
                    Opcode::Ret => {
                        return match i.operands.first() {
                            Some(&r) => self.operand(f, &regs, r),
                            None => Ok(Value::I(0)),
                        };
                    }
                    _ => {
                        let val = self.exec_instr(f, &mut regs, v)?;
                        regs[v.0 as usize] = Some(val);
                    }
                }
            }
            match next {
                Some(n) => {
                    prev = Some(block);
                    block = n;
                }
                None => {
                    return Err(Self::err(format!(
                        "block {block} fell through in @{}",
                        f.name
                    )))
                }
            }
        }
    }

    fn operand(&self, f: &Function, regs: &[Option<Value>], v: ValueId) -> Result<Value> {
        if let Some(c) = Self::const_value(f, v) {
            return Ok(c);
        }
        regs[v.0 as usize]
            .ok_or_else(|| Self::err(format!("use of undefined value {} in @{}", v, f.name)))
    }

    fn exec_instr(
        &mut self,
        f: &Function,
        regs: &mut [Option<Value>],
        v: ValueId,
    ) -> Result<Value> {
        let i = f.instr(v).expect("instruction");
        let ty = &f.value(v).ty;
        let op = |k: usize| self.operand(f, regs, i.operands[k]);
        // Typed operand accessors: type confusion (a pointer where an
        // integer is expected, …) is an execution error, never a panic —
        // a broken replacement must fail its validation run, not kill the
        // whole suite process.
        let op_i = |k: usize| -> Result<i64> { op(k)?.try_i().map_err(Self::err) };
        let op_f = |k: usize| -> Result<f64> { op(k)?.try_f().map_err(Self::err) };
        let op_p = |k: usize| -> Result<u64> { op(k)?.try_p().map_err(Self::err) };
        let wrap_int = |ty: &Type, x: i64| -> i64 {
            match ty {
                Type::I1 => x & 1,
                Type::I32 => i64::from(x as i32),
                _ => x,
            }
        };
        let wrap_float = |ty: &Type, x: f64| -> f64 {
            if *ty == Type::F32 {
                x as f32 as f64
            } else {
                x
            }
        };
        Ok(match i.opcode {
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
                let a = op_i(0)?;
                let b = op_i(1)?;
                let r = match i.opcode {
                    Opcode::Add => a.wrapping_add(b),
                    Opcode::Sub => a.wrapping_sub(b),
                    Opcode::Mul => a.wrapping_mul(b),
                    Opcode::SDiv => {
                        if b == 0 {
                            return Err(Self::err("integer division by zero"));
                        }
                        a.wrapping_div(b)
                    }
                    Opcode::SRem => {
                        if b == 0 {
                            return Err(Self::err("integer remainder by zero"));
                        }
                        a.wrapping_rem(b)
                    }
                    Opcode::And => a & b,
                    Opcode::Or => a | b,
                    Opcode::Xor => a ^ b,
                    Opcode::Shl => a.wrapping_shl(b as u32),
                    Opcode::AShr => a.wrapping_shr(b as u32),
                    _ => unreachable!(),
                };
                Value::I(wrap_int(ty, r))
            }
            Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => {
                let a = op_f(0)?;
                let b = op_f(1)?;
                let r = match i.opcode {
                    Opcode::FAdd => a + b,
                    Opcode::FSub => a - b,
                    Opcode::FMul => a * b,
                    Opcode::FDiv => a / b,
                    _ => unreachable!(),
                };
                Value::F(wrap_float(ty, r))
            }
            Opcode::ICmp(pred) => {
                let a = op(0)?;
                let b = op(1)?;
                let (a, b) = match (a, b) {
                    (Value::P(x), Value::P(y)) => (x as i64, y as i64),
                    (x, y) => (x.try_i().map_err(Self::err)?, y.try_i().map_err(Self::err)?),
                };
                let r = match pred {
                    ICmpPred::Eq => a == b,
                    ICmpPred::Ne => a != b,
                    ICmpPred::Slt => a < b,
                    ICmpPred::Sle => a <= b,
                    ICmpPred::Sgt => a > b,
                    ICmpPred::Sge => a >= b,
                };
                Value::I(i64::from(r))
            }
            Opcode::FCmp(pred) => {
                let a = op_f(0)?;
                let b = op_f(1)?;
                let r = match pred {
                    FCmpPred::Oeq => a == b,
                    FCmpPred::One => a != b,
                    FCmpPred::Olt => a < b,
                    FCmpPred::Ole => a <= b,
                    FCmpPred::Ogt => a > b,
                    FCmpPred::Oge => a >= b,
                };
                Value::I(i64::from(r))
            }
            Opcode::Select => {
                if op_i(0)? != 0 {
                    op(1)?
                } else {
                    op(2)?
                }
            }
            Opcode::Gep => {
                let base = op_p(0)?;
                let idx = op_i(1)?;
                let elem = ty.pointee().expect("gep yields pointer").size_bytes() as i64;
                Value::P((base as i64).wrapping_add(idx.wrapping_mul(elem)) as u64)
            }
            Opcode::Load => {
                let addr = op_p(0)?;
                match ty {
                    Type::I1 => Value::I(self.mem.load_i8(addr).map_err(Self::err)?),
                    Type::I32 => Value::I(self.mem.load_i32(addr).map_err(Self::err)?),
                    Type::I64 => Value::I(self.mem.load_i64(addr).map_err(Self::err)?),
                    Type::F32 => Value::F(self.mem.load_f32(addr).map_err(Self::err)?),
                    Type::F64 => Value::F(self.mem.load_f64(addr).map_err(Self::err)?),
                    Type::Ptr(_) => Value::P(self.mem.load_i64(addr).map_err(Self::err)? as u64),
                    Type::Void => return Err(Self::err("load of void")),
                }
            }
            Opcode::Store => {
                let val = op(0)?;
                let addr = op_p(1)?;
                let res = match &f.value(i.operands[0]).ty {
                    Type::I1 => val.try_i().and_then(|x| self.mem.store_i8(addr, x)),
                    Type::I32 => val.try_i().and_then(|x| self.mem.store_i32(addr, x)),
                    Type::I64 => val.try_i().and_then(|x| self.mem.store_i64(addr, x)),
                    Type::F32 => val.try_f().and_then(|x| self.mem.store_f32(addr, x)),
                    Type::F64 => val.try_f().and_then(|x| self.mem.store_f64(addr, x)),
                    Type::Ptr(_) => val.try_p().and_then(|x| self.mem.store_i64(addr, x as i64)),
                    Type::Void => return Err(Self::err("store of void")),
                };
                res.map_err(Self::err)?;
                Value::I(0)
            }
            Opcode::Alloca => {
                let n = op_i(0)?;
                if n < 0 {
                    return Err(Self::err("negative alloca size"));
                }
                let elem = ty.pointee().expect("alloca yields pointer");
                Value::P(self.mem.alloc(elem, n as usize))
            }
            Opcode::SExt | Opcode::ZExt => Value::I(wrap_int(ty, op_i(0)?)),
            Opcode::Trunc => Value::I(wrap_int(ty, op_i(0)?)),
            Opcode::SIToFP => Value::F(wrap_float(ty, op_i(0)? as f64)),
            Opcode::FPToSI => Value::I(wrap_int(ty, op_f(0)? as i64)),
            Opcode::FPExt => Value::F(op_f(0)?),
            Opcode::FPTrunc => Value::F(op_f(0)? as f32 as f64),
            Opcode::Call => {
                let callee = i
                    .callee
                    .as_deref()
                    .ok_or_else(|| Self::err("call without callee"))?;
                let mut args = Vec::with_capacity(i.operands.len());
                for k in 0..i.operands.len() {
                    args.push(op(k)?);
                }
                self.dispatch_call(callee, &args)?
            }
            Opcode::Phi | Opcode::Br | Opcode::CondBr | Opcode::Ret => {
                unreachable!("handled by the block loop")
            }
        })
    }

    fn dispatch_call(&mut self, callee: &str, args: &[Value]) -> Result<Value> {
        if let Some(host) = self.host.get(callee).cloned() {
            return host(&mut self.mem, args).map_err(Self::err);
        }
        if let Some(v) = self.math_intrinsic(callee, args) {
            return v;
        }
        let module: &'m Module = self.module;
        let Some(f) = module.function(callee) else {
            return Err(Self::err(format!("call to unknown function {callee:?}")));
        };
        if self.depth == MAX_CALL_DEPTH {
            return Err(call_depth_error(callee));
        }
        self.depth += 1;
        let r = self.exec_function(f, args);
        self.depth -= 1;
        r
    }

    fn math_intrinsic(&mut self, name: &str, args: &[Value]) -> Option<Result<Value>> {
        let unary = |g: fn(f64) -> f64, args: &[Value]| -> Result<Value> {
            match args {
                [a] => Ok(Value::F(g(a.try_f().map_err(Self::err)?))),
                _ => Err(Self::err("unary math intrinsic expects 1 argument")),
            }
        };
        let binary = |g: fn(f64, f64) -> f64, args: &[Value]| -> Result<Value> {
            match args {
                [a, b] => Ok(Value::F(g(
                    a.try_f().map_err(Self::err)?,
                    b.try_f().map_err(Self::err)?,
                ))),
                _ => Err(Self::err("binary math intrinsic expects 2 arguments")),
            }
        };
        Some(match name {
            "sqrt" => unary(f64::sqrt, args),
            "fabs" => unary(f64::abs, args),
            "exp" => unary(f64::exp, args),
            "log" => unary(f64::ln, args),
            "sin" => unary(f64::sin, args),
            "cos" => unary(f64::cos, args),
            "pow" => binary(f64::powf, args),
            "fmin" => binary(f64::min, args),
            "fmax" => binary(f64::max, args),
            _ => return None,
        })
    }
}

impl<'m> HostRegistry<'m> for Machine<'m> {
    fn register_host(&mut self, name: &str, f: HostFn<'m>) {
        Machine::register_host(self, name, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minicc_like::compile_text;

    /// Tiny helper module: tests compile IR text directly (the real minicc
    /// dependency would be circular in dev-dependencies).
    mod minicc_like {
        pub fn compile_text(text: &str) -> ssair::Module {
            ssair::parser::parse_module(text).expect("test IR parses")
        }
    }

    #[test]
    fn runs_arithmetic() {
        let m = compile_text(
            "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %m = mul i32 %a, %b\n  %s = add i32 %m, %a\n  ret i32 %s\n}\n",
        );
        let mut vm = Machine::new(&m);
        let r = vm.run("f", &[Value::I(3), Value::I(4)]).unwrap();
        assert_eq!(r, Value::I(15));
    }

    #[test]
    fn runs_loops_with_phis() {
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
        let mut vm = Machine::new(&m);
        let r = vm.run("sum", &[Value::I(10)]).unwrap();
        assert_eq!(r, Value::I(45));
        // Profile: the latch add ran 10 times.
        let f = m.function("sum").unwrap();
        let latch_add = f.block(BlockId(2)).instrs[0];
        assert_eq!(vm.profile.count("sum", latch_add), 10);
    }

    #[test]
    fn memory_round_trip_through_ir() {
        let m = compile_text(
            r#"
define double @swap_add(double* %p) {
entry:
  %a0 = getelementptr double, double* %p, i64 0
  %a1 = getelementptr double, double* %p, i64 1
  %x = load double, double* %a0
  %y = load double, double* %a1
  store double %y, double* %a0
  store double %x, double* %a1
  %s = fadd double %x, %y
  ret double %s
}
"#,
        );
        let mut vm = Machine::new(&m);
        let p = vm.mem.alloc_f64_slice(&[1.5, 2.5]);
        let r = vm.run("swap_add", &[Value::P(p)]).unwrap();
        assert_eq!(r, Value::F(4.0));
        assert_eq!(vm.mem.read_f64_slice(p, 2), vec![2.5, 1.5]);
    }

    #[test]
    fn i32_truncation_semantics() {
        let m = compile_text(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, 1\n  ret i32 %x\n}\n",
        );
        let mut vm = Machine::new(&m);
        let r = vm.run("f", &[Value::I(i64::from(i32::MAX))]).unwrap();
        assert_eq!(r, Value::I(i64::from(i32::MIN)), "i32 wraps");
    }

    #[test]
    fn f32_rounding_semantics() {
        let m = compile_text(
            "define float @f(float %a) {\nentry:\n  %x = fadd float %a, 0.1\n  ret float %x\n}\n",
        );
        let mut vm = Machine::new(&m);
        let r = vm.run("f", &[Value::F(1.0)]).unwrap();
        assert_eq!(r, Value::F(f64::from(1.0f32 + 0.1f32)));
    }

    #[test]
    fn host_functions_take_priority() {
        let m = compile_text(
            "define double @f(double %x) {\nentry:\n  %r = call double @sqrt(double %x)\n  ret double %r\n}\n",
        );
        let mut vm = Machine::new(&m);
        vm.register_host(
            "sqrt",
            Arc::new(|_mem, args| Ok(Value::F(args[0].as_f() + 100.0))),
        );
        let r = vm.run("f", &[Value::F(4.0)]).unwrap();
        assert_eq!(r, Value::F(104.0), "host overrides the intrinsic");
    }

    #[test]
    fn intrinsics_work() {
        let m = compile_text(
            "define double @f(double %x) {\nentry:\n  %r = call double @sqrt(double %x)\n  %s = call double @fmax(double %r, double 3.0)\n  ret double %s\n}\n",
        );
        let mut vm = Machine::new(&m);
        assert_eq!(vm.run("f", &[Value::F(4.0)]).unwrap(), Value::F(3.0));
        assert_eq!(vm.run("f", &[Value::F(25.0)]).unwrap(), Value::F(5.0));
    }

    #[test]
    fn module_function_calls() {
        let m = compile_text(
            r#"
define i64 @sq(i64 %x) {
entry:
  %r = mul i64 %x, %x
  ret i64 %r
}

define i64 @f(i64 %x) {
entry:
  %a = call i64 @sq(i64 %x)
  %b = add i64 %a, 1
  ret i64 %b
}
"#,
        );
        let mut vm = Machine::new(&m);
        assert_eq!(vm.run("f", &[Value::I(5)]).unwrap(), Value::I(26));
    }

    #[test]
    fn step_limit_catches_infinite_loops() {
        let m =
            compile_text("define void @spin() {\nentry:\n  br label %l\nl:\n  br label %l\n}\n");
        let mut vm = Machine::new(&m);
        vm.max_steps = 1000;
        let err = vm.run("spin", &[]).unwrap_err();
        assert!(err.message.contains("step limit"));
    }

    #[test]
    fn type_confusion_is_an_error_not_a_panic() {
        // A type-confused call (integer into an f64 intrinsic) must fail
        // the run with an ExecError so a bad replacement fails validation
        // instead of aborting the whole suite process.
        let m = compile_text(
            "define double @f(i64 %x) {\nentry:\n  %r = call double @sqrt(i64 %x)\n  ret double %r\n}\n",
        );
        let mut vm = Machine::new(&m);
        let err = vm.run("f", &[Value::I(4)]).unwrap_err();
        assert!(err.message.contains("expected float"), "{err}");
        // Same for a host function fed through the checked accessors.
        let m2 = compile_text(
            "define double @g(double %x) {\nentry:\n  %r = call double @h(double %x)\n  ret double %r\n}\n",
        );
        let mut vm2 = Machine::new(&m2);
        vm2.register_host(
            "h",
            Arc::new(|_mem, args| Ok(Value::F(args[0].try_p()? as f64))),
        );
        let err = vm2.run("g", &[Value::F(1.0)]).unwrap_err();
        assert!(err.message.contains("expected pointer"), "{err}");
    }

    #[test]
    fn checked_value_accessors_report_the_mismatch() {
        assert_eq!(Value::I(3).try_i(), Ok(3));
        assert!(Value::F(1.0).try_i().is_err());
        assert!(Value::I(1).try_f().is_err());
        assert!(Value::F(1.0).try_p().is_err());
        assert_eq!(Value::P(8).try_p(), Ok(8));
    }

    #[test]
    fn wrong_intrinsic_arity_is_an_error() {
        let m = compile_text(
            "define double @f(double %x) {\nentry:\n  %r = call double @sqrt(double %x, double %x)\n  ret double %r\n}\n",
        );
        let mut vm = Machine::new(&m);
        assert!(vm.run("f", &[Value::F(4.0)]).is_err());
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let m = compile_text(
            "define i32 @f(i32 %a) {\nentry:\n  %x = sdiv i32 %a, 0\n  ret i32 %x\n}\n",
        );
        let mut vm = Machine::new(&m);
        assert!(vm.run("f", &[Value::I(1)]).is_err());
    }

    #[test]
    fn alloca_allocates_fresh_memory() {
        let m = compile_text(
            r#"
define double @f() {
entry:
  %buf = alloca double, i64 4
  %p = getelementptr double, double* %buf, i64 2
  store double 7.5, double* %p
  %v = load double, double* %p
  ret double %v
}
"#,
        );
        let mut vm = Machine::new(&m);
        assert_eq!(vm.run("f", &[]).unwrap(), Value::F(7.5));
    }
}
