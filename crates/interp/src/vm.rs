//! The register bytecode VM — the one execution tier.
//!
//! Executes a [`CompiledModule`] with semantics bit-for-bit identical to
//! the tree-walking [`crate::Machine`]: the same results, the same
//! `ExecError` messages, the same `max_steps` accounting (one step per
//! executed instruction, phi moves included), the same
//! [`crate::MAX_CALL_DEPTH`] limit on nested calls, and — when profiling
//! is enabled — the same per-`ValueId` execution counts. A call to a
//! function that failed IR verification returns that verifier error at
//! the call site.
//!
//! `Machine` is the reference oracle, used only by tests: the
//! differential suite (`tests/vm_differential.rs` and the unit tests
//! below) pins the two against each other.

use crate::bytecode::{
    CallSite, CallTarget, CompiledFunction, CompiledModule, FloatOp, IntOp, MemKind, Op, NO_VID,
};
use crate::machine::{call_depth_error, ExecError, HostFn, HostRegistry, Value, MAX_CALL_DEPTH};
use crate::memory::Memory;
use crate::profile::Profile;
use ssair::{FCmpPred, ICmpPred};

type Result<T> = std::result::Result<T, ExecError>;

fn err(msg: impl Into<String>) -> ExecError {
    ExecError {
        message: msg.into(),
    }
}

/// The bytecode executor. Create once per run from a shared
/// [`CompiledModule`]; the compile cost is paid once per module, not once
/// per seed or kernel launch.
pub struct Vm<'c> {
    compiled: &'c CompiledModule<'c>,
    /// The linear memory of the run.
    pub mem: Memory,
    /// Hosts by interned call-site symbol.
    host_slots: Vec<Option<HostFn<'c>>>,
    /// Abort knob for runaway programs.
    pub max_steps: u64,
    steps: u64,
    /// Nested module-function calls in progress.
    depth: usize,
    profiling: bool,
    /// Dense per-function execution counts, indexed by module function
    /// index then `ValueId` (only allocated when profiling).
    counts: Vec<Vec<u64>>,
}

impl<'c> Vm<'c> {
    /// Creates a VM over compiled code with fresh memory. Profiling is
    /// off by default (enable with [`Vm::set_profiling`]).
    #[must_use]
    pub fn new(compiled: &'c CompiledModule<'c>) -> Vm<'c> {
        Vm {
            compiled,
            mem: Memory::new(),
            host_slots: vec![None; compiled.symbols.len()],
            max_steps: 2_000_000_000,
            steps: 0,
            depth: 0,
            profiling: false,
            counts: Vec::new(),
        }
    }

    /// Registers a host function; calls to `name` dispatch to it before
    /// intrinsics and module functions are considered (the walker's
    /// order). A name no call site in the module uses is never called.
    pub fn register_host(&mut self, name: &str, f: HostFn<'c>) {
        if let Some(&sym) = self.compiled.sym_index.get(name) {
            self.host_slots[sym as usize] = Some(f);
        }
    }

    /// Steps executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Turns per-instruction execution counting on or off. Leave it off
    /// on hot paths (validation seeds); turn it on for coverage/offload
    /// analysis.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// The collected execution counts as a [`Profile`], mapped back to
    /// `ValueId`s per function name (empty unless profiling was on).
    #[must_use]
    pub fn profile(&self) -> Profile {
        let mut p = Profile::new();
        for (i, counts) in self.counts.iter().enumerate() {
            p.add_counts(&self.compiled.module.functions[i].name, counts);
        }
        p
    }

    /// Runs `func` with `args`; returns its return value (`I(0)` for
    /// void).
    pub fn run(&mut self, func: &str, args: &[Value]) -> Result<Value> {
        let Some(&idx) = self.compiled.func_index.get(func) else {
            return Err(err(format!("no function named {func:?}")));
        };
        self.call_function(idx as usize, args)
    }

    fn call_function(&mut self, idx: usize, args: &[Value]) -> Result<Value> {
        match &self.compiled.funcs[idx] {
            Ok(cf) => self.exec_compiled(idx, cf, args),
            Err(message) => Err(err(message.clone())),
        }
    }

    #[inline]
    fn bump(&mut self, fidx: usize, vid: u32) {
        if self.counts.len() <= fidx {
            self.counts.resize(self.compiled.funcs.len(), Vec::new());
        }
        let c = &mut self.counts[fidx];
        if c.len() <= vid as usize {
            c.resize(
                self.compiled.module.functions[fidx]
                    .num_values()
                    .max(vid as usize + 1),
                0,
            );
        }
        c[vid as usize] += 1;
    }

    fn exec_compiled(
        &mut self,
        fidx: usize,
        cf: &'c CompiledFunction,
        args: &[Value],
    ) -> Result<Value> {
        if args.len() != cf.arity {
            return Err(err(format!(
                "@{} expects {} arguments, got {}",
                cf.name,
                cf.arity,
                args.len()
            )));
        }
        let mut regs = cf.init_regs.clone();
        for (&p, &a) in cf.params.iter().zip(args) {
            regs[p as usize] = a;
        }
        // Parallel-move scratch, reused across phi snippets (no per-edge
        // allocation).
        let mut scratch: Vec<Value> = Vec::new();
        let mut pc = 0usize;
        loop {
            if let Op::PhiMoves { moves, target } = &cf.code[pc] {
                scratch.clear();
                for mv in moves.iter() {
                    self.steps += 1;
                    if self.steps > self.max_steps {
                        return Err(err("step limit exceeded (infinite loop?)"));
                    }
                    scratch.push(regs[mv.src as usize]);
                    if self.profiling {
                        self.bump(fidx, mv.dst);
                    }
                }
                for (mv, &val) in moves.iter().zip(&scratch) {
                    regs[mv.dst as usize] = val;
                }
                pc = *target as usize;
                continue;
            }
            self.steps += 1;
            if self.steps > self.max_steps {
                return Err(err("step limit exceeded (infinite loop?)"));
            }
            if self.profiling {
                let vid = cf.vids[pc];
                if vid != NO_VID {
                    self.bump(fidx, vid);
                }
            }
            match &cf.code[pc] {
                Op::IntBin {
                    op,
                    wrap,
                    dst,
                    a,
                    b,
                } => {
                    let a = regs[*a as usize].try_i().map_err(err)?;
                    let b = regs[*b as usize].try_i().map_err(err)?;
                    let r = match op {
                        IntOp::Add => a.wrapping_add(b),
                        IntOp::Sub => a.wrapping_sub(b),
                        IntOp::Mul => a.wrapping_mul(b),
                        IntOp::Div => {
                            if b == 0 {
                                return Err(err("integer division by zero"));
                            }
                            a.wrapping_div(b)
                        }
                        IntOp::Rem => {
                            if b == 0 {
                                return Err(err("integer remainder by zero"));
                            }
                            a.wrapping_rem(b)
                        }
                        IntOp::And => a & b,
                        IntOp::Or => a | b,
                        IntOp::Xor => a ^ b,
                        IntOp::Shl => a.wrapping_shl(b as u32),
                        IntOp::AShr => a.wrapping_shr(b as u32),
                    };
                    regs[*dst as usize] = Value::I(wrap.apply(r));
                    pc += 1;
                }
                Op::FloatBin {
                    op,
                    round,
                    dst,
                    a,
                    b,
                } => {
                    let a = regs[*a as usize].try_f().map_err(err)?;
                    let b = regs[*b as usize].try_f().map_err(err)?;
                    let r = match op {
                        FloatOp::Add => a + b,
                        FloatOp::Sub => a - b,
                        FloatOp::Mul => a * b,
                        FloatOp::Div => a / b,
                    };
                    regs[*dst as usize] = Value::F(if *round { r as f32 as f64 } else { r });
                    pc += 1;
                }
                Op::ICmp { pred, dst, a, b } => {
                    let (a, b) = match (regs[*a as usize], regs[*b as usize]) {
                        (Value::P(x), Value::P(y)) => (x as i64, y as i64),
                        (x, y) => (x.try_i().map_err(err)?, y.try_i().map_err(err)?),
                    };
                    let r = match pred {
                        ICmpPred::Eq => a == b,
                        ICmpPred::Ne => a != b,
                        ICmpPred::Slt => a < b,
                        ICmpPred::Sle => a <= b,
                        ICmpPred::Sgt => a > b,
                        ICmpPred::Sge => a >= b,
                    };
                    regs[*dst as usize] = Value::I(i64::from(r));
                    pc += 1;
                }
                Op::FCmp { pred, dst, a, b } => {
                    let a = regs[*a as usize].try_f().map_err(err)?;
                    let b = regs[*b as usize].try_f().map_err(err)?;
                    let r = match pred {
                        FCmpPred::Oeq => a == b,
                        FCmpPred::One => a != b,
                        FCmpPred::Olt => a < b,
                        FCmpPred::Ole => a <= b,
                        FCmpPred::Ogt => a > b,
                        FCmpPred::Oge => a >= b,
                    };
                    regs[*dst as usize] = Value::I(i64::from(r));
                    pc += 1;
                }
                Op::Select {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    let c = regs[*cond as usize].try_i().map_err(err)?;
                    regs[*dst as usize] = regs[if c != 0 { *on_true } else { *on_false } as usize];
                    pc += 1;
                }
                Op::Gep {
                    dst,
                    base,
                    idx,
                    elem,
                } => {
                    let base = regs[*base as usize].try_p().map_err(err)?;
                    let idx = regs[*idx as usize].try_i().map_err(err)?;
                    regs[*dst as usize] =
                        Value::P((base as i64).wrapping_add(idx.wrapping_mul(*elem)) as u64);
                    pc += 1;
                }
                Op::Load { kind, dst, addr } => {
                    let addr = regs[*addr as usize].try_p().map_err(err)?;
                    let v = match kind {
                        MemKind::I8 => Value::I(self.mem.load_i8(addr).map_err(err)?),
                        MemKind::I32 => Value::I(self.mem.load_i32(addr).map_err(err)?),
                        MemKind::I64 => Value::I(self.mem.load_i64(addr).map_err(err)?),
                        MemKind::F32 => Value::F(self.mem.load_f32(addr).map_err(err)?),
                        MemKind::F64 => Value::F(self.mem.load_f64(addr).map_err(err)?),
                        MemKind::Ptr => Value::P(self.mem.load_i64(addr).map_err(err)? as u64),
                    };
                    regs[*dst as usize] = v;
                    pc += 1;
                }
                Op::Store { kind, val, addr } => {
                    let val = regs[*val as usize];
                    let addr = regs[*addr as usize].try_p().map_err(err)?;
                    let res = match kind {
                        MemKind::I8 => val.try_i().and_then(|x| self.mem.store_i8(addr, x)),
                        MemKind::I32 => val.try_i().and_then(|x| self.mem.store_i32(addr, x)),
                        MemKind::I64 => val.try_i().and_then(|x| self.mem.store_i64(addr, x)),
                        MemKind::F32 => val.try_f().and_then(|x| self.mem.store_f32(addr, x)),
                        MemKind::F64 => val.try_f().and_then(|x| self.mem.store_f64(addr, x)),
                        MemKind::Ptr => {
                            val.try_p().and_then(|x| self.mem.store_i64(addr, x as i64))
                        }
                    };
                    res.map_err(err)?;
                    pc += 1;
                }
                Op::Alloca { dst, n, elem } => {
                    let n = regs[*n as usize].try_i().map_err(err)?;
                    if n < 0 {
                        return Err(err("negative alloca size"));
                    }
                    regs[*dst as usize] = Value::P(self.mem.alloc(elem, n as usize));
                    pc += 1;
                }
                Op::IntCast { wrap, dst, src } => {
                    let x = regs[*src as usize].try_i().map_err(err)?;
                    regs[*dst as usize] = Value::I(wrap.apply(x));
                    pc += 1;
                }
                Op::SiToFp { round, dst, src } => {
                    let x = regs[*src as usize].try_i().map_err(err)? as f64;
                    regs[*dst as usize] = Value::F(if *round { x as f32 as f64 } else { x });
                    pc += 1;
                }
                Op::FpToSi { wrap, dst, src } => {
                    let x = regs[*src as usize].try_f().map_err(err)?;
                    regs[*dst as usize] = Value::I(wrap.apply(x as i64));
                    pc += 1;
                }
                Op::FpExt { dst, src } => {
                    let x = regs[*src as usize].try_f().map_err(err)?;
                    regs[*dst as usize] = Value::F(x);
                    pc += 1;
                }
                Op::FpTrunc { dst, src } => {
                    let x = regs[*src as usize].try_f().map_err(err)?;
                    regs[*dst as usize] = Value::F(x as f32 as f64);
                    pc += 1;
                }
                Op::Call { site } => {
                    let site = &cf.sites[*site as usize];
                    let mut args = Vec::with_capacity(site.args.len());
                    for &r in site.args.iter() {
                        args.push(regs[r as usize]);
                    }
                    regs[site.dst as usize] = self.dispatch_site(site, &args)?;
                    pc += 1;
                }
                Op::Jump { target } => pc = *target as usize,
                Op::CondJump {
                    cond,
                    on_true,
                    on_false,
                } => {
                    let c = regs[*cond as usize].try_i().map_err(err)?;
                    pc = if c != 0 { *on_true } else { *on_false } as usize;
                }
                Op::Ret { val } => {
                    return Ok(match val {
                        Some(r) => regs[*r as usize],
                        None => Value::I(0),
                    });
                }
                Op::PhiMoves { .. } => unreachable!("handled above"),
            }
        }
    }

    fn dispatch_site(&mut self, site: &CallSite, args: &[Value]) -> Result<Value> {
        if let Some(h) = &self.host_slots[site.sym as usize] {
            let h = h.clone();
            return h(&mut self.mem, args).map_err(err);
        }
        match site.target {
            CallTarget::Intrinsic(k) => k.eval(args).map_err(err),
            CallTarget::Function(idx) => self.call_nested(idx as usize, site.sym, args),
            CallTarget::Unknown => Err(err(format!(
                "call to unknown function {:?}",
                self.compiled.symbols[site.sym as usize]
            ))),
        }
    }

    /// A module-function call from a call site: one level deeper, up to
    /// [`MAX_CALL_DEPTH`]. Kept out of line: inlined into the dispatch
    /// loop, the depth bookkeeping slowed execution of the benchmark
    /// suite by ~8% (2-core x86-64 machine).
    #[inline(never)]
    fn call_nested(&mut self, idx: usize, sym: u32, args: &[Value]) -> Result<Value> {
        if self.depth == MAX_CALL_DEPTH {
            return Err(call_depth_error(&self.compiled.symbols[sym as usize]));
        }
        self.depth += 1;
        let r = self.call_function(idx, args);
        self.depth -= 1;
        r
    }
}

impl<'c> HostRegistry<'c> for Vm<'c> {
    fn register_host(&mut self, name: &str, f: HostFn<'c>) {
        Vm::register_host(self, name, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile_module;
    use crate::machine::Machine;
    use std::sync::Arc;

    fn compile_text(text: &str) -> ssair::Module {
        ssair::parser::parse_module(text).expect("test IR parses")
    }

    /// Runs a function on both executors and asserts bitwise parity of
    /// the outcome (value or error message), the step counters and the
    /// full memory images.
    fn assert_parity(m: &ssair::Module, func: &str, args: &[Value]) {
        let mut walker = Machine::new(m);
        let wr = walker.run(func, args);
        let code = compile_module(m);
        let mut vm = Vm::new(&code);
        let vr = vm.run(func, args);
        match (&wr, &vr) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "return value diverged for @{func}"),
            (Err(a), Err(b)) => assert_eq!(a.message, b.message, "error diverged for @{func}"),
            _ => panic!("outcome kind diverged for @{func}: walker {wr:?} vs vm {vr:?}"),
        }
        assert_eq!(
            walker.steps(),
            vm.steps(),
            "step count diverged for @{func}"
        );
        assert_eq!(
            walker.mem.bytes(),
            vm.mem.bytes(),
            "memory image diverged for @{func}"
        );
    }

    #[test]
    fn arithmetic_loops_and_calls_match_the_walker() {
        let m = compile_text(
            r#"
define i64 @sq(i64 %x) {
entry:
  %r = mul i64 %x, %x
  ret i64 %r
}

define i64 @sum(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %latch ]
  %acc = phi i64 [ 0, %entry ], [ %acc.next, %latch ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %latch, label %exit
latch:
  %sqv = call i64 @sq(i64 %i)
  %acc.next = add i64 %acc, %sqv
  %i.next = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}
"#,
        );
        assert_parity(&m, "sum", &[Value::I(10)]);
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        assert_eq!(vm.run("sum", &[Value::I(10)]).unwrap(), Value::I(285));
    }

    #[test]
    fn memory_effects_match_the_walker() {
        let m = compile_text(
            r#"
define double @fill(double* %p, i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %cond = icmp slt i64 %i, %n
  br i1 %cond, label %body, label %exit
body:
  %a = getelementptr double, double* %p, i64 %i
  %x = sitofp i64 %i to double
  store double %x, double* %a
  %i.next = add i64 %i, 1
  br label %header
exit:
  %last = getelementptr double, double* %p, i64 3
  %v = load double, double* %last
  ret double %v
}
"#,
        );
        let mut walker = Machine::new(&m);
        let wp = walker.mem.alloc_f64_slice(&[0.0; 8]);
        let wr = walker.run("fill", &[Value::P(wp), Value::I(8)]).unwrap();
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        let vp = vm.mem.alloc_f64_slice(&[0.0; 8]);
        let vr = vm.run("fill", &[Value::P(vp), Value::I(8)]).unwrap();
        assert_eq!(wr, vr);
        assert_eq!(walker.mem.bytes(), vm.mem.bytes());
        assert_eq!(walker.steps(), vm.steps());
    }

    #[test]
    fn error_paths_match_the_walker() {
        // Type confusion: an integer into a float intrinsic.
        let confusion = compile_text(
            "define double @f(i64 %x) {\nentry:\n  %r = call double @sqrt(i64 %x)\n  ret double %r\n}\n",
        );
        assert_parity(&confusion, "f", &[Value::I(4)]);
        // Division by zero.
        let div = compile_text(
            "define i32 @f(i32 %a) {\nentry:\n  %x = sdiv i32 %a, 0\n  ret i32 %x\n}\n",
        );
        assert_parity(&div, "f", &[Value::I(1)]);
        // Out-of-bounds access.
        let oob = compile_text(
            "define double @f(double* %p) {\nentry:\n  %a = getelementptr double, double* %p, i64 99\n  %v = load double, double* %a\n  ret double %v\n}\n",
        );
        assert_parity(&oob, "f", &[Value::P(8)]);
        // Out-of-bounds access whose address wrapped below zero.
        let wrapped = compile_text(
            "define double @f(double* %p) {\nentry:\n  %a = getelementptr double, double* %p, i64 -2\n  %v = load double, double* %a\n  ret double %v\n}\n",
        );
        assert_parity(&wrapped, "f", &[Value::P(8)]);
        let code = compile_module(&wrapped);
        let mut vm = Vm::new(&code);
        let e = vm.run("f", &[Value::P(8)]).unwrap_err();
        assert_eq!(
            e.message,
            "out-of-bounds access at 18446744073709551608 (+8)"
        );
        // Unknown callee.
        let unknown = compile_text(
            "define double @f(double %x) {\nentry:\n  %r = call double @nope(double %x)\n  ret double %r\n}\n",
        );
        assert_parity(&unknown, "f", &[Value::F(1.0)]);
        // Wrong intrinsic arity.
        let arity = compile_text(
            "define double @f(double %x) {\nentry:\n  %r = call double @sqrt(double %x, double %x)\n  ret double %r\n}\n",
        );
        assert_parity(&arity, "f", &[Value::F(4.0)]);
    }

    #[test]
    fn gep_offsets_wrap_like_the_walker_in_every_profile() {
        // 2^62 doubles is 2^65 bytes: the offset wraps to zero, so the
        // load reads %buf itself (debug builds used to panic instead).
        let m = compile_text(
            "define double @f() {\nentry:\n  %buf = alloca double, i64 1\n  store double 1.0, double* %buf\n  %a = getelementptr double, double* %buf, i64 4611686018427387904\n  %v = load double, double* %a\n  ret double %v\n}\n",
        );
        assert_parity(&m, "f", &[]);
        let code = compile_module(&m);
        assert_eq!(Vm::new(&code).run("f", &[]).unwrap(), Value::F(1.0));
    }

    #[test]
    fn call_depth_limit_matches_the_walker_bitwise() {
        // Unbounded self-recursion fails at the depth limit, not with a
        // native stack overflow: one step (the call) per level.
        let m = compile_text(
            "define i64 @f(i64 %a) {\nentry:\n  %r = call i64 @f(i64 %a)\n  ret i64 %r\n}\n",
        );
        assert_parity(&m, "f", &[Value::I(1)]);
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        let e = vm.run("f", &[Value::I(1)]).unwrap_err();
        assert_eq!(e.message, "call depth limit of 64 exceeded calling @f");
        assert_eq!(vm.steps(), MAX_CALL_DEPTH as u64 + 1);
        // Recursion exactly at the limit still runs; one level past fails.
        let down = compile_text(
            r#"
define i64 @down(i64 %n) {
entry:
  %c = icmp sgt i64 %n, 0
  br i1 %c, label %rec, label %done
rec:
  %m = sub i64 %n, 1
  %r = call i64 @down(i64 %m)
  %s = add i64 %r, 1
  ret i64 %s
done:
  ret i64 0
}
"#,
        );
        let limit = MAX_CALL_DEPTH as i64;
        assert_parity(&down, "down", &[Value::I(limit)]);
        assert_parity(&down, "down", &[Value::I(limit + 1)]);
        let code = compile_module(&down);
        let mut vm = Vm::new(&code);
        assert_eq!(vm.run("down", &[Value::I(limit)]).unwrap(), Value::I(limit));
        assert!(vm.run("down", &[Value::I(limit + 1)]).is_err());
        // The depth unwinds with the error: the same VM runs again.
        assert_eq!(vm.run("down", &[Value::I(3)]).unwrap(), Value::I(3));
    }

    #[test]
    fn step_limit_matches_the_walker_bitwise() {
        let m =
            compile_text("define void @spin() {\nentry:\n  br label %l\nl:\n  br label %l\n}\n");
        let mut walker = Machine::new(&m);
        walker.max_steps = 1000;
        let we = walker.run("spin", &[]).unwrap_err();
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        vm.max_steps = 1000;
        let ve = vm.run("spin", &[]).unwrap_err();
        assert_eq!(we.message, ve.message);
        assert_eq!(walker.steps(), vm.steps());
        assert!(we.message.contains("step limit"));
    }

    #[test]
    fn phi_steps_count_against_the_budget_identically() {
        // A phi-heavy loop: each iteration is 2 phi moves + 4 body
        // instructions. Both executors must hit the budget at the same
        // step count (the historical walker undercounted phis).
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
        // Unbounded: same step totals.
        let mut walker = Machine::new(&m);
        walker.run("sum", &[Value::I(50)]).unwrap();
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        vm.run("sum", &[Value::I(50)]).unwrap();
        assert_eq!(walker.steps(), vm.steps());
        // Tight budget that lands inside the phi prefix: identical error
        // and identical final counter.
        for budget in [7, 8, 9, 13, 14] {
            let mut walker = Machine::new(&m);
            walker.max_steps = budget;
            let we = walker.run("sum", &[Value::I(50)]).unwrap_err();
            let mut vm = Vm::new(&code);
            vm.max_steps = budget;
            let ve = vm.run("sum", &[Value::I(50)]).unwrap_err();
            assert_eq!(we.message, ve.message, "budget {budget}");
            assert_eq!(walker.steps(), vm.steps(), "budget {budget}");
        }
    }

    #[test]
    fn profile_counts_match_the_walker() {
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
        let mut walker = Machine::new(&m);
        walker.run("sum", &[Value::I(10)]).unwrap();
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        vm.set_profiling(true);
        vm.run("sum", &[Value::I(10)]).unwrap();
        let vp = vm.profile();
        let f = m.function("sum").unwrap();
        for v in f.value_ids() {
            assert_eq!(
                walker.profile.count("sum", v),
                vp.count("sum", v),
                "count diverged at {v}"
            );
        }
        // And the cost model sees identical numbers.
        assert_eq!(walker.profile.total_cost(f), vp.total_cost(f));
    }

    #[test]
    fn hosts_override_intrinsics_via_interned_slots() {
        let m = compile_text(
            "define double @f(double %x) {\nentry:\n  %r = call double @sqrt(double %x)\n  ret double %r\n}\n",
        );
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        vm.register_host(
            "sqrt",
            Arc::new(|_mem, args: &[Value]| Ok(Value::F(args[0].as_f() + 100.0))),
        );
        assert_eq!(vm.run("f", &[Value::F(4.0)]).unwrap(), Value::F(104.0));
        // Unregistered name resolves to the intrinsic as usual.
        let mut plain = Vm::new(&code);
        assert_eq!(plain.run("f", &[Value::F(4.0)]).unwrap(), Value::F(2.0));
    }

    /// `@weird` reads `%x` on a path that never defines it, which the
    /// verifier rejects; `@main` is well formed and calls it only when
    /// `%a > 0`, after a store.
    const UNVERIFIED_CALLEE: &str = r#"
define i64 @weird(i64 %a) {
entry:
  %c = icmp sgt i64 %a, 0
  br i1 %c, label %then, label %join
then:
  %x = add i64 %a, 1
  br label %join
join:
  %r = add i64 %x, 2
  ret i64 %r
}

define i64 @main(i64* %p, i64 %a) {
entry:
  store i64 %a, i64* %p
  %c = icmp sgt i64 %a, 0
  br i1 %c, label %call, label %done
call:
  %r = call i64 @weird(i64 %a)
  ret i64 %r
done:
  ret i64 0
}
"#;

    #[test]
    fn calling_an_unverified_function_returns_the_verifier_error() {
        let m = compile_text(UNVERIFIED_CALLEE);
        let first = ssair::verify::verify_function(&m.functions[0]).unwrap_err()[0]
            .message
            .clone();
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        let e = vm.run("weird", &[Value::I(1)]).unwrap_err();
        assert_eq!(e.message, format!("@weird failed IR verification: {first}"));
        assert_eq!(vm.steps(), 0, "nothing of @weird executes");
    }

    #[test]
    fn a_verified_caller_fails_at_the_call_site_of_an_unverified_callee() {
        let m = compile_text(UNVERIFIED_CALLEE);
        let code = compile_module(&m);
        // The path that avoids the call runs normally.
        let mut vm = Vm::new(&code);
        let p = vm.mem.alloc(&ssair::Type::I64, 1);
        assert_eq!(
            vm.run("main", &[Value::P(p), Value::I(-3)]),
            Ok(Value::I(0))
        );
        // The path that takes it runs up to and including the call.
        let mut vm = Vm::new(&code);
        let p = vm.mem.alloc(&ssair::Type::I64, 1);
        let e = vm.run("main", &[Value::P(p), Value::I(5)]).unwrap_err();
        assert!(
            e.message.starts_with("@weird failed IR verification: "),
            "{e}"
        );
        assert_eq!(vm.mem.load_i64(p), Ok(5), "the store before the call ran");
        assert_eq!(vm.steps(), 4, "store, icmp, br, call");
    }

    #[test]
    fn malformed_shapes_are_exec_errors_not_panics() {
        let mut short =
            ssair::Function::new("f", &[("x".into(), ssair::Type::I64)], ssair::Type::I64);
        let x = short.params[0];
        let r = short.append_simple(
            ssair::BlockId(0),
            ssair::Type::I64,
            ssair::Opcode::Add,
            vec![x],
        );
        short.append_ret(ssair::BlockId(0), Some(r));
        let mut one_operand_add = ssair::Module::new("m");
        one_operand_add.add_function(short);
        let entry_loop = compile_text(
            "define i64 @f(i64 %x) {\nentry:\n  %i = phi i64 [ %x, %entry ]\n  br label %entry\n}\n",
        );
        let void_load = compile_text(
            "define void @f(void* %x) {\nentry:\n  %v = load void, void* %x\n  ret void\n}\n",
        );
        for m in [one_operand_add, entry_loop, void_load] {
            let code = compile_module(&m);
            let e = Vm::new(&code).run("f", &[Value::I(1)]).unwrap_err();
            assert!(e.message.starts_with("@f failed IR verification: "), "{e}");
        }
    }

    #[test]
    fn no_function_named_matches_walker() {
        let m = compile_text("define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\n");
        let code = compile_module(&m);
        let mut vm = Vm::new(&code);
        let e = vm.run("missing", &[]).unwrap_err();
        let mut walker = Machine::new(&m);
        let we = walker.run("missing", &[]).unwrap_err();
        assert_eq!(e.message, we.message);
    }

    #[test]
    fn arity_error_matches_walker() {
        let m = compile_text("define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\n");
        assert_parity(&m, "f", &[]);
        assert_parity(&m, "f", &[Value::I(1), Value::I(2)]);
    }
}
