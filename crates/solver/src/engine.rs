//! The search engine.

use idl::{
    Atom, AtomKind, CTree, CompiledConstraint, EdgeKind, IndexedKind, OpcodeClass, SymbolTable,
    TreeIndex, TypeClass, VarId,
};
use ssair::analysis::{
    all_control_flow_passes_through, all_data_flow_passes_through, kernel_slice, Analyses,
};
use ssair::{Function, Opcode, ValueId, ValueKind};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

/// Pure math callees allowed inside extracted kernel functions (matches
/// the minicc intrinsic set).
pub const PURE_CALLS: &[&str] = &[
    "sqrt", "fabs", "exp", "log", "sin", "cos", "pow", "fmin", "fmax",
];

/// One satisfying assignment: flattened variable name → IR value.
///
/// The search itself runs entirely on dense [`VarId`]-indexed slots; the
/// string map is materialized only here, at the API boundary, for
/// display and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solution {
    /// The bindings, including family members produced by `collect` and
    /// `Concat`.
    pub bindings: BTreeMap<String, ValueId>,
}

/// The result of a search, including whether it was exhaustive.
///
/// A search cut off by [`SolveOptions::max_solutions`] or
/// [`SolveOptions::max_steps`] may have missed solutions; `complete`
/// distinguishes that from a genuinely finished enumeration so callers
/// (e.g. idiom detection) can surface truncation instead of silently
/// undercounting.
///
/// Solutions are returned in a canonical order (sorted by their dense
/// binding vectors), so any two search strategies that enumerate the same
/// solution *set* — e.g. the skeleton-seeded search and the plain
/// enumeration it replaces — return byte-identical lists.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The deduplicated solutions found, in canonical order.
    pub solutions: Vec<Solution>,
    /// `true` if the enumeration finished without hitting a limit
    /// (including inside `collect` sub-searches). A `collect` body that
    /// fills its IDL-declared family capacity is *not* truncation — that
    /// cap is structural, so it never clears this flag.
    pub complete: bool,
    /// Assignment steps consumed, *including* `collect` sub-searches —
    /// never more than `max_steps`.
    pub steps: u64,
}

/// Search limits.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Stop after this many solutions.
    pub max_solutions: usize,
    /// Abort the search after this many assignment steps (guards
    /// pathological formulas; generously above anything the idiom library
    /// needs on benchmark-sized functions).
    pub max_steps: u64,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            max_solutions: 256,
            max_steps: 20_000_000,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    True,
    False,
    Unknown,
}

impl Tri {
    fn from_bool(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }
}

/// The dense per-search assignment: one slot per interned symbol of the
/// constraint, plus the bind/unbind discipline of the backtracking
/// search as its undo trail (every bind is reverted by an explicit
/// unbind on the same frame).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Assignment {
    slots: Vec<Option<ValueId>>,
}

impl Assignment {
    /// An all-unbound assignment for a constraint with `n` symbols.
    #[must_use]
    pub fn new(n: usize) -> Assignment {
        Assignment {
            slots: vec![None; n],
        }
    }

    /// The value bound to `v`, if any.
    #[must_use]
    pub fn get(&self, v: VarId) -> Option<ValueId> {
        self.slots[v.index()]
    }

    /// Binds `v` to `x` (overwrites).
    pub fn bind(&mut self, v: VarId, x: ValueId) {
        self.slots[v.index()] = Some(x);
    }

    /// Removes the binding of `v`.
    pub fn unbind(&mut self, v: VarId) {
        self.slots[v.index()] = None;
    }

    /// The raw slot array (index = [`VarId::index`]).
    #[must_use]
    pub fn slots(&self) -> &[Option<ValueId>] {
        &self.slots
    }
}

/// Key of one memoized candidate bucket (the unary generator atoms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BucketKey {
    Opcode(OpcodeClass),
    Constant,
    Argument,
    Preexecution,
    Instruction,
    Type(TypeClass, bool),
}

impl BucketKey {
    fn of(kind: &AtomKind) -> Option<BucketKey> {
        Some(match kind {
            AtomKind::OpcodeIs(c) => BucketKey::Opcode(*c),
            AtomKind::IsConstant => BucketKey::Constant,
            AtomKind::IsArgument => BucketKey::Argument,
            AtomKind::IsPreexecution => BucketKey::Preexecution,
            AtomKind::IsInstruction => BucketKey::Instruction,
            AtomKind::TypeIs {
                class,
                constant_zero,
            } => BucketKey::Type(*class, *constant_zero),
            _ => return None,
        })
    }
}

/// A candidate list: either borrowed from the per-function bucket memo
/// (shared across every idiom query and collect sub-search on the same
/// function) or owned by the current search frame.
enum Cand {
    Shared(Rc<Vec<ValueId>>),
    Owned(Vec<ValueId>),
    /// A single candidate inline — the common result of functional atoms
    /// (`is first argument of`, `is the same as`), kept off the heap.
    One([ValueId; 1]),
}

impl std::ops::Deref for Cand {
    type Target = [ValueId];
    fn deref(&self) -> &[ValueId] {
        match self {
            Cand::Shared(v) => v,
            Cand::Owned(v) => v,
            Cand::One(v) => v,
        }
    }
}

/// A solver instance for one function. All per-function state — the IR
/// analyses (dominance, def-use, CFG, loop forest, flow-cut memos), the
/// value buckets and the scratch buffers — is computed once and shared
/// across every idiom query *and* every `collect` sub-search on that
/// function, as the paper's compiler does per compilation unit.
pub struct Solver<'f> {
    f: &'f Function,
    an: Analyses,
    all_values: Rc<Vec<ValueId>>,
    instructions: Vec<ValueId>,
    constants: Vec<ValueId>,
    arguments: Vec<ValueId>,
    /// Memoized unary-generator buckets, filled on first use and reused
    /// by all subsequent queries on this function.
    buckets: RefCell<HashMap<BucketKey, Rc<Vec<ValueId>>>>,
    /// Recycled candidate buffers: owned candidate lists are returned
    /// here when a search frame finishes, so repeated queries on one
    /// function stop churning the allocator.
    scratch: RefCell<Vec<Vec<ValueId>>>,
}

impl<'f> Solver<'f> {
    /// Builds a solver (computing all analyses) for `f`.
    #[must_use]
    pub fn new(f: &'f Function) -> Solver<'f> {
        let an = Analyses::new(f);
        let mut instructions = Vec::new();
        let mut constants = Vec::new();
        let mut arguments = Vec::new();
        // Only instructions currently placed in blocks participate.
        let mut placed: HashSet<ValueId> = HashSet::new();
        for b in f.block_ids() {
            for &v in &f.block(b).instrs {
                placed.insert(v);
                instructions.push(v);
            }
        }
        for v in f.value_ids() {
            match f.value(v).kind {
                ValueKind::ConstInt(_) | ValueKind::ConstFloat(_) => constants.push(v),
                ValueKind::Argument { .. } => arguments.push(v),
                ValueKind::Instr(_) => {}
            }
        }
        let all_values: Vec<ValueId> = arguments
            .iter()
            .chain(constants.iter())
            .chain(instructions.iter())
            .copied()
            .collect();
        Solver {
            f,
            an,
            all_values: Rc::new(all_values),
            instructions,
            constants,
            arguments,
            buckets: RefCell::new(HashMap::new()),
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// The per-function analyses computed at construction (shared with
    /// detection post-processing so they are not recomputed).
    #[must_use]
    pub fn analyses(&self) -> &Analyses {
        &self.an
    }

    /// Enumerates all solutions of `c` (deduplicated), subject to `opts`.
    #[must_use]
    pub fn solve(&self, c: &CompiledConstraint, opts: &SolveOptions) -> Vec<Solution> {
        self.solve_outcome(c, opts).solutions
    }

    /// [`Solver::solve`], also reporting completeness and steps consumed.
    /// Uses the variable order precomputed at constraint compile time.
    #[must_use]
    pub fn solve_outcome(&self, c: &CompiledConstraint, opts: &SolveOptions) -> SolveOutcome {
        let dense = self.run_search(
            &c.tree,
            c.index(),
            &c.symbols,
            Assignment::new(c.symbols.len()),
            c.order.clone(),
            opts,
        );
        render_outcome(&c.symbols, dense)
    }

    /// Solves `c` seeded from pre-solved loop-skeleton solutions: each
    /// seed binds the skeleton prefix of `c.order` in one shot (charging
    /// one step per bound variable) and the search continues over the
    /// remaining variables only.
    ///
    /// When the seed list is exhaustive (every skeleton solution of the
    /// function, from a *complete* skeleton solve), the enumerated
    /// solution set — and therefore, by canonical ordering, the returned
    /// list — is identical to [`Solver::solve_outcome`]: every solution's
    /// skeleton projection satisfies the skeleton constraints, so it
    /// appears among the seeds, and the continuation search under each
    /// seed is the same exhaustive enumeration the plain search runs
    /// below that prefix. A truncated outcome (`complete == false`) makes
    /// no such promise — callers fall back to the unseeded search.
    #[must_use]
    pub fn solve_seeded_outcome(
        &self,
        c: &CompiledConstraint,
        seeds: &[Vec<(VarId, ValueId)>],
        opts: &SolveOptions,
    ) -> SolveOutcome {
        render_outcome(&c.symbols, self.seeded_dense(c, seeds, opts))
    }

    /// [`Solver::solve_seeded_outcome`] returning bulk rows (each solution
    /// as the values of `vars`, in order) instead of string-keyed
    /// solutions — the skeleton cache's format, skipping the rendering
    /// round-trip.
    #[must_use]
    pub fn solve_seeded_rows(
        &self,
        c: &CompiledConstraint,
        seeds: &[Vec<(VarId, ValueId)>],
        vars: &[VarId],
        opts: &SolveOptions,
    ) -> RowsOutcome {
        rows_outcome(vars, self.seeded_dense(c, seeds, opts))
    }

    /// [`Solver::solve_outcome`] in bulk row form (see
    /// [`Solver::solve_seeded_rows`]).
    #[must_use]
    pub fn solve_rows(
        &self,
        c: &CompiledConstraint,
        vars: &[VarId],
        opts: &SolveOptions,
    ) -> RowsOutcome {
        let dense = self.run_search(
            &c.tree,
            c.index(),
            &c.symbols,
            Assignment::new(c.symbols.len()),
            c.order.clone(),
            opts,
        );
        rows_outcome(vars, dense)
    }

    fn seeded_dense(
        &self,
        c: &CompiledConstraint,
        seeds: &[Vec<(VarId, ValueId)>],
        opts: &SolveOptions,
    ) -> DenseOutcome {
        if seeds.is_empty() {
            // No skeleton rows: trivially complete with no search (and no
            // point building the evaluator).
            return DenseOutcome {
                solutions: Vec::new(),
                complete: true,
                steps: 0,
            };
        }
        let mut asg = Assignment::new(c.symbols.len());
        let mut cx = SearchCx {
            solver: self,
            tree: &c.tree,
            symbols: &c.symbols,
            inc: IncEval::new(self, c.index(), &asg),
            order: c.order.clone(),
            opts,
            steps: 0,
            complete: true,
            out: Vec::new(),
            seen: HashSet::new(),
        };
        for seed in seeds {
            if cx.out.len() >= opts.max_solutions
                || cx.steps.saturating_add(seed.len() as u64) > opts.max_steps
            {
                cx.complete = false;
                break;
            }
            debug_assert!(
                seed.len() <= cx.order.len()
                    && seed.iter().all(|(v, _)| cx.order[..seed.len()].contains(v)),
                "seed variables must form the order prefix"
            );
            // Bulk-bind the row and rebuild the evaluator in one sweep:
            // cheaper than 2×|seed| incremental repairs per row.
            cx.steps += seed.len() as u64;
            for &(v, x) in seed {
                asg.bind(v, x);
            }
            cx.inc.reseed(self, &asg);
            cx.check_oracle(&asg);
            if cx.inc.root_val() != Tri::False {
                cx.search(seed.len(), &mut asg);
            }
            for &(v, _) in seed {
                asg.unbind(v);
            }
        }
        cx.finish_dense()
    }

    fn run_search(
        &self,
        tree: &CTree,
        idx: &TreeIndex,
        symbols: &SymbolTable,
        initial: Assignment,
        order: Vec<VarId>,
        opts: &SolveOptions,
    ) -> DenseOutcome {
        let mut cx = SearchCx {
            solver: self,
            tree,
            symbols,
            inc: IncEval::new(self, idx, &initial),
            order,
            opts,
            steps: 0,
            complete: true,
            out: Vec::new(),
            seen: HashSet::new(),
        };
        let mut asg = initial;
        cx.search(0, &mut asg);
        cx.finish_dense()
    }

    // ----- atom evaluation -----

    fn opcode_of(&self, v: ValueId) -> Option<Opcode> {
        self.f.opcode(v)
    }

    fn eval_atom(&self, atom: &Atom, asg: &Assignment) -> Tri {
        use AtomKind::*;
        // Deferred constraints are resolved in the finalize stage.
        if matches!(atom.kind, KilledBy | Concat) {
            return Tri::Unknown;
        }
        let mut vals = [ValueId(0); 3];
        debug_assert!(atom.vars.len() <= 3);
        for (slot, &v) in vals.iter_mut().zip(&atom.vars) {
            match asg.get(v) {
                Some(x) => *slot = x,
                None => return Tri::Unknown,
            }
        }
        Tri::from_bool(self.eval_ground(atom, &vals[..atom.vars.len()]))
    }

    fn eval_ground(&self, atom: &Atom, vals: &[ValueId]) -> bool {
        use AtomKind::*;
        let f = self.f;
        match &atom.kind {
            TypeIs {
                class,
                constant_zero,
            } => self.type_is(vals[0], *class, *constant_zero),
            Unused => self.an.defuse.is_unused(vals[0]),
            IsConstant => f.is_constant(vals[0]),
            IsPreexecution => f.is_constant(vals[0]) || f.is_argument(vals[0]),
            IsArgument => f.is_argument(vals[0]),
            IsInstruction => f.is_instruction(vals[0]),
            OpcodeIs(class) => self.opcode_of(vals[0]).is_some_and(|op| class.matches(op)),
            Same { negated } => (vals[0] == vals[1]) != *negated,
            HasEdge(EdgeKind::Data) => f
                .instr(vals[1])
                .is_some_and(|i| i.operands.contains(&vals[0])),
            HasEdge(EdgeKind::Control) => self.an.has_control_flow_edge(f, vals[0], vals[1]),
            HasEdge(EdgeKind::Dependence) => self.may_depend(vals[0], vals[1]),
            ArgumentOf { pos } => f
                .instr(vals[1])
                .is_some_and(|i| i.operands.get(*pos) == Some(&vals[0])),
            ReachesPhi => {
                let Some(i) = f.instr(vals[1]) else {
                    return false;
                };
                if i.opcode != Opcode::Phi {
                    return false;
                }
                i.operands
                    .iter()
                    .zip(&i.incoming)
                    .any(|(&v, &b)| v == vals[0] && f.terminator(b) == Some(vals[2]))
            }
            Dominates {
                strict,
                post,
                negated,
            } => self.dominance(vals[0], vals[1], *post, *strict) != *negated,
            AllFlowThrough { data } => {
                if *data {
                    all_data_flow_passes_through(self.f, &self.an, vals[0], vals[1], vals[2])
                } else {
                    all_control_flow_passes_through(self.f, &self.an, vals[0], vals[1], vals[2])
                }
            }
            KilledBy | Concat => unreachable!("deferred"),
        }
    }

    /// Value-level (post)dominance exactly as the `dominates` family of
    /// atoms evaluates it.
    fn dominance(&self, a: ValueId, b: ValueId, post: bool, strict: bool) -> bool {
        let f = self.f;
        if !f.is_instruction(a) || !f.is_instruction(b) {
            // Constants and arguments are available everywhere: they
            // dominate every instruction and post-dominate nothing.
            return !post && !f.is_instruction(a);
        }
        match (post, strict) {
            (false, false) => self.an.inst_dominates(a, b),
            (false, true) => self.an.inst_strictly_dominates(a, b),
            (true, false) => self.an.inst_post_dominates(a, b),
            (true, true) => self.an.inst_strictly_post_dominates(a, b),
        }
    }

    /// `a strictly dominates b` with the `strictly dominates` atom's exact
    /// semantics — exposed so the skeleton cache can apply `ForNest`
    /// nesting legs to pre-solved `For` rows without a search.
    #[must_use]
    pub fn value_strictly_dominates(&self, a: ValueId, b: ValueId) -> bool {
        self.dominance(a, b, false, true)
    }

    /// `a strictly post dominates b` with the atom's exact semantics
    /// (companion of [`Solver::value_strictly_dominates`]).
    #[must_use]
    pub fn value_strictly_post_dominates(&self, a: ValueId, b: ValueId) -> bool {
        self.dominance(a, b, true, true)
    }

    fn type_is(&self, v: ValueId, class: TypeClass, constant_zero: bool) -> bool {
        let f = self.f;
        let ty = &f.value(v).ty;
        let class_ok = match class {
            TypeClass::Integer => ty.is_integer(),
            TypeClass::Float => ty.is_float(),
            TypeClass::Pointer => ty.is_pointer(),
        };
        let zero_ok = !constant_zero
            || matches!(f.value(v).kind, ValueKind::ConstInt(0))
            || matches!(f.value(v).kind, ValueKind::ConstFloat(x) if x == 0.0);
        class_ok && zero_ok
    }

    /// Conservative may-dependence between two memory instructions: both
    /// touch memory and their addresses share a root object.
    fn may_depend(&self, a: ValueId, b: ValueId) -> bool {
        let addr = |v: ValueId| -> Option<ValueId> {
            let i = self.f.instr(v)?;
            match i.opcode {
                Opcode::Load => Some(i.operands[0]),
                Opcode::Store => Some(i.operands[1]),
                _ => None,
            }
        };
        let (Some(ra), Some(rb)) = (addr(a), addr(b)) else {
            return false;
        };
        self.f.address_root(ra) == self.f.address_root(rb)
    }

    // ----- candidate generation -----

    /// The memoized candidate bucket for a unary generator atom. Computed
    /// on first request and shared (via `Rc`) by every later query on
    /// this function.
    fn bucket(&self, kind: &AtomKind) -> Option<Rc<Vec<ValueId>>> {
        let key = BucketKey::of(kind)?;
        if let Some(b) = self.buckets.borrow().get(&key) {
            return Some(Rc::clone(b));
        }
        let vals: Vec<ValueId> = match key {
            BucketKey::Opcode(class) => self
                .instructions
                .iter()
                .copied()
                .filter(|&v| self.opcode_of(v).is_some_and(|op| class.matches(op)))
                .collect(),
            BucketKey::Constant => self.constants.clone(),
            BucketKey::Argument => self.arguments.clone(),
            BucketKey::Preexecution => self
                .constants
                .iter()
                .chain(self.arguments.iter())
                .copied()
                .collect(),
            BucketKey::Instruction => self.instructions.clone(),
            BucketKey::Type(class, zero) => self
                .all_values
                .iter()
                .copied()
                .filter(|&v| self.type_is(v, class, zero))
                .collect(),
        };
        let rc = Rc::new(vals);
        self.buckets.borrow_mut().insert(key, Rc::clone(&rc));
        Some(rc)
    }

    /// Candidates for `var` implied by `atom` under `asg`, if the atom can
    /// act as a generator in this direction.
    fn gen_atom(&self, atom: &Atom, var: VarId, asg: &Assignment) -> Option<Cand> {
        use AtomKind::*;
        let f = self.f;
        let slot = atom.vars.iter().position(|&v| v == var)?;
        let get = |k: usize| asg.get(atom.vars[k]);
        match &atom.kind {
            OpcodeIs(_)
            | IsConstant
            | IsArgument
            | IsPreexecution
            | IsInstruction
            | TypeIs { .. } => self.bucket(&atom.kind).map(Cand::Shared),
            Same { negated: false } => {
                let other = if slot == 0 { get(1) } else { get(0) };
                other.map(|v| Cand::One([v]))
            }
            ArgumentOf { pos } => {
                if slot == 0 {
                    // child from parent
                    let parent = get(1)?;
                    f.instr(parent)?.operands.get(*pos).map(|&v| Cand::One([v]))
                } else {
                    // parent from child: users with child at position pos
                    let child = get(0)?;
                    Some(Cand::Owned(
                        self.an
                            .defuse
                            .users(child)
                            .iter()
                            .copied()
                            .filter(|&u| {
                                f.instr(u)
                                    .is_some_and(|i| i.operands.get(*pos) == Some(&child))
                            })
                            .collect(),
                    ))
                }
            }
            HasEdge(EdgeKind::Data) => {
                if slot == 1 {
                    let from = get(0)?;
                    Some(Cand::Owned(self.an.defuse.users(from).to_vec()))
                } else {
                    let to = get(1)?;
                    f.instr(to).map(|i| Cand::Owned(i.operands.clone()))
                }
            }
            HasEdge(EdgeKind::Control) => {
                if slot == 1 {
                    let from = get(0)?;
                    Some(Cand::Owned(self.an.control_flow_successors(f, from)))
                } else {
                    let to = get(1)?;
                    Some(Cand::Owned(self.an.control_flow_predecessors(f, to)))
                }
            }
            ReachesPhi => {
                // vars: [value, phi, branch]
                match slot {
                    0 => {
                        let phi = get(1)?;
                        let from = get(2);
                        let i = f.instr(phi)?;
                        if i.opcode != Opcode::Phi {
                            return Some(Cand::Owned(Vec::new()));
                        }
                        Some(Cand::Owned(match from {
                            Some(br) => i
                                .operands
                                .iter()
                                .zip(&i.incoming)
                                .filter(|(_, &b)| f.terminator(b) == Some(br))
                                .map(|(&v, _)| v)
                                .collect(),
                            None => i.operands.clone(),
                        }))
                    }
                    1 => {
                        let value = get(0)?;
                        Some(Cand::Owned(
                            self.an
                                .defuse
                                .users(value)
                                .iter()
                                .copied()
                                .filter(|&u| f.opcode(u) == Some(Opcode::Phi))
                                .collect(),
                        ))
                    }
                    2 => {
                        let phi = get(1)?;
                        let i = f.instr(phi)?;
                        if i.opcode != Opcode::Phi {
                            return Some(Cand::Owned(Vec::new()));
                        }
                        Some(Cand::Owned(
                            i.incoming.iter().filter_map(|&b| f.terminator(b)).collect(),
                        ))
                    }
                    _ => None,
                }
            }
            _ => None,
        }
    }

    // ----- 3-valued evaluation -----

    /// Recursive whole-tree evaluation. Superseded on the search hot path
    /// by the incremental [`IncEval`]; kept as the `debug_assert!` oracle
    /// the incremental evaluator is checked against under test.
    fn eval3(&self, tree: &CTree, asg: &Assignment) -> Tri {
        match tree {
            CTree::Atom(a) => self.eval_atom(a, asg),
            CTree::And(cs) => {
                let mut result = Tri::True;
                for c in cs {
                    match self.eval3(c, asg) {
                        Tri::False => return Tri::False,
                        Tri::Unknown => result = Tri::Unknown,
                        Tri::True => {}
                    }
                }
                result
            }
            CTree::Or(cs) => {
                if cs.is_empty() {
                    return Tri::False;
                }
                let mut result = Tri::False;
                for c in cs {
                    match self.eval3(c, asg) {
                        Tri::True => return Tri::True,
                        Tri::Unknown => result = Tri::Unknown,
                        Tri::False => {}
                    }
                }
                result
            }
            CTree::Collect { .. } => Tri::Unknown,
        }
    }

    // ----- finalization: collects, concats, purity -----

    /// Resolves a family reference against an assignment: the scalar
    /// binding if present, else all bound `name[k]` members in index
    /// order (membership is pre-resolved in the symbol table).
    fn resolve_family(asg: &Assignment, symbols: &SymbolTable, fam: VarId) -> Vec<ValueId> {
        if let Some(v) = asg.get(fam) {
            return vec![v];
        }
        symbols
            .family_members(fam)
            .iter()
            .filter_map(|&m| asg.get(m))
            .collect()
    }

    /// Runs collects/concats and checks deferred atoms. Returns the
    /// completed assignment or `None` if some deferred constraint fails.
    ///
    /// `steps` is the *shared* step counter of the enclosing search:
    /// `collect` sub-searches only spend what remains of the budget and
    /// charge their consumption back, so total work stays bounded by
    /// `opts.max_steps` even across nested searches. An exhausted or
    /// truncated sub-search clears `complete`.
    #[allow(clippy::too_many_arguments)]
    fn finalize(
        &self,
        tree: &CTree,
        idx: &TreeIndex,
        vals: &[Tri],
        symbols: &SymbolTable,
        asg: &Assignment,
        opts: &SolveOptions,
        steps: &mut u64,
        complete: &mut bool,
    ) -> Option<Assignment> {
        let mut full = asg.clone();
        self.run_bindings(tree, idx, 0, symbols, &mut full, opts, steps, complete)?;
        if self.eval_final(tree, idx, 0, vals, symbols, &full) {
            Some(full)
        } else {
            None
        }
    }

    /// Executes `collect` and `Concat` nodes along the conjunctive spine.
    /// `id` is `tree`'s node id in `idx` (the index of the *enclosing*
    /// search tree — the walk keeps them aligned so `collect` nodes can
    /// use their pre-built sub-search plans).
    #[allow(clippy::too_many_arguments)]
    fn run_bindings(
        &self,
        tree: &CTree,
        idx: &TreeIndex,
        id: usize,
        symbols: &SymbolTable,
        full: &mut Assignment,
        opts: &SolveOptions,
        steps: &mut u64,
        complete: &mut bool,
    ) -> Option<()> {
        match tree {
            CTree::And(cs) => {
                for (c, &cid) in cs.iter().zip(&idx.nodes()[id].children) {
                    self.run_bindings(c, idx, cid, symbols, full, opts, steps, complete)?;
                }
                Some(())
            }
            CTree::Or(_)
            | CTree::Atom(Atom {
                kind: AtomKind::KilledBy,
                ..
            }) => Some(()),
            CTree::Atom(a) if a.kind == AtomKind::Concat => {
                let out = a.families[0];
                let mut members = Self::resolve_family(full, symbols, a.families[1]);
                members.extend(Self::resolve_family(full, symbols, a.families[2]));
                // Output slots were pre-interned at compile time; for any
                // acyclic concat chain they cover every index we can
                // produce. A degenerate self-referential concat is capped
                // at the pre-interned capacity (the only finite reading).
                let slots = symbols.family_members(out);
                for (k, v) in members.into_iter().enumerate().take(slots.len()) {
                    full.bind(slots[k], v);
                }
                Some(())
            }
            CTree::Atom(_) => Some(()),
            CTree::Collect { instances } => {
                if instances.is_empty() {
                    return Some(());
                }
                let sub_opts = SolveOptions {
                    max_solutions: instances.len(),
                    max_steps: opts.max_steps.saturating_sub(*steps),
                };
                // The plan carries the body's variable list and index,
                // built once with the enclosing constraint's index — the
                // per-finalize cost is just the unbound filter (plus a
                // memoized ordering).
                let plan = idx.collect_plan(id).expect("non-empty collect has a plan");
                let unbound: Vec<VarId> = plan
                    .variables
                    .iter()
                    .copied()
                    .filter(|&v| full.get(v).is_none())
                    .collect();
                let order = plan.order_for(&instances[0], &unbound);
                let out = self.run_search(
                    &instances[0],
                    &plan.index,
                    symbols,
                    full.clone(),
                    order,
                    &sub_opts,
                );
                *steps = steps.saturating_add(out.steps);
                // Only *budget* truncation counts as incompleteness. The
                // solution cap here is the IDL-declared family capacity
                // (`collect i N`): stopping at N members is the constraint
                // working as written, not a missed enumeration, and no
                // budget widening could ever "fix" it.
                if !out.complete && out.steps >= sub_opts.max_steps {
                    *complete = false;
                }
                let v0 = instances[0].variables_deep();
                for (k, sol) in out.solutions.iter().enumerate() {
                    if k >= instances.len() {
                        break;
                    }
                    let vk = instances[k].variables_deep();
                    for (&name0, &namek) in v0.iter().zip(&vk) {
                        if let Some(val) = sol.get(name0) {
                            if full.get(namek).is_none() {
                                full.bind(namek, val);
                            }
                        }
                    }
                }
                Some(())
            }
        }
    }

    /// Final evaluation: everything must be true; `collect` counts as
    /// satisfied, `Concat` as executed, `KilledBy` is checked against the
    /// bound families. `vals` is the incremental evaluator's cache for
    /// `idx` under the pre-finalize assignment: a node it already proved
    /// `True` stays true under the extension (`full` only *adds*
    /// bindings, and `Collect`/`Concat`/`KilledBy` evaluate `Unknown`
    /// incrementally, so no deferred node hides under a `True`), letting
    /// the walk skip everything except the deferred spine.
    #[allow(clippy::too_many_arguments)]
    fn eval_final(
        &self,
        tree: &CTree,
        idx: &TreeIndex,
        id: usize,
        vals: &[Tri],
        symbols: &SymbolTable,
        full: &Assignment,
    ) -> bool {
        if vals.get(id) == Some(&Tri::True) {
            return true;
        }
        match tree {
            CTree::And(cs) => cs
                .iter()
                .zip(&idx.nodes()[id].children)
                .all(|(c, &cid)| self.eval_final(c, idx, cid, vals, symbols, full)),
            CTree::Or(cs) => cs
                .iter()
                .zip(&idx.nodes()[id].children)
                .any(|(c, &cid)| self.eval_final(c, idx, cid, vals, symbols, full)),
            CTree::Collect { .. } => true,
            CTree::Atom(a) => match a.kind {
                AtomKind::Concat => true,
                AtomKind::KilledBy => {
                    let Some(sink) = full.get(a.vars[0]) else {
                        return false;
                    };
                    let mut killers = Vec::new();
                    for &fam in &a.families {
                        killers.extend(Self::resolve_family(full, symbols, fam));
                    }
                    kernel_slice(self.f, sink, &killers, PURE_CALLS).is_some()
                }
                _ => {
                    let mut vals = Vec::with_capacity(a.vars.len());
                    for &v in &a.vars {
                        match full.get(v) {
                            Some(x) => vals.push(x),
                            None => return false,
                        }
                    }
                    self.eval_ground(a, &vals)
                }
            },
        }
    }
}

/// A [`SolveOutcome`] whose solutions are still dense assignments.
struct DenseOutcome {
    solutions: Vec<Assignment>,
    complete: bool,
    steps: u64,
}

/// A [`SolveOutcome`] in bulk row form: each solution projected onto a
/// caller-chosen variable list, in that order. Same canonical solution
/// ordering as [`SolveOutcome`]; no variable names involved.
#[derive(Debug, Clone)]
pub struct RowsOutcome {
    /// One row per solution, each the values of the requested variables.
    pub rows: Vec<Vec<ValueId>>,
    /// See [`SolveOutcome::complete`].
    pub complete: bool,
    /// See [`SolveOutcome::steps`].
    pub steps: u64,
}

/// Projects a dense outcome onto `vars` (which must all be bound in every
/// solution — true for any variable of the solved tree).
fn rows_outcome(vars: &[VarId], dense: DenseOutcome) -> RowsOutcome {
    let rows = dense
        .solutions
        .iter()
        .map(|a| {
            vars.iter()
                .map(|&v| a.get(v).expect("projection variable is bound"))
                .collect()
        })
        .collect();
    RowsOutcome {
        rows,
        complete: dense.complete,
        steps: dense.steps,
    }
}

/// Renders a dense outcome as string-keyed [`Solution`]s — the only
/// point where variable names re-enter the picture.
fn render_outcome(symbols: &SymbolTable, dense: DenseOutcome) -> SolveOutcome {
    let solutions = dense
        .solutions
        .into_iter()
        .map(|a| Solution {
            bindings: a
                .slots()
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.map(|v| (symbols.name(VarId(i as u32)).to_owned(), v)))
                .collect(),
        })
        .collect();
    SolveOutcome {
        solutions,
        complete: dense.complete,
        steps: dense.steps,
    }
}

/// Incremental watched-atom evaluation over a [`TreeIndex`].
///
/// Replaces the O(|tree|)-per-step recursive `eval3` walk: every node's
/// 3-valued truth is cached, and each `And`/`Or` keeps counts of its
/// children per truth value so a child change repairs the parent in O(1).
/// Binding (or unbinding) a variable re-evaluates only the atoms watching
/// that variable and propagates dirtiness along parent links — worst case
/// O(watchers × depth) per step instead of the size of the whole tree.
struct IncEval<'t> {
    idx: &'t TreeIndex,
    /// Cached truth per node (pre-order, `vals[0]` is the root).
    vals: Vec<Tri>,
    /// Per composite node: how many children are currently true /
    /// false / unknown.
    n_true: Vec<u32>,
    n_false: Vec<u32>,
    n_unknown: Vec<u32>,
}

fn composite_val(kind: IndexedKind, n_true: u32, n_false: u32, n_unknown: u32) -> Tri {
    match kind {
        // Empty conjunction = true, empty disjunction = false (as eval3).
        IndexedKind::And => {
            if n_false > 0 {
                Tri::False
            } else if n_unknown > 0 {
                Tri::Unknown
            } else {
                Tri::True
            }
        }
        IndexedKind::Or => {
            if n_true > 0 {
                Tri::True
            } else if n_unknown > 0 {
                Tri::Unknown
            } else {
                Tri::False
            }
        }
        IndexedKind::Atom(_) | IndexedKind::Collect => unreachable!("leaf"),
    }
}

impl<'t> IncEval<'t> {
    /// Seeds every cache from `asg` over a prebuilt index (one full
    /// evaluation pass; everything after is incremental).
    fn new(solver: &Solver, idx: &'t TreeIndex, asg: &Assignment) -> IncEval<'t> {
        let n = idx.len();
        let mut ev = IncEval {
            idx,
            vals: vec![Tri::Unknown; n],
            n_true: vec![0; n],
            n_false: vec![0; n],
            n_unknown: vec![0; n],
        };
        ev.reseed(solver, asg);
        ev
    }

    /// Recomputes every cache from `asg` in one pass — the bulk-rebind
    /// used between seed rows, where repairing tens of bindings
    /// incrementally (twice: unbind then bind) costs more than one sweep.
    fn reseed(&mut self, solver: &Solver, asg: &Assignment) {
        // Children have larger ids than parents: reverse pre-order visits
        // children first.
        for id in (0..self.idx.len()).rev() {
            let v = match self.idx.nodes()[id].kind {
                IndexedKind::Atom(a) => solver.eval_atom(self.idx.atom(a), asg),
                IndexedKind::Collect => Tri::Unknown,
                kind @ (IndexedKind::And | IndexedKind::Or) => {
                    let (mut t, mut f, mut u) = (0u32, 0u32, 0u32);
                    for &c in &self.idx.nodes()[id].children {
                        match self.vals[c] {
                            Tri::True => t += 1,
                            Tri::False => f += 1,
                            Tri::Unknown => u += 1,
                        }
                    }
                    self.n_true[id] = t;
                    self.n_false[id] = f;
                    self.n_unknown[id] = u;
                    composite_val(kind, t, f, u)
                }
            };
            self.vals[id] = v;
        }
    }

    /// Cached truth of the whole formula.
    fn root_val(&self) -> Tri {
        self.vals[0]
    }

    /// Re-evaluates the atoms watching `var` against `asg` (which must
    /// already reflect the bind or unbind) and repairs ancestor caches.
    fn rebind(&mut self, solver: &Solver, var: VarId, asg: &Assignment) {
        let IncEval {
            idx,
            vals,
            n_true,
            n_false,
            n_unknown,
        } = self;
        for &a in idx.watchers(var) {
            let IndexedKind::Atom(atom) = idx.nodes()[a].kind else {
                unreachable!("watchers point at atoms");
            };
            let mut node = a;
            let mut newv = solver.eval_atom(idx.atom(atom), asg);
            loop {
                let old = vals[node];
                if old == newv {
                    break;
                }
                vals[node] = newv;
                let Some(p) = idx.nodes()[node].parent else {
                    break;
                };
                match old {
                    Tri::True => n_true[p] -= 1,
                    Tri::False => n_false[p] -= 1,
                    Tri::Unknown => n_unknown[p] -= 1,
                }
                match newv {
                    Tri::True => n_true[p] += 1,
                    Tri::False => n_false[p] += 1,
                    Tri::Unknown => n_unknown[p] += 1,
                }
                newv = composite_val(idx.nodes()[p].kind, n_true[p], n_false[p], n_unknown[p]);
                node = p;
            }
        }
    }
}

struct SearchCx<'a, 'f> {
    solver: &'a Solver<'f>,
    tree: &'a CTree,
    symbols: &'a SymbolTable,
    inc: IncEval<'a>,
    order: Vec<VarId>,
    opts: &'a SolveOptions,
    steps: u64,
    complete: bool,
    out: Vec<Assignment>,
    seen: HashSet<Assignment>,
}

impl SearchCx<'_, '_> {
    /// Checks the incremental evaluator against the recursive oracle
    /// (compiled out of release builds).
    fn check_oracle(&self, asg: &Assignment) {
        debug_assert_eq!(
            self.inc.root_val(),
            self.solver.eval3(self.tree, asg),
            "incremental evaluator diverged from eval3 under {asg:?}"
        );
    }

    /// Sorts the collected assignments canonically, keeping them dense.
    fn finish_dense(self) -> DenseOutcome {
        let mut solutions = self.out;
        solutions.sort_unstable_by(|a, b| a.slots().cmp(b.slots()));
        DenseOutcome {
            solutions,
            complete: self.complete,
            steps: self.steps,
        }
    }

    fn search(&mut self, k: usize, asg: &mut Assignment) {
        if k == self.order.len() {
            if self.inc.root_val() == Tri::True {
                // Proven true incrementally with nothing deferred:
                // `Collect`/`Concat`/`KilledBy` all evaluate `Unknown`,
                // so a root that reached `True` has none of them pending
                // on the conjunctive spine — `finalize` would clone,
                // no-op `run_bindings` and re-prove the tree. Skip it.
                if self.seen.insert(asg.clone()) {
                    self.out.push(asg.clone());
                }
                return;
            }
            if let Some(full) = self.solver.finalize(
                self.tree,
                self.inc.idx,
                &self.inc.vals,
                self.symbols,
                asg,
                self.opts,
                &mut self.steps,
                &mut self.complete,
            ) {
                if self.seen.insert(full.clone()) {
                    self.out.push(full);
                }
            }
            return;
        }
        let var = self.order[k];
        // Don't-care elimination: if every atom mentioning this variable
        // sits under a disjunction that is already satisfied, the variable
        // cannot influence the formula — bind it canonically instead of
        // enumerating (this is what keeps helper variables of untaken
        // `or` branches, e.g. the offset of an identity OffsetChain, from
        // multiplying solutions).
        if !self.relevant(var) {
            asg.bind(var, ValueId(0));
            self.inc.rebind(self.solver, var, asg);
            self.check_oracle(asg);
            self.search(k + 1, asg);
            asg.unbind(var);
            self.inc.rebind(self.solver, var, asg);
            return;
        }
        let candidates = self
            .gen_node(0, var, asg)
            .unwrap_or_else(|| Cand::Shared(Rc::clone(&self.solver.all_values)));
        for i in 0..candidates.len() {
            let c = candidates[i];
            if self.out.len() >= self.opts.max_solutions || self.steps >= self.opts.max_steps {
                // Cut off with candidates still unexplored: solutions may
                // have been missed.
                self.complete = false;
                self.recycle(candidates);
                return;
            }
            self.steps += 1;
            asg.bind(var, c);
            self.inc.rebind(self.solver, var, asg);
            self.check_oracle(asg);
            if self.inc.root_val() != Tri::False {
                self.search(k + 1, asg);
            }
            asg.unbind(var);
            self.inc.rebind(self.solver, var, asg);
        }
        self.recycle(candidates);
    }

    /// Returns an owned candidate buffer to the solver's scratch pool.
    fn recycle(&self, cand: Cand) {
        if let Cand::Owned(mut v) = cand {
            v.clear();
            let mut pool = self.solver.scratch.borrow_mut();
            if pool.len() < 64 {
                pool.push(v);
            }
        }
    }

    /// `true` if assigning `var` can still influence the truth of the
    /// formula: some atom watching `var` has no disjunction ancestor that
    /// is already satisfied, along a branch path not yet falsified.
    fn relevant(&self, var: VarId) -> bool {
        let nodes = self.inc.idx.nodes();
        'watcher: for &a in self.inc.idx.watchers(var) {
            let mut x = a;
            while let Some(p) = nodes[x].parent {
                if matches!(nodes[p].kind, IndexedKind::Or)
                    && (self.inc.n_true[p] > 0 || self.inc.vals[x] == Tri::False)
                {
                    continue 'watcher;
                }
                x = p;
            }
            return true;
        }
        false
    }

    /// Candidates for `var` implied by the subtree at `node`, using the
    /// cached branch truth values to skip falsified `or` branches.
    fn gen_node(&self, node: usize, var: VarId, asg: &Assignment) -> Option<Cand> {
        // A subtree with no atom mentioning `var` can never generate for
        // it (atoms return `None`, `And` folds `None` children away, `Or`
        // needs every branch): skip it in O(1) instead of recursing.
        if !self.inc.idx.mentions(node, var) {
            return None;
        }
        let n = &self.inc.idx.nodes()[node];
        match n.kind {
            IndexedKind::Atom(a) => self.solver.gen_atom(self.inc.idx.atom(a), var, asg),
            IndexedKind::And => {
                let mut acc: Option<Cand> = None;
                for &c in &n.children {
                    // Hoisted subtree-mention test (also first thing the
                    // recursive call would do): most children of a wide
                    // conjunction never mention `var` — skip the call.
                    if !self.inc.idx.mentions(c, var) {
                        continue;
                    }
                    if let Some(g) = self.gen_node(c, var, asg) {
                        acc = Some(match acc {
                            None => g,
                            Some(prev) => {
                                // Singleton fast paths: an intersection
                                // with a one-element list is a membership
                                // test, no allocation. The kept order is
                                // what the filter below would produce.
                                let merged = if let [x] = *g {
                                    if prev.contains(&x) {
                                        Cand::One([x])
                                    } else {
                                        Cand::Owned(Vec::new())
                                    }
                                } else if let [x] = *prev {
                                    if g.contains(&x) {
                                        Cand::One([x])
                                    } else {
                                        Cand::Owned(Vec::new())
                                    }
                                } else {
                                    let filtered: Vec<ValueId> = if g.len() <= 32 {
                                        prev.iter().copied().filter(|v| g.contains(v)).collect()
                                    } else {
                                        let set: HashSet<ValueId> = g.iter().copied().collect();
                                        prev.iter().copied().filter(|v| set.contains(v)).collect()
                                    };
                                    Cand::Owned(filtered)
                                };
                                self.recycle(g);
                                self.recycle(prev);
                                merged
                            }
                        });
                        if acc.as_ref().is_some_and(|c| c.is_empty()) {
                            return acc; // empty intersection, prune hard
                        }
                    }
                }
                acc
            }
            IndexedKind::Or => {
                // A union is only a sound generator if EVERY branch
                // generates (otherwise an ungenerated branch might admit
                // other values). Branches already falsified under the
                // current assignment admit nothing and are skipped.
                let mut union: Vec<ValueId> =
                    self.solver.scratch.borrow_mut().pop().unwrap_or_default();
                for &c in &n.children {
                    if self.inc.vals[c] == Tri::False {
                        continue;
                    }
                    if !self.inc.idx.mentions(c, var) {
                        // The branch admits every value of `var`: no
                        // sound union exists (same as the recursive
                        // call returning `None`).
                        self.recycle(Cand::Owned(union));
                        return None;
                    }
                    match self.gen_node(c, var, asg) {
                        Some(g) => {
                            for &v in g.iter() {
                                if !union.contains(&v) {
                                    union.push(v);
                                }
                            }
                            self.recycle(g);
                        }
                        None => {
                            self.recycle(Cand::Owned(union));
                            return None;
                        }
                    }
                }
                Some(Cand::Owned(union))
            }
            IndexedKind::Collect => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idl::{compile, parse_library};
    use ssair::parser::parse_function_text;

    #[test]
    fn ordering_prefers_anchored_connected_variables() {
        let lib = parse_library(
            r#"
Constraint X
( {b} is first argument of {a} and
  {a} is add instruction and
  {c} is first argument of {b} )
End
"#,
        )
        .unwrap();
        let c = compile(&lib, "X").unwrap();
        // The compile-time precomputed order is what solve_outcome uses.
        assert_eq!(c.var_name(c.order[0]), "a", "anchored variable first");
        assert_eq!(c.var_name(c.order[1]), "b", "connected to a");
        assert_eq!(c.var_name(c.order[2]), "c");
    }

    #[test]
    fn family_resolution_orders_indices_numerically() {
        let mut syms = SymbolTable::new();
        let ids: Vec<VarId> = [0usize, 2, 10, 1]
            .iter()
            .map(|k| syms.intern(&format!("fam[{k}]")))
            .collect();
        syms.intern("fam[0].sub"); // must be ignored (not a direct member)
        let fam = syms.intern("fam");
        syms.index_families();
        let mut asg = Assignment::new(syms.len());
        for (&id, k) in ids.iter().zip([0u32, 2, 10, 1]) {
            asg.bind(id, ValueId(k));
        }
        asg.bind(syms.lookup("fam[0].sub").unwrap(), ValueId(99));
        let got = Solver::resolve_family(&asg, &syms, fam);
        assert_eq!(got, vec![ValueId(0), ValueId(1), ValueId(2), ValueId(10)]);
        // Scalar binding takes priority.
        asg.bind(fam, ValueId(7));
        assert_eq!(Solver::resolve_family(&asg, &syms, fam), vec![ValueId(7)]);
    }

    // ----- edge cases: degenerate functions and unsatisfiable programs -----

    /// A small but non-trivial constraint exercising generators, ordering,
    /// disjunction and dominance against degenerate inputs.
    fn loopish_constraint() -> idl::CompiledConstraint {
        let lib = parse_library(
            r#"
Constraint Loopish
( {iterator} is phi instruction and
  {precursor} is branch instruction and
  {precursor} has control flow to {iterator} and
  {begin} reaches phi node {iterator} from {precursor} and
  ( {begin} is a constant or {begin} is an argument ) and
  {iterator} strictly dominates {precursor} )
End
"#,
        )
        .unwrap();
        compile(&lib, "Loopish").unwrap()
    }

    #[test]
    fn empty_function_terminates_with_no_solutions() {
        // An entry block with no instructions at all (not even a
        // terminator): nothing to bind, nothing to crash on.
        let f = Function::new("empty", &[], ssair::Type::Void);
        let s = Solver::new(&f);
        let sols = s.solve(&loopish_constraint(), &SolveOptions::default());
        assert!(sols.is_empty());
    }

    #[test]
    fn single_block_function_terminates_with_no_solutions() {
        let f = parse_function_text(
            "define i64 @one(i64 %a) {\nentry:\n  %x = add i64 %a, 1\n  ret i64 %x\n}\n",
        )
        .unwrap();
        let s = Solver::new(&f);
        let sols = s.solve(&loopish_constraint(), &SolveOptions::default());
        assert!(sols.is_empty(), "no phi, no branch: nothing may match");
    }

    #[test]
    fn unreachable_blocks_do_not_panic_the_analyses_or_search() {
        // `dead` has no predecessors; dominance and post-dominance queries
        // against its instructions must stay well-defined.
        let f = parse_function_text(
            r#"
define i64 @u(i64 %n) {
entry:
  br label %exit
dead:
  %x = add i64 %n, 1
  br label %exit
exit:
  %r = phi i64 [ 0, %entry ], [ %x, %dead ]
  ret i64 %r
}
"#,
        )
        .unwrap();
        let s = Solver::new(&f);
        let sols = s.solve(&loopish_constraint(), &SolveOptions::default());
        // Whatever matches must at least be internally consistent.
        for sol in &sols {
            assert!(f.opcode(sol.bindings["iterator"]) == Some(Opcode::Phi));
        }
    }

    #[test]
    fn zero_solution_program_terminates() {
        // Mutually exclusive atoms: satisfiable nowhere, on any function.
        let lib = parse_library(
            "Constraint Impossible ( {a} is add instruction and {a} is mul instruction and {b} is first argument of {a} and {b} is unused ) End",
        )
        .unwrap();
        let c = compile(&lib, "Impossible").unwrap();
        let f = parse_function_text(
            "define i32 @f(i32 %a) {\nentry:\n  %x = add i32 %a, %a\n  %y = mul i32 %x, %x\n  ret i32 %y\n}\n",
        )
        .unwrap();
        let sols = Solver::new(&f).solve(&c, &SolveOptions::default());
        assert!(sols.is_empty());
    }

    #[test]
    fn step_budget_cuts_off_pathological_searches() {
        // Five unconstrained variables over the whole value arena: the
        // search must stop at max_steps instead of exploding.
        let lib = parse_library(
            "Constraint Wide ( {a} is an instruction and {b} is an instruction and {c} is an instruction and {d} is an instruction and {a} is not the same as {b} ) End",
        )
        .unwrap();
        let c = compile(&lib, "Wide").unwrap();
        let mut body = String::new();
        for k in 0..24 {
            body.push_str(&format!("  %t{k} = add i64 %n, {k}\n"));
        }
        let f = parse_function_text(&format!(
            "define void @f(i64 %n) {{\nentry:\n{body}  ret void\n}}\n"
        ))
        .unwrap();
        let opts = SolveOptions {
            max_solutions: usize::MAX,
            max_steps: 2_000,
        };
        let sols = Solver::new(&f).solve(&c, &opts);
        // Terminates quickly and reports only genuine assignments.
        for sol in &sols {
            assert_ne!(sol.bindings["a"], sol.bindings["b"]);
        }
    }

    // ----- budget semantics and truncation reporting -----

    /// A function with `n` independent add instructions.
    fn wide_function(n: usize) -> Function {
        let mut body = String::new();
        for k in 0..n {
            body.push_str(&format!("  %t{k} = add i64 %n, {k}\n"));
        }
        parse_function_text(&format!(
            "define void @f(i64 %n) {{\nentry:\n{body}  ret void\n}}\n"
        ))
        .unwrap()
    }

    #[test]
    fn collect_sub_searches_share_the_total_step_budget() {
        // The outer search binds only the cheap anchor; the collect body
        // pairs every load with every load through a non-generator
        // dependence atom that never holds (all loads have distinct
        // roots), so the sub-search burns ~n² steps and finds nothing.
        // With the budget threaded through, the TOTAL work (outer + all
        // sub-searches) must stay within max_steps instead of getting a
        // fresh budget per collect — and the step cut must be reported.
        let lib = parse_library(
            "Constraint PathologicalCollect ( {anchor} is return instruction and collect i 64 ( {a[i]} is load instruction and {b[i]} is load instruction and {a[i]} has dependence edge to {b[i]} ) ) End",
        )
        .unwrap();
        let c = compile(&lib, "PathologicalCollect").unwrap();
        let k = 24;
        let params: Vec<String> = (0..k).map(|i| format!("double* %p{i}")).collect();
        let mut body = String::new();
        for i in 0..k {
            body.push_str(&format!("  %x{i} = load double, double* %p{i}\n"));
        }
        let f = parse_function_text(&format!(
            "define void @f({}) {{\nentry:\n{body}  ret void\n}}\n",
            params.join(", ")
        ))
        .unwrap();
        let opts = SolveOptions {
            max_solutions: usize::MAX,
            max_steps: 300,
        };
        let out = Solver::new(&f).solve_outcome(&c, &opts);
        assert!(
            out.steps <= opts.max_steps,
            "total steps {} exceed the budget {}",
            out.steps,
            opts.max_steps
        );
        assert!(
            !out.complete,
            "a step-cut search must report incompleteness"
        );
        // Sanity: with a generous budget the same query completes (and
        // proves the n² search space really is larger than 300 steps).
        let generous = Solver::new(&f).solve_outcome(&c, &SolveOptions::default());
        assert!(generous.complete);
        assert!(generous.steps > 300);
    }

    #[test]
    fn overfull_collect_family_is_not_reported_as_truncation() {
        // Four loads, family capacity two: the sub-search stops at the
        // IDL-declared cap. That is the constraint working as written —
        // not budget truncation — so the search stays `complete`.
        let lib = parse_library(
            "Constraint SmallFamily ( {anchor} is return instruction and collect i 2 ( {read[i]} is load instruction ) ) End",
        )
        .unwrap();
        let c = compile(&lib, "SmallFamily").unwrap();
        let f = parse_function_text(
            r#"
define double @f(double* %p) {
entry:
  %a = load double, double* %p
  %b = load double, double* %p
  %c = load double, double* %p
  %d = load double, double* %p
  %s = fadd double %a, %b
  ret double %s
}
"#,
        )
        .unwrap();
        let out = Solver::new(&f).solve_outcome(&c, &SolveOptions::default());
        assert_eq!(out.solutions.len(), 1);
        let b = &out.solutions[0].bindings;
        assert!(b.contains_key("read[0]") && b.contains_key("read[1]"));
        assert!(!b.contains_key("read[2]"), "family capped at capacity 2");
        assert!(
            out.complete,
            "a structurally-capped family is not an incomplete search"
        );
    }

    #[test]
    fn step_budget_is_not_exceeded_by_one() {
        // The off-by-one regression: `steps > max_steps` allowed
        // max_steps + 1 assignment steps.
        let lib = parse_library(
            "Constraint Wide2 ( {a} is an instruction and {b} is an instruction ) End",
        )
        .unwrap();
        let c = compile(&lib, "Wide2").unwrap();
        let f = wide_function(10);
        for budget in [1u64, 7, 50] {
            let opts = SolveOptions {
                max_solutions: usize::MAX,
                max_steps: budget,
            };
            let out = Solver::new(&f).solve_outcome(&c, &opts);
            assert!(
                out.steps <= budget,
                "{} steps under budget {budget}",
                out.steps
            );
            assert!(!out.complete);
        }
    }

    #[test]
    fn truncated_search_reports_incomplete() {
        let lib = parse_library("Constraint AnyAdd ( {x} is add instruction ) End").unwrap();
        let c = compile(&lib, "AnyAdd").unwrap();
        let f = wide_function(20);
        let solver = Solver::new(&f);
        // Cut by max_solutions.
        let capped = solver.solve_outcome(
            &c,
            &SolveOptions {
                max_solutions: 5,
                ..SolveOptions::default()
            },
        );
        assert_eq!(capped.solutions.len(), 5);
        assert!(!capped.complete, "solution cap hit mid-enumeration");
        // Cut by max_steps.
        let starved = solver.solve_outcome(
            &c,
            &SolveOptions {
                max_solutions: usize::MAX,
                max_steps: 3,
            },
        );
        assert!(starved.solutions.len() < 20);
        assert!(!starved.complete, "step cut must report incompleteness");
        // No limits hit: the full enumeration is complete.
        let full = solver.solve_outcome(&c, &SolveOptions::default());
        assert_eq!(full.solutions.len(), 20);
        assert!(full.complete);
        assert!(full.steps >= 20);
    }

    // ----- seeded search vs plain enumeration -----

    #[test]
    fn seeded_search_with_exhaustive_seeds_matches_plain_enumeration() {
        // A hand-rolled "skeleton": solve the anchor sub-constraint
        // standalone, then seed the full constraint from its solutions.
        // With canonical solution ordering the outcome must be
        // byte-identical to the plain search.
        let lib = parse_library(
            r#"
Constraint Anchor
( {m} is mul instruction )
End

Constraint Full
( inherits Anchor and
  ( {x} is first argument of {m} or {x} is second argument of {m} ) )
End
"#,
        )
        .unwrap();
        let anchor = compile(&lib, "Anchor").unwrap();
        let full = compile(&lib, "Full").unwrap();
        // `Anchor` is not a skeleton block, so no marker is recorded —
        // but the seeded API only needs the order prefix, which `m`
        // satisfies (it is the anchored first variable either way).
        assert_eq!(full.var_name(full.order[0]), "m");
        let f = parse_function_text(
            "define i32 @f(i32 %a, i32 %b) {\nentry:\n  %m = mul i32 %a, %b\n  %n = mul i32 %m, %a\n  ret i32 %n\n}\n",
        )
        .unwrap();
        let solver = Solver::new(&f);
        let m_full = full.symbols.lookup("m").unwrap();
        let seeds: Vec<Vec<(VarId, ValueId)>> = solver
            .solve_outcome(&anchor, &SolveOptions::default())
            .solutions
            .iter()
            .map(|s| vec![(m_full, s.bindings["m"])])
            .collect();
        assert_eq!(seeds.len(), 2);
        let plain = solver.solve_outcome(&full, &SolveOptions::default());
        let seeded = solver.solve_seeded_outcome(&full, &seeds, &SolveOptions::default());
        assert!(plain.complete && seeded.complete);
        assert_eq!(plain.solutions, seeded.solutions);
        // Seeding charges one step per seed binding, so it can never cost
        // more than enumerating the same prefix (and wins outright as
        // soon as the prefix enumeration tries failing candidates).
        assert!(
            seeded.steps <= plain.steps,
            "seeding must not cost more than the prefix enumeration ({} > {})",
            seeded.steps,
            plain.steps
        );
    }

    #[test]
    fn seeded_search_respects_the_step_budget() {
        let lib = parse_library(
            "Constraint TwoWide ( {a} is add instruction and {b} is an instruction ) End",
        )
        .unwrap();
        let c = compile(&lib, "TwoWide").unwrap();
        let f = wide_function(12);
        let solver = Solver::new(&f);
        let a = c.symbols.lookup("a").unwrap();
        assert_eq!(c.order[0], a);
        let seeds: Vec<Vec<(VarId, ValueId)>> = solver
            .solve_outcome(
                &compile(
                    &parse_library("Constraint A ( {a} is add instruction ) End").unwrap(),
                    "A",
                )
                .unwrap(),
                &SolveOptions::default(),
            )
            .solutions
            .iter()
            .map(|s| vec![(a, s.bindings["a"])])
            .collect();
        let opts = SolveOptions {
            max_solutions: usize::MAX,
            max_steps: 5,
        };
        let out = solver.solve_seeded_outcome(&c, &seeds, &opts);
        assert!(out.steps <= opts.max_steps);
        assert!(!out.complete, "budget cut must surface");
    }

    // ----- incremental evaluator vs the recursive oracle -----

    /// The subtrees of `t` in the same pre-order the `TreeIndex` uses
    /// (collect bodies are leaves, exactly as in the index).
    fn pre_order<'t>(t: &'t CTree, out: &mut Vec<&'t CTree>) {
        out.push(t);
        if let CTree::And(cs) | CTree::Or(cs) = t {
            for c in cs {
                pre_order(c, out);
            }
        }
    }

    /// A disjunction/conjunction-rich constraint whose atoms cover the
    /// three truth values under partial assignments.
    fn rich_constraint() -> idl::CompiledConstraint {
        let lib = parse_library(
            r#"
Constraint Rich
( {a} is add instruction and
  ( {b} is first argument of {a} or {b} is second argument of {a} ) and
  ( {b} is a constant or
    ( {b} is an instruction and {c} has data flow to {b} ) or
    {b} is an argument ) and
  {a} is not the same as {c} and
  ( {d} is mul instruction or {d} is unused ) )
End
"#,
        )
        .unwrap();
        compile(&lib, "Rich").unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        #[test]
        fn incremental_eval_agrees_with_eval3_on_random_partial_assignments(
            picks in proptest::collection::vec((0usize..4, 0u32..16, proptest::prelude::any::<bool>()), 1..24),
        ) {
            let c = rich_constraint();
            let f = parse_function_text(
                r#"
define i64 @g(i64 %n, i64 %m) {
entry:
  %x = add i64 %n, 3
  %y = mul i64 %x, %m
  %z = add i64 %y, %x
  %w = sub i64 %z, %n
  ret i64 %w
}
"#,
            )
            .unwrap();
            let solver = Solver::new(&f);
            let vars: Vec<VarId> = ["a", "b", "c", "d"]
                .iter()
                .map(|n| c.symbols.lookup(n).unwrap())
                .collect();
            let mut subtrees = Vec::new();
            pre_order(&c.tree, &mut subtrees);

            // Replay a random bind/unbind history, comparing EVERY cached
            // node value against the recursive evaluation of its subtree.
            let mut asg = Assignment::new(c.symbols.len());
            let mut inc = IncEval::new(&solver, c.index(), &asg);
            proptest::prop_assert_eq!(subtrees.len(), inc.idx.len());
            for (slot, raw, unbind) in picks {
                let var = vars[slot];
                if unbind {
                    asg.unbind(var);
                } else {
                    // Values deliberately include ids that are not valid
                    // for some atoms — the evaluators must agree anyway.
                    let vals = &solver.all_values;
                    asg.bind(var, vals[(raw as usize) % vals.len()]);
                }
                inc.rebind(&solver, var, &asg);
                for (id, sub) in subtrees.iter().enumerate() {
                    proptest::prop_assert_eq!(
                        inc.vals[id],
                        solver.eval3(sub, &asg),
                        "node {} diverged under {:?}",
                        id,
                        &asg
                    );
                }
            }
        }
    }

    #[test]
    fn dependence_edges_use_address_roots() {
        let f = parse_function_text(
            r#"
define void @f(double* %p, double* %q, i64 %i) {
entry:
  %a = getelementptr double, double* %p, i64 %i
  %x = load double, double* %a
  %b = getelementptr double, double* %p, i64 0
  store double %x, double* %b
  %c = getelementptr double, double* %q, i64 %i
  store double %x, double* %c
  ret void
}
"#,
        )
        .unwrap();
        let s = Solver::new(&f);
        let e = ssair::BlockId(0);
        let load = f.block(e).instrs[1];
        let store_p = f.block(e).instrs[3];
        let store_q = f.block(e).instrs[5];
        assert!(s.may_depend(load, store_p), "same root p");
        assert!(!s.may_depend(load, store_q), "distinct roots p vs q");
    }
}
