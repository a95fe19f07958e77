//! Static analyses over [`crate::Function`]s.
//!
//! These are the LLVM analyses the paper's IDL atomics are evaluated
//! against: the control-flow graph, dominator and post-dominator trees,
//! natural-loop detection and def-use chains — plus the
//! instruction-granularity flow queries that IDL's control-flow model
//! requires (§3 of the paper: "Control flow in our model is evaluated on
//! the granularity of instructions").

mod affine;
mod cfg;
mod defuse;
mod dom;
mod flow;
mod layout;
mod loops;

pub use affine::{AffineAddr, AffineIndex, AffineMap, Bound, Coeff, IndVar, VRange};
pub use cfg::Cfg;
pub use defuse::DefUse;
pub use dom::DomTree;
pub use flow::{all_control_flow_passes_through, all_data_flow_passes_through, kernel_slice};
pub use layout::Layout;
pub use loops::{Loop, LoopForest};

use crate::function::{Function, ValueId};

/// [`Analyses::inst_dominates`] over just the two tables it reads (the
/// verifier builds only these).
pub(crate) fn inst_dominates_in(layout: &Layout, dom: &DomTree, a: ValueId, b: ValueId) -> bool {
    let (Some(ba), Some(bb)) = (layout.block_of(a), layout.block_of(b)) else {
        return false;
    };
    if ba == bb {
        layout.position(a) <= layout.position(b)
    } else {
        dom.dominates(ba, bb)
    }
}

/// All analyses for one function, computed eagerly and cached together.
///
/// The constraint solver holds one `Analyses` per searched function; every
/// atomic-constraint evaluation is answered from these tables without
/// re-walking the IR.
pub struct Analyses {
    /// Instruction/block placement tables.
    pub layout: Layout,
    /// Block-level control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dom: DomTree,
    /// Post-dominator tree (dominators of the reversed CFG).
    pub postdom: DomTree,
    /// Def-use chains.
    pub defuse: DefUse,
    /// Natural loops.
    pub loops: LoopForest,
}

impl Analyses {
    /// Computes all analyses for `f`.
    #[must_use]
    pub fn new(f: &Function) -> Analyses {
        let layout = Layout::new(f);
        let cfg = Cfg::new(f);
        let dom = DomTree::dominators(&cfg);
        let postdom = DomTree::post_dominators(&cfg);
        let defuse = DefUse::new(f);
        let loops = LoopForest::new(&cfg, &dom);
        Analyses {
            layout,
            cfg,
            dom,
            postdom,
            defuse,
            loops,
        }
    }

    /// Instruction-granularity dominance: `a` dominates `b` iff every path
    /// from function entry to `b` passes through `a` first. Reflexive.
    #[must_use]
    pub fn inst_dominates(&self, a: ValueId, b: ValueId) -> bool {
        inst_dominates_in(&self.layout, &self.dom, a, b)
    }

    /// Strict instruction dominance (`a != b`).
    #[must_use]
    pub fn inst_strictly_dominates(&self, a: ValueId, b: ValueId) -> bool {
        a != b && self.inst_dominates(a, b)
    }

    /// Instruction-granularity post-dominance: every path from `a` to
    /// function exit passes through `b`... evaluated as `a` post-dominating
    /// `b` means every path from `b` to exit passes through `a`. Reflexive.
    #[must_use]
    pub fn inst_post_dominates(&self, a: ValueId, b: ValueId) -> bool {
        let (Some(ba), Some(bb)) = (self.layout.block_of(a), self.layout.block_of(b)) else {
            return false;
        };
        if ba == bb {
            self.layout.position(a) >= self.layout.position(b)
        } else {
            self.postdom.dominates(ba, bb)
        }
    }

    /// Strict instruction post-dominance (`a != b`).
    #[must_use]
    pub fn inst_strictly_post_dominates(&self, a: ValueId, b: ValueId) -> bool {
        a != b && self.inst_post_dominates(a, b)
    }

    /// Direct instruction-level control-flow edge: `b` can execute
    /// immediately after `a` — either `b` follows `a` within a block, or
    /// `a` is a terminator and `b` is the first instruction of a successor
    /// block.
    #[must_use]
    pub fn has_control_flow_edge(&self, f: &Function, a: ValueId, b: ValueId) -> bool {
        self.control_flow_successors(f, a).contains(&b)
    }

    /// The instruction-level control-flow successors of `a`.
    #[must_use]
    pub fn control_flow_successors(&self, f: &Function, a: ValueId) -> Vec<ValueId> {
        let Some(block) = self.layout.block_of(a) else {
            return Vec::new();
        };
        let pos = self.layout.position(a);
        let instrs = &f.block(block).instrs;
        if pos + 1 < instrs.len() {
            return vec![instrs[pos + 1]];
        }
        // Terminator: first instruction of each successor block.
        let mut out = Vec::new();
        if let Some(instr) = f.instr(a) {
            for &t in &instr.targets {
                if let Some(&first) = f.block(t).instrs.first() {
                    out.push(first);
                }
            }
        }
        out
    }

    /// The instruction-level control-flow predecessors of `b`.
    #[must_use]
    pub fn control_flow_predecessors(&self, f: &Function, b: ValueId) -> Vec<ValueId> {
        let Some(block) = self.layout.block_of(b) else {
            return Vec::new();
        };
        let pos = self.layout.position(b);
        if pos > 0 {
            return vec![f.block(block).instrs[pos - 1]];
        }
        self.cfg
            .preds(block)
            .iter()
            .filter_map(|&p| f.terminator(p))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function_text;

    const LOOP: &str = r#"
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
"#;

    fn get(f: &Function, name: &str) -> ValueId {
        f.named(name)
            .unwrap_or_else(|| panic!("no value named {name}"))
    }

    #[test]
    fn instruction_dominance_within_and_across_blocks() {
        let f = parse_function_text(LOOP).unwrap();
        let a = Analyses::new(&f);
        let i = get(&f, "i");
        let cond = get(&f, "cond");
        let accn = get(&f, "acc.next");
        assert!(a.inst_dominates(i, cond), "same-block order");
        assert!(a.inst_dominates(i, accn), "header dominates latch");
        assert!(!a.inst_dominates(accn, i), "latch does not dominate header");
        assert!(a.inst_dominates(i, i), "reflexive");
        assert!(!a.inst_strictly_dominates(i, i));
    }

    #[test]
    fn instruction_post_dominance() {
        let f = parse_function_text(LOOP).unwrap();
        let a = Analyses::new(&f);
        let cond = get(&f, "cond");
        let i = get(&f, "i");
        let accn = get(&f, "acc.next");
        // The header comparison post-dominates the latch body: every path
        // from the latch to the exit re-enters the header.
        assert!(a.inst_post_dominates(cond, accn));
        assert!(a.inst_post_dominates(cond, i), "same block, later position");
        assert!(!a.inst_post_dominates(accn, cond), "latch is bypassable");
    }

    #[test]
    fn control_flow_edges_follow_block_order_and_branches() {
        let f = parse_function_text(LOOP).unwrap();
        let a = Analyses::new(&f);
        let i = get(&f, "i");
        let acc = get(&f, "acc");
        assert!(a.has_control_flow_edge(&f, i, acc));
        // Header terminator flows to first instruction of latch and of exit.
        let header_term = f.terminator(crate::BlockId(1)).unwrap();
        let succs = a.control_flow_successors(&f, header_term);
        assert_eq!(succs.len(), 2);
        let accn = get(&f, "acc.next");
        assert!(succs.contains(&accn));
        // Predecessors of the header's first phi include both branches.
        let preds = a.control_flow_predecessors(&f, i);
        assert_eq!(preds.len(), 2, "entry br and latch br");
    }
}
