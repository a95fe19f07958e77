//! # baselines — the alternative detection approaches of Table 1
//!
//! The paper compares IDL against two parallelizing compilers (§7):
//!
//! * **Polly** — an LLVM polyhedral optimizer. It models *static control
//!   parts* (SCoPs): loop nests with affine bounds and affine memory
//!   accesses, no calls, no data-dependent control. Inside SCoPs it can
//!   recognize parallel (stencil-like) loops and reductions — but
//!   floating-point reductions require reassociation, which is illegal
//!   without `-ffast-math`, so only *integer* reductions count; and any
//!   indirect access (histograms, CSR sparse rows) breaks the affine
//!   model entirely. [`polly_detect`] implements exactly these capability
//!   boundaries.
//! * **ICC** `-parallel` — dependence-analysis-based auto-parallelization
//!   with a dedicated scalar-reduction recognizer. It handles plain
//!   associative updates (`s += expr`) over affine reads, but not
//!   call-based kernels (`fmax`), data-dependent selects, or indirect
//!   reads. [`icc_detect`] mirrors that.
//!
//! Both return per-loop classifications so the Table 1 / Figure 16
//! comparison can be made per benchmark. As in the paper (§7), these are
//! parallelizers, not idiom matchers: "detecting" here means the loop was
//! captured by the tool's model at all.

use ssair::analysis::Analyses;
use ssair::{BlockId, Function, Opcode, ValueId, ValueKind};

/// What a baseline detector found in one loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineFind {
    /// A scalar reduction the tool can parallelize.
    Reduction,
    /// A stencil-like affine parallel loop.
    Stencil,
}

/// Detections of one baseline tool over one function.
#[derive(Debug, Clone, Default)]
pub struct BaselineReport {
    /// (loop header block, classification).
    pub finds: Vec<(BlockId, BaselineFind)>,
}

impl BaselineReport {
    /// Number of detected reductions.
    #[must_use]
    pub fn reductions(&self) -> usize {
        self.finds
            .iter()
            .filter(|(_, f)| *f == BaselineFind::Reduction)
            .count()
    }

    /// Number of detected stencil-like parallel loops.
    #[must_use]
    pub fn stencils(&self) -> usize {
        self.finds
            .iter()
            .filter(|(_, f)| *f == BaselineFind::Stencil)
            .count()
    }
}

/// `true` if `v` is an affine expression of loop-header phis, constants
/// and function arguments (the polyhedral access model): sums/differences
/// of terms, each a phi, a parameter, a constant, or phi×parameter /
/// phi×constant. Anything passing through a load is non-affine.
fn is_affine(f: &Function, v: ValueId, depth: usize) -> bool {
    if depth > 16 {
        return false;
    }
    match &f.value(v).kind {
        ValueKind::ConstInt(_) | ValueKind::Argument { .. } => true,
        ValueKind::ConstFloat(_) => false,
        ValueKind::Instr(i) => match i.opcode {
            Opcode::Phi => true, // induction variables are the affine dims
            Opcode::SExt | Opcode::ZExt | Opcode::Trunc => is_affine(f, i.operands[0], depth + 1),
            Opcode::Add | Opcode::Sub => {
                is_affine(f, i.operands[0], depth + 1) && is_affine(f, i.operands[1], depth + 1)
            }
            Opcode::Mul => {
                let linear = |a: ValueId, b: ValueId| {
                    is_affine(f, a, depth + 1)
                        && matches!(
                            f.value(b).kind,
                            ValueKind::ConstInt(_) | ValueKind::Argument { .. }
                        )
                };
                linear(i.operands[0], i.operands[1]) || linear(i.operands[1], i.operands[0])
            }
            _ => false,
        },
    }
}

/// Memory-access and call scan for the SCoP test.
struct RegionScan {
    affine: bool,
    has_call: bool,
    has_select: bool,
    loads: Vec<ValueId>,
    stores: Vec<ValueId>,
}

fn scan_region(f: &Function, blocks: &[BlockId]) -> RegionScan {
    let mut s = RegionScan {
        affine: true,
        has_call: false,
        has_select: false,
        loads: Vec::new(),
        stores: Vec::new(),
    };
    for &b in blocks {
        for &v in &f.block(b).instrs {
            let Some(i) = f.instr(v) else { continue };
            match i.opcode {
                Opcode::Load => {
                    if !address_affine(f, i.operands[0]) {
                        s.affine = false;
                    }
                    s.loads.push(v);
                }
                Opcode::Store => {
                    if !address_affine(f, i.operands[1]) {
                        s.affine = false;
                    }
                    s.stores.push(v);
                }
                Opcode::Call => s.has_call = true,
                Opcode::Select => s.has_select = true,
                _ => {}
            }
        }
    }
    s
}

fn address_affine(f: &Function, addr: ValueId) -> bool {
    match f.instr(addr) {
        Some(i) if i.opcode == Opcode::Gep => {
            // Base must be a parameter or alloca; index affine.
            let base_ok = match &f.value(i.operands[0]).kind {
                ValueKind::Argument { .. } => true,
                ValueKind::Instr(bi) => bi.opcode == Opcode::Alloca,
                _ => false,
            };
            base_ok && is_affine(f, i.operands[1], 0)
        }
        _ => false,
    }
}

/// A loop-carried scalar (non-iterator phi) with its update value.
fn reduction_phis(f: &Function, an: &Analyses, header: BlockId) -> Vec<(ValueId, ValueId)> {
    let mut out = Vec::new();
    for &v in &f.block(header).instrs {
        let Some(i) = f.instr(v) else { continue };
        if i.opcode != Opcode::Phi {
            break;
        }
        // Iterator phis feed an icmp in the header; accumulators don't.
        let is_iterator = an.defuse.users(v).iter().any(|&u| {
            matches!(f.opcode(u), Some(Opcode::ICmp(_))) && an.layout.block_of(u) == Some(header)
        });
        if is_iterator {
            continue;
        }
        // The loop-carried update: incoming value from inside the loop.
        for (&val, &inb) in i.operands.iter().zip(&i.incoming) {
            let from_inside = an
                .loops
                .loop_with_header(header)
                .is_some_and(|l| l.contains(inb));
            if from_inside && val != v {
                out.push((v, val));
            }
        }
    }
    out
}

/// Is `update` a plain associative update `op(acc, expr)` with `op` in
/// {add, mul, fadd, fmul} and `expr` free of calls/selects/loads-of-loads?
fn plain_associative_update(f: &Function, acc: ValueId, update: ValueId) -> bool {
    let Some(i) = f.instr(update) else {
        return false;
    };
    if !matches!(
        i.opcode,
        Opcode::Add | Opcode::Mul | Opcode::FAdd | Opcode::FMul
    ) {
        return false;
    }
    let other = if i.operands[0] == acc {
        i.operands[1]
    } else if i.operands[1] == acc {
        i.operands[0]
    } else {
        return false;
    };
    expr_is_simple(f, other, 0)
}

/// No calls, selects, phis, or indirect loads below `v`.
fn expr_is_simple(f: &Function, v: ValueId, depth: usize) -> bool {
    if depth > 24 {
        return false;
    }
    match &f.value(v).kind {
        ValueKind::ConstInt(_) | ValueKind::ConstFloat(_) | ValueKind::Argument { .. } => true,
        ValueKind::Instr(i) => match i.opcode {
            Opcode::Call | Opcode::Select | Opcode::Phi => false,
            Opcode::Load => address_affine(f, i.operands[0]),
            Opcode::Store | Opcode::Br | Opcode::CondBr | Opcode::Ret | Opcode::Alloca => false,
            _ => i
                .operands
                .iter()
                .all(|&op| expr_is_simple(f, op, depth + 1)),
        },
    }
}

/// The Polly-like polyhedral detector.
#[must_use]
pub fn polly_detect(f: &Function) -> BaselineReport {
    let an = Analyses::new(f);
    let mut report = BaselineReport::default();
    for l in &an.loops.loops {
        // Only report the outermost loop of each affine nest.
        if l.parent.is_some() {
            continue;
        }
        let scan = scan_region(f, &l.blocks);
        // SCoP requirements: affine accesses, no calls. (Polly tolerates
        // selects, but any non-affine access poisons the region.)
        if !scan.affine || scan.has_call {
            continue;
        }
        let mut inner_reduction = false;
        for il in an.loops.loops.iter().filter(|il| l.contains(il.header)) {
            for (acc, update) in reduction_phis(f, &an, il.header) {
                // FP reduction needs reassociation => -ffast-math; without
                // it Polly only parallelizes integer reductions.
                if f.value(acc).ty.is_integer() && plain_associative_update(f, acc, update) {
                    report.finds.push((il.header, BaselineFind::Reduction));
                    inner_reduction = true;
                }
            }
        }
        if !inner_reduction && !scan.stores.is_empty() {
            // A fully affine nest with stores and no loop-carried scalar:
            // a stencil-like parallel loop. Reading any array that is also
            // written creates loop-carried array dependences Polly cannot
            // parallelize away, so such nests are rejected.
            let any_scalar_carry = an
                .loops
                .loops
                .iter()
                .filter(|il| l.contains(il.header))
                .any(|il| !reduction_phis(f, &an, il.header).is_empty());
            let store_roots: Vec<ValueId> = scan
                .stores
                .iter()
                .map(|&st| f.address_root(f.instr(st).expect("store").operands[1]))
                .collect();
            let in_place = scan.loads.iter().any(|&ld| {
                store_roots.contains(&f.address_root(f.instr(ld).expect("load").operands[0]))
            });
            if !any_scalar_carry && !in_place {
                report.finds.push((l.header, BaselineFind::Stencil));
            }
        }
    }
    report
}

/// The ICC-like `-parallel` reduction recognizer.
#[must_use]
pub fn icc_detect(f: &Function) -> BaselineReport {
    let an = Analyses::new(f);
    let mut report = BaselineReport::default();
    for l in &an.loops.loops {
        let scan = scan_region(f, &l.blocks);
        if scan.has_call {
            continue; // unanalyzable side effects
        }
        for (acc, update) in reduction_phis(f, &an, l.header) {
            // ICC handles float and integer sums/products, but only plain
            // associative updates over provably independent reads.
            if plain_associative_update(f, acc, update) && scan.stores.is_empty() {
                report.finds.push((l.header, BaselineFind::Reduction));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(src: &str) -> ssair::Module {
        minicc::compile(src, "t").expect("compiles")
    }

    #[test]
    fn icc_finds_plain_sums_but_not_kernel_reductions() {
        let m = compile(
            "double plain(double* x, int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) s += x[i];
                return s;
            }
            double kernel_red(double* x, int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) s = fmax(s, fabs(x[i]));
                return s;
            }",
        );
        assert_eq!(icc_detect(m.function("plain").unwrap()).reductions(), 1);
        assert_eq!(
            icc_detect(m.function("kernel_red").unwrap()).reductions(),
            0
        );
    }

    #[test]
    fn polly_only_takes_integer_reductions() {
        let m = compile(
            "double fsum(double* x, int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) s += x[i];
                return s;
            }
            int isum(int* x, int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += x[i];
                return s;
            }",
        );
        assert_eq!(
            polly_detect(m.function("fsum").unwrap()).reductions(),
            0,
            "no -ffast-math"
        );
        assert_eq!(polly_detect(m.function("isum").unwrap()).reductions(), 1);
        // ICC takes both.
        assert_eq!(icc_detect(m.function("fsum").unwrap()).reductions(), 1);
    }

    #[test]
    fn indirect_accesses_defeat_both_baselines() {
        let m = compile(
            "void histo(int* img, int* bins, int n) {
                for (int i = 0; i < n; i++) bins[img[i]] = bins[img[i]] + 1;
            }
            void spmv(double* a, int* rowstr, int* colidx, double* z, double* r, int m) {
                for (int j = 0; j < m; j++) {
                    double d = 0.0;
                    for (int k = rowstr[j]; k < rowstr[j+1]; k++)
                        d = d + a[k] * z[colidx[k]];
                    r[j] = d;
                }
            }",
        );
        for fname in ["histo", "spmv"] {
            let f = m.function(fname).unwrap();
            assert_eq!(polly_detect(f).finds.len(), 0, "{fname} is non-affine");
            assert_eq!(icc_detect(f).finds.len(), 0, "{fname} has indirect reads");
        }
    }

    #[test]
    fn polly_takes_affine_stencils() {
        let m = compile(
            "void jacobi(double* out, double* in_, int n) {
                for (int i = 1; i < n - 1; i++)
                    for (int j = 1; j < n - 1; j++)
                        out[i*n+j] = 0.2 * (in_[(i-1)*n+j] + in_[(i+1)*n+j] + in_[i*n+j]);
            }
            void sqrt_stencil(double* out, double* in_, int n) {
                for (int i = 1; i < n - 1; i++)
                    out[i] = sqrt(in_[i-1] + in_[i+1]);
            }",
        );
        assert_eq!(polly_detect(m.function("jacobi").unwrap()).stencils(), 1);
        // Calls poison the SCoP.
        assert_eq!(
            polly_detect(m.function("sqrt_stencil").unwrap()).stencils(),
            0
        );
    }
}
