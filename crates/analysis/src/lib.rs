//! # analysis — static analyses over SSA IR and compiled IDL (§4.4, §6.3)
//!
//! Three passes sharing one view of the compiled constraint trees:
//!
//! * [`FunctionFingerprint`] / [`IdiomRequirements`] — a cheap linear
//!   per-function summary and a per-idiom necessary-condition signature.
//!   [`IdiomRequirements::admitted_by`] is the subsumption check the
//!   detection driver uses to skip idiom×function pairs that provably
//!   cannot match, before any solver step is spent.
//! * [`lint_constraint`] / [`lint_constraints`] — structural diagnostics
//!   over compiled IDL: dead (disconnected) variables, statically
//!   unsatisfiable conjunctions, unreachable/duplicate `or` branches and
//!   shadowed idiom definitions.
//! * [`legality`] — the restrict-parameter side-effect summary used to
//!   verify, before a replacement commits, that a detected region is
//!   pure outside its reported reads and writes — upgraded to an
//!   evidence-carrying [`LegalityVerdict`] (proven / assumed-restrict /
//!   rejected) by the dependence layer.
//! * [`depend`] — affine dependence testing (ZIV/SIV/GCD/delinearized)
//!   and alias classification over the SCEV-lite forms of
//!   `ssair::analysis::AffineMap`, producing the per-region
//!   [`SafetyCertificate`] a parallel executor consumes.

pub mod depend;
pub mod fingerprint;
pub mod legality;
pub mod lint;
pub mod requirements;

pub use depend::{
    classify_alias, classify_region, disjoint_across, AliasClass, ParallelSafety, ParamAliasFacts,
    SafetyCertificate,
};
pub use fingerprint::FunctionFingerprint;
pub use legality::{
    check_region_legality, check_region_purity, classify_base, LegalityError, LegalityVerdict,
    MemoryBase, VerdictKind,
};
pub use lint::{lint_constraint, lint_constraints, Lint, LintRule};
pub use requirements::IdiomRequirements;
