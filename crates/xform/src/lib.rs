//! # xform — translating computational idioms (paper §6)
//!
//! Once an idiom has been detected, this crate rewrites the program to use
//! a heterogeneous API:
//!
//! * **library path** (§6.1; cuBLAS/cuSPARSE-style): the matched loop nest
//!   is excised and replaced with a single `call` to a fixed-function API
//!   entry point (`gemm_f64`, `csrmv_f64`). The call's arguments are read
//!   straight out of the constraint solution, exactly like the paper's
//!   Figure 6 (`cusparseDcsrmv(...)`).
//! * **DSL path** (§6.2; Halide/Lift-style): the kernel function or
//!   reduction operator is *outlined* from the constraint solution's
//!   backward slice into a fresh IR function, a device program is
//!   generated around it (here: a regenerated IR function, standing in for
//!   the OpenCL that Lift/Halide would emit), and the original loop is
//!   replaced with a call to the generated code.
//!
//! [`apply_replacement`] is the one replacement path: before any rewrite
//! it re-validates the §6.3 side conditions natively (no unmatched side
//! effects inside the replaced region, no live-outs beyond the matched
//! result, restrict-model legality under the module's call-site alias
//! facts, operands available at the call site) and returns the verdict
//! and parallel-safety certificate that admitted the rewrite; the tests
//! exercise the rejection paths.
//!
//! [`transform_module`] scales the rewrite to the paper's actual claim —
//! *all* detected instances of a module — resolving overlapping matches
//! deterministically and reporting a per-instance
//! replaced/shadowed/failed outcome (see [`driver`]).
//!
//! [`ir_to_c`] is the paper's "rudimentary LLVM IR to C backend" used to
//! hand kernels to Lift; [`dsl`] renders Lift and Halide surface programs
//! for the extracted idioms (what the paper ships to the DSL compilers).

pub mod driver;
pub mod dsl;
pub mod outline;
pub mod replace;
pub mod reverse;
pub mod tocsrc;

pub use driver::{transform_instances, transform_module, InstanceOutcome, ModuleXform, Outcome};
pub use outline::{outline_kernel, OutlinedKernel};
pub use replace::{apply_replacement, Replacement, XformError};
pub use reverse::{reverse_loop, reversed_module};
pub use tocsrc::ir_to_c;
