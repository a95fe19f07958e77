//! # interp — an interpreter and profiler for ssair modules
//!
//! The reproduction needs to *execute* the benchmark programs for three
//! purposes:
//!
//! 1. **correctness validation** — after the idiom replacement phase, the
//!    transformed program (with heterogeneous API calls) must compute the
//!    same results as the original (tested end-to-end in `/tests`);
//! 2. **runtime coverage** (paper Figure 17) — the per-instruction
//!    execution counts of the [`Profile`] determine what fraction of the
//!    sequential work happens inside detected idiom regions;
//! 3. **the sequential cost model** (paper Figure 18 / Table 3 baselines)
//!    — the `hetero` crate converts profile counts into modeled sequential
//!    milliseconds.
//!
//! Execution has one tier: [`compile_module`] verifies each function
//! (`ssair::verify`) and lowers it once into a flat register bytecode,
//! and the [`Vm`] executes that many times. A function that fails
//! verification is an `ExecError` when called. The tree-walking
//! [`Machine`] — a straightforward SSA evaluator over the same
//! byte-addressable memory — is kept as the reference oracle that tests
//! hold the VM to, bit-for-bit (results, errors, step accounting). Calls
//! resolve in order to: registered *host functions* (the simulated
//! heterogeneous APIs installed by the `hetero` crate), the math
//! intrinsics, then module functions.

mod bytecode;
mod machine;
mod memory;
mod profile;
mod vm;

pub use bytecode::{compile_module, CompiledModule};
pub use machine::{ExecError, HostFn, HostRegistry, Machine, Value, MAX_CALL_DEPTH};
pub use memory::{Allocation, Memory, ReadView};
pub use profile::Profile;
pub use vm::Vm;
