//! # hetero — simulated heterogeneous platforms and APIs (paper §5, §7)
//!
//! The paper evaluates on an AMD A10-7850K (4-core CPU + integrated R7
//! GPU) and an Nvidia GTX Titan X, targeting vendor libraries (MKL,
//! cuBLAS, clBLAS, CLBlast, cuSPARSE, clSPARSE, a custom libSPMV) and two
//! DSLs (Halide, Lift). None of that hardware is available here, so this
//! crate provides the substitution documented in `DESIGN.md`:
//!
//! * **functional executors** ([`hosts`]) — the library entry points
//!   (`gemm_f64`, `csrmv_f64`) are real implementations registered with
//!   the interpreter, so transformed programs compute correct results;
//! * **a performance model** ([`model`]) — each platform is a roofline
//!   (compute peak, memory bandwidth, transfer path, launch overhead) and
//!   each API has per-idiom efficiency factors encoding the paper's
//!   qualitative observations (Table 3): MKL wins CPU linear algebra,
//!   clBLAS beats CLBlast on the iGPU, Halide out-vectorizes Lift on CPU
//!   stencils, Halide has no working GPU backend, cuBLAS/cuSPARSE win on
//!   the discrete GPU, and the custom libSPMV runs everywhere.
//!
//! * **a parallel backend** ([`exec`]) — a scoped thread-pool executor
//!   that runs replaced kernels on real host threads, gated by the
//!   parallel-safety certificates stamped on each replacement, with the
//!   serial hosts as a bitwise oracle. This is where the repo's measured
//!   (not modeled) speedups come from (`BENCH_offload.json`).
//!
//! The lazy-copy runtime optimization (the red bars of Figure 18) is a
//! model knob: with it, array transfers are paid once per program phase
//! instead of once per kernel launch.

pub mod exec;
pub mod hosts;
pub mod model;

pub use exec::{ExecConfig, ExecStats, ParallelCert};
pub use model::{
    best_configuration, best_configuration_certified, best_configuration_profiled, kernel_time_ms,
    kernel_time_ms_certified, platform_admits, sequential_time_ms, supported, Api, Platform,
    RegionProfile, Workload, OFFLOAD_COVERAGE_THRESHOLD,
};
