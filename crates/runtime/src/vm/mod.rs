//! # Bytecode VM: flat programs, preresolved operands, fused kernels
//!
//! The CP executor. Resolving every operand by name on every execution —
//! a hash lookup plus a defensive full-matrix clone per operand, and a
//! freshly formatted metric name per instruction — would be paid
//! thousands of times for identical resolutions inside the iterative
//! loops that dominate the paper's workloads (linear regression, L2-SVM,
//! GLM...).
//!
//! This module instead lowers [`RuntimeProgram`](crate::program::RuntimeProgram)
//! trees once into a flat [`VmProgram`]:
//!
//! * every variable name is interned into a symbol table at lowering;
//!   execution indexes a scalar frame and a preresolved
//!   [`BufferPool`](crate::bufferpool::BufferPool) slot table — no
//!   per-instruction hashing;
//! * matrix operands are read by reference (`touch_slot` + `peek_slot`)
//!   instead of cloned;
//! * per-instruction metadata (mnemonic, `vm.op.*` metric name, memory
//!   prediction, touched-variable set) is precomputed into a side table,
//!   so the hot loop allocates no strings;
//! * a peephole pass ([`fuse`]) collapses chains of elementwise
//!   operations over single-use temporaries into one fused instruction
//!   executed over a single flat buffer with one output allocation.
//!
//! Three oracles check the VM: an AST-walking reference interpreter in
//! the test suite that bypasses every compiler layer (values within a
//! relative tolerance on generated DML), the unfused VM against the fused
//! VM (bit-identical on every observable, `tests/vm_differential.rs` and
//! `tests/vm_fusion_prop.rs`), and the PL040–PL047 bytecode lint.

pub mod exec;
mod fuse;
pub mod lower;
pub mod program;
pub mod verify;

pub use exec::VmExecutor;
pub use lower::{lower_fragment, lower_program, VmFragment, VmLowerOptions};
pub use program::{
    Arg, FusedArg, FusedOpKind, FusedSpec, FusedStep, InstrMeta, ObservedConstituent, SymbolTable,
    VmBlock, VmInstr, VmLowerStats, VmMrJob, VmOp, VmPredicate, VmProgram,
};
pub use verify::{install_verifier, verifier_installed};
