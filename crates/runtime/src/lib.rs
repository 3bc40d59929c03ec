//! # reml-runtime — runtime programs, buffer pool, and the CP executor
//!
//! The compiler (reml-compiler) lowers DML into a *runtime program*: a tree
//! of program blocks mirroring the statement-block hierarchy, where each
//! generic block holds a list of executable instructions — in-memory CP
//! instructions and MR-job instructions (§2.1). This crate defines that
//! representation and provides:
//!
//! * [`bufferpool`] — SystemML-style buffer pool: live variables are held
//!   in memory up to the CP memory budget; overflow evicts to (simulated)
//!   local disk, and the eviction/restore accounting is what makes small
//!   CP heaps measurably slower than the analytic cost model predicts —
//!   the paper's named source of suboptimality.
//! * [`hdfs`] — an in-process stand-in for HDFS: named persistent datasets
//!   plus exported intermediates, with byte accounting.
//! * [`vm`] — the CP executor: runtime programs are lowered once into flat
//!   bytecode and executed by [`VmExecutor`] on real matrices (CP
//!   instructions directly; MR jobs by running their map and reduce
//!   operators in-process). Wall-clock behaviour of distributed execution
//!   is modeled separately by `reml-sim`; the executor provides *correct
//!   values* so examples compute real regression models.
//! * [`executor`] — the types the executor shares with its callers
//!   (statistics, errors, recompilation hook, migration report, memory
//!   observations).
//!
//! Dynamic recompilation hooks: generic blocks carry `requires_recompile`;
//! the executor calls a [`executor::RecompileHook`] before running such a
//! block, enabling the §4 runtime adaptation loop.

#![forbid(unsafe_code)]

pub mod bufferpool;
pub mod executor;
pub mod flops;
pub mod hdfs;
pub mod instructions;
pub mod program;
pub mod value;
pub mod vm;

pub use bufferpool::{BufferPool, BufferPoolStats};
pub use executor::{ExecError, ExecStats, MemObservation, MigrationReport, RecompileHook};
pub use hdfs::HdfsStore;
pub use instructions::{
    CpInstruction, Instruction, MrJobInstruction, MrLocation, MrOperator, OpCode,
};
pub use program::{Predicate, RtBlock, RuntimeProgram};
pub use value::{Operand, ScalarValue};
pub use vm::{lower_program, VmExecutor, VmLowerOptions, VmProgram};
