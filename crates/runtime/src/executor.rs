//! Types shared by the CP executor ([`VmExecutor`]) and its callers:
//! execution statistics, typed errors, the dynamic-recompilation hook,
//! the §4.1 migration report, and the per-instruction memory
//! observation rows behind the soundness audits and calibration.
//!
//! [`VmExecutor`]: crate::vm::VmExecutor

use std::collections::HashMap;
use std::fmt;

use reml_matrix::MatrixCharacteristics;

use crate::instructions::Instruction;

/// Execution statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// CP instructions executed.
    pub cp_instructions: u64,
    /// MR jobs executed.
    pub mr_jobs: u64,
    /// Loop iterations executed.
    pub loop_iterations: u64,
    /// Dynamic recompilations performed (hook invocations that returned a
    /// new plan).
    pub recompilations: u64,
    /// Lines printed by `print`.
    pub printed: Vec<String>,
}

/// Errors during execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A referenced variable does not exist.
    UnknownVariable(String),
    /// An operand had the wrong type (scalar where matrix expected etc).
    TypeError(String),
    /// The underlying matrix kernel failed.
    Matrix(reml_matrix::MatrixError),
    /// A persistent read path is missing from the HDFS store.
    MissingInput(String),
    /// Iteration guard: a `while` or `for` loop exceeded the hard safety
    /// bound.
    RunawayLoop(usize),
    /// A produced matrix pushed the executor past its OOM limit — the
    /// runtime surface of the simulator's task-OOM fault: the caller
    /// (AM) recompiles the block to a distributed plan at actual sizes.
    OutOfMemory {
        /// Bytes the operation needed resident.
        needed_bytes: u64,
        /// Configured OOM limit.
        limit_bytes: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownVariable(v) => write!(f, "unknown variable '{v}'"),
            ExecError::TypeError(m) => write!(f, "type error: {m}"),
            ExecError::Matrix(e) => write!(f, "matrix error: {e}"),
            ExecError::MissingInput(p) => write!(f, "missing HDFS input '{p}'"),
            ExecError::RunawayLoop(n) => write!(f, "loop exceeded {n} iterations"),
            ExecError::OutOfMemory {
                needed_bytes,
                limit_bytes,
            } => write!(
                f,
                "out of memory: needed {needed_bytes} bytes resident, limit {limit_bytes}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<reml_matrix::MatrixError> for ExecError {
    fn from(e: reml_matrix::MatrixError) -> Self {
        ExecError::Matrix(e)
    }
}

/// Hook invoked before executing a generic block marked
/// `requires_recompile`: given the source block id and the *actual*
/// characteristics of all live matrix variables, return replacement
/// instructions (dynamic recompilation, §4) or `None` to keep the plan.
pub trait RecompileHook {
    /// Produce a replacement instruction list for the block, or None.
    fn recompile(
        &mut self,
        source: reml_lang::BlockId,
        live_vars: &HashMap<String, MatrixCharacteristics>,
    ) -> Option<Vec<Instruction>>;
}

/// A no-op hook (static execution).
pub struct NoRecompile;

impl RecompileHook for NoRecompile {
    fn recompile(
        &mut self,
        _source: reml_lang::BlockId,
        _live_vars: &HashMap<String, MatrixCharacteristics>,
    ) -> Option<Vec<Instruction>> {
        None
    }
}

/// Hard safety bound on `while` and `for` iterations (scripts in this
/// repo all converge or carry explicit maxiter bounds far below this).
/// Also stops a `for` counter that stalls because `i + 1 == i` at large
/// magnitudes.
pub(crate) const MAX_LOOP_ITERATIONS: usize = 100_000;

/// Report of one AM runtime migration (§4.1).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Dirty variables exported to HDFS.
    pub dirty_exported: u64,
    /// Bytes of dirty state written.
    pub dirty_bytes: u64,
    /// Total variables carried across the migration.
    pub variables: u64,
}

/// One comparison between the compiler's memory prediction for a CP
/// instruction and the actual operator footprint at execution time.
/// Recorded opt-in via [`VmExecutor::enable_memory_observation`]; the
/// planlint memory-soundness audit aggregates these per opcode.
///
/// [`VmExecutor::enable_memory_observation`]: crate::vm::VmExecutor::enable_memory_observation
#[derive(Debug, Clone)]
pub struct MemObservation {
    /// Opcode mnemonic (e.g. `ba+*`).
    pub opcode: String,
    /// Compile-time estimate: operand + output sizes from the recorded
    /// [`MatrixCharacteristics`]; `None` when any operand size was
    /// unknown at compile time.
    pub predicted_bytes: Option<u64>,
    /// Actual operand + output bytes held in the buffer pool.
    pub actual_bytes: u64,
    /// Pool resident bytes right after the instruction.
    pub resident_bytes: u64,
    /// Sound upper bound from the `sizebound` interval analysis, copied
    /// from the instruction when the plan was annotated; `None` when no
    /// finite bound was proven. The soundness audit asserts
    /// `actual_bytes <= bound_bytes` whenever a bound exists.
    pub bound_bytes: Option<u64>,
    /// Measured wall time of the instruction in nanoseconds. Recorded
    /// whenever memory observation is enabled (independent of the trace
    /// recorder and its deterministic mode), so calibration always has a
    /// time signal.
    pub wall_ns: u64,
    /// Predicted FLOPs from the analytic flop model, `None` when operand
    /// sizes were unknown at compile time.
    pub predicted_flops: Option<f64>,
    /// For fused VM chains: the constituent opcodes with their shares of
    /// the prediction, so composite `fused(...)` rows can be backfilled
    /// onto per-opcode calibration rows. Empty otherwise.
    pub constituents: Vec<crate::vm::ObservedConstituent>,
}
