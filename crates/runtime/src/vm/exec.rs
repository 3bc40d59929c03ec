//! The register VM: executes [`VmProgram`]s over a slot-indexed frame.
//!
//! The per-instruction costs of a name-resolving interpreter are removed:
//!
//! * operand fetch is `touch_slot` + `peek_slot` — an array index and an
//!   LRU bump instead of a name hash plus a full matrix clone;
//! * scalars live in a dense frame indexed by symbol id;
//! * mnemonics, metric names, and observation metadata are precomputed at
//!   lowering, so the hot loop allocates no strings;
//! * fused elementwise chains run over one flat buffer with a single
//!   output allocation (see [`FusedSpec`]).
//!
//! Fused and unfused lowerings of one program differ only in pool
//! *residency*: fused intermediates never enter the buffer pool, so pool
//! statistics and LRU order can differ under fusion. Printed output,
//! scalar values, matrix values (bit-for-bit, including the dense/sparse
//! representation choice), HDFS contents, and `ExecStats` all match.

use std::collections::HashMap;

use reml_matrix::{BinaryOp, DenseMatrix, Matrix, MatrixCharacteristics};

use crate::bufferpool::{BufferPool, SlotId};
use crate::executor::{
    ExecError, ExecStats, MemObservation, MigrationReport, RecompileHook, MAX_LOOP_ITERATIONS,
};
use crate::hdfs::HdfsStore;
use crate::value::ScalarValue;
use crate::vm::lower::lower_fragment;
use crate::vm::program::{
    Arg, FusedArg, FusedOpKind, FusedSpec, InstrMeta, Tables, VmBlock, VmInstr, VmMrJob, VmOp,
    VmPredicate, VmProgram,
};

/// A matrix operand: borrowed from the pool or materialized (scalar used
/// in matrix position).
enum MatVal<'a> {
    Ref(&'a Matrix),
    Owned(Matrix),
}

impl MatVal<'_> {
    fn mat(&self) -> &Matrix {
        match self {
            MatVal::Ref(m) => m,
            MatVal::Owned(m) => m,
        }
    }
}

/// Resolved matrix input of one fused step.
#[derive(Clone, Copy)]
enum FusedMatIn {
    /// The chain's flowing intermediate.
    Flow,
    /// External variable by symbol id.
    Slot(u32),
    /// Literal in matrix position (1×1).
    Lit(f64),
}

/// One fused step with operands resolved for execution.
struct ResolvedStep {
    kind: FusedOpKind,
    /// Matrix inputs in positional order (1 for MS/SM/Unary, 2 for MM).
    mats: Vec<FusedMatIn>,
    /// The scalar operand of an MS/SM step.
    scalar: Option<f64>,
}

/// The bytecode VM executor. One executor runs one program (plus any
/// recompiled fragments, or consecutive pieces of one program around a
/// [`migrate`](VmExecutor::migrate)); construct it with a CP budget and
/// staged HDFS inputs.
pub struct VmExecutor {
    /// Matrix variables (slot-addressed).
    pub pool: BufferPool,
    /// The HDFS stand-in.
    pub hdfs: HdfsStore,
    /// Accumulated statistics.
    pub stats: ExecStats,
    /// Scalar frame indexed by symbol id.
    frame: Vec<Option<ScalarValue>>,
    /// Preresolved pool slot per symbol id.
    pool_slots: Vec<SlotId>,
    /// Name-keyed scalar overflow: values spilled when the frame is
    /// rebound — by a later `run` (e.g. the program suffix after a
    /// migration) or by a recompiled fragment reusing the frame extension.
    pending_scalars: HashMap<String, ScalarValue>,
    oom_limit_bytes: Option<u64>,
    observe_memory: bool,
    observations: Vec<MemObservation>,
    /// Whether recompiled fragments are lowered with fusion (copied from
    /// the program at `run`).
    fuse_fragments: bool,
}

impl VmExecutor {
    /// New VM executor with the given CP budget (bytes) and staged inputs.
    pub fn new(cp_budget_bytes: u64, hdfs: HdfsStore) -> Self {
        VmExecutor {
            pool: BufferPool::new(cp_budget_bytes),
            hdfs,
            stats: ExecStats::default(),
            frame: Vec::new(),
            pool_slots: Vec::new(),
            pending_scalars: HashMap::new(),
            oom_limit_bytes: None,
            observe_memory: false,
            observations: Vec::new(),
            fuse_fragments: true,
        }
    }

    /// Builder: abort with [`ExecError::OutOfMemory`] past this limit.
    pub fn with_oom_limit(mut self, limit_bytes: u64) -> Self {
        self.oom_limit_bytes = Some(limit_bytes);
        self
    }

    /// Start recording one [`MemObservation`] per executed instruction.
    /// Fused chains record once under their composite mnemonic with
    /// summed predictions and bounds.
    pub fn enable_memory_observation(&mut self) {
        self.observe_memory = true;
    }

    /// Drain the recorded memory observations.
    pub fn take_memory_observations(&mut self) -> Vec<MemObservation> {
        std::mem::take(&mut self.observations)
    }

    /// Current value of a scalar variable, if any.
    pub fn scalar(&self, name: &str) -> Option<ScalarValue> {
        self.pool_slots
            .iter()
            .position(|&s| self.pool.slot_name(s) == name)
            .and_then(|i| self.frame[i].clone())
            .or_else(|| self.pending_scalars.get(name).cloned())
    }

    /// Snapshot of all live scalar variables (differential testing).
    pub fn scalars(&self) -> HashMap<String, ScalarValue> {
        let mut out: HashMap<String, ScalarValue> = self.pending_scalars.clone();
        for (i, v) in self.frame.iter().enumerate() {
            if let Some(v) = v {
                out.insert(
                    self.pool.slot_name(self.pool_slots[i]).to_string(),
                    v.clone(),
                );
            }
        }
        out
    }

    /// Execute a lowered program with an optional recompilation hook.
    pub fn run(
        &mut self,
        program: &VmProgram,
        hook: &mut dyn RecompileHook,
    ) -> Result<(), ExecError> {
        self.fuse_fragments = program.fused_enabled;
        self.rebind(&program.symbols, 0);
        let t = program.tables();
        for block in &program.blocks {
            self.run_block(&t, block, hook)?;
        }
        Ok(())
    }

    /// (Re)bind the frame and pool-slot table for `symbols` from index
    /// `base` upward. Scalars currently held in the rebound region are
    /// spilled to the name-keyed overflow first, so values survive when a
    /// later fragment reuses the extension indices for different names.
    fn rebind(&mut self, symbols: &crate::vm::program::SymbolTable, base: usize) {
        for i in base..self.frame.len() {
            if let Some(v) = self.frame[i].take() {
                let name = self.pool.slot_name(self.pool_slots[i]).to_string();
                self.pending_scalars.insert(name, v);
            }
        }
        self.frame.truncate(base);
        self.pool_slots.truncate(base);
        for i in base..symbols.len() {
            let name = symbols.name(i as u32);
            let slot = self.pool.resolve_slot(name);
            self.pool_slots.push(slot);
            let seeded = self.pending_scalars.remove(self.pool.slot_name(slot));
            self.frame.push(seeded);
        }
    }

    /// Characteristics of all live matrix variables (recompilation input).
    pub fn live_matrix_characteristics(&self) -> HashMap<String, MatrixCharacteristics> {
        self.pool
            .variables()
            .into_iter()
            .filter_map(|name| {
                let mc = self.pool.peek(&name)?.characteristics();
                Some((name, mc))
            })
            .collect()
    }

    /// §4.1 AM runtime migration: materialize the current runtime state
    /// — all *dirty* live variables are exported to HDFS (clean ones
    /// already have an up-to-date HDFS representation) — then resume in a
    /// "new container" whose buffer pool has the given capacity. Safe at
    /// program-block boundaries because all operators are stateless and
    /// intermediates are bound to logical variable names; scalars travel
    /// with the (tiny) serialized position state.
    ///
    /// The pool is resized in place, so slot ids resolved by an earlier
    /// `run` stay valid; every variable is reloaded clean and resident in
    /// name order, exactly as a fresh container restoring the
    /// materialized state would. Pool statistics keep accumulating.
    pub fn migrate(&mut self, new_capacity_bytes: u64) -> MigrationReport {
        let names = self.pool.variables();
        let mut report = MigrationReport {
            variables: names.len() as u64,
            ..MigrationReport::default()
        };
        // Materialize: empty the pool, exporting dirty state.
        let mut state = Vec::with_capacity(names.len());
        for name in &names {
            let slot = self.pool.slot_of(name).expect("listed variable");
            let dirty = self.pool.is_dirty_slot(slot) == Some(true);
            let m = self.pool.remove_slot(slot).expect("listed variable");
            if dirty {
                // The §4.1 "write all dirty variables".
                report.dirty_exported += 1;
                report.dirty_bytes += m.size_bytes();
                self.hdfs.write(format!("am_state/{name}"), m.clone());
            } else {
                // Clean variables are staged without IO accounting: their
                // HDFS representation is already current.
                self.hdfs.stage(format!("am_state/{name}"), m.clone());
            }
            state.push((slot, m));
        }
        // "Start" the new container and restore the variable stack.
        self.pool.set_capacity_bytes(new_capacity_bytes);
        for (slot, m) in state {
            self.pool.put_slot_with_dirty(slot, m, false);
        }
        report
    }

    fn run_block(
        &mut self,
        t: &Tables<'_>,
        block: &VmBlock,
        hook: &mut dyn RecompileHook,
    ) -> Result<(), ExecError> {
        match block {
            VmBlock::Generic {
                source,
                code,
                requires_recompile,
            } => {
                if *requires_recompile {
                    if let Some(plan) = hook.recompile(*source, &self.live_matrix_characteristics())
                    {
                        self.stats.recompilations += 1;
                        let frag = lower_fragment(t.symbols, &plan, self.fuse_fragments);
                        self.rebind(&frag.symbols, t.symbols.len());
                        let ft = frag.tables();
                        for instr in &frag.code {
                            self.execute_instr(&ft, instr)?;
                        }
                        return Ok(());
                    }
                }
                for instr in code {
                    self.execute_instr(t, instr)?;
                }
                Ok(())
            }
            VmBlock::If {
                pred,
                then_blocks,
                else_blocks,
            } => {
                let branch = if self.eval_predicate(t, pred)? {
                    then_blocks
                } else {
                    else_blocks
                };
                for b in branch {
                    self.run_block(t, b, hook)?;
                }
                Ok(())
            }
            VmBlock::While { pred, body } => {
                let mut iters = 0usize;
                while self.eval_predicate(t, pred)? {
                    iters += 1;
                    if iters > MAX_LOOP_ITERATIONS {
                        return Err(ExecError::RunawayLoop(MAX_LOOP_ITERATIONS));
                    }
                    self.stats.loop_iterations += 1;
                    for b in body {
                        self.run_block(t, b, hook)?;
                    }
                }
                Ok(())
            }
            VmBlock::For {
                var,
                from,
                to,
                body,
            } => {
                let from_v = self.eval_predicate_num(t, from)?;
                let to_v = self.eval_predicate_num(t, to)?;
                let mut i = from_v;
                let mut iters = 0usize;
                while i <= to_v {
                    iters += 1;
                    if iters > MAX_LOOP_ITERATIONS {
                        return Err(ExecError::RunawayLoop(MAX_LOOP_ITERATIONS));
                    }
                    self.put_scalar(Some(*var), ScalarValue::Num(i));
                    self.stats.loop_iterations += 1;
                    for b in body {
                        self.run_block(t, b, hook)?;
                    }
                    i += 1.0;
                }
                Ok(())
            }
        }
    }

    fn predicate_value(
        &mut self,
        t: &Tables<'_>,
        pred: &VmPredicate,
    ) -> Result<ScalarValue, ExecError> {
        for instr in &pred.code {
            self.execute_instr(t, instr)?;
        }
        self.frame[pred.result as usize]
            .clone()
            .ok_or_else(|| ExecError::UnknownVariable(t.symbols.name(pred.result).to_string()))
    }

    fn eval_predicate(&mut self, t: &Tables<'_>, pred: &VmPredicate) -> Result<bool, ExecError> {
        let v = self.predicate_value(t, pred)?;
        v.as_bool().ok_or_else(|| {
            ExecError::TypeError(format!(
                "predicate '{}' not boolean",
                t.symbols.name(pred.result)
            ))
        })
    }

    fn eval_predicate_num(&mut self, t: &Tables<'_>, pred: &VmPredicate) -> Result<f64, ExecError> {
        let v = self.predicate_value(t, pred)?;
        v.as_f64().ok_or_else(|| {
            ExecError::TypeError(format!("'{}' not numeric", t.symbols.name(pred.result)))
        })
    }

    /// Execute one instruction with stats, per-opcode timing
    /// (`vm.op.<mnemonic>` histograms), and opt-in memory observation.
    fn execute_instr(&mut self, t: &Tables<'_>, instr: &VmInstr) -> Result<(), ExecError> {
        let meta = &t.metas[instr.meta as usize];
        if let VmOp::MrJob { job } = instr.op {
            self.stats.mr_jobs += 1;
            reml_trace::count("exec.mr_jobs", 1);
            let timed = reml_trace::enabled() && !reml_trace::deterministic();
            let t0 = timed.then(std::time::Instant::now);
            let result = self.execute_mr_job(t, &t.mr_jobs[job as usize]);
            if let Some(t0) = t0 {
                reml_trace::metrics()
                    .histogram("vm.op.mr_job")
                    .observe(t0.elapsed().as_micros() as u64);
            }
            return result;
        }
        self.stats.cp_instructions += meta.cp_count;
        let trace_timed = reml_trace::enabled() && !reml_trace::deterministic();
        let timed = trace_timed || self.observe_memory;
        let t0 = timed.then(std::time::Instant::now);
        self.execute_core(t, instr)?;
        let wall_ns = t0.map(|t0| t0.elapsed().as_nanos() as u64).unwrap_or(0);
        if trace_timed {
            reml_trace::metrics()
                .histogram(&meta.metric)
                .observe(wall_ns / 1_000);
        }
        if self.observe_memory {
            self.record_observation(meta, wall_ns);
        }
        Ok(())
    }

    /// Record predicted vs. actual footprint. Prediction and the touched
    /// set were precomputed at lowering; actual sums the live pool sizes
    /// of the touched slots. Fused chains record one row under their
    /// composite mnemonic (e.g. `fused(map*,map+)`) so the audit never
    /// sees an unknown opcode.
    fn record_observation(&mut self, meta: &InstrMeta, wall_ns: u64) {
        let actual_bytes: u64 = meta
            .touched
            .iter()
            .filter_map(|&s| {
                self.pool
                    .peek_slot(self.pool_slots[s as usize])
                    .map(Matrix::size_bytes)
            })
            .sum();
        if reml_trace::enabled() {
            let mut fields: Vec<(&'static str, reml_trace::FieldValue)> = vec![
                ("opcode", reml_trace::FieldValue::Str(meta.mnemonic.clone())),
                ("actual_bytes", reml_trace::FieldValue::U64(actual_bytes)),
                (
                    "resident_bytes",
                    reml_trace::FieldValue::U64(self.pool.resident_bytes()),
                ),
            ];
            if let Some(p) = meta.predicted_bytes {
                fields.push(("predicted_bytes", reml_trace::FieldValue::U64(p)));
            }
            if let Some(b) = meta.bound_bytes {
                fields.push(("bound_bytes", reml_trace::FieldValue::U64(b)));
            }
            reml_trace::event("exec.mem_observation", &fields);
        }
        self.observations.push(MemObservation {
            opcode: meta.mnemonic.clone(),
            predicted_bytes: meta.predicted_bytes,
            actual_bytes,
            resident_bytes: self.pool.resident_bytes(),
            bound_bytes: meta.bound_bytes,
            wall_ns,
            predicted_flops: meta.predicted_flops,
            constituents: meta.constituents.to_vec(),
        });
    }

    fn execute_mr_job(&mut self, t: &Tables<'_>, job: &VmMrJob) -> Result<(), ExecError> {
        for op in &job.ops {
            self.execute_core(t, op)?;
        }
        for &(sym, path) in &job.outputs {
            if !self.pool.touch_slot(self.slot(sym)) {
                return Err(ExecError::UnknownVariable(t.symbols.name(sym).to_string()));
            }
            let m = self
                .pool
                .peek_slot(self.slot(sym))
                .expect("just touched")
                .clone();
            self.hdfs.write(t.strings[path as usize].clone(), m);
            self.pool.mark_clean_slot(self.slot(sym));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Operand access
    // ------------------------------------------------------------------

    fn slot(&self, sym: u32) -> SlotId {
        self.pool_slots[sym as usize]
    }

    /// Phase 1 of a matrix-operand fetch: bump LRU / restore the slot (the
    /// pool's accounting side effects of a read), and verify the variable
    /// exists as a matrix or scalar.
    fn touch_arg(&mut self, t: &Tables<'_>, arg: Arg) -> Result<(), ExecError> {
        if let Arg::Slot(s) = arg {
            if self.pool.touch_slot(self.slot(s)) || self.frame[s as usize].is_some() {
                return Ok(());
            }
            return Err(ExecError::UnknownVariable(t.symbols.name(s).to_string()));
        }
        Ok(())
    }

    /// Phase 2: read the operand by reference (no clone), materializing a
    /// 1×1 for scalars in matrix position.
    fn peek_arg<'s>(&'s self, t: &Tables<'_>, arg: Arg) -> Result<MatVal<'s>, ExecError> {
        match arg {
            Arg::Slot(s) => {
                if let Some(m) = self.pool.peek_slot(self.slot(s)) {
                    return Ok(MatVal::Ref(m));
                }
                match &self.frame[s as usize] {
                    Some(v) => {
                        let f = v.as_f64().ok_or_else(|| {
                            ExecError::TypeError(format!("'{}' not numeric", t.symbols.name(s)))
                        })?;
                        Ok(MatVal::Owned(Matrix::constant(1, 1, f)))
                    }
                    None => Err(ExecError::UnknownVariable(t.symbols.name(s).to_string())),
                }
            }
            Arg::Const(c) => {
                let f = t.consts[c as usize]
                    .as_f64()
                    .ok_or_else(|| ExecError::TypeError("literal not numeric".into()))?;
                Ok(MatVal::Owned(Matrix::constant(1, 1, f)))
            }
        }
    }

    fn scalar_arg(&mut self, t: &Tables<'_>, arg: Arg) -> Result<ScalarValue, ExecError> {
        match arg {
            Arg::Slot(s) => {
                if let Some(v) = &self.frame[s as usize] {
                    return Ok(v.clone());
                }
                if self.pool.touch_slot(self.slot(s)) {
                    let m = self.pool.peek_slot(self.slot(s)).expect("just touched");
                    let v = m.as_scalar().map_err(ExecError::Matrix)?;
                    return Ok(ScalarValue::Num(v));
                }
                Err(ExecError::UnknownVariable(t.symbols.name(s).to_string()))
            }
            Arg::Const(c) => Ok(t.consts[c as usize].clone()),
        }
    }

    fn scalar_num(&mut self, t: &Tables<'_>, arg: Arg) -> Result<f64, ExecError> {
        self.scalar_arg(t, arg)?
            .as_f64()
            .ok_or_else(|| ExecError::TypeError("expected numeric scalar".into()))
    }

    fn put_matrix(&mut self, out: Option<u32>, m: Matrix) -> Result<(), ExecError> {
        if let Some(sym) = out {
            if let Some(limit) = self.oom_limit_bytes {
                let needed = self.pool.resident_bytes().saturating_add(m.size_bytes());
                if needed > limit {
                    reml_trace::event!("exec.oom", needed_bytes = needed, limit_bytes = limit);
                    return Err(ExecError::OutOfMemory {
                        needed_bytes: needed,
                        limit_bytes: limit,
                    });
                }
            }
            self.frame[sym as usize] = None;
            self.pool.put_slot(self.slot(sym), m);
        }
        Ok(())
    }

    fn put_scalar(&mut self, out: Option<u32>, v: ScalarValue) {
        if let Some(sym) = out {
            self.pool.remove_slot(self.slot(sym));
            self.frame[sym as usize] = Some(v);
        }
    }

    // ------------------------------------------------------------------
    // Opcode semantics
    // ------------------------------------------------------------------

    fn execute_core(&mut self, t: &Tables<'_>, instr: &VmInstr) -> Result<(), ExecError> {
        let args = &instr.args;
        let out = instr.out;
        match &instr.op {
            VmOp::PRead { path } => {
                let path = &t.strings[*path as usize];
                let m = self
                    .hdfs
                    .read(path)
                    .ok_or_else(|| ExecError::MissingInput(path.clone()))?;
                if let Some(sym) = out {
                    self.frame[sym as usize] = None;
                    self.pool.put_slot_with_dirty(self.slot(sym), m, false);
                }
                Ok(())
            }
            VmOp::PWrite { path } => {
                self.touch_arg(t, args[0])?;
                let m = self.peek_arg(t, args[0])?.mat().clone();
                self.hdfs.write(t.strings[*path as usize].clone(), m);
                if let Arg::Slot(s) = args[0] {
                    self.pool.mark_clean_slot(self.slot(s));
                }
                Ok(())
            }
            VmOp::DataGenConst => {
                let v = self.scalar_num(t, args[0])?;
                let rows = self.scalar_num(t, args[1])? as usize;
                let cols = self.scalar_num(t, args[2])? as usize;
                self.put_matrix(out, Matrix::constant(rows, cols, v))
            }
            VmOp::DataGenSeq => {
                let from = self.scalar_num(t, args[0])?;
                let to = self.scalar_num(t, args[1])?;
                let by = if args.len() > 2 {
                    self.scalar_num(t, args[2])?
                } else if from <= to {
                    1.0
                } else {
                    -1.0
                };
                self.put_matrix(
                    out,
                    Matrix::Dense(reml_matrix::generate::seq_by(from, to, by)),
                )
            }
            VmOp::DataGenRand => {
                let rows = self.scalar_num(t, args[0])? as usize;
                let cols = self.scalar_num(t, args[1])? as usize;
                let sparsity = self.scalar_num(t, args[2])?;
                let seed = self.scalar_num(t, args[3])? as u64;
                let m = if sparsity >= 1.0 {
                    Matrix::Dense(reml_matrix::generate::rand_dense(
                        rows, cols, 0.0, 1.0, seed,
                    ))
                } else {
                    Matrix::from_sparse_auto(reml_matrix::generate::rand_sparse(
                        rows, cols, sparsity, 0.0, 1.0, seed,
                    ))
                };
                self.put_matrix(out, m)
            }
            VmOp::MatMult => {
                self.touch_arg(t, args[0])?;
                self.touch_arg(t, args[1])?;
                let m = {
                    let a = self.peek_arg(t, args[0])?;
                    let b = self.peek_arg(t, args[1])?;
                    a.mat().matmult(b.mat())?
                };
                self.put_matrix(out, m)
            }
            VmOp::Tsmm => {
                self.touch_arg(t, args[0])?;
                let m = self.peek_arg(t, args[0])?.mat().tsmm();
                self.put_matrix(out, m)
            }
            VmOp::MatMultTransLeft => {
                self.touch_arg(t, args[0])?;
                self.touch_arg(t, args[1])?;
                let m = {
                    let a = self.peek_arg(t, args[0])?;
                    let b = self.peek_arg(t, args[1])?;
                    a.mat().tmatmult(b.mat())?
                };
                self.put_matrix(out, m)
            }
            VmOp::MmChain => {
                self.touch_arg(t, args[0])?;
                self.touch_arg(t, args[1])?;
                let m = {
                    let x = self.peek_arg(t, args[0])?;
                    let v = self.peek_arg(t, args[1])?;
                    let xv = x.mat().matmult(v.mat())?;
                    x.mat().tmatmult(&xv)?
                };
                self.put_matrix(out, m)
            }
            VmOp::Solve => {
                self.touch_arg(t, args[0])?;
                self.touch_arg(t, args[1])?;
                let m = {
                    let a = self.peek_arg(t, args[0])?;
                    let b = self.peek_arg(t, args[1])?;
                    a.mat().solve(b.mat())?
                };
                self.put_matrix(out, m)
            }
            VmOp::Transpose => {
                self.touch_arg(t, args[0])?;
                let m = self.peek_arg(t, args[0])?.mat().transpose();
                self.put_matrix(out, m)
            }
            VmOp::Diag => {
                self.touch_arg(t, args[0])?;
                let m = self.peek_arg(t, args[0])?.mat().diag();
                self.put_matrix(out, m)
            }
            VmOp::BinaryMM(op) => {
                self.touch_arg(t, args[0])?;
                self.touch_arg(t, args[1])?;
                let m = {
                    let av = self.peek_arg(t, args[0])?;
                    let bv = self.peek_arg(t, args[1])?;
                    let (a, b) = (av.mat(), bv.mat());
                    // 1x1 matrices degrade to scalar ops per DML semantics.
                    if a.rows() == 1 && a.cols() == 1 && (b.rows() > 1 || b.cols() > 1) {
                        b.scalar_binary(*op, a.get(0, 0))
                    } else if b.rows() == 1 && b.cols() == 1 && (a.rows() > 1 || a.cols() > 1) {
                        a.binary_scalar(*op, b.get(0, 0))
                    } else {
                        a.binary(*op, b)?
                    }
                };
                self.put_matrix(out, m)
            }
            VmOp::BinaryMS(op) => {
                self.touch_arg(t, args[0])?;
                let s = self.scalar_num(t, args[1])?;
                let m = self.peek_arg(t, args[0])?.mat().binary_scalar(*op, s);
                self.put_matrix(out, m)
            }
            VmOp::BinarySM(op) => {
                let s = self.scalar_num(t, args[0])?;
                self.touch_arg(t, args[1])?;
                let m = self.peek_arg(t, args[1])?.mat().scalar_binary(*op, s);
                self.put_matrix(out, m)
            }
            VmOp::BinarySS(op) => {
                let a = self.scalar_arg(t, args[0])?;
                let b = self.scalar_arg(t, args[1])?;
                let result = match op {
                    BinaryOp::And | BinaryOp::Or => {
                        let (x, y) = (
                            a.as_bool().ok_or_else(|| {
                                ExecError::TypeError("non-boolean in logical op".into())
                            })?,
                            b.as_bool().ok_or_else(|| {
                                ExecError::TypeError("non-boolean in logical op".into())
                            })?,
                        );
                        ScalarValue::Bool(if *op == BinaryOp::And { x && y } else { x || y })
                    }
                    BinaryOp::Eq
                    | BinaryOp::NotEq
                    | BinaryOp::Less
                    | BinaryOp::LessEq
                    | BinaryOp::Greater
                    | BinaryOp::GreaterEq => {
                        let (x, y) = (
                            a.as_f64()
                                .ok_or_else(|| ExecError::TypeError("non-numeric".into()))?,
                            b.as_f64()
                                .ok_or_else(|| ExecError::TypeError("non-numeric".into()))?,
                        );
                        ScalarValue::Bool(op.apply(x, y) != 0.0)
                    }
                    _ => {
                        let (x, y) = (
                            a.as_f64()
                                .ok_or_else(|| ExecError::TypeError("non-numeric".into()))?,
                            b.as_f64()
                                .ok_or_else(|| ExecError::TypeError("non-numeric".into()))?,
                        );
                        ScalarValue::Num(op.apply(x, y))
                    }
                };
                self.put_scalar(out, result);
                Ok(())
            }
            VmOp::UnaryM(op) => {
                self.touch_arg(t, args[0])?;
                let m = self.peek_arg(t, args[0])?.mat().unary(*op);
                self.put_matrix(out, m)
            }
            VmOp::UnaryS(op) => {
                let v = self.scalar_num(t, args[0])?;
                self.put_scalar(out, ScalarValue::Num(op.apply(v)));
                Ok(())
            }
            VmOp::Agg(op) => {
                self.touch_arg(t, args[0])?;
                let agg = self.peek_arg(t, args[0])?.mat().aggregate(*op);
                if op.is_full_reduction() {
                    let v = agg.as_scalar().map_err(ExecError::Matrix)?;
                    self.put_scalar(out, ScalarValue::Num(v));
                    Ok(())
                } else {
                    self.put_matrix(out, agg)
                }
            }
            VmOp::TableSeq => {
                self.touch_arg(t, args[0])?;
                let m = {
                    let y = self.peek_arg(t, args[0])?;
                    reml_matrix::generate::table_seq(&y.mat().to_dense())?
                };
                self.put_matrix(out, m)
            }
            VmOp::RightIndex => {
                self.touch_arg(t, args[0])?;
                let (rows, cols) = {
                    let a = self.peek_arg(t, args[0])?;
                    (a.mat().rows(), a.mat().cols())
                };
                let (rl, rh, cl, ch) = self.index_bounds(t, &args[1..5], rows, cols)?;
                let m = self.peek_arg(t, args[0])?.mat().slice(rl, rh, cl, ch)?;
                self.put_matrix(out, m)
            }
            VmOp::LeftIndex => {
                self.touch_arg(t, args[0])?;
                self.touch_arg(t, args[1])?;
                let (mut d, vd) = {
                    let target = self.peek_arg(t, args[0])?;
                    let value = self.peek_arg(t, args[1])?;
                    (target.mat().to_dense(), value.mat().to_dense())
                };
                let (rl, rh, cl, ch) = self.index_bounds(t, &args[2..6], d.rows(), d.cols())?;
                for (ri, r) in (rl..=rh).enumerate() {
                    for (ci, c) in (cl..=ch).enumerate() {
                        let v = if vd.rows() == 1 && vd.cols() == 1 {
                            vd.get(0, 0)
                        } else {
                            vd.get(ri, ci)
                        };
                        d.set(r, c, v);
                    }
                }
                self.put_matrix(out, Matrix::from_dense_auto(d))
            }
            VmOp::Append => {
                self.touch_arg(t, args[0])?;
                self.touch_arg(t, args[1])?;
                let m = {
                    let a = self.peek_arg(t, args[0])?;
                    let b = self.peek_arg(t, args[1])?;
                    a.mat().cbind(b.mat())?
                };
                self.put_matrix(out, m)
            }
            VmOp::AppendR => {
                self.touch_arg(t, args[0])?;
                self.touch_arg(t, args[1])?;
                let m = {
                    let a = self.peek_arg(t, args[0])?;
                    let b = self.peek_arg(t, args[1])?;
                    a.mat().rbind(b.mat())?
                };
                self.put_matrix(out, m)
            }
            VmOp::NRow => {
                self.touch_arg(t, args[0])?;
                let rows = self.peek_arg(t, args[0])?.mat().rows();
                self.put_scalar(out, ScalarValue::Num(rows as f64));
                Ok(())
            }
            VmOp::NCol => {
                self.touch_arg(t, args[0])?;
                let cols = self.peek_arg(t, args[0])?.mat().cols();
                self.put_scalar(out, ScalarValue::Num(cols as f64));
                Ok(())
            }
            VmOp::CastScalar => {
                self.touch_arg(t, args[0])?;
                let v = self.peek_arg(t, args[0])?.mat().as_scalar();
                let v = v.map_err(ExecError::Matrix)?;
                self.put_scalar(out, ScalarValue::Num(v));
                Ok(())
            }
            VmOp::CastMatrix => {
                let v = self.scalar_num(t, args[0])?;
                self.put_matrix(out, Matrix::constant(1, 1, v))
            }
            VmOp::Assign => {
                match args[0] {
                    Arg::Slot(s) => {
                        if let Some(v) = self.frame[s as usize].clone() {
                            self.put_scalar(out, v);
                        } else if self.pool.touch_slot(self.slot(s)) {
                            let m = self
                                .pool
                                .peek_slot(self.slot(s))
                                .expect("just touched")
                                .clone();
                            self.put_matrix(out, m)?;
                        } else {
                            return Err(ExecError::UnknownVariable(t.symbols.name(s).to_string()));
                        }
                    }
                    Arg::Const(c) => self.put_scalar(out, t.consts[c as usize].clone()),
                }
                Ok(())
            }
            VmOp::Concat => {
                let a = self.scalar_arg(t, args[0])?;
                let b = self.scalar_arg(t, args[1])?;
                self.put_scalar(
                    out,
                    ScalarValue::Str(format!("{}{}", a.render(), b.render())),
                );
                Ok(())
            }
            VmOp::Print => {
                let v = self.scalar_arg(t, args[0])?;
                self.stats.printed.push(v.render());
                Ok(())
            }
            VmOp::RmVar => {
                for &arg in args.iter() {
                    if let Arg::Slot(s) = arg {
                        self.pool.remove_slot(self.slot(s));
                        self.frame[s as usize] = None;
                    }
                }
                Ok(())
            }
            VmOp::Fused { spec } => self.execute_fused(t, &t.fused[*spec as usize], out),
            VmOp::MrJob { .. } => unreachable!("MR jobs dispatch in execute_instr"),
        }
    }

    /// Resolve 1-based inclusive index bounds, 0 meaning "open".
    fn index_bounds(
        &mut self,
        t: &Tables<'_>,
        ops: &[Arg],
        rows: usize,
        cols: usize,
    ) -> Result<(usize, usize, usize, usize), ExecError> {
        let rl = self.scalar_num(t, ops[0])? as usize;
        let rh = self.scalar_num(t, ops[1])? as usize;
        let cl = self.scalar_num(t, ops[2])? as usize;
        let ch = self.scalar_num(t, ops[3])? as usize;
        let rl = if rl == 0 { 1 } else { rl };
        let rh = if rh == 0 { rows } else { rh };
        let cl = if cl == 0 { 1 } else { cl };
        let ch = if ch == 0 { cols } else { ch };
        Ok((rl - 1, rh - 1, cl - 1, ch - 1))
    }

    // ------------------------------------------------------------------
    // Fused chains
    // ------------------------------------------------------------------

    /// Execute a fused elementwise chain.
    ///
    /// The fast path runs all steps over one flat `f64` buffer when every
    /// external matrix input is pool-resident, dense, and exactly the
    /// chain's compile-time shape. To stay bit-identical with the unfused
    /// execution it tracks, after every step, whether the unfused result
    /// would have chosen the sparse representation — sparse intermediates
    /// normalize `-0.0` to `+0.0` (CSR compaction drops all zeros) and
    /// skip zero cells on zero-preserving ops, and the fast path
    /// replicates both effects in place.
    ///
    /// Anything else (sparse or missing inputs, runtime shapes diverging
    /// from compile-time, literals in matrix position) falls back to a
    /// stepwise path using the exact unfused operator semantics with
    /// chain intermediates kept as locals instead of pool entries.
    fn execute_fused(
        &mut self,
        t: &Tables<'_>,
        spec: &FusedSpec,
        out: Option<u32>,
    ) -> Result<(), ExecError> {
        // Phase 1 (mutable): resolve operands in the same order the
        // unfused instructions would, touching pool slots and resolving
        // scalars, so restore accounting and resolution errors match.
        let mut fast = true;
        let mut steps = Vec::with_capacity(spec.steps.len());
        for step in &spec.steps {
            let matrix_positions: &[usize] = match step.kind {
                FusedOpKind::MM(_) => &[0, 1],
                FusedOpKind::MS(_) => &[0],
                FusedOpKind::SM(_) => &[1],
                FusedOpKind::Unary(_) => &[0],
            };
            let mut mats = Vec::with_capacity(matrix_positions.len());
            let mut scalar = None;
            for (p, arg) in step.args.iter().enumerate() {
                if matrix_positions.contains(&p) {
                    match *arg {
                        FusedArg::Flow => mats.push(FusedMatIn::Flow),
                        FusedArg::Slot(s) => {
                            self.touch_arg(t, Arg::Slot(s))?;
                            mats.push(FusedMatIn::Slot(s));
                        }
                        FusedArg::Const(c) => {
                            let f = t.consts[c as usize].as_f64().ok_or_else(|| {
                                ExecError::TypeError("literal not numeric".into())
                            })?;
                            mats.push(FusedMatIn::Lit(f));
                            fast = false;
                        }
                    }
                } else {
                    let arg = match *arg {
                        FusedArg::Slot(s) => Arg::Slot(s),
                        FusedArg::Const(c) => Arg::Const(c),
                        FusedArg::Flow => unreachable!("flow in scalar position"),
                    };
                    scalar = Some(self.scalar_num(t, arg)?);
                }
            }
            steps.push(ResolvedStep {
                kind: step.kind,
                mats,
                scalar,
            });
        }
        // Phase 2: gate the fast path on every external input being a
        // pool-resident dense matrix of the chain's shape.
        if fast {
            for step in &steps {
                for m in &step.mats {
                    if let FusedMatIn::Slot(s) = m {
                        match self.pool.peek_slot(self.slot(*s)) {
                            Some(Matrix::Dense(d))
                                if d.rows() == spec.rows && d.cols() == spec.cols => {}
                            _ => {
                                fast = false;
                                break;
                            }
                        }
                    }
                }
                if !fast {
                    break;
                }
            }
        }
        let result = if fast {
            self.fused_fast(spec, &steps)?
        } else {
            self.fused_stepwise(t, &steps)?
        };
        self.put_matrix(out, result)
    }

    /// Fast path: one flat buffer, all steps in place.
    fn fused_fast(&self, spec: &FusedSpec, steps: &[ResolvedStep]) -> Result<Matrix, ExecError> {
        let (rows, cols) = (spec.rows, spec.cols);
        let n = rows * cols;
        let ext = |s: u32| -> &[f64] {
            match self.pool.peek_slot(self.slot(s)) {
                Some(Matrix::Dense(d)) => d.data(),
                _ => unreachable!("gated dense"),
            }
        };
        let mut buf: Vec<f64> = vec![0.0; n];
        // Whether the unfused chain would currently hold the intermediate
        // in CSR form. Invariant: when true, every zero in `buf` is +0.0
        // (CSR compaction drops -0.0).
        let mut repr_sparse = false;
        for step in steps {
            match step.kind {
                FusedOpKind::MM(op) => {
                    // Both-dense elementwise; the sparse×sparse multiply
                    // fast path cannot trigger because externals are gated
                    // dense, and `to_dense` of a sparse intermediate is
                    // exactly `buf` under the +0.0 invariant.
                    match (step.mats[0], step.mats[1]) {
                        (FusedMatIn::Slot(a), FusedMatIn::Slot(b)) => {
                            let (a, b) = (ext(a), ext(b));
                            for (i, v) in buf.iter_mut().enumerate() {
                                *v = op.apply(a[i], b[i]);
                            }
                        }
                        (FusedMatIn::Flow, FusedMatIn::Slot(b)) => {
                            let b = ext(b);
                            for (i, v) in buf.iter_mut().enumerate() {
                                *v = op.apply(*v, b[i]);
                            }
                        }
                        (FusedMatIn::Slot(a), FusedMatIn::Flow) => {
                            let a = ext(a);
                            for (i, v) in buf.iter_mut().enumerate() {
                                *v = op.apply(a[i], *v);
                            }
                        }
                        (FusedMatIn::Flow, FusedMatIn::Flow) => {
                            for v in buf.iter_mut() {
                                *v = op.apply(*v, *v);
                            }
                        }
                        _ => unreachable!("literals force the stepwise path"),
                    }
                    repr_sparse = post_dense(&mut buf, rows, cols);
                }
                FusedOpKind::MS(op) => {
                    let s = step.scalar.expect("MS has a scalar");
                    let flow = matches!(step.mats[0], FusedMatIn::Flow);
                    if let FusedMatIn::Slot(a) = step.mats[0] {
                        let a = ext(a);
                        buf.copy_from_slice(a);
                    }
                    if flow && repr_sparse && op.apply(0.0, s) == 0.0 {
                        // Sparse binary_scalar: applies to stored values
                        // only; implicit zeros stay +0.0 and computed
                        // zeros are compacted away.
                        for v in buf.iter_mut() {
                            *v = if *v == 0.0 { 0.0 } else { op.apply(*v, s) };
                        }
                        repr_sparse = post_sparse(&mut buf, rows, cols);
                    } else {
                        for v in buf.iter_mut() {
                            *v = op.apply(*v, s);
                        }
                        repr_sparse = post_dense(&mut buf, rows, cols);
                    }
                }
                FusedOpKind::SM(op) => {
                    // scalar_binary always densifies first; under the
                    // +0.0 invariant `buf` already equals that dense view.
                    let s = step.scalar.expect("SM has a scalar");
                    if let FusedMatIn::Slot(a) = step.mats[0] {
                        let a = ext(a);
                        buf.copy_from_slice(a);
                    }
                    for v in buf.iter_mut() {
                        *v = op.apply(s, *v);
                    }
                    repr_sparse = post_dense(&mut buf, rows, cols);
                }
                FusedOpKind::Unary(op) => {
                    let flow = matches!(step.mats[0], FusedMatIn::Flow);
                    if let FusedMatIn::Slot(a) = step.mats[0] {
                        let a = ext(a);
                        buf.copy_from_slice(a);
                    }
                    if flow && repr_sparse && op.is_zero_preserving() {
                        for v in buf.iter_mut() {
                            *v = if *v == 0.0 { 0.0 } else { op.apply(*v) };
                        }
                        repr_sparse = post_sparse(&mut buf, rows, cols);
                    } else {
                        for v in buf.iter_mut() {
                            *v = op.apply(*v);
                        }
                        repr_sparse = post_dense(&mut buf, rows, cols);
                    }
                }
            }
        }
        let d = DenseMatrix::from_vec(rows, cols, buf)?;
        Ok(Matrix::from_dense_auto(d))
    }

    /// Fallback: execute the chain step by step with the exact unfused
    /// operator semantics, holding intermediates as locals.
    fn fused_stepwise(
        &mut self,
        t: &Tables<'_>,
        steps: &[ResolvedStep],
    ) -> Result<Matrix, ExecError> {
        let mut flow: Option<Matrix> = None;
        for step in steps {
            let resolve = |m: &FusedMatIn, flow: &Option<Matrix>| -> Result<Matrix, ExecError> {
                match *m {
                    FusedMatIn::Flow => Ok(flow.clone().expect("flow set after step 0")),
                    FusedMatIn::Lit(f) => Ok(Matrix::constant(1, 1, f)),
                    FusedMatIn::Slot(s) => {
                        if let Some(m) = self.pool.peek_slot(self.slot(s)) {
                            return Ok(m.clone());
                        }
                        match &self.frame[s as usize] {
                            Some(v) => {
                                let f = v.as_f64().ok_or_else(|| {
                                    ExecError::TypeError(format!(
                                        "'{}' not numeric",
                                        t.symbols.name(s)
                                    ))
                                })?;
                                Ok(Matrix::constant(1, 1, f))
                            }
                            None => Err(ExecError::UnknownVariable(t.symbols.name(s).to_string())),
                        }
                    }
                }
            };
            let result = match step.kind {
                FusedOpKind::MM(op) => {
                    let a = resolve(&step.mats[0], &flow)?;
                    let b = resolve(&step.mats[1], &flow)?;
                    if a.rows() == 1 && a.cols() == 1 && (b.rows() > 1 || b.cols() > 1) {
                        b.scalar_binary(op, a.get(0, 0))
                    } else if b.rows() == 1 && b.cols() == 1 && (a.rows() > 1 || a.cols() > 1) {
                        a.binary_scalar(op, b.get(0, 0))
                    } else {
                        a.binary(op, &b)?
                    }
                }
                FusedOpKind::MS(op) => {
                    let a = resolve(&step.mats[0], &flow)?;
                    a.binary_scalar(op, step.scalar.expect("MS has a scalar"))
                }
                FusedOpKind::SM(op) => {
                    let a = resolve(&step.mats[0], &flow)?;
                    a.scalar_binary(op, step.scalar.expect("SM has a scalar"))
                }
                FusedOpKind::Unary(op) => {
                    let a = resolve(&step.mats[0], &flow)?;
                    a.unary(op)
                }
            };
            flow = Some(result);
        }
        Ok(flow.expect("chains have >= 2 steps"))
    }
}

/// Post-step bookkeeping for a dense-semantics step (`from_dense_auto`):
/// if the result prefers CSR, all zeros become implicit +0.0; otherwise
/// the buffer is kept verbatim (including any -0.0). Returns whether the
/// unfused intermediate would now be sparse.
fn post_dense(buf: &mut [f64], rows: usize, cols: usize) -> bool {
    let nnz = buf.iter().filter(|v| **v != 0.0).count() as u64;
    if Matrix::prefers_sparse(rows, cols, nnz) {
        flush_zeros(buf);
        true
    } else {
        false
    }
}

/// Post-step bookkeeping for a sparse-path step (`from_sparse_auto` after
/// CSR compaction): *every* zero — implicit or computed — reads back as
/// +0.0 regardless of which representation wins.
fn post_sparse(buf: &mut [f64], rows: usize, cols: usize) -> bool {
    flush_zeros(buf);
    let nnz = buf.iter().filter(|v| **v != 0.0).count() as u64;
    Matrix::prefers_sparse(rows, cols, nnz)
}

fn flush_zeros(buf: &mut [f64]) {
    for v in buf.iter_mut() {
        if *v == 0.0 {
            *v = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::NoRecompile;
    use crate::instructions::{
        CpInstruction, Instruction, MrJobInstruction, MrLocation, MrOperator, OpCode,
    };
    use crate::program::{RtBlock, RuntimeProgram};
    use crate::value::Operand;
    use crate::vm::VmLowerOptions;
    use reml_lang::BlockId;
    use reml_matrix::AggOp;

    fn cp(opcode: OpCode, operands: Vec<Operand>, output: Option<&str>) -> Instruction {
        Instruction::Cp(CpInstruction {
            opcode,
            operands,
            output: output.map(str::to_string),
            operand_mcs: vec![],
            output_mc: MatrixCharacteristics::unknown(),
            bound_bytes: None,
        })
    }

    fn block(instructions: Vec<Instruction>, requires_recompile: bool) -> RtBlock {
        RtBlock::Generic {
            source: BlockId(0),
            instructions,
            requires_recompile,
        }
    }

    fn constant(v: f64, rows: usize, cols: usize, out: &str) -> Instruction {
        cp(
            OpCode::DataGenConst,
            vec![
                Operand::num(v),
                Operand::num(rows as f64),
                Operand::num(cols as f64),
            ],
            Some(out),
        )
    }

    fn read(path: &str, out: &str) -> Instruction {
        cp(
            OpCode::PersistentRead { path: path.into() },
            vec![],
            Some(out),
        )
    }

    /// Lower `blocks` unfused and run them on `exec`.
    fn run_blocks(
        exec: &mut VmExecutor,
        blocks: Vec<RtBlock>,
        hook: &mut dyn RecompileHook,
    ) -> Result<(), ExecError> {
        let program = RuntimeProgram {
            blocks,
            ..Default::default()
        };
        exec.run(&program.lower_vm(VmLowerOptions { fuse: false }), hook)
    }

    fn run(exec: &mut VmExecutor, instructions: Vec<Instruction>) -> Result<(), ExecError> {
        run_blocks(exec, vec![block(instructions, false)], &mut NoRecompile)
    }

    fn exec() -> VmExecutor {
        VmExecutor::new(1 << 30, HdfsStore::new())
    }

    fn matrix(exec: &VmExecutor, name: &str) -> Matrix {
        exec.pool.peek(name).expect("matrix variable").clone()
    }

    #[test]
    fn oom_limit_aborts_instead_of_spilling() {
        // 100x100 doubles = 80 KB output against a 10 KB limit.
        let mut e = exec().with_oom_limit(10 * 1024);
        let err = run(&mut e, vec![constant(1.0, 100, 100, "A")]).unwrap_err();
        let ExecError::OutOfMemory {
            needed_bytes,
            limit_bytes,
        } = err
        else {
            panic!("expected OutOfMemory, got {err:?}");
        };
        assert!(needed_bytes > limit_bytes);
        assert_eq!(limit_bytes, 10 * 1024);
        // Without the limit the same program spills and succeeds.
        let mut e = VmExecutor::new(10 * 1024, HdfsStore::new());
        run(&mut e, vec![constant(1.0, 100, 100, "A")]).unwrap();
        assert!(e.pool.peek("A").is_some());
    }

    #[test]
    fn missing_input_is_a_typed_error() {
        let err = run(&mut exec(), vec![read("gone", "X")]).unwrap_err();
        assert_eq!(err, ExecError::MissingInput("gone".into()));
    }

    #[test]
    fn persistent_read_is_clean_and_write_exports() {
        let mut hdfs = HdfsStore::new();
        hdfs.stage("in", Matrix::constant(2, 2, 5.0));
        let mut e = VmExecutor::new(1 << 30, hdfs);
        run(&mut e, vec![read("in", "X"), constant(1.0, 2, 2, "Y")]).unwrap();
        let dirty = |e: &VmExecutor, name: &str| e.pool.is_dirty_slot(e.pool.slot_of(name)?);
        assert_eq!(dirty(&e, "X"), Some(false), "read from HDFS: clean");
        assert_eq!(dirty(&e, "Y"), Some(true), "computed: dirty");
        run(
            &mut e,
            vec![cp(
                OpCode::PersistentWrite { path: "out".into() },
                vec![Operand::var("Y")],
                None,
            )],
        )
        .unwrap();
        assert!(e.hdfs.exists("out"));
        assert_eq!(dirty(&e, "Y"), Some(false), "exported: clean");
    }

    #[test]
    fn recompile_hook_replaces_the_plan() {
        struct Hook;
        impl RecompileHook for Hook {
            fn recompile(
                &mut self,
                _source: BlockId,
                _live: &HashMap<String, MatrixCharacteristics>,
            ) -> Option<Vec<Instruction>> {
                Some(vec![cp(
                    OpCode::Assign,
                    vec![Operand::num(42.0)],
                    Some("x"),
                )])
            }
        }
        let plan = vec![cp(OpCode::Assign, vec![Operand::num(1.0)], Some("x"))];
        let mut e = exec();
        run_blocks(&mut e, vec![block(plan.clone(), true)], &mut Hook).unwrap();
        assert_eq!(e.scalar("x"), Some(ScalarValue::Num(42.0)));
        assert_eq!(e.stats.recompilations, 1);
        // Blocks not marked for recompilation never consult the hook.
        let mut e = exec();
        run_blocks(&mut e, vec![block(plan, false)], &mut Hook).unwrap();
        assert_eq!(e.scalar("x"), Some(ScalarValue::Num(1.0)));
        assert_eq!(e.stats.recompilations, 0);
    }

    #[test]
    fn mr_job_executes_and_exports_to_tmp() {
        let job = MrJobInstruction {
            hdfs_inputs: vec![("X".into(), MatrixCharacteristics::dense(4, 2))],
            broadcast_inputs: vec![("v".into(), MatrixCharacteristics::dense(2, 1))],
            mappers: vec![MrOperator {
                opcode: OpCode::MatMult,
                operands: vec![Operand::var("X"), Operand::var("v")],
                output: Some("q".into()),
                operand_mcs: vec![],
                output_mc: MatrixCharacteristics::dense(4, 1),
                location: MrLocation::Map,
                task_mem_mb: 0.0,
            }],
            reducers: vec![],
            outputs: vec![("q".into(), MatrixCharacteristics::dense(4, 1))],
            shuffle: vec![],
        };
        let mut e = exec();
        run(
            &mut e,
            vec![
                constant(1.0, 4, 2, "X"),
                constant(3.0, 2, 1, "v"),
                Instruction::MrJob(job),
            ],
        )
        .unwrap();
        assert_eq!(matrix(&e, "q").get(0, 0), 6.0);
        assert_eq!(e.hdfs.peek("tmp/q"), Some(&matrix(&e, "q")));
        assert_eq!(e.stats.mr_jobs, 1);
        assert_eq!(e.stats.cp_instructions, 2);
    }

    #[test]
    fn rmvar_removes_matrices_and_scalars() {
        let mut e = exec();
        run(
            &mut e,
            vec![
                constant(1.0, 1, 1, "a"),
                cp(OpCode::Assign, vec![Operand::num(2.0)], Some("b")),
                cp(
                    OpCode::RmVar,
                    vec![Operand::var("a"), Operand::var("b")],
                    None,
                ),
            ],
        )
        .unwrap();
        assert!(e.pool.peek("a").is_none());
        assert_eq!(e.scalar("b"), None);
    }

    #[test]
    fn print_renders_concatenation() {
        let mut e = exec();
        run(
            &mut e,
            vec![
                cp(
                    OpCode::Concat,
                    vec![
                        Operand::Lit(ScalarValue::Str("iter=".into())),
                        Operand::num(3.0),
                    ],
                    Some("msg"),
                ),
                cp(OpCode::Print, vec![Operand::var("msg")], None),
            ],
        )
        .unwrap();
        assert_eq!(e.stats.printed, vec!["iter=3".to_string()]);
    }

    #[test]
    fn one_by_one_matrix_degrades_to_scalar() {
        let mut e = exec();
        run(
            &mut e,
            vec![
                constant(2.0, 3, 1, "v"),
                constant(10.0, 1, 1, "s"),
                cp(
                    OpCode::BinaryMM(BinaryOp::Mul),
                    vec![Operand::var("v"), Operand::var("s")],
                    Some("vs"),
                ),
                cp(
                    OpCode::BinaryMM(BinaryOp::Sub),
                    vec![Operand::var("s"), Operand::var("v")],
                    Some("sv"),
                ),
                cp(OpCode::Agg(AggOp::Sum), vec![Operand::var("s")], Some("t")),
            ],
        )
        .unwrap();
        let (vs, sv) = (matrix(&e, "vs"), matrix(&e, "sv"));
        assert_eq!((vs.rows(), vs.cols(), vs.get(2, 0)), (3, 1, 20.0));
        assert_eq!((sv.rows(), sv.cols(), sv.get(2, 0)), (3, 1, 8.0));
        assert_eq!(e.scalar("t"), Some(ScalarValue::Num(10.0)));
    }

    #[test]
    fn right_and_left_indexing() {
        let mut hdfs = HdfsStore::new();
        hdfs.stage(
            "P",
            Matrix::Dense(DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()),
        );
        let mut e = VmExecutor::new(1 << 30, hdfs);
        let n = Operand::num;
        run(
            &mut e,
            vec![
                read("P", "P"),
                // Q = P[, 2:3] (0 = open bound)
                cp(
                    OpCode::RightIndex,
                    vec![Operand::var("P"), n(0.0), n(0.0), n(2.0), n(3.0)],
                    Some("Q"),
                ),
                // P[1, 1] = 99
                cp(
                    OpCode::LeftIndex,
                    vec![Operand::var("P"), n(99.0), n(1.0), n(1.0), n(1.0), n(1.0)],
                    Some("P"),
                ),
            ],
        )
        .unwrap();
        let q = matrix(&e, "Q");
        assert_eq!((q.rows(), q.cols()), (2, 2));
        assert_eq!((q.get(0, 0), q.get(1, 1)), (2.0, 6.0));
        let p = matrix(&e, "P");
        assert_eq!((p.get(0, 0), p.get(0, 1), p.get(1, 2)), (99.0, 2.0, 6.0));
    }
}
