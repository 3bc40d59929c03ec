//! §4.1 AM runtime migration on the *real* executor (the bytecode VM):
//! split a program at a
//! block boundary, migrate the state to a differently-sized container,
//! resume, and verify the results are identical to an unmigrated run —
//! the safety argument the paper makes ("migration at program block
//! boundaries ... all intermediates are bound to logical variable
//! names").

use reml::prelude::*;
use reml::runtime::executor::NoRecompile;
use reml::runtime::{HdfsStore, RtBlock, RuntimeProgram, VmExecutor, VmLowerOptions, VmProgram};
use reml::scripts::data::{generate_dataset, LabelKind};

/// Lower a run of top-level blocks as a program of its own.
fn lower(blocks: &[RtBlock]) -> VmProgram {
    RuntimeProgram {
        blocks: blocks.to_vec(),
        ..Default::default()
    }
    .lower_vm(VmLowerOptions::default())
}

fn compiled_l2svm(
    data: &reml::scripts::Dataset,
) -> (reml::compiler::pipeline::CompiledProgram, HdfsStore) {
    let script = reml::scripts::l2svm();
    let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    for (name, value) in &script.params {
        cfg.params.insert((*name).to_string(), value.clone());
    }
    cfg.inputs.insert("X".into(), data.x.characteristics());
    cfg.inputs.insert("y".into(), data.y.characteristics());
    let compiled = compile_source(&script.source, &cfg).expect("compiles");
    let mut hdfs = HdfsStore::new();
    hdfs.stage("X", data.x.clone());
    hdfs.stage("y", data.y.clone());
    (compiled, hdfs)
}

#[test]
fn migration_at_block_boundary_preserves_results() {
    let data = generate_dataset(500, 8, 1.0, LabelKind::BinaryPm1, 17);
    let (compiled, hdfs) = compiled_l2svm(&data);

    // Reference: run the whole program in one container.
    let mut reference = VmExecutor::new(64 << 20, hdfs.clone());
    reference
        .run(&lower(&compiled.runtime.blocks), &mut NoRecompile)
        .expect("reference runs");
    let ref_model = reference.hdfs.peek("model").unwrap().clone();

    // Migrated: run the prefix (up to the while loop), migrate to a
    // container 8x the size, run the remainder.
    let split = compiled
        .runtime
        .blocks
        .iter()
        .position(|b| matches!(b, RtBlock::While { .. }))
        .expect("has a loop");
    let prefix = lower(&compiled.runtime.blocks[..split]);
    let suffix = lower(&compiled.runtime.blocks[split..]);
    let mut exec = VmExecutor::new(64 << 20, hdfs);
    exec.run(&prefix, &mut NoRecompile).expect("prefix runs");
    let report = exec.migrate(512 << 20);
    assert!(report.variables > 0);
    assert!(report.dirty_exported > 0, "loop state is dirty");
    assert_eq!(exec.pool.capacity_bytes(), 512 << 20);
    exec.run(&suffix, &mut NoRecompile).expect("suffix runs");

    let migrated_model = exec.hdfs.peek("model").unwrap().clone();
    assert_eq!(migrated_model.rows(), ref_model.rows());
    for r in 0..ref_model.rows() {
        assert!(
            (migrated_model.get(r, 0) - ref_model.get(r, 0)).abs() < 1e-12,
            "weight {r} diverged after migration"
        );
    }
    // Scalars travel implicitly (same executor object models the
    // serialized position state); printed output must match too.
    assert_eq!(exec.stats.printed, reference.stats.printed);
}

#[test]
fn migration_to_smaller_container_still_correct() {
    // Shrinking (the "trivial" direction per §4) must also preserve
    // results, merely causing evictions.
    let data = generate_dataset(400, 6, 1.0, LabelKind::Regression, 23);
    let script = reml::scripts::linreg_ds();
    let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    for (name, value) in &script.params {
        cfg.params.insert((*name).to_string(), value.clone());
    }
    cfg.inputs.insert("X".into(), data.x.characteristics());
    cfg.inputs.insert("y".into(), data.y.characteristics());
    let compiled = compile_source(&script.source, &cfg).unwrap();
    let mut hdfs = HdfsStore::new();
    hdfs.stage("X", data.x.clone());
    hdfs.stage("y", data.y.clone());

    let mut exec = VmExecutor::new(64 << 20, hdfs);
    // Run the first block, then migrate to a tiny pool.
    let first = lower(&compiled.runtime.blocks[..1]);
    let rest = lower(&compiled.runtime.blocks[1..]);
    exec.run(&first, &mut NoRecompile).unwrap();
    exec.migrate(100 * 1024);
    exec.run(&rest, &mut NoRecompile).unwrap();
    let model = exec.hdfs.peek("model").unwrap();
    let truth = data.truth.as_ref().unwrap();
    for j in 0..6 {
        assert!((model.get(j, 0) - truth.get(j, 0)).abs() < 0.05);
    }
}

#[test]
fn migration_report_accounts_dirty_bytes() {
    let mut exec = VmExecutor::new(1 << 20, HdfsStore::new());
    let clean = exec.pool.resolve_slot("clean");
    exec.pool
        .put_slot_with_dirty(clean, reml::matrix::Matrix::constant(10, 10, 1.0), false);
    let dirty = exec.pool.resolve_slot("dirty");
    exec.pool
        .put_slot(dirty, reml::matrix::Matrix::constant(20, 10, 2.0));
    let report = exec.migrate(2 << 20);
    assert_eq!(report.variables, 2);
    assert_eq!(report.dirty_exported, 1);
    assert_eq!(report.dirty_bytes, 20 * 10 * 8);
    assert!(exec.hdfs.exists("am_state/dirty"));
    // Both variables survive the migration in their slots, now clean.
    for slot in [clean, dirty] {
        assert!(exec.pool.peek_slot(slot).is_some());
        assert_eq!(exec.pool.is_dirty_slot(slot), Some(false));
    }
}
