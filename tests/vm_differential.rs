//! Differential oracle: the fused VM must be bit-identical to the
//! unfused VM on all five paper scripts.
//!
//! Each script runs two ways — VM without fusion, VM with fusion — on
//! the same generated dataset, and every observable is compared: printed
//! output, final scalar variables (f64 compared by bit pattern), live
//! pool matrices (representation, dims, nnz, and the dense view compared
//! bitwise), HDFS contents, and `ExecStats`. Pool contents are compared
//! excluding compiler temporaries (`_mVar*`): under fusion those
//! intermediates are legitimately never materialized. Value correctness
//! of the unfused VM is checked against the AST reference interpreter by
//! `differential.rs` and `vm_fusion_prop.rs`, and the paper scripts'
//! models against ground truth by `end_to_end_execution.rs`.

use std::collections::BTreeMap;

use reml::prelude::*;
use reml::runtime::executor::NoRecompile;
use reml::runtime::instructions::TEMP_PREFIX;
use reml::runtime::vm::lower::VmLowerOptions;
use reml::runtime::{HdfsStore, ScalarValue, VmExecutor};
use reml::scripts::data::{generate_dataset, Dataset, LabelKind};
use reml::scripts::ScriptSpec;

const CP_BUDGET_BYTES: u64 = 4 << 30;

fn compile_script(
    script: &ScriptSpec,
    data: &Dataset,
    overrides: &[(&str, f64)],
) -> reml::compiler::pipeline::CompiledProgram {
    let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    for (name, value) in &script.params {
        cfg.params.insert((*name).to_string(), value.clone());
    }
    for (name, value) in overrides {
        cfg.params
            .insert((*name).to_string(), ScalarValue::Num(*value));
    }
    cfg.inputs.insert("X".to_string(), data.x.characteristics());
    cfg.inputs.insert("y".to_string(), data.y.characteristics());
    compile_source(&script.source, &cfg).unwrap_or_else(|e| panic!("{} compile: {e}", script.name))
}

fn staged_hdfs(data: &Dataset) -> HdfsStore {
    let mut hdfs = HdfsStore::new();
    hdfs.stage("X", data.x.clone());
    hdfs.stage("y", data.y.clone());
    hdfs
}

/// Everything observable about one execution.
struct Observed {
    printed: Vec<String>,
    scalars: BTreeMap<String, ScalarBits>,
    /// name -> (is_sparse, rows, cols, nnz, dense bits)
    matrices: BTreeMap<String, (bool, usize, usize, u64, Vec<u64>)>,
    hdfs: BTreeMap<String, (bool, usize, usize, u64, Vec<u64>)>,
    cp_instructions: u64,
    mr_jobs: u64,
    loop_iterations: u64,
}

#[derive(Debug, PartialEq, Eq)]
enum ScalarBits {
    Num(u64),
    Bool(bool),
    Str(String),
}

fn scalar_bits(v: &ScalarValue) -> ScalarBits {
    match v {
        ScalarValue::Num(n) => ScalarBits::Num(n.to_bits()),
        ScalarValue::Bool(b) => ScalarBits::Bool(*b),
        ScalarValue::Str(s) => ScalarBits::Str(s.clone()),
    }
}

fn matrix_bits(m: &reml::matrix::Matrix) -> (bool, usize, usize, u64, Vec<u64>) {
    let d = m.to_dense();
    (
        m.is_sparse(),
        m.rows(),
        m.cols(),
        m.nnz(),
        d.data().iter().map(|v| v.to_bits()).collect(),
    )
}

fn observe(exec: &VmExecutor) -> Observed {
    let scalars = exec
        .scalars()
        .iter()
        .filter(|(name, _)| !name.starts_with(TEMP_PREFIX))
        .map(|(name, v)| (name.clone(), scalar_bits(v)))
        .collect();
    let matrices = exec
        .pool
        .variables()
        .into_iter()
        .filter(|name| !name.starts_with(TEMP_PREFIX))
        .map(|name| {
            let bits = matrix_bits(exec.pool.peek(&name).expect("listed variable present"));
            (name, bits)
        })
        .collect();
    let hdfs = exec
        .hdfs
        .paths()
        .into_iter()
        .map(|path| (path.to_string(), matrix_bits(exec.hdfs.peek(path).unwrap())))
        .collect();
    Observed {
        printed: exec.stats.printed.clone(),
        scalars,
        matrices,
        hdfs,
        cp_instructions: exec.stats.cp_instructions,
        mr_jobs: exec.stats.mr_jobs,
        loop_iterations: exec.stats.loop_iterations,
    }
}

fn run_vm(
    script: &ScriptSpec,
    data: &Dataset,
    overrides: &[(&str, f64)],
    fuse: bool,
) -> (Observed, usize) {
    let compiled = compile_script(script, data, overrides);
    let program = compiled.runtime.lower_vm(VmLowerOptions { fuse });
    let mut exec = VmExecutor::new(CP_BUDGET_BYTES, staged_hdfs(data));
    exec.run(&program, &mut NoRecompile)
        .unwrap_or_else(|e| panic!("{} vm execute: {e}", script.name));
    (observe(&exec), program.stats.fused_groups)
}

fn assert_identical(script: &str, unfused: &Observed, fused: &Observed) {
    assert_eq!(unfused.printed, fused.printed, "{script}: printed output");
    assert_eq!(unfused.scalars, fused.scalars, "{script}: scalars");
    assert_eq!(
        unfused.matrices.keys().collect::<Vec<_>>(),
        fused.matrices.keys().collect::<Vec<_>>(),
        "{script}: live matrix variables"
    );
    for (name, expected) in &unfused.matrices {
        assert_eq!(
            expected, &fused.matrices[name],
            "{script}: matrix '{name}' differs"
        );
    }
    assert_eq!(
        unfused.hdfs.keys().collect::<Vec<_>>(),
        fused.hdfs.keys().collect::<Vec<_>>(),
        "{script}: HDFS paths"
    );
    for (path, expected) in &unfused.hdfs {
        assert_eq!(
            expected, &fused.hdfs[path],
            "{script}: HDFS '{path}' differs"
        );
    }
    assert_eq!(
        unfused.cp_instructions, fused.cp_instructions,
        "{script}: cp_instructions"
    );
    assert_eq!(unfused.mr_jobs, fused.mr_jobs, "{script}: mr_jobs");
    assert_eq!(
        unfused.loop_iterations, fused.loop_iterations,
        "{script}: loop_iterations"
    );
}

fn differential(
    script: &ScriptSpec,
    data: &Dataset,
    overrides: &[(&str, f64)],
    expect_fusion: bool,
) {
    let (unfused, groups) = run_vm(script, data, overrides, false);
    assert_eq!(groups, 0, "{}: unfused lowering must not fuse", script.name);
    let (fused, groups) = run_vm(script, data, overrides, true);
    if expect_fusion {
        assert!(
            groups > 0,
            "{}: expected the fusion pass to find chains",
            script.name
        );
    }
    assert_identical(script.name, &unfused, &fused);
}

#[test]
fn linreg_ds_vm_identical() {
    let data = generate_dataset(700, 9, 1.0, LabelKind::Regression, 11);
    differential(&reml::scripts::linreg_ds(), &data, &[], false);
}

#[test]
fn linreg_cg_vm_identical() {
    let data = generate_dataset(600, 8, 1.0, LabelKind::Regression, 12);
    differential(
        &reml::scripts::linreg_cg(),
        &data,
        &[("maxiter", 12.0)],
        true,
    );
}

#[test]
fn l2svm_vm_identical() {
    let data = generate_dataset(500, 7, 1.0, LabelKind::BinaryPm1, 13);
    differential(&reml::scripts::l2svm(), &data, &[], true);
}

#[test]
fn mlogreg_vm_identical() {
    let data = generate_dataset(400, 6, 1.0, LabelKind::Classes(3), 14);
    // mlogreg's elementwise chains broadcast across class columns, which
    // the fusion shape gate rejects — no chains expected.
    differential(&reml::scripts::mlogreg(), &data, &[], false);
}

#[test]
fn glm_vm_identical() {
    let data = generate_dataset(400, 5, 1.0, LabelKind::Counts, 15);
    differential(&reml::scripts::glm(), &data, &[], true);
}

#[test]
fn sparse_input_vm_identical() {
    // Sparse X drives the fused fallback path (externals not dense) and
    // the sparse-representation tracking in the fast path's absence.
    let data = generate_dataset(900, 30, 0.05, LabelKind::Regression, 16);
    assert!(data.x.is_sparse());
    differential(&reml::scripts::linreg_ds(), &data, &[], false);
}

#[test]
fn small_pool_vm_identical() {
    // A pool far smaller than the working set forces evictions and
    // restores through the slot API; the model must be bit-identical to
    // the one computed without memory pressure.
    let data = generate_dataset(800, 10, 1.0, LabelKind::Regression, 17);
    let script = reml::scripts::linreg_ds();
    let compiled = compile_script(&script, &data, &[]);
    let program = compiled.runtime.lower_vm(VmLowerOptions::default());
    let run = |pool_bytes: u64| {
        let mut vm = VmExecutor::new(pool_bytes, staged_hdfs(&data));
        vm.run(&program, &mut NoRecompile).unwrap();
        vm
    };
    let (small, large) = (run(100 * 1024), run(CP_BUDGET_BYTES));
    assert!(small.pool.stats().evictions > 0);
    assert_eq!(large.pool.stats().evictions, 0);
    assert_eq!(
        matrix_bits(small.hdfs.peek("model").unwrap()),
        matrix_bits(large.hdfs.peek("model").unwrap())
    );
}
