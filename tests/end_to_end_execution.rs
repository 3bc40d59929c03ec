//! Integration: all five ML programs compile and *execute for real* on
//! small generated data on the bytecode VM, producing correct models
//! where ground truth exists.

use std::time::{Duration, Instant};

use reml::prelude::*;
use reml::runtime::executor::{ExecError, NoRecompile};
use reml::runtime::{HdfsStore, VmExecutor, VmLowerOptions};
use reml::scripts::data::{generate_dataset, Dataset, LabelKind};
use reml::scripts::ScriptSpec;

fn run_script(script: &ScriptSpec, data: &Dataset) -> VmExecutor {
    run_script_with(script, data, &[])
}

fn run_script_with(script: &ScriptSpec, data: &Dataset, overrides: &[(&str, f64)]) -> VmExecutor {
    let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    for (name, value) in &script.params {
        cfg.params.insert((*name).to_string(), value.clone());
    }
    for (name, value) in overrides {
        cfg.params
            .insert((*name).to_string(), reml::runtime::ScalarValue::Num(*value));
    }
    cfg.inputs.insert("X".to_string(), data.x.characteristics());
    cfg.inputs.insert("y".to_string(), data.y.characteristics());
    let compiled = compile_source(&script.source, &cfg)
        .unwrap_or_else(|e| panic!("{} compile: {e}", script.name));

    let mut hdfs = HdfsStore::new();
    hdfs.stage("X", data.x.clone());
    hdfs.stage("y", data.y.clone());
    let mut exec = VmExecutor::new(4 << 30, hdfs);
    exec.run(
        &compiled.runtime.lower_vm(VmLowerOptions::default()),
        &mut NoRecompile,
    )
    .unwrap_or_else(|e| panic!("{} execute: {e}", script.name));
    exec
}

#[test]
fn linreg_ds_recovers_truth() {
    let data = generate_dataset(1500, 12, 1.0, LabelKind::Regression, 1);
    let exec = run_script(&reml::scripts::linreg_ds(), &data);
    let truth = data.truth.as_ref().unwrap();
    let model = exec.hdfs.peek("model").expect("model written");
    for j in 0..12 {
        assert!(
            (model.get(j, 0) - truth.get(j, 0)).abs() < 0.05,
            "coefficient {j}"
        );
    }
    // R2 printed and high.
    let r2_line = exec
        .stats
        .printed
        .iter()
        .find(|l| l.starts_with("R2="))
        .expect("R2 printed");
    let r2: f64 = r2_line.trim_start_matches("R2=").parse().unwrap();
    assert!(r2 > 0.99, "r2 {r2}");
}

#[test]
fn linreg_cg_matches_ds() {
    let data = generate_dataset(1200, 10, 1.0, LabelKind::Regression, 2);
    let ds = run_script(&reml::scripts::linreg_ds(), &data);
    // CG needs up to m iterations for convergence on an m-dim problem.
    let cg = run_script_with(&reml::scripts::linreg_cg(), &data, &[("maxiter", 15.0)]);
    let beta_ds = ds.hdfs.peek("model").unwrap();
    let beta_cg = cg.hdfs.peek("model").unwrap();
    for j in 0..10 {
        assert!(
            (beta_ds.get(j, 0) - beta_cg.get(j, 0)).abs() < 0.05,
            "coefficient {j}: ds={} cg={}",
            beta_ds.get(j, 0),
            beta_cg.get(j, 0)
        );
    }
}

#[test]
fn l2svm_separates_training_data() {
    let data = generate_dataset(800, 8, 1.0, LabelKind::BinaryPm1, 3);
    let exec = run_script(&reml::scripts::l2svm(), &data);
    let w = exec.hdfs.peek("model").expect("model written");
    // Training accuracy of the learned separator.
    let scores = data.x.matmult(w).unwrap();
    let mut correct = 0usize;
    for r in 0..800 {
        let predicted = if scores.get(r, 0) >= 0.0 { 1.0 } else { -1.0 };
        if predicted == data.y.get(r, 0) {
            correct += 1;
        }
    }
    let acc = correct as f64 / 800.0;
    assert!(acc > 0.9, "training accuracy {acc}");
    // Objective printed each outer iteration.
    assert!(exec.stats.printed.iter().any(|l| l.contains("OBJ=")));
}

#[test]
fn mlogreg_trains_all_classes() {
    let data = generate_dataset(600, 6, 1.0, LabelKind::Classes(4), 4);
    let exec = run_script(&reml::scripts::mlogreg(), &data);
    let b = exec.hdfs.peek("model").expect("model written");
    // Model has one column per class (k = 4, data dependent).
    assert_eq!(b.cols(), 4);
    assert_eq!(b.rows(), 6);
    assert!(exec
        .stats
        .printed
        .iter()
        .any(|l| l.contains("MLOGREG iter")));
}

#[test]
fn glm_converges_on_counts() {
    let data = generate_dataset(500, 5, 1.0, LabelKind::Counts, 5);
    let exec = run_script(&reml::scripts::glm(), &data);
    assert!(exec.hdfs.exists("model"));
    // Deviance decreases across outer iterations.
    let deviances: Vec<f64> = exec
        .stats
        .printed
        .iter()
        .filter_map(|l| l.split("deviance=").nth(1))
        .filter_map(|v| v.parse().ok())
        .collect();
    assert!(deviances.len() >= 2, "printed: {:?}", exec.stats.printed);
    assert!(
        deviances.last().unwrap() <= deviances.first().unwrap(),
        "deviances {deviances:?}"
    );
}

#[test]
fn sparse_features_execute() {
    let data = generate_dataset(1000, 40, 0.05, LabelKind::Regression, 6);
    assert!(data.x.is_sparse());
    let exec = run_script(&reml::scripts::linreg_ds(), &data);
    assert!(exec.hdfs.exists("model"));
}

#[test]
fn executor_buffer_pool_eviction_still_correct() {
    // A pool far smaller than the working set forces evictions but must
    // not change results.
    let data = generate_dataset(800, 10, 1.0, LabelKind::Regression, 8);
    let script = reml::scripts::linreg_ds();
    let mut cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
    for (name, value) in &script.params {
        cfg.params.insert((*name).to_string(), value.clone());
    }
    cfg.inputs.insert("X".to_string(), data.x.characteristics());
    cfg.inputs.insert("y".to_string(), data.y.characteristics());
    let compiled = compile_source(&script.source, &cfg).unwrap();
    let mut hdfs = HdfsStore::new();
    hdfs.stage("X", data.x.clone());
    hdfs.stage("y", data.y.clone());
    // 100 KB pool vs ~64 KB X: evictions guaranteed.
    let mut exec = VmExecutor::new(100 * 1024, hdfs);
    exec.run(
        &compiled.runtime.lower_vm(VmLowerOptions::default()),
        &mut NoRecompile,
    )
    .unwrap();
    assert!(exec.pool.stats().evictions > 0);
    let truth = data.truth.as_ref().unwrap();
    let model = exec.hdfs.peek("model").unwrap();
    for j in 0..10 {
        assert!((model.get(j, 0) - truth.get(j, 0)).abs() < 0.05);
    }
}

#[test]
fn runaway_for_loops_end_in_a_typed_error() {
    // A counter that stalls (1e17 + 1 == 1e17) and a range too long to
    // run both hit the loop bound instead of spinning.
    for source in [
        "x = 0\nfor (i in 1e17:100000000000000003) { x = x + 1 }\nprint(x)",
        "x = 0\nfor (i in 1:1e12) { x = x + 1 }\nprint(x)",
    ] {
        let cfg = CompileConfig::new(ClusterConfig::paper_cluster(), 4 * 1024, 1024);
        let compiled = compile_source(source, &cfg).expect("compiles");
        let mut exec = VmExecutor::new(4 << 30, HdfsStore::new());
        let started = Instant::now();
        let result = exec.run(
            &compiled.runtime.lower_vm(VmLowerOptions::default()),
            &mut NoRecompile,
        );
        assert!(
            matches!(result, Err(ExecError::RunawayLoop(_))),
            "{source}: {result:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{source}: took {:?}",
            started.elapsed()
        );
    }
}
