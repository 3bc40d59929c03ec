//! Extrapolation guard for the calibration fit: a profile fitted on
//! XS/S-sized runs of a program must not *increase* time-estimation
//! error when the same program is executed at M/L sizes.
//!
//! The fitted per-opcode models are affine in flops and bytes (with a
//! median-ratio fallback), so they should extrapolate along the size
//! axis instead of memorizing the training scale. We regenerate the same
//! operator sequence via `dml_gen` with every matrix-literal dimension
//! multiplied by a scale factor, fit on the small scales, and evaluate
//! against observations from the large scales only.

#[path = "common/dml_gen.rs"]
#[allow(dead_code)]
mod dml_gen;

use reml::calibrate::{evaluate, fit_profile, samples_from_observations};
use reml::compiler::MrHeapAssignment;
use reml::prelude::*;
use reml::runtime::executor::NoRecompile;
use reml::runtime::{HdfsStore, MemObservation, VmExecutor, VmLowerOptions};

use dml_gen::generate_program_scaled;

const FIT_SCALES: [usize; 2] = [1, 2];
const EVAL_SCALES: [usize; 2] = [8, 16];

/// A fixed operator mix covering matmult, elementwise, transpose, unary,
/// append, and column aggregation, with the tail inside a `while` loop so
/// every opcode is observed several times per run.
const OPS: [(u8, u8, u8); 8] = [
    (1, 0, 1),
    (2, 1, 0),
    (3, 2, 0),
    (4, 0, 3),
    (5, 1, 2),
    (6, 0, 0),
    (1, 3, 2),
    (2, 2, 4),
];

fn observe_at_scale(scale: usize) -> Vec<MemObservation> {
    let source = generate_program_scaled(&OPS, 1, scale);
    let cluster = ClusterConfig::paper_cluster();
    let mut cfg = CompileConfig::new(cluster, 4 * 1024, 1024);
    cfg.mr_heap = MrHeapAssignment::uniform(1024);
    let analyzed = analyze_program(&source)
        .unwrap_or_else(|e| panic!("generated program must be valid: {e}\n{source}"));
    let compiled = compile(&analyzed, &cfg)
        .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{source}"));

    // Unfused, so every CP instruction records its own observation.
    let program = compiled.runtime.lower_vm(VmLowerOptions { fuse: false });
    let mut exec = VmExecutor::new(4 << 30, HdfsStore::new());
    exec.enable_memory_observation();
    exec.run(&program, &mut NoRecompile)
        .unwrap_or_else(|e| panic!("generated program must execute: {e}\n{source}"));
    exec.take_memory_observations()
}

#[test]
fn profile_fitted_on_small_inputs_extrapolates_to_large() {
    let peak = ClusterConfig::paper_cluster().peak_flops;

    let mut fit_samples = Vec::new();
    for scale in FIT_SCALES {
        let observations = observe_at_scale(scale);
        assert!(
            !observations.is_empty(),
            "scale {scale}: no observations recorded"
        );
        fit_samples.extend(samples_from_observations(&observations));
    }
    let profile = fit_profile(&fit_samples, peak);
    assert!(
        !profile.opcodes.is_empty(),
        "fit on small scales produced an empty profile"
    );

    for scale in EVAL_SCALES {
        let observations = observe_at_scale(scale);
        let report = evaluate(&observations, peak, &profile);
        assert!(
            report.calibrated_time_err <= report.analytic_time_err,
            "scale {scale}: profile fitted on scales {FIT_SCALES:?} increased \
             time-estimation error ({:.2}x -> {:.2}x)\n{}",
            report.analytic_time_err,
            report.calibrated_time_err,
            report.table(),
        );
    }
}
