//! Differential oracle for the budget-independent front-end memo: every
//! compilation and simulation that reuses an analyzed program's shared
//! memo must match the same work done against an empty memo (a fresh
//! clone of the analyzed program), across the five paper scripts ×
//! S/M/L × dense/sparse and the optimizer's own CP and MR grids.

use reml::compiler::pipeline::AnalyzedProgram;
use reml::prelude::*;
use reml::scripts::{DataShape, Scenario, ScriptSpec};

const SCRIPTS: [fn() -> ScriptSpec; 5] = [
    reml::scripts::linreg_ds,
    reml::scripts::linreg_cg,
    reml::scripts::l2svm,
    reml::scripts::mlogreg,
    reml::scripts::glm,
];

/// The heaps the optimizer's default hybrid grid visits for this program.
fn grid(analyzed: &AnalyzedProgram, base: &CompileConfig, cluster: &ClusterConfig) -> Vec<u64> {
    let (min, max) = (cluster.min_heap_mb(), cluster.max_heap_mb());
    let mut probe = base.clone();
    probe.cp_heap_mb = min;
    probe.mr_heap = MrHeapAssignment::uniform(min);
    let estimates: Vec<f64> = compile(&analyzed.clone(), &probe)
        .expect("probe compiles")
        .summaries
        .iter()
        .flat_map(|s| s.mem_estimates_mb.iter().copied())
        .collect();
    GridStrategy::default_hybrid().generate(min, max, &estimates)
}

#[test]
fn shared_memo_matches_an_empty_memo_across_the_grid() {
    let cluster = ClusterConfig::paper_cluster();
    for ctor in SCRIPTS {
        let script = ctor();
        for scenario in [Scenario::S, Scenario::M, Scenario::L] {
            for sparsity in [1.0, 0.01] {
                let shape = DataShape {
                    scenario,
                    cols: 1000,
                    sparsity,
                };
                let label = format!("{} {} {}", script.name, scenario.name(), shape.label());
                let analyzed = analyze_program(&script.source).unwrap();
                let base = script.compile_config(
                    shape,
                    cluster.clone(),
                    512,
                    MrHeapAssignment::uniform(512),
                );
                let points = grid(&analyzed, &base, &cluster);
                // Every CP point, each paired with an MR point, so both
                // grids are covered in one pass.
                for (i, &cp) in points.iter().enumerate() {
                    let mut cfg = base.clone();
                    cfg.cp_heap_mb = cp;
                    cfg.mr_heap = MrHeapAssignment::uniform(points[(i * 7) % points.len()]);
                    let shared = compile(&analyzed, &cfg).unwrap();
                    let fresh = compile(&analyzed.clone(), &cfg).unwrap();
                    let at = format!("{label} at cp={cp} MB mr={} MB", cfg.mr_heap.default_mb);
                    assert_eq!(
                        format!("{:?}", shared.runtime),
                        format!("{:?}", fresh.runtime),
                        "runtime: {at}"
                    );
                    assert_eq!(
                        format!("{:?}", shared.summaries),
                        format!("{:?}", fresh.summaries),
                        "summaries: {at}"
                    );
                    assert_eq!(
                        format!("{:?}", shared.rewrite_audit),
                        format!("{:?}", fresh.rewrite_audit),
                        "rewrite audit: {at}"
                    );
                    assert_eq!(shared.stats, fresh.stats, "stats: {at}");
                }

                // Optimize on the (now warm) shared memo, then simulate
                // the choice with §4 re-optimization on both ways.
                let opt = ResourceOptimizer::new(CostModel::new(cluster.clone()))
                    .optimize(&analyzed, &base, None)
                    .unwrap();
                let sim = Simulator::new(cluster.clone());
                let config = SimConfig {
                    reopt: true,
                    ..SimConfig::fixed(opt.best.clone())
                };
                let shared = sim.run_app(&analyzed, &base, &config).unwrap();
                let fresh = sim.run_app(&analyzed.clone(), &base, &config).unwrap();
                assert_eq!(
                    shared.elapsed_s.to_bits(),
                    fresh.elapsed_s.to_bits(),
                    "{label}: {} vs {} s",
                    shared.elapsed_s,
                    fresh.elapsed_s
                );
                assert_eq!(shared.recompilations, fresh.recompilations, "{label}");
                assert_eq!(shared.adaptations, fresh.adaptations, "{label}");
                assert_eq!(
                    format!("{:?}", shared.final_resources),
                    format!("{:?}", fresh.final_resources),
                    "{label}"
                );
            }
        }
    }
}
