//! Differential oracle for the optimizer's cost memo and for the
//! soundness analysis's reuse of memoized front ends.
//!
//! The cost memo serves a costing across CP budgets whenever the plan is
//! the same and the budget stays inside the range the cost model proved
//! it cannot change; `plan_cache = false` bypasses it. Over the five
//! paper scripts × XS/S/M/L × dense/sparse, the serial and the parallel
//! optimizer must choose the same configuration with bit-identical costs
//! and ledgers either way, whole-program and over a §4 re-optimization
//! scope, and a simulation with §4 re-optimization must end at the same
//! time. The interval analysis must give the same bounds whether it
//! takes block DAGs from the front-end memo or rebuilds them.

use reml::compiler::pipeline::AnalyzedProgram;
use reml::optimizer::OptimizationResult;
use reml::prelude::*;
use reml::scripts::{DataShape, Scenario, ScriptSpec};
use reml::sizebound::{analyze_with_min_budget, DagSource};

const SCRIPTS: [fn() -> ScriptSpec; 5] = [
    reml::scripts::linreg_ds,
    reml::scripts::linreg_cg,
    reml::scripts::l2svm,
    reml::scripts::mlogreg,
    reml::scripts::glm,
];

fn optimizer(cluster: &ClusterConfig, plan_cache: bool, workers: usize) -> ResourceOptimizer {
    let mut opt = ResourceOptimizer::new(CostModel::new(cluster.clone()));
    opt.config.plan_cache = plan_cache;
    opt.config.workers = workers;
    opt
}

/// Everything about a result that must not depend on the memo. Debug
/// formatting prints every `f64` in its shortest round-trip form, so
/// equal strings mean bit-identical costs.
fn fingerprint(r: &OptimizationResult) -> String {
    format!(
        "best={:?} cost_bits={:#x} local={:?} ledger={:?}",
        r.best,
        r.best_cost_s.to_bits(),
        r.best_local,
        r.ledger
    )
}

/// The §4 re-optimization scope starting at the first top-level generic
/// block after the first one, with the entry environment the compiler
/// recorded for it.
fn scope(
    analyzed: &AnalyzedProgram,
    base: &CompileConfig,
) -> Option<(usize, reml::compiler::build::Env)> {
    let compiled = compile(analyzed, base).ok()?;
    analyzed
        .blocks
        .iter()
        .enumerate()
        .skip(1)
        .find_map(|(i, b)| compiled.entry_envs.get(&b.id.0).map(|env| (i, env.clone())))
}

#[test]
fn cost_memo_matches_bypass_across_scripts_and_shapes() {
    let cluster = ClusterConfig::paper_cluster();
    for ctor in SCRIPTS {
        let script = ctor();
        for scenario in [Scenario::XS, Scenario::S, Scenario::M, Scenario::L] {
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

                let reference = optimizer(&cluster, false, 1)
                    .optimize(&analyzed, &base, None)
                    .unwrap();
                for (plan_cache, workers) in [(true, 1), (false, 2), (true, 2)] {
                    let r = optimizer(&cluster, plan_cache, workers)
                        .optimize(&analyzed, &base, None)
                        .unwrap();
                    assert_eq!(
                        fingerprint(&r),
                        fingerprint(&reference),
                        "{label}: plan_cache={plan_cache} workers={workers}"
                    );
                }

                if let Some((start, env)) = scope(&analyzed, &base) {
                    let current = Some(reference.best.cp_heap_mb);
                    let run = |plan_cache, workers| {
                        optimizer(&cluster, plan_cache, workers)
                            .optimize_scope(&analyzed, &base, Some((start, &env)), current)
                            .unwrap()
                    };
                    let reference = fingerprint(&run(false, 1));
                    for (plan_cache, workers) in [(true, 1), (false, 2), (true, 2)] {
                        assert_eq!(
                            fingerprint(&run(plan_cache, workers)),
                            reference,
                            "{label}: scope from top-level block {start}, \
                             plan_cache={plan_cache} workers={workers}"
                        );
                    }
                }

                // Simulate the choice with §4 re-optimization, whose
                // optimizer runs with the memo on (in debug builds every
                // memo hit there is re-costed from scratch), on a warm and
                // on an empty front-end memo.
                let sim = Simulator::new(cluster.clone());
                let config = SimConfig {
                    reopt: true,
                    ..SimConfig::fixed(reference.best.clone())
                };
                let a = sim.run_app(&analyzed, &base, &config).unwrap();
                let b = sim.run_app(&analyzed.clone(), &base, &config).unwrap();
                assert_eq!(
                    a.elapsed_s.to_bits(),
                    b.elapsed_s.to_bits(),
                    "{label}: {} vs {} s",
                    a.elapsed_s,
                    b.elapsed_s
                );
                assert_eq!(a.adaptations, b.adaptations, "{label}");
            }
        }
    }
}

#[test]
fn sizebound_bounds_match_through_the_front_end_memo() {
    let cluster = ClusterConfig::paper_cluster();
    let min = cluster.min_heap_mb();
    for ctor in SCRIPTS {
        let script = ctor();
        for scenario in [Scenario::XS, Scenario::S, Scenario::M, Scenario::L] {
            for sparsity in [1.0, 0.01] {
                let shape = DataShape {
                    scenario,
                    cols: 1000,
                    sparsity,
                };
                let label = format!("{} {} {}", script.name, scenario.name(), shape.label());
                let analyzed = analyze_program(&script.source).unwrap();
                let probe = script.compile_config(
                    shape,
                    cluster.clone(),
                    min,
                    MrHeapAssignment::uniform(min),
                );
                // The probe compile fills the analyzed program's memo.
                let compiled = compile(&analyzed, &probe).unwrap();
                let (rebuilt, rebuilt_min) =
                    analyze_with_min_budget(&analyzed, &compiled, &probe, DagSource::Rebuild)
                        .unwrap();
                let (memo, memo_min) =
                    analyze_with_min_budget(&analyzed, &compiled, &probe, DagSource::FrontEndMemo)
                        .unwrap();
                assert_eq!(memo_min.to_bits(), rebuilt_min.to_bits(), "{label}");
                assert_eq!(
                    memo.blocks.keys().collect::<Vec<_>>(),
                    rebuilt.blocks.keys().collect::<Vec<_>>(),
                    "{label}"
                );
                for (bid, m) in &memo.blocks {
                    let r = &rebuilt.blocks[bid];
                    assert_eq!(m.hops, r.hops, "{label}: hop bounds of block {bid}");
                    assert_eq!(m.entry, r.entry, "{label}: entry of block {bid}");
                    assert_eq!(m.writes, r.writes, "{label}: writes of block {bid}");
                    assert!(
                        analyzed
                            .memoized_front_end(*bid, &probe, &compiled.entry_envs[bid])
                            .is_some(),
                        "{label}: block {bid} was rebuilt, not taken from the memo"
                    );
                }
                assert_eq!(memo.pred_envs, rebuilt.pred_envs, "{label}");
                assert_eq!(memo.widening_steps, rebuilt.widening_steps, "{label}");
            }
        }
    }
}
