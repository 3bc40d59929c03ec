//! The budget-range claim on the paper plans: a costing that evicted
//! nothing comes out bit-identical under every CP budget at or above its
//! peak resident bytes, and any budget below the peak evicts.

use proptest::prelude::*;
use reml_cluster::ClusterConfig;
use reml_compiler::pipeline::{analyze_program, compile};
use reml_compiler::MrHeapAssignment;
use reml_cost::{BudgetRange, CostBreakdown, CostModel};
use reml_scripts::{all_scripts, DataShape, Scenario};

/// A heap whose budget no plan's resident set reaches.
const UNBOUNDED_HEAP_MB: u64 = 1 << 40;

fn bits(c: &CostBreakdown) -> [u64; 5] {
    [
        c.io_s.to_bits(),
        c.compute_s.to_bits(),
        c.latency_s.to_bits(),
        c.shuffle_s.to_bits(),
        c.mr_jobs,
    ]
}

/// The smallest heap whose CP budget holds `peak` bytes.
fn smallest_heap_holding(model: &CostModel, peak: u64) -> u64 {
    let mut heap = (peak as f64 / (1024.0 * 1024.0) / 0.7) as u64;
    while heap > 0 && model.cp_budget_bytes(heap - 1) >= peak {
        heap -= 1;
    }
    while model.cp_budget_bytes(heap) < peak {
        heap += 1;
    }
    heap
}

proptest! {
    #[test]
    fn budgets_at_or_above_the_peak_cost_bit_identically(
        script in 0usize..5,
        scenario in prop::sample::select(vec![Scenario::XS, Scenario::S, Scenario::M, Scenario::L]),
        sparsity in prop::sample::select(vec![1.0, 0.01]),
        plan_heap in prop::sample::select(vec![512u64, 2048, 8192, 32768]),
        mr_heap in prop::sample::select(vec![512u64, 2048, 4096]),
        (above, below) in (0.0f64..1.0, 0.0f64..1.0),
    ) {
        let cluster = ClusterConfig::paper_cluster();
        let spec = &all_scripts()[script];
        let shape = DataShape { scenario, cols: 1000, sparsity };
        let label = format!("{} {} {}", spec.name, scenario.name(), shape.label());
        let analyzed = analyze_program(&spec.source).unwrap();
        let cfg = spec.compile_config(
            shape,
            cluster.clone(),
            plan_heap,
            MrHeapAssignment::uniform(mr_heap),
        );
        let plan = compile(&analyzed, &cfg).unwrap().runtime;
        let model = CostModel::new(cluster);
        let cost_at = |heap: u64| model.cost_program_ranged(&plan, heap, &|_| mr_heap);

        let (unbounded, range) = cost_at(UNBOUNDED_HEAP_MB);
        let BudgetRange::AtLeast(peak) = range else {
            panic!("{label}: evicted under an unbounded budget");
        };
        let lowest = smallest_heap_holding(&model, peak);
        let heap = lowest + (above * (4 * lowest + 4096) as f64) as u64;
        let (cost, range) = cost_at(heap);
        prop_assert_eq!(range, BudgetRange::AtLeast(peak));
        prop_assert_eq!(bits(&cost), bits(&unbounded), "{} at {} MB", label, heap);

        if lowest > 0 {
            let heap = ((lowest - 1) as f64 * below) as u64;
            let (_, range) = cost_at(heap);
            prop_assert_eq!(range, BudgetRange::Exactly(model.cp_budget_bytes(heap)));
        }
    }
}
