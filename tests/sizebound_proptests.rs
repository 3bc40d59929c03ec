//! Property test for the interval soundness analysis: any *valid* DML
//! program (see `common/dml_gen.rs`), compiled at any resource point in
//! the cluster's heap range, annotated with interval byte bounds, and
//! then *actually executed* with memory observation enabled, must never
//! record an instruction footprint above its statically-proven bound.
//!
//! This is the strongest form of the soundness contract: the bounds are
//! theorems about every execution, so a single `actual > bound`
//! observation anywhere falsifies the analysis (transfer function,
//! join, or widening).

#[path = "common/dml_gen.rs"]
mod dml_gen;

use proptest::prelude::*;
use reml::compiler::MrHeapAssignment;
use reml::prelude::*;
use reml::runtime::executor::NoRecompile;
use reml::runtime::{HdfsStore, VmExecutor, VmLowerOptions};

use dml_gen::generate_program;

// Runs the vendored-runner default of 64 cases (`PROPTEST_CASES` overrides).
proptest! {
    #[test]
    fn executed_footprints_never_exceed_interval_bounds(
        ops in prop::collection::vec((0u8..255, 0u8..255, 0u8..255), 1usize..10),
        ctrl in 0u8..255,
        cp_heap in 512u64..54_613,
        mr_heap in 512u64..4_506,
    ) {
        let source = generate_program(&ops, ctrl);
        let cluster = ClusterConfig::paper_cluster();
        let mut cfg = CompileConfig::new(cluster, cp_heap, mr_heap);
        cfg.mr_heap = MrHeapAssignment::uniform(mr_heap);
        let analyzed = analyze_program(&source)
            .unwrap_or_else(|e| panic!("generated program must be valid: {e}\n{source}"));
        let mut compiled = compile(&analyzed, &cfg)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{source}"));
        reml::sizebound::annotate(&analyzed, &mut compiled, &cfg)
            .unwrap_or_else(|e| panic!("analysis must succeed: {e}\n{source}"));

        // Unfused, so every CP instruction records its own observation.
        let program = compiled.runtime.lower_vm(VmLowerOptions { fuse: false });
        let mut exec = VmExecutor::new(4 << 30, HdfsStore::new());
        exec.enable_memory_observation();
        exec.run(&program, &mut NoRecompile)
            .unwrap_or_else(|e| panic!("generated program must execute: {e}\n{source}"));

        let observations = exec.take_memory_observations();
        prop_assert!(!observations.is_empty());
        let mut bounded = 0u64;
        for obs in &observations {
            if let Some(bound) = obs.bound_bytes {
                bounded += 1;
                prop_assert!(
                    obs.actual_bytes <= bound,
                    "{}: actual {} > proven bound {} (cp={cp_heap} mr={mr_heap})\n--- source ---\n{source}",
                    obs.opcode,
                    obs.actual_bytes,
                    bound
                );
            }
        }
        // Matrix-literal programs have fully known shapes: the analysis
        // must actually prove bounds, not trivially return None.
        prop_assert!(bounded > 0, "no observation carried a bound\n{source}");
    }
}
