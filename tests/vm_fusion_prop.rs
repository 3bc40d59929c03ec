//! Property test for the bytecode VM and its fusion pass: on any valid
//! generated DML program, compiled at any resource point,
//!
//! * the unfused VM must agree with the AST reference interpreter
//!   (`common/reference.rs`, no compiler layer involved): printed lines
//!   equal in text with numbers within a 1e-6 relative tolerance, and
//!   every matrix the VM holds at exit within that tolerance of the
//!   reference's same-named value;
//! * the fused VM must be bit-identical to the unfused VM on every
//!   observable (printed lines, scalars, live matrices incl. their
//!   dense/sparse representation, and execution statistics);
//! * every lowered program must pass the PL040–PL047 bytecode lint.

#[path = "common/dml_gen.rs"]
mod dml_gen;
#[path = "common/reference.rs"]
#[allow(dead_code)]
mod reference;

use std::collections::BTreeMap;

use proptest::prelude::*;
use reml::prelude::*;
use reml::runtime::executor::NoRecompile;
use reml::runtime::instructions::TEMP_PREFIX;
use reml::runtime::vm::VmLowerOptions;
use reml::runtime::{HdfsStore, VmExecutor};

use dml_gen::generate_program;

/// Bit-stable fingerprint of everything a run observes.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    printed: Vec<String>,
    scalars: BTreeMap<String, String>,
    matrices: BTreeMap<String, (bool, usize, usize, u64, Vec<u64>)>,
    cp_instructions: u64,
    loop_iterations: u64,
}

fn matrix_bits(m: &Matrix) -> (bool, usize, usize, u64, Vec<u64>) {
    (
        m.is_sparse(),
        m.rows(),
        m.cols(),
        m.nnz(),
        m.to_dense().data().iter().map(|v| v.to_bits()).collect(),
    )
}

fn scalar_key(v: &reml::runtime::ScalarValue) -> String {
    use reml::runtime::ScalarValue;
    match v {
        ScalarValue::Num(n) => format!("n:{:016x}", n.to_bits()),
        ScalarValue::Bool(b) => format!("b:{b}"),
        ScalarValue::Str(s) => format!("s:{s}"),
    }
}

fn run_vm(program: &reml::runtime::RuntimeProgram, fuse: bool) -> VmExecutor {
    let lowered = program.lower_vm(VmLowerOptions { fuse });
    let lint = reml::planlint::lint_vm(program, &lowered);
    assert!(
        lint.is_empty(),
        "bytecode lint failed (fuse={fuse}):\n{}",
        lint.render()
    );
    let mut exec = VmExecutor::new(4 << 30, HdfsStore::new());
    exec.run(&lowered, &mut NoRecompile).expect("vm execute");
    exec
}

/// Live matrices at exit, excluding compiler temporaries.
fn live_matrices(exec: &VmExecutor) -> Vec<(String, Matrix)> {
    exec.pool
        .variables()
        .into_iter()
        .filter(|n| !n.starts_with(TEMP_PREFIX))
        .map(|n| {
            let m = exec.pool.peek(&n).unwrap().clone();
            (n, m)
        })
        .collect()
}

fn vm_fingerprint(exec: &VmExecutor) -> Fingerprint {
    let scalars = exec
        .scalars()
        .into_iter()
        .filter(|(n, _)| !n.starts_with(TEMP_PREFIX))
        .map(|(n, v)| (n, scalar_key(&v)))
        .collect();
    let matrices = live_matrices(exec)
        .into_iter()
        .map(|(n, m)| (n, matrix_bits(&m)))
        .collect();
    Fingerprint {
        printed: exec.stats.printed.clone(),
        scalars,
        matrices,
        cp_instructions: exec.stats.cp_instructions,
        loop_iterations: exec.stats.loop_iterations,
    }
}

// Runs the vendored-runner default of 64 cases (`PROPTEST_CASES` overrides).
proptest! {
    #[test]
    fn fused_and_unfused_vm_match_reference(
        ops in prop::collection::vec((0u8..255, 0u8..255, 0u8..255), 1usize..10),
        ctrl in 0u8..255,
        cp_heap in 512u64..54_613,
        mr_heap in 512u64..4_506,
    ) {
        // Panics inside lower_vm on any bytecode violation, in addition
        // to the explicit lint in run_vm below.
        reml::planlint::install_vm_verifier();
        let source = generate_program(&ops, ctrl);
        let cluster = ClusterConfig::paper_cluster();
        let cfg = CompileConfig::new(cluster, cp_heap, mr_heap);
        let compiled = compile_source(&source, &cfg)
            .unwrap_or_else(|e| panic!("generated program must compile: {e}\n{source}"));

        let unfused = run_vm(&compiled.runtime, false);
        let reference = reference::interpret(&source, &[], &[]);
        let verdict = reference.check(&unfused.stats.printed, &live_matrices(&unfused));
        prop_assert!(
            verdict.is_ok(),
            "unfused VM diverges from the reference (cp={} mr={}): {}\n--- source ---\n{}",
            cp_heap, mr_heap, verdict.unwrap_err(), source
        );
        let fused = run_vm(&compiled.runtime, true);
        prop_assert_eq!(
            &vm_fingerprint(&unfused), &vm_fingerprint(&fused),
            "fused VM diverges from the unfused VM (cp={} mr={})\n--- source ---\n{}",
            cp_heap, mr_heap, source
        );
    }
}
