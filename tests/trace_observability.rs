//! Observability integration: the `reml_trace` layer must be a pure
//! *mirror* — installing a recorder changes nothing about what the
//! system computes or serializes.
//!
//! * The fault-replay golden files stay byte-for-byte identical with a
//!   recorder installed (the canonical `TracedEvent` stream is the
//!   source of truth; the trace mirror derives from the same serde
//!   view).
//! * Every simulator fault event is mirrored as exactly one
//!   `fault.<tag>` instant in the flight recorder, in order.
//! * Under a sim-clock recorder two identical runs produce identical
//!   record streams (ids, seqs, threads, timestamps, fields).
//!
//! The global recorder is process state, so every test here holds one
//! mutex for its install/uninstall window.

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};

use reml::compiler::MrHeapAssignment;
use reml::prelude::*;
use reml::scripts::{DataShape, Scenario, ScriptSpec};
use reml::sim::{trace_to_json, AppOutcome};
use reml::trace::{RecordData, Recorder, TraceRecord};
use serde::{Serialize, Value};

fn with_global_recorder_lock<R>(f: impl FnOnce() -> R) -> R {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let _g = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    // A poisoned or leaked install from a failed test must not leak into
    // this window.
    reml::trace::uninstall();
    let r = f();
    reml::trace::uninstall();
    r
}

/// Same fixed-entry faulted run as the golden suite in
/// `tests/fault_replay.rs` (pinned 512 MB entry heap, canonical plan).
fn run_faulted(script: &ScriptSpec, scenario: Scenario) -> AppOutcome {
    let cluster = ClusterConfig::paper_cluster();
    let analyzed = reml::compiler::pipeline::analyze_program(&script.source).unwrap();
    let shape = DataShape {
        scenario,
        cols: 1000,
        sparsity: 1.0,
    };
    let base = script.compile_config(shape, cluster.clone(), 512, MrHeapAssignment::uniform(512));
    Simulator::new(cluster)
        .run_app(
            &analyzed,
            &base,
            &SimConfig {
                resources: ResourceConfig::uniform(512, 512),
                reopt: true,
                facts: SimFacts {
                    table_cols: 5,
                    ..SimFacts::default()
                },
                slot_availability: 1.0,
                faults: FaultPlan::canonical(),
            },
        )
        .unwrap()
}

/// The golden tag of a fault event (`"app_start"`, `"oom"`, …), read
/// from the same serde view the golden files use.
fn event_tag(v: &Value) -> String {
    if let Value::Object(entries) = v {
        for (k, val) in entries {
            if k == "event" {
                if let Value::Str(tag) = val {
                    return tag.clone();
                }
            }
        }
    }
    panic!("fault event serializes to a tagged object");
}

fn mirrored_fault_names(records: &[TraceRecord]) -> Vec<String> {
    records
        .iter()
        .filter_map(|r| match &r.data {
            RecordData::Event { name, .. } if name.starts_with("fault.") => Some(name.to_string()),
            _ => None,
        })
        .collect()
}

#[test]
fn golden_bytes_unchanged_with_recorder_installed_and_events_mirrored() {
    with_global_recorder_lock(|| {
        let script = reml::scripts::linreg_ds();
        let (recorder, _time) = Recorder::with_sim_clock(1 << 18);
        reml::trace::install(std::sync::Arc::clone(&recorder));
        let out = run_faulted(&script, Scenario::XS);
        reml::trace::uninstall();

        // Byte-for-byte against the golden file the untraced suite uses.
        let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/fault_trace_linreg_ds_xs.json");
        let expected = fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("missing golden {golden:?} ({e})"));
        assert_eq!(
            trace_to_json(&out.events),
            expected,
            "installing a recorder must not perturb the golden trace"
        );

        // Mirror parity: one `fault.<tag>` instant per traced event, in
        // the same order.
        let records = recorder.drain();
        assert_eq!(recorder.dropped(), 0, "ring sized for the whole run");
        let mirrored = mirrored_fault_names(&records);
        let canonical: Vec<String> = out
            .events
            .iter()
            .map(|e| format!("fault.{}", event_tag(&e.event.to_value())))
            .collect();
        assert_eq!(mirrored, canonical);
    });
}

#[test]
fn faulted_outcome_is_identical_with_and_without_recorder() {
    with_global_recorder_lock(|| {
        let script = reml::scripts::mlogreg();
        let bare = run_faulted(&script, Scenario::XS);
        let (recorder, _time) = Recorder::with_sim_clock(1 << 18);
        reml::trace::install(recorder);
        let traced = run_faulted(&script, Scenario::XS);
        reml::trace::uninstall();
        assert_eq!(bare.events, traced.events);
        assert_eq!(bare.elapsed_s, traced.elapsed_s);
        assert_eq!(bare.mr_jobs, traced.mr_jobs);
        assert_eq!(bare.recompilations, traced.recompilations);
        assert_eq!(bare.final_resources, traced.final_resources);
    });
}

#[test]
fn sim_clock_traces_are_bit_reproducible() {
    with_global_recorder_lock(|| {
        let run = || {
            let script = reml::scripts::l2svm();
            let (recorder, _time) = Recorder::with_sim_clock(1 << 18);
            reml::trace::install(std::sync::Arc::clone(&recorder));
            run_faulted(&script, Scenario::XS);
            reml::trace::uninstall();
            recorder
                .drain()
                .iter()
                .map(|r| format!("{} {} {} {:?}", r.seq, r.thread, r.ts_us, r.data))
                .collect::<Vec<String>>()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty(), "instrumented run produces records");
        assert_eq!(a, b, "sim-clock trace must replay bit-identically");
    });
}

#[test]
fn trace_timestamps_follow_virtual_time() {
    with_global_recorder_lock(|| {
        let script = reml::scripts::linreg_ds();
        let (recorder, _time) = Recorder::with_sim_clock(1 << 18);
        reml::trace::install(std::sync::Arc::clone(&recorder));
        let out = run_faulted(&script, Scenario::XS);
        reml::trace::uninstall();
        let records = recorder.drain();
        // The final outcome event is stamped with elapsed_s in micros.
        let last_fault = records
            .iter()
            .rev()
            .find(|r| matches!(&r.data, RecordData::Event { name, .. } if name == "fault.outcome"))
            .expect("outcome mirrored");
        assert_eq!(last_fault.ts_us, (out.elapsed_s * 1e6).round() as u64);
    });
}

#[test]
fn front_end_counters_match_hop_build_spans() {
    with_global_recorder_lock(|| {
        let script = reml::scripts::glm();
        let shape = DataShape {
            scenario: Scenario::S,
            cols: 1000,
            sparsity: 1.0,
        };
        let cluster = ClusterConfig::paper_cluster();
        let base = script.compile_config(shape, cluster, 512, MrHeapAssignment::uniform(512));
        let analyzed = reml::compiler::pipeline::analyze_program(&script.source).unwrap();
        let counter = |name: &str| reml::trace::metrics().counter(name).get();
        let recorder = Recorder::new(1 << 18);
        reml::trace::install(std::sync::Arc::clone(&recorder));
        let (hits0, misses0) = (
            counter("compile.front_end.hits"),
            counter("compile.front_end.misses"),
        );
        let first = compile(&analyzed, &base).unwrap();
        let (mid_hits, mid_misses) = (
            counter("compile.front_end.hits"),
            counter("compile.front_end.misses"),
        );
        let mut big = base.clone();
        big.cp_heap_mb = 8 * 1024;
        let second = compile(&analyzed, &big).unwrap();
        let (hits, misses) = (
            counter("compile.front_end.hits"),
            counter("compile.front_end.misses"),
        );
        reml::trace::uninstall();
        let builds = recorder
            .drain()
            .iter()
            .filter(|r| {
                matches!(&r.data, RecordData::SpanBegin { name, .. } if name == "compile.hop_build")
            })
            .count() as u64;
        // Every miss is one real (spanned) build; the second compile
        // re-lowers the first one's front ends without building any.
        assert_eq!(misses - misses0, builds);
        assert!(mid_misses > misses0);
        assert_eq!(misses, mid_misses, "the second compile builds nothing");
        assert!(mid_hits - hits0 < hits - mid_hits);
        assert!(hits - mid_hits >= second.stats.block_compilations);
        assert_eq!(
            first.stats.block_compilations,
            second.stats.block_compilations
        );
    });
}
