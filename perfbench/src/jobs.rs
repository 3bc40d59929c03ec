//! The three workloads. Each job is split into untimed preparation (input
//! generation and staging), the timed call sequence into the layers'
//! public entry points, and an untimed output check.

use std::sync::Arc;
use std::time::Instant;

use reml_cluster::ClusterConfig;
use reml_compiler::pipeline::{analyze_program, compile, AnalyzedProgram};
use reml_compiler::{CompileConfig, MrHeapAssignment};
use reml_cost::CostModel;
use reml_matrix::{Matrix, MatrixCharacteristics};
use reml_optimizer::{ResourceConfig, ResourceOptimizer};
use reml_runtime::executor::NoRecompile;
use reml_runtime::{HdfsStore, ScalarValue, VmExecutor, VmLowerOptions};
use reml_scripts::data::{generate_dataset, LabelKind};
use reml_scripts::{DataShape, Dataset, Scenario, ScriptSpec};
use reml_sim::{FaultPlan, SimConfig, SimFacts, Simulator};

use crate::check::{check_model, ModelCheck};
use crate::stats::{mix, seeded_rows};

/// Per-job numbers read from the layers' own result types, summed over
/// the traced window and reported per job.
pub type Sample = Vec<(&'static str, f64)>;

/// One of the five paper scripts with its shapes on the exec workloads.
pub struct ScriptInfo {
    /// Metric suffix (`job_s.<key>`).
    pub key: &'static str,
    pub spec: ScriptSpec,
    label: LabelKind,
    check: ModelCheck,
    xs_rows: u64,
    small_rows: u64,
    small_cols: u64,
    small_params: &'static [(&'static str, f64)],
}

/// Table 1 order. The `exec-small` shapes and overrides are the ones
/// `profile_report` executes; GLM runs `exec-xs` on 2,500 rows so that
/// it does not swamp the round.
pub fn scripts() -> Vec<ScriptInfo> {
    let reg = 0.01;
    vec![
        ScriptInfo {
            key: "linreg_ds",
            spec: reml_scripts::linreg_ds(),
            label: LabelKind::Regression,
            check: ModelCheck::Coefficients,
            xs_rows: 10_000,
            small_rows: 1500,
            small_cols: 12,
            small_params: &[],
        },
        ScriptInfo {
            key: "linreg_cg",
            spec: reml_scripts::linreg_cg(),
            label: LabelKind::Regression,
            check: ModelCheck::Coefficients,
            xs_rows: 10_000,
            small_rows: 1200,
            small_cols: 10,
            small_params: &[("maxiter", 15.0)],
        },
        ScriptInfo {
            key: "l2svm",
            spec: reml_scripts::l2svm(),
            label: LabelKind::BinaryPm1,
            check: ModelCheck::Accuracy,
            xs_rows: 10_000,
            small_rows: 800,
            small_cols: 8,
            small_params: &[],
        },
        ScriptInfo {
            key: "mlogreg",
            spec: reml_scripts::mlogreg(),
            label: LabelKind::Classes(4),
            check: ModelCheck::Multinomial { reg },
            xs_rows: 10_000,
            small_rows: 600,
            small_cols: 6,
            small_params: &[],
        },
        ScriptInfo {
            key: "glm",
            spec: reml_scripts::glm(),
            label: LabelKind::Counts,
            check: ModelCheck::Poisson,
            xs_rows: 2_500,
            small_rows: 500,
            small_cols: 5,
            small_params: &[],
        },
    ]
}

/// Columns of every `exec-xs` input (the paper's dense1000).
const XS_COLS: u64 = 1000;
/// CP heap the exec plans are compiled for, MB: ample for every shape.
const EXEC_CP_HEAP_MB: u64 = 4 * 1024;
const EXEC_MR_HEAP_MB: u64 = 1024;
/// `exec-xs` buffer pool: larger than any working set, so nothing is
/// evicted.
const XS_POOL_BYTES: u64 = 4 << 30;
/// `exec-small` buffer pool: below every job's working set, so every
/// job evicts and restores.
const SMALL_POOL_BYTES: u64 = 64 << 10;

/// Why a job failed.
pub enum Failure {
    /// An entry point returned an error.
    Error(String),
    /// The job ran but its output failed the check.
    Check(String),
}

/// Result of one timed job, before its check.
pub struct Done<O> {
    pub latency_s: f64,
    pub output: Result<O, String>,
    pub sample: Sample,
}

/// Run `f` inside a span named after the layer call it makes.
fn spanned<T>(span: &'static str, f: impl FnOnce() -> T) -> T {
    let _s = reml_trace::span(span);
    f()
}

fn exec_config(spec: &ScriptSpec, overrides: &[(&str, f64)], data: &Dataset) -> CompileConfig {
    let mut cfg = CompileConfig::new(
        ClusterConfig::paper_cluster(),
        EXEC_CP_HEAP_MB,
        EXEC_MR_HEAP_MB,
    );
    for (name, value) in &spec.params {
        cfg.params.insert((*name).to_string(), value.clone());
    }
    for (name, value) in overrides {
        cfg.params
            .insert((*name).to_string(), ScalarValue::Num(*value));
    }
    cfg.inputs.insert("X".into(), data.x.characteristics());
    cfg.inputs.insert("y".into(), data.y.characteristics());
    cfg
}

/// Simulated makespan (virtual clock) of a plan at fixed resources.
fn simulate(
    analyzed: &AnalyzedProgram,
    cfg: &CompileConfig,
    resources: ResourceConfig,
    reopt: bool,
    facts: SimFacts,
) -> Result<reml_sim::AppOutcome, String> {
    Simulator::new(cfg.cluster.clone())
        .run_app(
            analyzed,
            cfg,
            &SimConfig {
                resources,
                reopt,
                facts,
                slot_availability: 1.0,
                faults: FaultPlan::none(),
            },
        )
        .map_err(|e| format!("simulate: {e}"))
}

/// Container memory a configuration requests: the CP container plus the
/// largest MR task container, GB.
fn container_gb(cluster: &ClusterConfig, r: &ResourceConfig) -> f64 {
    (cluster.container_mb_for_heap(r.cp_heap_mb) + cluster.container_mb_for_heap(r.max_mr_mb()))
        as f64
        / 1024.0
}

struct ExecScript {
    info: ScriptInfo,
    rows: u64,
    cols: u64,
    cfg: CompileConfig,
    /// `exec-xs` reuses one dataset per script; `exec-small` draws a
    /// fresh one for every job.
    data: Option<Arc<Dataset>>,
}

/// `exec-xs` and `exec-small`: compile, lower and run on the VM.
pub struct ExecBench {
    small: bool,
    seed: u64,
    scripts: Vec<ExecScript>,
    /// Simulated makespan and container request of each script's
    /// executed plan at the exec resources.
    pub plans: Vec<(f64, f64)>,
    /// Seconds spent generating data during set-up.
    pub generate_s: f64,
}

/// What an exec job hands to its check.
pub struct ExecOutput {
    data: Arc<Dataset>,
    model: Option<Matrix>,
}

impl ExecBench {
    pub fn setup(small: bool, seed: u64) -> Result<Self, String> {
        let mut generate_s = 0.0;
        let mut scripts = Vec::new();
        for (i, info) in self::scripts().into_iter().enumerate() {
            let (nominal, cols) = if small {
                (info.small_rows, info.small_cols)
            } else {
                (info.xs_rows, XS_COLS)
            };
            let rows = seeded_rows(nominal, seed, i as u64);
            let t0 = Instant::now();
            let data = Arc::new(generate_dataset(
                rows as usize,
                cols as usize,
                1.0,
                info.label,
                mix(seed, i as u64, u64::MAX),
            ));
            generate_s += t0.elapsed().as_secs_f64();
            let overrides = if small { info.small_params } else { &[] };
            let cfg = exec_config(&info.spec, overrides, &data);
            scripts.push(ExecScript {
                info,
                rows,
                cols,
                cfg,
                data: (!small).then_some(data),
            });
        }
        let mut bench = ExecBench {
            small,
            seed,
            scripts,
            plans: Vec::new(),
            generate_s,
        };
        // Warm-up: every plan is compiled and lowered once; on
        // `exec-small` every job also runs once. The simulated makespan
        // of each executed plan is taken here.
        for i in 0..bench.scripts.len() {
            let s = &bench.scripts[i];
            let analyzed = analyze_program(&s.info.spec.source).map_err(|e| e.to_string())?;
            let compiled = compile(&analyzed, &s.cfg).map_err(|e| e.to_string())?;
            std::hint::black_box(compiled.lower_vm(VmLowerOptions::default()));
            let resources = ResourceConfig::uniform(EXEC_CP_HEAP_MB, EXEC_MR_HEAP_MB);
            let facts = SimFacts {
                seed: mix(seed, i as u64, 7),
                ..SimFacts::default()
            };
            let sim = simulate(&analyzed, &s.cfg, resources.clone(), false, facts)?;
            bench
                .plans
                .push((sim.elapsed_s, container_gb(&s.cfg.cluster, &resources)));
            if small {
                let t0 = Instant::now();
                let data = bench.dataset(i, u64::MAX);
                bench.generate_s += t0.elapsed().as_secs_f64();
                bench.run_job(i, data).output?;
            }
        }
        Ok(bench)
    }

    pub fn kinds(&self) -> usize {
        self.scripts.len()
    }

    pub fn key(&self, kind: usize) -> &'static str {
        self.scripts[kind].info.key
    }

    /// Untimed input preparation for one job.
    pub fn dataset(&self, kind: usize, job: u64) -> Arc<Dataset> {
        let s = &self.scripts[kind];
        match &s.data {
            Some(d) => Arc::clone(d),
            None => Arc::new(generate_dataset(
                s.rows as usize,
                s.cols as usize,
                1.0,
                s.info.label,
                mix(self.seed, kind as u64, job),
            )),
        }
    }

    pub fn run_job(&self, kind: usize, data: Arc<Dataset>) -> Done<ExecOutput> {
        let s = &self.scripts[kind];
        let mut hdfs = HdfsStore::new();
        hdfs.stage("X", data.x.clone());
        hdfs.stage("y", data.y.clone());
        let pool = if self.small {
            SMALL_POOL_BYTES
        } else {
            XS_POOL_BYTES
        };
        let mut vm = VmExecutor::new(pool, hdfs);
        let mut fused_eliminated = 0.0;

        let root = reml_trace::span("bench.job");
        let t0 = Instant::now();
        let result = (|| -> Result<(), String> {
            let analyzed = spanned("bench.analyze", || analyze_program(&s.info.spec.source))
                .map_err(|e| format!("analyze: {e}"))?;
            let compiled = spanned("bench.compile", || compile(&analyzed, &s.cfg))
                .map_err(|e| format!("compile: {e}"))?;
            let program = spanned("bench.lower", || {
                compiled.lower_vm(VmLowerOptions::default())
            });
            fused_eliminated = program.stats.fused_ops_eliminated as f64;
            spanned("bench.execute", || vm.run(&program, &mut NoRecompile))
                .map_err(|e| format!("execute: {e}"))
        })();
        let latency_s = t0.elapsed().as_secs_f64();
        drop(root);

        let pool_stats = vm.pool.stats();
        let sample = vec![
            ("compiler.fused_ops_eliminated", fused_eliminated),
            ("runtime.cp_instructions", vm.stats.cp_instructions as f64),
            ("runtime.pool.evictions", pool_stats.evictions as f64),
            (
                "runtime.pool.bytes_evicted",
                pool_stats.bytes_evicted as f64,
            ),
            ("runtime.pool.restores", pool_stats.restores as f64),
        ];
        let model = vm.hdfs.peek("model").cloned();
        Done {
            latency_s,
            output: result.map(|()| ExecOutput { data, model }),
            sample,
        }
    }

    pub fn check(&self, kind: usize, out: &ExecOutput) -> Result<(), Failure> {
        let model = out
            .model
            .as_ref()
            .ok_or_else(|| Failure::Error("no model written".into()))?;
        check_model(self.scripts[kind].info.check, &out.data, model).map_err(Failure::Check)
    }
}

/// One `optimize-sml` request kind: a script on paper-cluster metadata.
struct Request {
    script: usize,
    label: String,
    base: CompileConfig,
    facts: SimFacts,
}

/// `optimize-sml`: analyze, optimize with the analytic cost model, then
/// simulate the chosen resources with §4 re-optimization.
pub struct OptimizeBench {
    sources: Vec<(&'static str, ScriptSpec)>,
    requests: Vec<Request>,
    cluster: ClusterConfig,
}

/// What an optimize request hands to its check.
pub struct OptimizeOutput {
    analyzed: AnalyzedProgram,
    best: ResourceConfig,
    best_cost_s: f64,
    pub plan_sim_s: f64,
    pub plan_container_gb: f64,
}

/// The optimizer's own tie band for equal-cost plans.
const TIE_BAND: f64 = 1.001;

impl OptimizeBench {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cluster = ClusterConfig::paper_cluster();
        let sources: Vec<_> = scripts().into_iter().map(|s| (s.key, s.spec)).collect();
        let mut requests = Vec::new();
        for (script, (_, spec)) in sources.iter().enumerate() {
            for scenario in [Scenario::S, Scenario::M, Scenario::L] {
                for sparsity in [1.0, 0.01] {
                    let shape = DataShape {
                        scenario,
                        cols: 1000,
                        sparsity,
                    };
                    let kind = requests.len() as u64;
                    let rows = seeded_rows(shape.rows(), seed, kind);
                    let mut base = spec.compile_config(
                        shape,
                        cluster.clone(),
                        512,
                        MrHeapAssignment::uniform(512),
                    );
                    let nnz = (rows as f64 * shape.cols as f64 * sparsity).round() as u64;
                    base.inputs.insert(
                        "X".into(),
                        MatrixCharacteristics {
                            rows: Some(rows),
                            cols: Some(shape.cols),
                            nnz: Some(nnz),
                        },
                    );
                    base.inputs
                        .insert("y".into(), MatrixCharacteristics::dense(rows, 1));
                    requests.push(Request {
                        script,
                        label: format!("{} {} {}", spec.name, scenario.name(), shape.label()),
                        base,
                        facts: SimFacts {
                            seed: mix(seed, kind, 7),
                            ..SimFacts::default()
                        },
                    });
                }
            }
        }
        let bench = OptimizeBench {
            sources,
            requests,
            cluster,
        };
        // Warm-up: one untimed pass over every request kind.
        for kind in 0..bench.kinds() {
            bench.run_job(kind).output?;
        }
        Ok(bench)
    }

    pub fn kinds(&self) -> usize {
        self.requests.len()
    }

    pub fn key(&self, kind: usize) -> &'static str {
        self.sources[self.requests[kind].script].0
    }

    pub fn run_job(&self, kind: usize) -> Done<OptimizeOutput> {
        let req = &self.requests[kind];
        let mut sample: Sample = Vec::new();
        let root = reml_trace::span("bench.job");
        let t0 = Instant::now();
        let result = (|| -> Result<OptimizeOutput, String> {
            let analyzed = spanned("bench.analyze", || {
                analyze_program(&self.sources[req.script].1.source)
            })
            .map_err(|e| format!("analyze: {e}"))?;
            let opt = spanned("bench.optimize", || {
                ResourceOptimizer::new(CostModel::new(self.cluster.clone()))
                    .optimize(&analyzed, &req.base, None)
            })
            .map_err(|e| format!("optimize: {e}"))?;
            let sim = spanned("bench.simulate", || {
                simulate(
                    &analyzed,
                    &req.base,
                    opt.best.clone(),
                    true,
                    req.facts.clone(),
                )
            })?;
            let st = &opt.stats;
            let lookups = (st.plan_cache_hits + st.plan_cache_misses) as f64;
            sample.extend([
                ("optimizer.block_compilations", st.block_compilations as f64),
                ("optimizer.cost_invocations", st.cost_invocations as f64),
                ("optimizer.plan_cache_hits", st.plan_cache_hits as f64),
                ("optimizer.plan_cache_lookups", lookups),
                ("optimizer.enumerate_s", st.enumerate_s),
                ("optimizer.cost_s", st.cost_s),
                ("sim.recompilations", sim.recompilations as f64),
                ("sim.migrations", f64::from(sim.migrations)),
            ]);
            Ok(OptimizeOutput {
                plan_sim_s: sim.elapsed_s,
                plan_container_gb: container_gb(&self.cluster, &opt.best),
                analyzed,
                best: opt.best,
                best_cost_s: opt.best_cost_s,
            })
        })();
        let latency_s = t0.elapsed().as_secs_f64();
        drop(root);
        Done {
            latency_s,
            output: result.map_err(|e| format!("{}: {e}", req.label)),
            sample,
        }
    }

    /// Cost of the program compiled at `r`, priced like the optimizer
    /// prices a grid point.
    fn cost_at(
        &self,
        analyzed: &AnalyzedProgram,
        base: &CompileConfig,
        r: &ResourceConfig,
    ) -> Result<f64, String> {
        let mut cfg = base.clone();
        cfg.cp_heap_mb = r.cp_heap_mb;
        cfg.mr_heap = r.mr_heap.clone();
        let compiled = compile(analyzed, &cfg).map_err(|e| format!("compile: {e}"))?;
        Ok(CostModel::new(self.cluster.clone())
            .cost_program(&compiled.runtime, r.cp_heap_mb, &|b| r.mr_heap.for_block(b))
            .total_s())
    }

    /// The chosen plan re-costs to `best_cost_s`, and no §5.1 baseline
    /// is cheaper beyond the optimizer's tie band.
    pub fn check(&self, kind: usize, out: &OptimizeOutput) -> Result<(), Failure> {
        let req = &self.requests[kind];
        let fail = |m: String| Failure::Check(format!("{}: {m}", req.label));
        let recost = self
            .cost_at(&out.analyzed, &req.base, &out.best)
            .map_err(Failure::Error)?;
        if (recost - out.best_cost_s).abs() > 1e-9 * out.best_cost_s.abs() {
            return Err(fail(format!(
                "re-cost {recost} s differs from best_cost_s {} s",
                out.best_cost_s
            )));
        }
        for (name, r) in reml_bench::baselines(&self.cluster) {
            let c = self
                .cost_at(&out.analyzed, &req.base, &r)
                .map_err(Failure::Error)?;
            if recost > TIE_BAND * c {
                return Err(fail(format!(
                    "baseline {name} costs {c} s, below the chosen {recost} s"
                )));
            }
        }
        Ok(())
    }
}
