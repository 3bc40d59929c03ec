//! Budget-independent block front ends and their memo.
//!
//! Of the per-block compilation chain only lowering and piggybacking
//! depend on the memory budget; HOP construction, rewrites and memory
//! estimation do not. A [`FrontEnd`] is one generic block compiled up to
//! that boundary. The [`FrontEndMemo`] owned by every
//! [`crate::pipeline::AnalyzedProgram`] keeps them, so the optimizer's
//! grid walk, §4 re-optimization and the simulator re-lower a block per
//! budget instead of rebuilding it.
//!
//! The memo key is exact: a block's build reads outside state only
//! through the [`BuildFact`]s it records (entry-environment variables,
//! `$`-parameters, input metadata, the `table()` column hint), so an
//! entry is reused iff the block id, `enable_rewrites` and every recorded
//! fact match bitwise. A hit advances the environment by replaying the
//! block's recorded writes; the environment itself is never hashed or
//! cloned.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use reml_lang::ast::Statement;

use crate::build::{BlockBuilder, BuildFact, Env, VarInfo};
use crate::config::{CompileConfig, CompileError};
use crate::hop::{HopDag, HopId};
use crate::lower::{decision_thresholds_mb, mem_estimates_mb, requires_recompile};
use crate::memest::estimate_dag;
use crate::pipeline::BlockAudit;
use crate::rewrites::{apply_rewrites_logged, RewriteStats};

/// Front ends kept per block. A loop whose scalar constants change every
/// iteration misses on every visit; the cap bounds its entry list, and
/// the oldest entry is evicted first.
pub const MAX_ENTRIES_PER_BLOCK: usize = 8;

/// One generic block compiled up to the budget boundary: its HOP DAG
/// after construction, rewrites and memory estimation, plus everything
/// derived from it that no budget affects.
#[derive(Debug)]
pub struct FrontEnd {
    enable_rewrites: bool,
    facts: Vec<BuildFact>,
    writes: Vec<(String, VarInfo)>,
    /// The rewritten, memory-estimated DAG (CSE index dropped).
    pub dag: HopDag,
    /// Live hops in topological order.
    pub live: Vec<HopId>,
    /// Finite operator memory estimates, MB.
    pub mem_estimates_mb: Vec<f64>,
    /// Whether unknown sizes mark the block for dynamic recompilation.
    pub requires_recompile: bool,
    /// CSE merges during construction and rewriting.
    pub cse_hits: u64,
    /// Constant folds during construction.
    pub constants_folded: u64,
    /// Algebraic rewrites applied.
    pub rewrites_applied: u64,
    /// Rewrite, fold and CSE audit records.
    pub audit: BlockAudit,
    thresholds: OnceLock<Vec<f64>>,
}

impl FrontEnd {
    /// Build, rewrite and memory-estimate one block, advancing `env`.
    pub fn build(
        config: &CompileConfig,
        statements: &[Statement],
        env: &mut Env,
    ) -> Result<FrontEnd, CompileError> {
        let built = {
            let _s = reml_trace::span!("compile.hop_build");
            BlockBuilder::new(config).build_statements(statements, env)?
        };
        let mut dag = built.dag;
        let (rw, records) = if config.enable_rewrites {
            let _s = reml_trace::span!("compile.rewrites");
            apply_rewrites_logged(&mut dag)
        } else {
            (RewriteStats::default(), Vec::new())
        };
        dag.drop_cse_index();
        {
            let _s = reml_trace::span!("compile.memest");
            estimate_dag(&mut dag);
        }
        // Memo entries outlive the build: trim every vector's growth slack.
        fn trim<T>(mut v: Vec<T>) -> Vec<T> {
            v.shrink_to_fit();
            v
        }
        dag.hops.shrink_to_fit();
        let live = trim(dag.live_hops(&[]));
        let cse = trim(std::mem::take(&mut dag.cse_log));
        Ok(FrontEnd {
            enable_rewrites: config.enable_rewrites,
            facts: trim(built.facts),
            writes: trim(built.writes),
            mem_estimates_mb: trim(mem_estimates_mb(&dag, &live)),
            requires_recompile: requires_recompile(&dag, &live),
            cse_hits: dag.cse_hits,
            constants_folded: built.constants_folded,
            rewrites_applied: rw.total(),
            audit: BlockAudit {
                records: trim(records),
                folds: trim(built.fold_log),
                cse,
            },
            dag,
            live,
            thresholds: OnceLock::new(),
        })
    }

    /// Whether building the block under `config` from `env` would
    /// reproduce this front end.
    fn matches(&self, config: &CompileConfig, env: &Env) -> bool {
        self.enable_rewrites == config.enable_rewrites
            && self.facts.iter().all(|f| f.holds(config, env))
    }

    fn same_key(&self, other: &FrontEnd) -> bool {
        self.enable_rewrites == other.enable_rewrites
            && self.facts.len() == other.facts.len()
            && self.facts.iter().zip(&other.facts).all(|(a, b)| a.same(b))
    }

    /// Advance `env` past the block, as the build did.
    pub fn apply_writes(&self, env: &mut Env) {
        for (name, info) in &self.writes {
            match env.get_mut(name) {
                Some(slot) => *slot = info.clone(),
                None => {
                    env.insert(name.clone(), info.clone());
                }
            }
        }
    }

    /// Sorted, deduplicated memory thresholds (MB) at which any lowering
    /// decision of this block can flip (see
    /// [`crate::lower::decision_thresholds_mb`]); computed on first use.
    pub fn thresholds(&self) -> &[f64] {
        self.thresholds.get_or_init(|| {
            let mut t = decision_thresholds_mb(&self.dag, &self.live);
            sort_dedup(&mut t);
            t
        })
    }
}

/// Memo of block front ends, keyed by statement-block id and the facts
/// each build read. Shared by every compilation of one analyzed program;
/// thread-safe, so the parallel optimizer's workers share it too. A
/// clone starts empty, which makes `analyzed.clone()` an independent
/// oracle for the shared memo.
#[derive(Default)]
pub struct FrontEndMemo {
    blocks: Mutex<HashMap<usize, Vec<Arc<FrontEnd>>>>,
}

impl FrontEndMemo {
    /// The front end built for `block` under a config and entry
    /// environment matching `config` and `env`, if any.
    pub fn lookup(&self, block: usize, config: &CompileConfig, env: &Env) -> Option<Arc<FrontEnd>> {
        let blocks = self.blocks.lock();
        let entries = blocks.get(&block)?;
        entries
            .iter()
            .rev()
            .find(|fe| fe.matches(config, env))
            .cloned()
    }

    /// Keep a freshly built front end, evicting the block's oldest entry
    /// beyond [`MAX_ENTRIES_PER_BLOCK`].
    pub fn insert(&self, block: usize, fe: Arc<FrontEnd>) {
        let mut blocks = self.blocks.lock();
        let entries = blocks.entry(block).or_default();
        // A racing worker may have built the same key meanwhile.
        if entries.iter().any(|e| e.same_key(&fe)) {
            return;
        }
        if entries.len() == MAX_ENTRIES_PER_BLOCK {
            entries.remove(0);
        }
        entries.push(fe);
    }

    /// Entries currently kept for `block`.
    #[cfg(test)]
    fn entries(&self, block: usize) -> usize {
        self.blocks.lock().get(&block).map_or(0, Vec::len)
    }
}

impl Clone for FrontEndMemo {
    fn clone(&self) -> Self {
        FrontEndMemo::default()
    }
}

impl fmt::Debug for FrontEndMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrontEndMemo").finish_non_exhaustive()
    }
}

/// Sort ascending and drop duplicates (thresholds are finite).
pub(crate) fn sort_dedup(values: &mut Vec<f64>) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are finite"));
    values.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{analyze_program, compile, compile_block_with_env, AnalyzedProgram};
    use reml_cluster::ClusterConfig;
    use reml_lang::{BlockId, StatementBlockKind};
    use reml_matrix::MatrixCharacteristics;
    use reml_runtime::ScalarValue;

    fn cfg() -> CompileConfig {
        CompileConfig::new(ClusterConfig::paper_cluster(), 2048, 1024)
            .with_param("X", ScalarValue::Str("X".into()))
            .with_param("k", ScalarValue::Num(3.0))
            .with_input("X", MatrixCharacteristics::dense(10_000_000, 100))
    }

    /// Id of the first generic block inside the program's first loop.
    fn loop_body(analyzed: &AnalyzedProgram) -> BlockId {
        analyzed
            .blocks
            .iter()
            .find_map(|b| match &b.kind {
                StatementBlockKind::While { body, .. } => Some(body[0].id),
                _ => None,
            })
            .expect("program has a loop")
    }

    fn env_with(name: &str, info: VarInfo) -> Env {
        let mut env = Env::new();
        env.insert(name.to_string(), info);
        env
    }

    /// Compile `block` against the shared memo and against an empty one;
    /// both must agree. Returns whether the shared compile hit.
    fn compile_both(
        analyzed: &AnalyzedProgram,
        config: &CompileConfig,
        block: BlockId,
        env: &Env,
    ) -> Result<bool, CompileError> {
        let before = analyzed.memo.entries(block.0);
        let hit = analyzed.memo.lookup(block.0, config, env).is_some();
        let mut shared_env = env.clone();
        let shared = compile_block_with_env(analyzed, config, block, &mut shared_env);
        let mut fresh_env = env.clone();
        let fresh = compile_block_with_env(&analyzed.clone(), config, block, &mut fresh_env);
        assert_eq!(format!("{shared:?}"), format!("{fresh:?}"));
        // Debug rendering: NaN constants must compare equal here.
        assert_eq!(format!("{shared_env:?}"), format!("{fresh_env:?}"));
        if hit {
            assert_eq!(
                analyzed.memo.entries(block.0),
                before,
                "a hit adds no entry"
            );
        } else if shared.is_ok() {
            assert!(
                analyzed.memo.lookup(block.0, config, env).is_some(),
                "a miss is kept"
            );
        }
        shared.map(|_| hit)
    }

    /// A loop whose body reads `x` from its entry environment.
    const LOOP: &str = "x = 1\nwhile (x < 3) {\n  y = x * 2\n  x = y + 1\n}\nprint(x)";

    #[test]
    fn same_facts_hit_across_budgets() {
        let analyzed = analyze_program("X = read($X)\nG = t(X) %*% X\nprint(sum(G) * $k)").unwrap();
        let small = compile(&analyzed, &cfg()).unwrap();
        let entries = analyzed.memo.entries(small.summaries[0].block_id);
        let mut big = cfg();
        big.cp_heap_mb = 60 * 1024;
        let shared = compile(&analyzed, &big).unwrap();
        let fresh = compile(&analyzed.clone(), &big).unwrap();
        assert_eq!(analyzed.memo.entries(small.summaries[0].block_id), entries);
        assert_eq!(
            format!("{:?}", shared.runtime),
            format!("{:?}", fresh.runtime)
        );
        assert_eq!(shared.rewrite_audit, fresh.rewrite_audit);
        assert_eq!(shared.stats, fresh.stats);
        assert_ne!(
            format!("{:?}", small.runtime),
            format!("{:?}", shared.runtime)
        );
    }

    #[test]
    fn signed_zero_and_nan_constants_miss() {
        let analyzed = analyze_program(LOOP).unwrap();
        let b = loop_body(&analyzed);
        let num = |v: f64| env_with("x", VarInfo::constant(ScalarValue::Num(v)));
        let c = cfg();
        assert!(!compile_both(&analyzed, &c, b, &num(0.0)).unwrap());
        assert!(compile_both(&analyzed, &c, b, &num(0.0)).unwrap());
        assert!(!compile_both(&analyzed, &c, b, &num(-0.0)).unwrap());
        assert!(!compile_both(&analyzed, &c, b, &num(f64::NAN)).unwrap());
        // The same NaN bit pattern hits; another payload does not.
        assert!(compile_both(&analyzed, &c, b, &num(f64::NAN)).unwrap());
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert!(other_nan.is_nan());
        assert!(!compile_both(&analyzed, &c, b, &num(other_nan)).unwrap());
        // A value-less scalar differs from every constant.
        assert!(!compile_both(&analyzed, &c, b, &env_with("x", VarInfo::scalar())).unwrap());
    }

    #[test]
    fn missing_variable_misses_and_errors() {
        let analyzed = analyze_program(LOOP).unwrap();
        let b = loop_body(&analyzed);
        let c = cfg();
        let env = env_with("x", VarInfo::scalar());
        assert!(!compile_both(&analyzed, &c, b, &env).unwrap());
        let err = compile_both(&analyzed, &c, b, &Env::new()).unwrap_err();
        assert!(matches!(err, CompileError::Internal(_)), "{err:?}");
        assert!(compile_both(&analyzed, &c, b, &env).unwrap());
    }

    #[test]
    fn changed_param_input_or_table_hint_misses() {
        let src = "X = read($X)\ny = X[, 1]\nn = $k + 1\nT = table(seq(1, nrow(y)), y)\nprint(sum(T) + n)";
        let analyzed = analyze_program(src).unwrap();
        let b = BlockId(compile(&analyzed.clone(), &cfg()).unwrap().summaries[0].block_id);
        let env = Env::new();
        let c = cfg();
        assert!(!compile_both(&analyzed, &c, b, &env).unwrap());
        assert!(compile_both(&analyzed, &c, b, &env).unwrap());
        let param = cfg().with_param("k", ScalarValue::Num(4.0));
        assert!(!compile_both(&analyzed, &param, b, &env).unwrap());
        let input = cfg().with_input("X", MatrixCharacteristics::dense(10_000_000, 101));
        assert!(!compile_both(&analyzed, &input, b, &env).unwrap());
        let mut hint = cfg();
        hint.table_cols_hint = Some(3);
        assert!(!compile_both(&analyzed, &hint, b, &env).unwrap());
        let no_rewrites = cfg().without_rewrites();
        assert!(!compile_both(&analyzed, &no_rewrites, b, &env).unwrap());
        // Every variant is still cached: each hits now.
        for c in [&c, &param, &input, &hint, &no_rewrites] {
            assert!(compile_both(&analyzed, c, b, &env).unwrap());
        }
    }

    #[test]
    fn loop_with_changing_counter_is_capped() {
        let src = "i = 0\nw = 0\nwhile (i < 100) {\n  w = w + i * 2\n  i = i + 1\n}\nprint(w)";
        let analyzed = analyze_program(src).unwrap();
        let body = loop_body(&analyzed);
        let c = cfg();
        // Interpret the loop the way the simulator does: the counter's
        // constant changes every iteration, so every visit misses.
        let mut env = Env::new();
        env.insert("i".into(), VarInfo::constant(ScalarValue::Num(0.0)));
        env.insert("w".into(), VarInfo::constant(ScalarValue::Num(0.0)));
        let visits = 3 * MAX_ENTRIES_PER_BLOCK;
        for visit in 0..visits {
            assert!(
                !compile_both(&analyzed, &c, body, &env).unwrap(),
                "visit {visit}"
            );
            compile_block_with_env(&analyzed, &c, body, &mut env).unwrap();
            assert!(analyzed.memo.entries(body.0) <= MAX_ENTRIES_PER_BLOCK);
        }
        assert_eq!(env["i"].konst, Some(ScalarValue::Num(visits as f64)));
        assert_eq!(analyzed.memo.entries(body.0), MAX_ENTRIES_PER_BLOCK);
        // The most recent visit's entry survives eviction; the first's
        // does not.
        let entry = |i: usize| {
            let w = 2.0 * (0..i).map(|k| k as f64).sum::<f64>();
            let mut e = Env::new();
            e.insert("i".into(), VarInfo::constant(ScalarValue::Num(i as f64)));
            e.insert("w".into(), VarInfo::constant(ScalarValue::Num(w)));
            e
        };
        assert!(analyzed
            .memo
            .lookup(body.0, &c, &entry(visits - 1))
            .is_some());
        assert!(analyzed.memo.lookup(body.0, &c, &entry(0)).is_none());
    }

    #[test]
    fn thresholds_are_sorted_unique_and_lazy() {
        let analyzed = analyze_program("X = read($X)\nG = t(X) %*% X\nprint(sum(G))").unwrap();
        let compiled = compile(&analyzed, &cfg()).unwrap();
        assert!(compiled
            .summaries
            .iter()
            .all(|s| s.decision_estimates_mb.is_empty()));
        let b = compiled.summaries[0].block_id;
        let fe = analyzed.memo.lookup(b, &cfg(), &Env::new()).unwrap();
        assert!(fe.thresholds.get().is_none());
        let t = fe.thresholds();
        assert!(!t.is_empty());
        assert!(t.windows(2).all(|w| w[0] < w[1]));
    }
}
