//! Turning one refinement round into solved loss factors.
//!
//! The adaptive driver is deliberately ignorant of *how* a frequency point
//! gets solved — it hands a sorted batch of new frequencies to a
//! [`SweepEvaluator`] and gets loss factors plus cache counters back. The
//! in-process implementation, [`EngineEvaluator`], instantiates each round as
//! an ordinary [`Scenario`](rough_engine::Scenario) via
//! [`SweepScenario::scenario_for_points`] and executes it with a *shared*
//! [`KernelCache`]: everything frequency-independent (the Karhunen–Loève
//! basis, matrix-free generator tables keyed by geometry) warms up during the
//! coarse scan and is served from cache in every later round. Service-side
//! evaluators (the campaign daemon) implement the same trait over the wire.

use rough_engine::{
    wire, CacheStats, EngineError, KernelCache, Run, RunConfig, SweepScenario, UnitExecutor,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One solved point of the swept curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Frequency in Hz.
    pub frequency_hz: f64,
    /// Roughness-loss enhancement factor `K = Pr / Ps` at that frequency
    /// (the ensemble mean for stochastic templates).
    pub value: f64,
}

/// The result of solving one refinement round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Solved points, in the order the round requested them.
    pub points: Vec<SweepPoint>,
    /// Kernel-cache activity attributed to this round.
    pub cache: CacheStats,
}

/// Solves one round of sweep frequency points.
///
/// Implementations must be deterministic: the same sweep and point set must
/// produce bit-identical values, or resumed sweeps would diverge from their
/// first run.
pub trait SweepEvaluator {
    /// Solves the template at `points` (sorted ascending, all new) and
    /// returns one loss factor per point.
    ///
    /// # Errors
    ///
    /// Propagates scenario-validation and execution failures.
    fn solve_round(
        &mut self,
        sweep: &SweepScenario,
        points: &[f64],
    ) -> Result<RoundOutcome, EngineError>;
}

/// Accumulates one round's cache counters into a sweep-level total.
///
/// Hit/miss counters add; `entries` (a resident count, not a rate) keeps the
/// high-water mark.
pub fn accumulate(total: &mut CacheStats, round: &CacheStats) {
    total.hits += round.hits;
    total.misses += round.misses;
    total.kl_hits += round.kl_hits;
    total.kl_misses += round.kl_misses;
    total.table_hits += round.table_hits;
    total.table_misses += round.table_misses;
    total.entries = total.entries.max(round.entries);
}

/// In-process evaluator: each round is a [`Run`] against a shared
/// [`KernelCache`], optionally checkpointed round by round.
///
/// With a checkpoint directory configured, round *k* writes
/// `round{k:03}.jsonl`; re-running the same sweep over the same directory
/// resumes every finished round from its file (validated against the round's
/// scenario fingerprint — a stale file for different points is discarded and
/// rebuilt) and produces bit-identical values.
pub struct EngineEvaluator {
    cache: Arc<KernelCache>,
    executor: Option<Arc<dyn UnitExecutor>>,
    checkpoint_dir: Option<PathBuf>,
    rounds: usize,
}

impl Default for EngineEvaluator {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineEvaluator {
    /// Creates an evaluator with a fresh private cache and the default
    /// executor.
    pub fn new() -> Self {
        Self {
            cache: Arc::new(KernelCache::new()),
            executor: None,
            checkpoint_dir: None,
            rounds: 0,
        }
    }

    /// Executes rounds through an explicit executor instead of the default.
    pub fn executor(mut self, executor: Arc<dyn UnitExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Checkpoints every round into `dir` (created on first use) and resumes
    /// from existing round files.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// The shared kernel cache (inspect its warm state after a sweep).
    pub fn cache(&self) -> &Arc<KernelCache> {
        &self.cache
    }

    fn config(&self, checkpoint: Option<&Path>) -> RunConfig {
        let mut config = RunConfig::new().cache(Arc::clone(&self.cache));
        if let Some(executor) = &self.executor {
            config = config.executor_arc(Arc::clone(executor));
        }
        if let Some(path) = checkpoint {
            config = config.checkpoint(path);
        }
        config
    }
}

impl SweepEvaluator for EngineEvaluator {
    fn solve_round(
        &mut self,
        sweep: &SweepScenario,
        points: &[f64],
    ) -> Result<RoundOutcome, EngineError> {
        let scenario = sweep.scenario_for_points(points)?;
        let expected = wire::scenario_fingerprint(&scenario);
        let round = self.rounds;
        self.rounds += 1;
        let checkpoint = match &self.checkpoint_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                Some(dir.join(format!("round{round:03}.jsonl")))
            }
            None => None,
        };
        // Resume a finished/partial round from its checkpoint when the file
        // belongs to this exact point set; anything else (stale points, a
        // corrupt file) falls back to a fresh run, which truncates it.
        let run = match &checkpoint {
            Some(path) if path.exists() => match Run::resume(path, self.config(Some(path))) {
                Ok(run) if wire::scenario_fingerprint(run.plan().scenario()) == expected => run,
                _ => Run::new(&scenario, self.config(Some(path)))?,
            },
            other => Run::new(&scenario, self.config(other.as_deref()))?,
        };
        let report = run.execute()?;
        let mut values = vec![f64::NAN; points.len()];
        for case in &report.cases {
            if let Some(slot) = values.get_mut(case.id.frequency) {
                *slot = case.mean;
            }
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(EngineError::InvalidScenario(
                "sweep round produced a non-finite or missing loss factor".into(),
            ));
        }
        let points = points
            .iter()
            .zip(values)
            .map(|(&frequency_hz, value)| SweepPoint {
                frequency_hz,
                value,
            })
            .collect();
        Ok(RoundOutcome {
            points,
            cache: report.cache,
        })
    }
}
