//! The session-oriented run API: configured, streaming, checkpointable
//! campaign executions.
//!
//! A [`Run`] is one planned campaign bound to a [`RunConfig`] — *which*
//! executor evaluates the units, in *what order* (scheduler), *where*
//! completed records are durably checkpointed, and *who* observes progress
//! events. [`Run::execute`] drives the executor and returns the final
//! [`CampaignReport`]; [`Run::resume`] continues an interrupted campaign from
//! its checkpoint file, re-running only the missing units and producing a
//! report **bit-identical** to an uninterrupted run (plan-time seeding makes
//! records independent of execution history).
//!
//! ```
//! use rough_core::RoughnessSpec;
//! use rough_em::material::Stackup;
//! use rough_em::units::{GigaHertz, Micrometers};
//! use rough_engine::{Run, RunConfig, Scenario, SerialExecutor};
//!
//! # fn main() -> Result<(), rough_engine::EngineError> {
//! let scenario = Scenario::builder(Stackup::paper_baseline())
//!     .roughness(RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0)))
//!     .frequencies([GigaHertz::new(5.0).into()])
//!     .cells_per_side(6)
//!     .max_kl_modes(3)
//!     .monte_carlo(3)
//!     .build()?;
//! let (config, events) = RunConfig::new().executor(SerialExecutor).observer_channel();
//! let report = Run::new(&scenario, config)?.execute()?;
//! assert_eq!(report.records.len(), 3);
//! // Every unit streamed a completion event before the report returned.
//! let completed = events
//!     .try_iter()
//!     .filter(|e| matches!(e, rough_engine::RunEvent::UnitCompleted { .. }))
//!     .count();
//! assert_eq!(completed, 3);
//! # Ok(())
//! # }
//! ```

use crate::cache::{CacheStats, KernelCache};
use crate::checkpoint::{self, CheckpointWriter};
use crate::error::EngineError;
use crate::events::{ChannelObserver, RunEvent, RunObserver};
use crate::executor::{ThreadPoolExecutor, UnitExecutor};
use crate::plan::{Plan, WorkUnit};
use crate::report::{CampaignReport, CaseOutcome, CaseReport, UnitRecord};
use crate::rng::derive_stream;
use crate::scenario::{EnsembleMode, Scenario};
use crate::schedule::{PlanOrder, Scheduler};
use rough_stochastic::collocation::{run_sscm_on_grid, SscmConfig};
use rough_stochastic::monte_carlo::MonteCarloResult;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Stream-index offset separating SSCM surrogate-sampling seeds from the
/// Monte-Carlo germ seeds derived for the same cases.
const SURROGATE_STREAM_OFFSET: u64 = 1 << 32;

/// Configuration of one [`Run`]: executor, scheduler, checkpoint sink,
/// observer and kernel cache.
///
/// The default is a hardware-sized [`ThreadPoolExecutor`], [`PlanOrder`]
/// scheduling, no checkpoint, no observer and a fresh private cache. Use
/// [`crate::Engine::run_config`] instead of [`RunConfig::new`] to share an
/// engine's persistent cache.
pub struct RunConfig {
    pub(crate) executor: Arc<dyn UnitExecutor>,
    pub(crate) scheduler: Arc<dyn Scheduler>,
    pub(crate) checkpoint: Option<PathBuf>,
    pub(crate) observer: Option<Arc<dyn RunObserver>>,
    pub(crate) cache: Arc<KernelCache>,
    pub(crate) cancel: Option<CancelToken>,
}

impl std::fmt::Debug for RunConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunConfig")
            .field("executor", &self.executor)
            .field("scheduler", &self.scheduler)
            .field("checkpoint", &self.checkpoint)
            .field("observer", &self.observer.as_ref().map(|_| "RunObserver"))
            .finish_non_exhaustive()
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::new()
    }
}

impl RunConfig {
    /// The default configuration (thread-pool executor, plan order, no
    /// checkpoint, no observer, fresh cache).
    pub fn new() -> Self {
        Self {
            executor: Arc::new(ThreadPoolExecutor::default()),
            scheduler: Arc::new(PlanOrder),
            checkpoint: None,
            observer: None,
            cache: Arc::new(KernelCache::new()),
            cancel: None,
        }
    }

    /// Selects the executor.
    pub fn executor(self, executor: impl UnitExecutor + 'static) -> Self {
        self.executor_arc(Arc::new(executor))
    }

    /// Selects an already shared executor (e.g. an engine's thread pool).
    pub fn executor_arc(mut self, executor: Arc<dyn UnitExecutor>) -> Self {
        self.executor = executor;
        self
    }

    /// Selects the scheduling policy.
    pub fn scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Arc::new(scheduler);
        self
    }

    /// Appends completed unit records to a JSONL checkpoint at `path`.
    ///
    /// A fresh [`Run::new`] **truncates** the file; [`Run::resume`] appends.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Registers an observer for streamed [`RunEvent`]s.
    pub fn observer(mut self, observer: impl RunObserver + 'static) -> Self {
        self.observer = Some(Arc::new(observer));
        self
    }

    /// Registers a channel observer and returns the receiving end; drain it
    /// from another thread (or after `execute` returns) for streamed events.
    pub fn observer_channel(self) -> (Self, Receiver<RunEvent>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (self.observer(ChannelObserver::new(tx)), rx)
    }

    /// Shares a kernel cache (contexts + KL bases persist across runs).
    pub fn cache(mut self, cache: Arc<KernelCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Binds an externally created [`CancelToken`] — create the token first
    /// when an observer (or another thread) needs to cancel the run it is
    /// attached to.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Cooperative cancellation handle of a [`Run`] (cloneable, thread-safe).
///
/// Cancelling is graceful: in-flight units finish and are checkpointed;
/// executors stop picking up new units; [`Run::execute`] returns
/// [`EngineError::Interrupted`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Executor-facing commit point for completed units.
///
/// The sink is where the run layer's services meet the executor: committing a
/// record appends it to the checkpoint (when configured), streams the
/// [`RunEvent`]s, and tracks per-case completion — all under the sink's own
/// synchronization, so executors can commit from any worker thread.
pub struct UnitSink<'a> {
    plan: &'a Plan,
    observer: Option<&'a dyn RunObserver>,
    checkpoint: Option<Mutex<CheckpointWriter>>,
    records: Mutex<Vec<UnitRecord>>,
    case_remaining: Mutex<Vec<usize>>,
    resumed: usize,
    cancel: &'a CancelToken,
    /// Start timestamps of in-flight units, for the per-unit wall times the
    /// cost-model calibration hook records into the report.
    started_at: Mutex<HashMap<usize, Instant>>,
    /// Measured `(unit, wall)` pairs of this run's completed units.
    timings: Mutex<Vec<(usize, Duration)>>,
}

impl UnitSink<'_> {
    /// Whether the run was cancelled; executors should stop picking up new
    /// units once this returns `true`.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Announces that an executor picked up a unit.
    pub fn unit_started(&self, unit: &WorkUnit) {
        self.started_at
            .lock()
            .expect("unit timer lock poisoned")
            .insert(unit.id, Instant::now());
        self.emit(&RunEvent::UnitStarted {
            unit: unit.id,
            case_index: unit.case_index,
        });
    }

    /// Commits one completed record: checkpoint append (durable before the
    /// event fires), completion events, case tracking. The wall time is
    /// measured locally between this unit's [`UnitSink::unit_started`] call
    /// and now.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] when the checkpoint append fails —
    /// executors must treat that as fatal and unwind.
    pub fn complete(&self, record: UnitRecord) -> Result<(), EngineError> {
        // Per-unit wall time as observed by this process (meaningful because
        // the same process saw the start).
        let wall = self
            .started_at
            .lock()
            .expect("unit timer lock poisoned")
            .remove(&record.unit)
            .map(|started| started.elapsed());
        self.commit(record, wall.filter(|elapsed| !elapsed.is_zero()))
    }

    /// Commits a record computed remotely, with the wall time the *worker*
    /// measured around its own solve. Remote units carry real timings this
    /// way instead of the parent guessing from protocol round-trips —
    /// [`crate::CampaignReport::unit_times`] is populated for every executor.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] when the checkpoint append fails.
    pub fn complete_timed(&self, record: UnitRecord, wall: Duration) -> Result<(), EngineError> {
        self.started_at
            .lock()
            .expect("unit timer lock poisoned")
            .remove(&record.unit);
        self.commit(record, Some(wall).filter(|elapsed| !elapsed.is_zero()))
    }

    /// Announces that a distributed worker died and its in-flight units were
    /// returned to the dispatch queue (streamed as [`RunEvent::WorkerLost`]).
    pub fn worker_lost(&self, worker: usize, requeued: usize) {
        self.emit(&RunEvent::WorkerLost { worker, requeued });
    }

    /// Announces that the worker fleet permanently shrank to `active` of its
    /// `configured` workers — a worker tripped the respawn circuit breaker
    /// and the executor degraded to the survivors (streamed as
    /// [`RunEvent::FleetDegraded`]).
    pub fn fleet_degraded(&self, active: usize, configured: usize) {
        self.emit(&RunEvent::FleetDegraded { active, configured });
    }

    fn commit(&self, record: UnitRecord, wall: Option<Duration>) -> Result<(), EngineError> {
        if let Some(writer) = &self.checkpoint {
            writer
                .lock()
                .expect("checkpoint writer lock poisoned")
                .append(&record)?;
        }
        let recorded = {
            let mut records = self.records.lock().expect("record sink lock poisoned");
            records.push(record);
            self.resumed + records.len()
        };
        if let Some(elapsed) = wall {
            self.timings
                .lock()
                .expect("unit timing lock poisoned")
                .push((record.unit, elapsed));
        }
        self.emit(&RunEvent::UnitCompleted { record, wall });
        if self.checkpoint.is_some() {
            self.emit(&RunEvent::CheckpointWritten {
                units_recorded: recorded,
            });
        }
        let case_done = {
            let mut remaining = self.case_remaining.lock().expect("case tracker poisoned");
            remaining[record.case_index] -= 1;
            remaining[record.case_index] == 0
        };
        if case_done {
            self.emit(&RunEvent::CaseCompleted {
                case_index: record.case_index,
                units: self.plan.cases()[record.case_index].solves(),
            });
        }
        Ok(())
    }

    fn emit(&self, event: &RunEvent) {
        if let Some(observer) = self.observer {
            observer.on_event(event);
        }
    }
}

/// One planned campaign bound to its execution configuration.
#[derive(Debug)]
pub struct Run {
    plan: Plan,
    config: RunConfig,
    resumed: Vec<UnitRecord>,
    resume_source: Option<PathBuf>,
    cancel: CancelToken,
    stats_before: CacheStats,
}

impl Run {
    /// Plans a scenario under `config` (KL bases come from the configured
    /// cache, so repeated runs share the eigendecompositions).
    ///
    /// # Errors
    ///
    /// Propagates planning failures ([`EngineError::InvalidScenario`]).
    pub fn new(scenario: &Scenario, config: RunConfig) -> Result<Self, EngineError> {
        // Snapshot before planning so KL-cache activity during expansion is
        // attributed to this run.
        let stats_before = config.cache.stats();
        let plan = Plan::new_with_cache(scenario, Some(&config.cache))?;
        let cancel = config.cancel.clone().unwrap_or_default();
        Ok(Self {
            plan,
            config,
            resumed: Vec::new(),
            resume_source: None,
            cancel,
            stats_before,
        })
    }

    /// Resumes an interrupted campaign from its checkpoint file.
    ///
    /// The scenario is rebuilt from the checkpoint header (bit-exact wire
    /// encoding), already recorded units are skipped, and the final report is
    /// bit-identical to an uninterrupted run. `config.checkpoint` defaults to
    /// appending to `path` (pass a different path to fork the trail).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] for unreadable/corrupt files or
    /// when the re-expanded plan no longer matches the header's unit count.
    pub fn resume(path: impl Into<PathBuf>, config: RunConfig) -> Result<Self, EngineError> {
        let path = path.into();
        let checkpoint = checkpoint::read(&path)?;
        let scenario = checkpoint.header.scenario()?;
        let stats_before = config.cache.stats();
        let plan = Plan::new_with_cache(&scenario, Some(&config.cache))?;
        if plan.units().len() != checkpoint.header.total_units {
            return Err(EngineError::Checkpoint(format!(
                "plan re-expansion produced {} units but the checkpoint header says {}",
                plan.units().len(),
                checkpoint.header.total_units
            )));
        }
        let mut config = config;
        if config.checkpoint.is_none() {
            config.checkpoint = Some(path.clone());
        }
        // A record whose case index disagrees with the plan is corruption
        // (bit flip, manual edit); drop it so its unit simply re-runs, per
        // the checkpoint module's corrupt-line contract.
        let resumed: Vec<UnitRecord> = checkpoint
            .records
            .into_iter()
            .filter(|r| {
                plan.units()
                    .get(r.unit)
                    .is_some_and(|u| u.case_index == r.case_index)
            })
            .collect();
        let cancel = config.cancel.clone().unwrap_or_default();
        Ok(Self {
            plan,
            config,
            resumed,
            resume_source: Some(path),
            cancel,
            stats_before,
        })
    }

    /// The expanded plan this run will execute.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Units restored from the checkpoint (0 for fresh runs).
    pub fn resumed_units(&self) -> usize {
        self.resumed.len()
    }

    /// Units still to execute.
    pub fn remaining_units(&self) -> usize {
        self.plan.units().len() - self.resumed.len()
    }

    /// A cancellation handle for this run (clone it before calling
    /// [`Run::execute`]).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Executes the remaining units and aggregates the final report.
    ///
    /// # Errors
    ///
    /// Propagates solver and checkpoint failures; returns
    /// [`EngineError::Interrupted`] when the run was cancelled before every
    /// unit completed (completed units are preserved in the checkpoint).
    pub fn execute(self) -> Result<CampaignReport, EngineError> {
        let start = Instant::now();
        let plan = &self.plan;
        let total_units = plan.units().len();

        // Schedule, minus what the checkpoint already holds.
        let full_order = self.config.scheduler.schedule(plan);
        debug_assert_eq!(full_order.len(), total_units, "schedule is a permutation");
        let mut done = vec![false; total_units];
        for record in &self.resumed {
            done[record.unit] = true;
        }
        let order: Vec<usize> = full_order.into_iter().filter(|&u| !done[u]).collect();

        // Checkpoint: resuming onto the same file appends; everything else —
        // fresh runs and resumes forked to a new path — writes a fresh trail
        // (header plus any resumed records, so the fork is itself resumable).
        let writer = match &self.config.checkpoint {
            Some(path) if self.resume_source.as_deref() == Some(path.as_path()) => {
                Some(CheckpointWriter::append_to(path)?)
            }
            Some(path) => {
                let mut writer = CheckpointWriter::create(path, plan.scenario(), total_units)?;
                for record in &self.resumed {
                    writer.append(record)?;
                }
                Some(writer)
            }
            None => None,
        };

        // Per-case outstanding-unit counters, excluding resumed records.
        let mut case_remaining: Vec<usize> = plan.cases().iter().map(|c| c.solves()).collect();
        for record in &self.resumed {
            case_remaining[record.case_index] -= 1;
        }

        let sink = UnitSink {
            plan,
            observer: self.config.observer.as_deref(),
            checkpoint: writer.map(Mutex::new),
            records: Mutex::new(Vec::with_capacity(order.len())),
            case_remaining: Mutex::new(case_remaining),
            resumed: self.resumed.len(),
            cancel: &self.cancel,
            started_at: Mutex::new(HashMap::new()),
            timings: Mutex::new(Vec::new()),
        };

        self.config
            .executor
            .execute(plan, &order, &self.config.cache, &sink)?;

        // Merge resumed + fresh records back into plan order.
        let timings = sink.timings.into_inner().expect("unit timing poisoned");
        let fresh = sink.records.into_inner().expect("record sink poisoned");
        let mut slots: Vec<Option<UnitRecord>> = vec![None; total_units];
        for record in self.resumed.iter().chain(&fresh) {
            slots[record.unit] = Some(*record);
        }
        let completed = slots.iter().filter(|s| s.is_some()).count();
        if completed < total_units {
            return Err(EngineError::Interrupted {
                completed,
                total: total_units,
            });
        }
        let records: Vec<UnitRecord> = slots.into_iter().map(|s| s.expect("complete")).collect();
        let mut unit_times: Vec<Option<Duration>> = vec![None; total_units];
        for (unit, wall) in timings {
            unit_times[unit] = Some(wall);
        }

        let stats_after = self.config.cache.stats();
        let cache = CacheStats {
            hits: stats_after.hits - self.stats_before.hits,
            misses: stats_after.misses - self.stats_before.misses,
            entries: stats_after.entries,
            kl_hits: stats_after.kl_hits - self.stats_before.kl_hits,
            kl_misses: stats_after.kl_misses - self.stats_before.kl_misses,
            table_hits: stats_after.table_hits - self.stats_before.table_hits,
            table_misses: stats_after.table_misses - self.stats_before.table_misses,
        };
        let wall_time = start.elapsed();
        if let Some(observer) = self.config.observer.as_deref() {
            observer.on_event(&RunEvent::RunFinished {
                units: total_units,
                cache,
                wall_time,
            });
        }
        Ok(aggregate_report(
            plan,
            records,
            cache,
            wall_time,
            self.config.executor.parallelism(),
            unit_times,
        ))
    }
}

/// Aggregates per-unit records (in plan order) into the final campaign
/// report. Pure plan-order arithmetic: independent of executor, scheduler and
/// resume history — the keystone of the bit-identical-resume guarantee.
fn aggregate_report(
    plan: &Plan,
    records: Vec<UnitRecord>,
    cache: CacheStats,
    wall_time: std::time::Duration,
    threads: usize,
    unit_times: Vec<Option<Duration>>,
) -> CampaignReport {
    let scenario = plan.scenario();
    let mut cases = Vec::with_capacity(plan.cases().len());
    for (case_index, case) in plan.cases().iter().enumerate() {
        let values: Vec<f64> = records[case.unit_range.clone()]
            .iter()
            .map(|r| r.value)
            .collect();
        let outcome = match scenario.mode() {
            EnsembleMode::MonteCarlo { .. } => {
                CaseOutcome::MonteCarlo(MonteCarloResult::from_samples(&values))
            }
            EnsembleMode::Sscm { order } => {
                let grid = case
                    .sparse_grid
                    .as_ref()
                    .expect("SSCM cases carry their sparse grid");
                let config = SscmConfig {
                    order: *order,
                    surrogate_samples: scenario.surrogate_samples,
                    seed: derive_stream(
                        scenario.master_seed(),
                        SURROGATE_STREAM_OFFSET + case_index as u64,
                    ),
                };
                CaseOutcome::Sscm(run_sscm_on_grid(grid, &config, &values))
            }
            EnsembleMode::Deterministic => CaseOutcome::Deterministic(values[0]),
        };
        let (mean, std_dev) = match &outcome {
            CaseOutcome::MonteCarlo(mc) => (mc.mean(), mc.std_dev()),
            CaseOutcome::Sscm(sscm) => (sscm.mean(), sscm.std_dev()),
            CaseOutcome::Deterministic(value) => (*value, 0.0),
        };
        let spec = &scenario.roughness_grid()[case.id.roughness];
        cases.push(CaseReport {
            id: case.id,
            frequency_ghz: scenario.frequencies()[case.id.frequency].as_gigahertz(),
            sigma: spec.sigma(),
            correlation_length: spec.correlation().map(|cf| cf.correlation_length()),
            kl_modes: case.kl_modes(),
            solves: case.solves(),
            mean,
            std_dev,
            outcome,
        });
    }
    CampaignReport {
        scenario: scenario.name().to_string(),
        cases,
        records,
        cache,
        distinct_contexts: plan.distinct_contexts(),
        total_solves: plan.total_solves(),
        wall_time,
        threads,
        unit_times,
    }
}

/// Rebuilds a full [`CampaignReport`] from a complete plan-order record set.
///
/// This is the deterministic half of a report — case statistics, CDFs and
/// SSCM surrogates are pure functions of the plan and the records, so a
/// daemon can serve a cached report as records-over-the-wire and the client
/// reconstitutes the typed report locally, bit-identical to the original.
/// Execution metadata that only the original run knew (wall time, cache
/// activity, thread count) is zeroed.
///
/// # Errors
///
/// Returns [`EngineError::Checkpoint`] when `records` is not exactly the
/// plan's unit set in plan order.
pub fn report_from_records(
    plan: &Plan,
    records: Vec<UnitRecord>,
) -> Result<CampaignReport, EngineError> {
    if records.len() != plan.units().len() {
        return Err(EngineError::Checkpoint(format!(
            "record set has {} records but the plan schedules {} units",
            records.len(),
            plan.units().len()
        )));
    }
    for (slot, record) in records.iter().enumerate() {
        if record.unit != slot || plan.units()[slot].case_index != record.case_index {
            return Err(EngineError::Checkpoint(format!(
                "record at slot {slot} (unit {}, case {}) does not match the plan",
                record.unit, record.case_index
            )));
        }
    }
    let unit_times = vec![None; records.len()];
    Ok(aggregate_report(
        plan,
        records,
        CacheStats::default(),
        Duration::ZERO,
        0,
        unit_times,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::FnObserver;
    use crate::executor::SerialExecutor;
    use crate::schedule::CostOrdered;
    use rough_core::RoughnessSpec;
    use rough_em::material::Stackup;
    use rough_em::units::{GigaHertz, Micrometers};
    use std::sync::atomic::AtomicUsize;

    fn scenario(realizations: usize) -> Scenario {
        Scenario::builder(Stackup::paper_baseline())
            .name("run-api-unit")
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(6.0).into()])
            .cells_per_side(6)
            .max_kl_modes(2)
            .monte_carlo(realizations)
            .master_seed(0xC0FFEE)
            .build()
            .unwrap()
    }

    #[test]
    fn events_stream_in_order_and_cover_every_unit() {
        let scenario = scenario(3);
        let (config, events) = RunConfig::new().executor(SerialExecutor).observer_channel();
        let report = Run::new(&scenario, config).unwrap().execute().unwrap();
        let events: Vec<RunEvent> = events.try_iter().collect();
        let started = events
            .iter()
            .filter(|e| matches!(e, RunEvent::UnitStarted { .. }))
            .count();
        let completed = events
            .iter()
            .filter(|e| matches!(e, RunEvent::UnitCompleted { .. }))
            .count();
        let cases = events
            .iter()
            .filter(|e| matches!(e, RunEvent::CaseCompleted { .. }))
            .count();
        assert_eq!(started, report.records.len());
        assert_eq!(completed, report.records.len());
        assert_eq!(cases, report.cases.len());
        assert!(matches!(
            events.last(),
            Some(RunEvent::RunFinished { units: 6, .. })
        ));
    }

    #[test]
    fn cost_ordered_schedule_is_bit_identical_to_plan_order() {
        let scenario = scenario(4);
        let plan_order = Run::new(&scenario, RunConfig::new().executor(SerialExecutor))
            .unwrap()
            .execute()
            .unwrap();
        let cost_ordered = Run::new(
            &scenario,
            RunConfig::new()
                .executor(SerialExecutor)
                .scheduler(CostOrdered::new()),
        )
        .unwrap()
        .execute()
        .unwrap();
        let a: Vec<u64> = plan_order
            .records
            .iter()
            .map(|r| r.value.to_bits())
            .collect();
        let b: Vec<u64> = cost_ordered
            .records
            .iter()
            .map(|r| r.value.to_bits())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn resume_can_fork_to_a_new_checkpoint_path() {
        let dir = std::env::temp_dir().join("rough_engine_run_fork");
        std::fs::create_dir_all(&dir).unwrap();
        let (source, fork) = (dir.join("source.jsonl"), dir.join("fork.jsonl"));
        std::fs::remove_file(&fork).ok();

        // Interrupt a fresh run after one unit.
        let token = CancelToken::default();
        let observer_token = token.clone();
        let config = RunConfig::new()
            .executor(SerialExecutor)
            .checkpoint(&source)
            .cancel_token(token)
            .observer(FnObserver(move |event: &RunEvent| {
                if matches!(event, RunEvent::UnitCompleted { .. }) {
                    observer_token.cancel();
                }
            }));
        let scenario = scenario(2); // 4 units
        assert!(matches!(
            Run::new(&scenario, config).unwrap().execute(),
            Err(EngineError::Interrupted { .. })
        ));

        // Fork the trail: resume from `source`, checkpoint to `fork`. The
        // fork file must not need to pre-exist and must be self-contained.
        let report = Run::resume(
            &source,
            RunConfig::new().executor(SerialExecutor).checkpoint(&fork),
        )
        .unwrap()
        .execute()
        .unwrap();
        let reloaded = Run::resume(&fork, RunConfig::new().executor(SerialExecutor)).unwrap();
        assert_eq!(reloaded.remaining_units(), 0);
        let replayed = reloaded.execute().unwrap();
        assert_eq!(
            report.cases[0].mean.to_bits(),
            replayed.cases[0].mean.to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_discards_records_with_corrupted_case_indices() {
        let dir = std::env::temp_dir().join("rough_engine_run_badcase");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let scenario = scenario(2); // 4 units over 2 cases
        let config = RunConfig::new().executor(SerialExecutor).checkpoint(&path);
        let reference = Run::new(&scenario, config).unwrap().execute().unwrap();

        // Corrupt one record's case field (still well-formed JSON).
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"case\":0", "\"case\":9", 1);
        assert_ne!(text, corrupted, "a case-0 record must exist");
        std::fs::write(&path, corrupted).unwrap();

        // The corrupted record is dropped (its unit re-runs), not a panic,
        // and the final report is still bit-identical.
        let resumed = Run::resume(&path, RunConfig::new().executor(SerialExecutor)).unwrap();
        assert_eq!(resumed.remaining_units(), 1);
        let report = resumed.execute().unwrap();
        assert_eq!(
            reference.cases[0].mean.to_bits(),
            report.cases[0].mean.to_bits()
        );
        assert_eq!(
            reference.cases[1].mean.to_bits(),
            report.cases[1].mean.to_bits()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_runs_report_interruption_and_progress() {
        let scenario = scenario(4); // 8 units
        let token = CancelToken::default();
        let observer_token = token.clone();
        let counter = AtomicUsize::new(0);
        let config = RunConfig::new()
            .executor(SerialExecutor)
            .cancel_token(token)
            .observer(FnObserver(move |event: &RunEvent| {
                if matches!(event, RunEvent::UnitCompleted { .. })
                    && counter.fetch_add(1, Ordering::SeqCst) + 1 == 3
                {
                    observer_token.cancel();
                }
            }));
        let err = Run::new(&scenario, config).unwrap().execute().unwrap_err();
        match err {
            EngineError::Interrupted { completed, total } => {
                assert_eq!(completed, 3);
                assert_eq!(total, 8);
            }
            other => panic!("expected interruption, got {other:?}"),
        }
    }
}
