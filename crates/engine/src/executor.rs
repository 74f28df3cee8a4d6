//! Execution layer: pluggable [`UnitExecutor`]s over planned work units.
//!
//! Executors walk the plan's two-stage DAG: stage 0 builds every distinct
//! shared context (Ewald kernels + smooth-surface reference solve) and
//! publishes it through the [`KernelCache`]; stage 1 evaluates the
//! realization/collocation units against the cached contexts, in whatever
//! order the [`crate::schedule::Scheduler`] chose. All randomness was fixed
//! at plan time and records are keyed by unit id, so a campaign's statistics
//! are bit-identical for a fixed master seed no matter which executor runs it
//! or how many workers it uses.
//!
//! Three executors ship with the engine:
//!
//! * [`SerialExecutor`] — one unit at a time on the calling thread; the
//!   reference implementation the bit-identity tests compare against.
//! * [`ThreadPoolExecutor`] — a sized thread pool (the engine's default).
//! * [`crate::socket::SocketExecutor`] — persistent worker *processes* with
//!   warm kernel caches, for isolation and multi-process scale-out.
//!
//! [`Engine`] remains the convenient facade: it owns a thread-pool executor
//! plus a persistent [`KernelCache`] and `Engine::run` is now a thin wrapper
//! over the session-oriented [`crate::run::Run`] API.

use crate::cache::{CaseContext, KernelCache};
use crate::error::EngineError;
use crate::plan::{Plan, PlannedCase, UnitTask, WorkUnit};
use crate::report::{CampaignReport, UnitRecord};
use crate::run::{Run, RunConfig, UnitSink};
use rough_core::parallel::map_rows;
use rough_core::AssemblyParallelism;
use rough_surface::RoughSurface;
use std::sync::Arc;

/// The machine's core budget: executors size `units × intra-solve assembly
/// threads` so their product never exceeds this.
pub fn core_budget() -> usize {
    rough_core::parallel::available_cores()
}

/// The intra-solve assembly parallelism of one solve when `workers` units
/// share `budget` cores: the `ROUGHSIM_ASSEMBLY_THREADS` override when set,
/// otherwise `⌊budget / workers⌋` threads (at least 1) — so
/// `workers × threads ≤ budget` and a fully-sized pool keeps assembly serial
/// instead of oversubscribing.
pub fn shared_budget_assembly(budget: usize, workers: usize) -> AssemblyParallelism {
    AssemblyParallelism::from_env()
        .unwrap_or_else(|| AssemblyParallelism::workers((budget / workers.max(1)).max(1)))
}

/// Environment variable naming the executor every driver should use — see
/// [`executor_from_env_budgeted`].
pub const EXECUTOR_ENV: &str = "ROUGHSIM_EXECUTOR";

/// Parses an executor spec `kind[:N]` into a [`UnitExecutor`] sized against
/// a core `budget` — [`core_budget`] for a whole-machine driver, or a slice
/// of it when several campaigns run at once: a daemon running `J` jobs hands
/// each runner `budget = max(1, core_budget() / J)` so
/// `jobs × workers × assembly threads` never oversubscribes the machine.
///
/// `N` defaults to `budget` workers; each solve gets
/// [`shared_budget_assembly`]`(budget, N)` assembly threads:
///
/// * `""` or `threads[:N]` — an N-thread pool;
/// * `serial` — one unit at a time with the *whole* budget inside the solve
///   (a single-worker pool, bit-identical to [`SerialExecutor`]);
/// * `socket[:N]` — N persistent socket workers over loopback TCP (the
///   binary must call [`crate::subprocess::maybe_serve_worker`] first thing
///   in `main`).
///
/// Results are bit-identical across all of them; only wall time and process
/// layout change.
///
/// # Errors
///
/// Returns [`EngineError::InvalidScenario`] on an unknown kind or a
/// malformed worker count.
pub fn parse_executor_spec_budgeted(
    spec: &str,
    budget: usize,
) -> Result<Arc<dyn UnitExecutor>, EngineError> {
    let budget = budget.max(1);
    let bad = |reason: String| EngineError::InvalidScenario(reason);
    let (kind, workers) = match spec.split_once(':') {
        Some((kind, n)) => (
            kind,
            n.parse::<usize>()
                .map_err(|_| bad(format!("executor spec `{spec}`: bad worker count `{n}`")))?,
        ),
        None => (spec, 0),
    };
    let workers = if workers == 0 { budget } else { workers };
    Ok(match kind {
        "" | "threads" => Arc::new(ThreadPoolExecutor::with_assembly(
            workers,
            shared_budget_assembly(budget, workers),
        )),
        "serial" => Arc::new(ThreadPoolExecutor::with_assembly(
            1,
            shared_budget_assembly(budget, 1),
        )),
        "socket" => Arc::new(crate::socket::SocketExecutor::new(workers).with_core_budget(budget)),
        other => return Err(bad(format!("unknown executor `{other}`"))),
    })
}

/// [`parse_executor_spec_budgeted`] over the `ROUGHSIM_EXECUTOR` environment
/// variable, so every driver can switch between in-process and socket
/// execution without code changes. Drivers pass [`core_budget`]; each runner
/// of a multi-job daemon passes its slice of it.
///
/// # Errors
///
/// Propagates [`parse_executor_spec_budgeted`] failures.
pub fn executor_from_env_budgeted(budget: usize) -> Result<Arc<dyn UnitExecutor>, EngineError> {
    parse_executor_spec_budgeted(&std::env::var(EXECUTOR_ENV).unwrap_or_default(), budget)
}

/// Executes scheduled work units, committing each completed record through
/// the [`UnitSink`].
///
/// Contract:
///
/// * units must be taken from `order` (a subset of plan unit ids chosen by
///   the scheduler — on resume, already-checkpointed units are absent);
/// * every completed unit must be committed via [`UnitSink::complete`];
/// * executors should stop picking up new units once
///   [`UnitSink::is_cancelled`] returns `true` and then return `Ok(())` —
///   the run layer turns the shortfall into [`EngineError::Interrupted`];
/// * determinism: a unit's record must depend only on the plan, never on
///   scheduling, worker identity or timing.
pub trait UnitExecutor: Send + Sync + std::fmt::Debug {
    /// Short executor label (reports, logs, benchmarks).
    fn name(&self) -> &'static str;

    /// Worker parallelism (reported as [`CampaignReport::threads`]).
    fn parallelism(&self) -> usize;

    /// Executes `order` against `plan`, committing records into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures and sink (checkpoint I/O) failures.
    fn execute(
        &self,
        plan: &Plan,
        order: &[usize],
        cache: &KernelCache,
        sink: &UnitSink<'_>,
    ) -> Result<(), EngineError>;
}

/// Evaluates every unit on the calling thread, in schedule order.
///
/// One unit at a time means the whole core budget is available *inside* each
/// solve: the serial executor gives every unit
/// [`shared_budget_assembly`]`(core_budget(), 1)` worth of intra-solve
/// assembly threads (still bit-identical to single-threaded assembly).
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl UnitExecutor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn parallelism(&self) -> usize {
        1
    }

    fn execute(
        &self,
        plan: &Plan,
        order: &[usize],
        cache: &KernelCache,
        sink: &UnitSink<'_>,
    ) -> Result<(), EngineError> {
        let assembly = shared_budget_assembly(core_budget(), 1);
        for &unit_id in order {
            if sink.is_cancelled() {
                return Ok(());
            }
            let unit = &plan.units()[unit_id];
            sink.unit_started(unit);
            let record = evaluate_unit(plan, unit, cache, assembly)?;
            sink.complete(record)?;
        }
        Ok(())
    }
}

/// Evaluates units on `threads` scoped workers, prebuilding the distinct
/// shared contexts in parallel first so concurrent units never race to build
/// the same context.
///
/// Both stages run on [`rough_core::parallel::map_rows`]: work is handed out
/// through an atomic cursor (uneven units load-balance), results come back in
/// index order, and a single worker runs serially on the calling thread.
#[derive(Debug)]
pub struct ThreadPoolExecutor {
    threads: usize,
    assembly: AssemblyParallelism,
}

impl ThreadPoolExecutor {
    /// Creates a pool executor with `threads` workers (0 means one per
    /// hardware core). Each worker's solves get the executor's fair share of
    /// the core budget as intra-solve assembly threads
    /// ([`shared_budget_assembly`]), so `units × assembly threads` never
    /// oversubscribes the machine; `ROUGHSIM_ASSEMBLY_THREADS` overrides the
    /// share.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 { core_budget() } else { threads };
        Self::with_assembly(threads, shared_budget_assembly(core_budget(), threads))
    }

    /// Creates a pool executor with an explicit intra-solve assembly
    /// parallelism (bypassing the core-budget split — for tests and for
    /// callers that manage their own budget).
    pub fn with_assembly(threads: usize, assembly: AssemblyParallelism) -> Self {
        let threads = if threads == 0 { core_budget() } else { threads };
        Self { threads, assembly }
    }

    /// The intra-solve assembly parallelism each of this executor's solves
    /// runs with.
    pub fn assembly_parallelism(&self) -> AssemblyParallelism {
        self.assembly
    }
}

impl Default for ThreadPoolExecutor {
    /// One worker per hardware core.
    fn default() -> Self {
        Self::new(0)
    }
}

impl UnitExecutor for ThreadPoolExecutor {
    fn name(&self) -> &'static str {
        "thread-pool"
    }

    fn parallelism(&self) -> usize {
        self.threads
    }

    fn execute(
        &self,
        plan: &Plan,
        order: &[usize],
        cache: &KernelCache,
        sink: &UnitSink<'_>,
    ) -> Result<(), EngineError> {
        // Stage 0: build every distinct context the scheduled units need and
        // that is not already cached, in parallel, then publish. Building
        // through a representative case keeps `get_or_build` the only cache
        // write path.
        let mut pending: Vec<&PlannedCase> = Vec::new();
        for &unit_id in order {
            let case = &plan.cases()[plan.units()[unit_id].case_index];
            if !cache.contains(case.context_key)
                && !pending.iter().any(|c| c.context_key == case.context_key)
            {
                pending.push(case);
            }
        }
        let built: Vec<Result<CaseContext, EngineError>> = map_rows(
            pending.len(),
            self.threads,
            || (),
            |i, _| build_context(plan, pending[i], self.assembly, cache.mf_tables()),
        );
        for (case, result) in pending.iter().zip(built) {
            let context = result?;
            cache.get_or_build(case.context_key, || Ok(context))?;
        }

        // Stage 1: evaluate the scheduled units in parallel. Records are
        // committed through the sink as they complete; the run layer
        // reassembles plan order by unit id.
        let results: Vec<Result<(), EngineError>> = map_rows(
            order.len(),
            self.threads,
            || (),
            |i, _| {
                if sink.is_cancelled() {
                    return Ok(());
                }
                let unit = &plan.units()[order[i]];
                sink.unit_started(unit);
                let record = evaluate_unit(plan, unit, cache, self.assembly)?;
                sink.complete(record)
            },
        );
        results.into_iter().collect()
    }
}

/// Evaluates one work unit against its (cached) shared context. The named
/// fault point `unit.eval.fail` injects a failure before the solve.
///
/// `assembly` is applied per call (cached contexts are shared between
/// executors with different budgets, so the stored problem's parallelism is
/// never trusted here); results are bit-identical at any worker count.
pub(crate) fn evaluate_unit(
    plan: &Plan,
    unit: &WorkUnit,
    cache: &KernelCache,
    assembly: AssemblyParallelism,
) -> Result<UnitRecord, EngineError> {
    if rough_faults::should_fire("unit.eval.fail") {
        return Err(EngineError::Solve(rough_core::SwmError::LinearSolver(
            format!(
                "injected unit evaluation failure (fault plan, unit {})",
                unit.id
            ),
        )));
    }
    let scenario = plan.scenario();
    let case = &plan.cases()[unit.case_index];
    let context = cache.get_or_build(case.context_key, || {
        build_context(plan, case, assembly, cache.mf_tables())
    })?;
    let surface = match unit.task {
        UnitTask::Realization { germ_index } => synthesize(case, &case.germs[germ_index]),
        UnitTask::CollocationNode { node_index } => synthesize(case, &case.germs[node_index]),
        UnitTask::ExplicitSurface => scenario
            .surface
            .clone()
            .expect("deterministic scenarios carry a surface"),
    };
    let problem = context.problem.with_assembly_parallelism(assembly);
    let loss =
        problem.solve_with_reference_using(&surface, context.flat_reference, &context.operator)?;
    Ok(UnitRecord {
        unit: unit.id,
        case_index: unit.case_index,
        value: loss.enhancement_factor(),
        relative_residual: loss.relative_residual(),
        degraded: loss.degraded(),
    })
}

/// Synthesizes the KL realization for one germ vector.
fn synthesize(case: &PlannedCase, germ: &[f64]) -> RoughSurface {
    let kl = case.kl.as_ref().expect("stochastic cases carry a KL basis");
    let mut surface = kl.synthesize(germ);
    surface.scale_heights(case.variance_restore);
    surface
}

/// Builds the shared context of one case: configured problem, Ewald kernels,
/// and the smooth-surface reference solve.
///
/// `assembly` governs only the flat-reference solve performed here; unit
/// evaluations re-apply their own executor's parallelism on every solve, so a
/// context cached by one executor never leaks its thread budget into another.
pub(crate) fn build_context(
    plan: &Plan,
    case: &PlannedCase,
    assembly: AssemblyParallelism,
    tables: &Arc<rough_core::MfTableCache>,
) -> Result<CaseContext, EngineError> {
    let scenario = plan.scenario();
    let spec = scenario.roughness_grid()[case.id.roughness].clone();
    let frequency = scenario.frequencies()[case.id.frequency];
    let problem = rough_core::SwmProblem::builder(*scenario.stack(), spec)
        .frequency(frequency)
        .cells_per_side(scenario.cells_per_side())
        .solver(scenario.solver)
        .assembly(scenario.assembly)
        .operator_repr(scenario.operator_repr)
        .assembly_parallelism(assembly)
        .build()?;
    // Installing the shared generator-table cache is a no-op for dense
    // operators and amortizes matrix-free table builds across the campaign.
    let operator = problem.operator().with_table_cache(Arc::clone(tables));
    let flat = RoughSurface::flat(scenario.cells_per_side(), problem.patch_length());
    let (flat_reference, _) = problem.absorbed_power_with(&flat, &operator)?;
    Ok(CaseContext {
        problem,
        operator,
        flat_reference,
    })
}

/// The batch simulation engine: a thread-pool executor plus a kernel cache
/// that persists across runs (a frequency sweep re-run with more realizations
/// hits the cache for every context it has already prepared).
///
/// `Engine` is the compatible facade over the session-oriented
/// [`crate::run::Run`] API: `engine.run(&scenario)` is exactly
/// `Run::new(&scenario, engine.run_config())?.execute()`. Use [`Run`]
/// directly for streaming events, checkpointing, alternative executors or
/// cost-ordered scheduling.
#[derive(Debug)]
pub struct Engine {
    executor: Arc<ThreadPoolExecutor>,
    cache: Arc<KernelCache>,
}

/// Builder for [`Engine`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    threads: Option<usize>,
}

impl EngineBuilder {
    /// Sets the worker-thread count (defaults to one per hardware core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Engine {
        Engine {
            executor: Arc::new(ThreadPoolExecutor::new(self.threads.unwrap_or(0))),
            cache: Arc::new(KernelCache::new()),
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine with one worker per hardware core.
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Worker-thread count.
    pub fn threads(&self) -> usize {
        self.executor.parallelism()
    }

    /// The engine's kernel cache (shared across runs).
    pub fn cache(&self) -> &KernelCache {
        &self.cache
    }

    /// A [`RunConfig`] wired to this engine's thread pool and persistent
    /// cache — the starting point for customized runs (checkpoints,
    /// observers, schedulers) that still share the engine's cached kernels.
    pub fn run_config(&self) -> RunConfig {
        RunConfig::new()
            .executor_arc(Arc::clone(&self.executor) as Arc<dyn UnitExecutor>)
            .cache(Arc::clone(&self.cache))
    }

    /// Plans and executes a scenario.
    ///
    /// # Errors
    ///
    /// Propagates planning failures and solver errors.
    pub fn run(&self, scenario: &crate::scenario::Scenario) -> Result<CampaignReport, EngineError> {
        Run::new(scenario, self.run_config())?.execute()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CaseOutcome;
    use crate::scenario::Scenario;
    use rough_core::RoughnessSpec;
    use rough_em::material::Stackup;
    use rough_em::units::{GigaHertz, Micrometers};

    fn small_scenario(realizations: usize) -> Scenario {
        Scenario::builder(Stackup::paper_baseline())
            .name("executor-unit")
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(6)
            .max_kl_modes(3)
            .monte_carlo(realizations)
            .master_seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn monte_carlo_campaign_produces_physical_statistics() {
        let engine = Engine::builder().threads(2).build();
        let report = engine.run(&small_scenario(5)).unwrap();
        assert_eq!(report.cases.len(), 1);
        assert_eq!(report.records.len(), 5);
        let case = &report.cases[0];
        assert_eq!(case.solves, 5);
        assert!(case.mean > 0.8 && case.mean < 3.0, "mean = {}", case.mean);
        assert!(case.std_dev >= 0.0);
        assert!(report.cache.misses >= 1);
        assert!(report.cache.hits >= 4, "hits = {}", report.cache.hits);
    }

    #[test]
    fn rerunning_hits_the_persistent_cache() {
        let engine = Engine::builder().threads(1).build();
        let scenario = small_scenario(3);
        let first = engine.run(&scenario).unwrap();
        let second = engine.run(&scenario).unwrap();
        assert!(first.cache.misses >= 1);
        assert_eq!(second.cache.misses, 0, "second run must be fully cached");
        assert_eq!(first.cases[0].mean, second.cases[0].mean);
    }

    #[test]
    fn deterministic_sweep_solves_each_frequency_once() {
        let cells = 6;
        let spec = RoughnessSpec::deterministic(Micrometers::new(5.0));
        let l = spec.patch_length();
        let surface = RoughSurface::from_fn(cells, l, |x, y| {
            0.2e-6
                * ((2.0 * std::f64::consts::PI * x / l).cos()
                    + (2.0 * std::f64::consts::PI * y / l).sin())
        });
        let scenario = Scenario::builder(Stackup::paper_baseline())
            .roughness(spec)
            .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(8.0).into()])
            .cells_per_side(cells)
            .deterministic(surface)
            .build()
            .unwrap();
        let engine = Engine::builder().threads(2).build();
        let report = engine.run(&scenario).unwrap();
        assert_eq!(report.cases.len(), 2);
        for case in &report.cases {
            assert_eq!(case.solves, 1);
            assert!(case.mean > 0.9, "enhancement {}", case.mean);
            assert!(matches!(case.outcome, CaseOutcome::Deterministic(_)));
        }
        // Loss grows with frequency for the same surface.
        assert!(report.cases[1].mean > report.cases[0].mean);
    }

    #[test]
    fn budget_split_never_oversubscribes() {
        // units × per-solve assembly threads must stay within the budget
        // whenever the worker count itself fits it; beyond that each solve
        // degrades to serial assembly. An exported ROUGHSIM_ASSEMBLY_THREADS
        // legitimately overrides the split, so then every share is the
        // override instead.
        let override_share = AssemblyParallelism::from_env();
        for budget in [1usize, 2, 4, 7, core_budget()] {
            for workers in [1usize, 2, 3, 4, 8, 16, 64] {
                let share = shared_budget_assembly(budget, workers);
                if let Some(pinned) = override_share {
                    assert_eq!(share, pinned);
                    continue;
                }
                let assembly = share.worker_count();
                if workers <= budget {
                    assert!(
                        workers * assembly <= budget,
                        "{workers}w x {assembly}a exceeds budget {budget}"
                    );
                } else {
                    assert_eq!(assembly, 1, "oversized pools must keep assembly serial");
                }
            }
            // A solo unit gets the whole budget.
            if override_share.is_none() {
                assert_eq!(shared_budget_assembly(budget, 1).worker_count(), budget);
            }
        }
    }

    #[test]
    fn budgeted_specs_size_workers_and_assembly_within_the_slice() {
        // An unsized `threads` spec fills exactly its slice, one worker per
        // budgeted core; `serial` keeps one unit in flight.
        let pool = parse_executor_spec_budgeted("threads", 3).unwrap();
        assert_eq!(pool.parallelism(), 3);
        let solo = parse_executor_spec_budgeted("serial", 3).unwrap();
        assert_eq!(solo.parallelism(), 1);
        let explicit = parse_executor_spec_budgeted("threads:2", 8).unwrap();
        assert_eq!(explicit.parallelism(), 2);
        // Socket workers are spawned lazily, so parsing starts no process.
        let socket = parse_executor_spec_budgeted("socket", 2).unwrap();
        assert_eq!((socket.name(), socket.parallelism()), ("socket", 2));
        let socket = parse_executor_spec_budgeted("socket:3", 2).unwrap();
        assert_eq!(socket.parallelism(), 3);
        assert!(parse_executor_spec_budgeted("subprocess", 2).is_err());
        assert!(parse_executor_spec_budgeted("subprocess:2", 2).is_err());
        assert!(parse_executor_spec_budgeted("warp-drive", 2).is_err());
        assert!(parse_executor_spec_budgeted("threads:x", 2).is_err());
    }

    #[test]
    fn budgeted_serial_spec_agrees_bitwise_with_the_serial_executor() {
        let scenario = small_scenario(3);
        let reference = Run::new(&scenario, RunConfig::new().executor(SerialExecutor))
            .unwrap()
            .execute()
            .unwrap();
        let budgeted = Run::new(
            &scenario,
            RunConfig::new().executor_arc(parse_executor_spec_budgeted("serial", 2).unwrap()),
        )
        .unwrap()
        .execute()
        .unwrap();
        let a: Vec<u64> = reference
            .records
            .iter()
            .map(|r| r.value.to_bits())
            .collect();
        let b: Vec<u64> = budgeted.records.iter().map(|r| r.value.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn intra_solve_parallelism_is_bit_identical_across_executors() {
        // A multi-unit campaign with intra-solve assembly threads enabled
        // must reproduce the fully serial run bit for bit — the combined
        // guarantee of deterministic row panels and plan-time seeding.
        let scenario = small_scenario(4);
        let serial = Run::new(
            &scenario,
            RunConfig::new().executor(ThreadPoolExecutor::with_assembly(
                1,
                rough_core::AssemblyParallelism::Serial,
            )),
        )
        .unwrap()
        .execute()
        .unwrap();
        let nested = Run::new(
            &scenario,
            RunConfig::new().executor(ThreadPoolExecutor::with_assembly(
                2,
                rough_core::AssemblyParallelism::Threads(4),
            )),
        )
        .unwrap()
        .execute()
        .unwrap();
        let serial_bits: Vec<u64> = serial.records.iter().map(|r| r.value.to_bits()).collect();
        let nested_bits: Vec<u64> = nested.records.iter().map(|r| r.value.to_bits()).collect();
        assert_eq!(serial_bits, nested_bits);
        assert_eq!(
            serial.cases[0].mean.to_bits(),
            nested.cases[0].mean.to_bits()
        );
    }

    #[test]
    fn unit_times_are_recorded_for_in_process_executors() {
        let engine = Engine::builder().threads(2).build();
        let report = engine.run(&small_scenario(3)).unwrap();
        assert_eq!(report.unit_times.len(), report.records.len());
        assert!(
            report.unit_times.iter().all(|t| t.is_some()),
            "every in-process unit must carry a measured wall time"
        );
        // The calibration hook exposes a per-case mean.
        assert!(report.measured_mean_unit_seconds(0).unwrap() > 0.0);
        assert!(report.measured_mean_unit_seconds(99).is_none());
    }

    #[test]
    fn serial_and_thread_pool_executors_agree_bitwise() {
        let scenario = small_scenario(4);
        let serial = Run::new(&scenario, RunConfig::new().executor(SerialExecutor))
            .unwrap()
            .execute()
            .unwrap();
        let pooled = Run::new(
            &scenario,
            RunConfig::new().executor(ThreadPoolExecutor::new(3)),
        )
        .unwrap()
        .execute()
        .unwrap();
        assert_eq!(serial.threads, 1);
        assert_eq!(pooled.threads, 3);
        let serial_bits: Vec<u64> = serial.records.iter().map(|r| r.value.to_bits()).collect();
        let pooled_bits: Vec<u64> = pooled.records.iter().map(|r| r.value.to_bits()).collect();
        assert_eq!(serial_bits, pooled_bits);
        assert_eq!(
            serial.cases[0].mean.to_bits(),
            pooled.cases[0].mean.to_bits()
        );
    }
}
