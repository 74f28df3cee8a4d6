//! # rough-engine
//!
//! A parallel, cache-aware batch simulation engine for SWM sweeps.
//!
//! Every headline result of Chen & Wong (DATE 2009) — the frequency-sweep
//! figures, the Fig. 7 CDFs and the Table I sampling-point comparison — is an
//! *ensemble*: thousands of Monte-Carlo realizations or sparse-grid
//! collocation nodes, swept over frequency and roughness parameters. This
//! crate turns "one SWM solve" into "a planned, parallel, cache-aware
//! campaign" with three layers:
//!
//! 1. **Scenario / plan** ([`scenario`], [`plan`]) — a declarative
//!    [`Scenario`] (stackup × roughness grid × frequency sweep × ensemble
//!    budget) expands into a deduplicated two-stage DAG of [`plan::WorkUnit`]s:
//!    first the shared per-(grid, frequency, stackup) contexts, then the
//!    realization/collocation evaluations that depend on them.
//! 2. **Execution** ([`run`], [`executor`], [`schedule`], [`cache`]) — a
//!    session-oriented [`run::Run`] API: a [`run::RunConfig`] picks one of
//!    three [`executor::UnitExecutor`]s ([`executor::SerialExecutor`],
//!    [`executor::ThreadPoolExecutor`], or the multi-process
//!    [`socket::SocketExecutor`]) and a [`schedule::Scheduler`]
//!    ([`schedule::PlanOrder`] or longest-first [`schedule::CostOrdered`]).
//!    Work-unit seeds and germ draws are fixed at plan time from a master
//!    seed, so results are **bit-identical regardless of executor, worker
//!    count or schedule**, and a keyed [`cache::KernelCache`] shares the
//!    Ewald-summed periodic kernels, the Karhunen–Loève basis and the
//!    smooth-surface reference solve across all realizations of a case — the
//!    dominant redundant cost of the serial drivers. Every solve through a
//!    cached context (the flat reference included) uses `rough-core`'s
//!    default batched blocked row-panel assembly
//!    (`rough_core::KernelEval::Batched`), which evaluates the Ewald kernel
//!    over whole row panels at once.
//! 3. **Observability & durability** ([`events`], [`checkpoint`]) — runs
//!    stream typed [`events::RunEvent`]s (unit started/completed, case
//!    completed, checkpoint written, run finished with cache statistics) to a
//!    registered observer or channel while work executes, and optionally
//!    append every completed record to a JSONL checkpoint;
//!    [`run::Run::resume`] rebuilds the plan from the checkpoint alone, skips
//!    finished units and produces a report bit-identical to an uninterrupted
//!    run.
//! 4. **Results** ([`report`]) — structured per-unit records aggregated into
//!    mean/variance/CDF case reports with RFC 4180 CSV and JSON sinks.
//!
//! # Example
//!
//! ```
//! use rough_core::RoughnessSpec;
//! use rough_em::material::Stackup;
//! use rough_em::units::{GigaHertz, Micrometers};
//! use rough_engine::{Engine, Scenario};
//!
//! # fn main() -> Result<(), rough_engine::EngineError> {
//! let scenario = Scenario::builder(Stackup::paper_baseline())
//!     .name("quick-ensemble")
//!     .roughness(RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0)))
//!     .frequencies([GigaHertz::new(5.0).into()])
//!     .cells_per_side(8)
//!     .monte_carlo(4)
//!     .master_seed(2009)
//!     .build()?;
//! let engine = Engine::builder().threads(2).build();
//! let report = engine.run(&scenario)?;
//! assert_eq!(report.cases.len(), 1);
//! assert!(report.cases[0].mean > 0.9);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod checkpoint;
pub mod durable;
mod error;
pub mod events;
pub mod executor;
pub mod frame;
pub mod plan;
pub mod report;
pub mod rng;
pub mod run;
pub mod scenario;
pub mod schedule;
pub mod socket;
pub mod subprocess;
pub mod sweep;
pub mod wire;

pub use cache::{CacheStats, KernelCache};
pub use error::EngineError;
pub use events::{ChannelObserver, FnObserver, RunEvent, RunObserver};
pub use executor::{
    core_budget, executor_from_env_budgeted, parse_executor_spec_budgeted, shared_budget_assembly,
    Engine, EngineBuilder, SerialExecutor, ThreadPoolExecutor, UnitExecutor, EXECUTOR_ENV,
};
pub use plan::Plan;
pub use report::{CampaignReport, CaseOutcome, CaseReport, UnitRecord};
pub use run::{report_from_records, CancelToken, Run, RunConfig, UnitSink};
pub use scenario::{CaseId, EnsembleMode, Scenario, ScenarioBuilder};
pub use schedule::{unit_class, CostOrdered, CostTable, PlanOrder, Scheduler};
pub use socket::{SocketExecutor, SOCKET_WORKER_ENV};
pub use subprocess::maybe_serve_worker;
pub use sweep::{SweepScenario, SweepScenarioBuilder};
