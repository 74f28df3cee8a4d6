//! # roughsim
//!
//! A pure-Rust reproduction of *Chen & Wong, "New Simulation Methodology of 3D
//! Surface Roughness Loss for Interconnects Modeling", DATE 2009*.
//!
//! `roughsim` predicts the extra conductor loss caused by surface roughness in
//! high-speed interconnects and packaging. It implements the paper's **scalar
//! wave modeling (SWM)** methodology — a method-of-moments solution of a
//! two-medium scalar transmission problem on a doubly-periodic rough patch —
//! together with the **SSCM** stochastic collocation machinery and the classical
//! analytic baselines (Hammerstad, SPM2, hemispherical-boss, Huray).
//!
//! This crate is a thin facade that re-exports the workspace crates:
//!
//! * [`numerics`] — complex arithmetic, dense/iterative linear algebra, FFT,
//!   special functions, quadrature and statistics.
//! * [`em`] — units, materials, Green's functions (including the Ewald-summed
//!   doubly-periodic kernel) and the flat-interface analytic solution.
//! * [`surface`] — stationary Gaussian rough-surface models: correlation
//!   functions, spectral synthesis, Karhunen–Loève expansion and statistics.
//! * [`core`] — the SWM solver itself (3D and 2D) and the loss-enhancement
//!   factor computation.
//! * [`baselines`] — Hammerstad/Morgan, SPM2, HBM and Huray analytic models.
//! * [`stochastic`] — Monte-Carlo and sparse-grid stochastic collocation (SSCM).
//! * [`engine`] — the parallel, cache-aware batch engine: declarative
//!   [`Scenario`](engine::Scenario)s (stackup × roughness grid × frequency
//!   sweep × ensemble) planned into deduplicated work units and executed
//!   through the session-oriented [`Run`](engine::Run) API — pluggable
//!   executors (serial / thread pool / persistent socket workers),
//!   plan-order or cost-ordered scheduling, streamed
//!   [`RunEvent`](engine::RunEvent)s, and JSONL unit checkpoints that resume
//!   bit-identically.
//! * [`sweep`] — broadband frequency sweeps on top of the engine: adaptive
//!   refinement of a [`SweepScenario`](engine::SweepScenario) band with
//!   warm-state reuse until the exported piecewise-linear table meets the
//!   tolerance, and `Z(f)` CSV / Touchstone / SPICE effective-conductivity
//!   exports of that table.
//!
//! # Quickstart
//!
//! Compute the loss-enhancement factor `Pr/Ps` of a copper/SiO₂ interface with a
//! Gaussian-correlated roughness of σ = η = 1 µm at 5 GHz:
//!
//! ```
//! use roughsim::prelude::*;
//!
//! # fn main() -> Result<(), roughsim::core::SwmError> {
//! let stack = Stackup::new(Conductor::copper_foil(), Dielectric::silicon_dioxide());
//! let roughness = RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0));
//! let problem = SwmProblem::builder(stack, roughness)
//!     .frequency(GigaHertz::new(5.0).into())
//!     .cells_per_side(6) // small demonstration grid; the paper uses η/8
//!     .build()?;
//! let surface = problem.sample_surface(7);
//! let result = problem.solve(&surface)?;
//! // The coarse 6×6 demo grid carries a small low bias, so individual
//! // realizations are only guaranteed to clear 0.9 (finer grids recover
//! // Pr/Ps ≥ 1).
//! assert!(result.enhancement_factor() > 0.9);
//! # Ok(())
//! # }
//! ```

pub use rough_baselines as baselines;
pub use rough_core as core;
pub use rough_em as em;
pub use rough_engine as engine;
pub use rough_numerics as numerics;
pub use rough_service as service;
pub use rough_stochastic as stochastic;
pub use rough_surface as surface;
pub use rough_sweep as sweep;

/// Commonly used items, re-exported for convenient glob import.
///
/// # Engine entry points
///
/// Two levels of engine API are exported:
///
/// * [`Engine`](rough_engine::Engine) — the one-call facade:
///   `Engine::new().run(&scenario)` plans and executes on a hardware-sized
///   thread pool with a persistent kernel cache.
/// * [`Run`](rough_engine::Run) + [`RunConfig`](rough_engine::RunConfig) —
///   the session-oriented service API. A `RunConfig` picks the executor
///   ([`SerialExecutor`](rough_engine::SerialExecutor),
///   [`ThreadPoolExecutor`](rough_engine::ThreadPoolExecutor), or the
///   multi-process [`SocketExecutor`](rough_engine::SocketExecutor) —
///   persistent distributed workers with warm per-worker kernel caches and
///   bit-identical re-dispatch when a worker dies), the schedule
///   ([`PlanOrder`](rough_engine::PlanOrder) or longest-first
///   [`CostOrdered`](rough_engine::CostOrdered), optionally calibrated with a
///   measured [`CostTable`](rough_engine::CostTable)), an optional JSONL
///   checkpoint path, and an observer that receives typed
///   [`RunEvent`](rough_engine::RunEvent)s (`UnitStarted`, `UnitCompleted`
///   with worker-measured wall time, `CaseCompleted`, `WorkerLost`,
///   `CheckpointWritten`, `RunFinished` with cache statistics) while the
///   campaign executes.
///   [`Run::resume`](rough_engine::Run::resume) continues an interrupted
///   campaign from its checkpoint and — because all randomness is fixed at
///   plan time — produces a report bit-identical to an uninterrupted run,
///   under any executor or thread count.
///
/// Binaries that want multi-process execution must call
/// [`maybe_serve_worker`](rough_engine::subprocess::maybe_serve_worker)
/// first thing in `main`.
///
/// Above both sits the campaign service ([`rough_service`]): the `roughsimd`
/// daemon queues scenario submissions durably, streams run events to
/// watching [`Client`](rough_service::Client)s, resumes interrupted jobs
/// across daemon restarts, and serves finished reports from a cache
/// content-addressed by scenario fingerprint.
///
/// # Near-field assembly defaults
///
/// Every solver entry point ([`SwmProblem`](rough_core::SwmProblem),
/// [`Swm2dProblem`](rough_core::swm2d::Swm2dProblem), engine
/// [`Scenario`](rough_engine::Scenario)s) defaults to the **locally
/// corrected** near-field assembly,
/// `AssemblyScheme::LocallyCorrected(NearFieldPolicy { radius: 2.5, order: 4 })`:
/// the `1/R` (3D) / `ln R` (2D) static singularity is integrated analytically
/// over the exact tangent-plane cell geometry and the smooth remainder with
/// adaptive Gauss–Legendre quadrature, for every source cell within
/// `radius` cell sizes (minimum-image distance). It is the only near-field
/// scheme; raise `radius`/`order` through the respective `assembly(..)`
/// builder methods for high-accuracy reference runs. Every entry point
/// refuses an invalid policy (a radius that is not positive and finite or
/// exceeds 64 cell sizes, an order of 0 or above 64) with a typed error.
///
/// Orthogonally, [`KernelEval`](rough_core::KernelEval) selects how the
/// Ewald-summed periodic kernel is evaluated: the default
/// `KernelEval::Batched` assembles the MOM matrix in blocked row panels
/// through the batched kernel API (several times faster; see
/// `docs/ARCHITECTURE.md`), while
/// `KernelEval::Scalar` is the per-entry oracle the batched path is pinned
/// against (≤ 1e-12 relative agreement).
pub mod prelude {
    pub use rough_baselines::{
        hammerstad::HammerstadModel, hbm::HemisphericalBossModel, huray::HurayModel,
        spm2::Spm2Model, RoughnessLossModel,
    };
    pub use rough_core::{
        loss::LossResult, swm2d::Swm2dProblem, AssemblyParallelism, AssemblyScheme, AssemblyStats,
        KernelEval, MatrixFreePolicy, NearFieldPolicy, OperatorRepr, RoughnessSpec, SolverKind,
        SwmError, SwmProblem,
    };
    pub use rough_em::{
        material::{Conductor, Dielectric, Stackup},
        units::{GigaHertz, Hertz, Meters, Micrometers, OhmMeters},
    };
    pub use rough_engine::SweepScenario;
    pub use rough_engine::{
        CancelToken, CostOrdered, CostTable, Engine, PlanOrder, Run, RunConfig, RunEvent, Scenario,
        SerialExecutor, SocketExecutor, ThreadPoolExecutor,
    };
    pub use rough_numerics::complex::c64;
    pub use rough_service::{Client, Daemon, DaemonConfig, Priority};
    pub use rough_stochastic::{
        collocation::{SscmConfig, SscmResult},
        monte_carlo::{MonteCarloConfig, MonteCarloResult},
    };
    pub use rough_surface::{
        correlation::CorrelationFunction, generation::spectral::SpectralSurfaceGenerator,
        RoughSurface,
    };
    pub use rough_sweep::{EngineEvaluator, FrequencySweep, SweepOutcome};
}
