//! # rough-sweep
//!
//! Broadband frequency-sweep driver: adaptive sampling of the roughness-loss
//! curve, warm-state reuse across frequency points and circuit-compatible
//! export.
//!
//! Chen & Wong's headline artifact (Fig. 5/6 of DATE 2009) is a *curve*:
//! the power-loss enhancement factor `K(f)` of one rough interconnect swept
//! across a frequency band. Each point of that curve is a full SWM campaign
//! — MOM assembly, dense or Krylov solve, possibly an ensemble — so the
//! broadband question is really a sampling-budget question: where must the
//! expensive solves land so that the *whole* curve is known to tolerance?
//! This crate answers it in three layers:
//!
//! 1. **Adaptive refinement** ([`adaptive`]) — [`FrequencySweep`] drives a
//!    [`rough_engine::SweepScenario`]: a coarse log-spaced scan, then rounds
//!    of bisection wherever the piecewise-linear table through the solved
//!    points misses a local barycentric rational interpolant at an
//!    interval's midpoint by more than the sweep tolerance, until the table
//!    meets the tolerance everywhere or the point budget is spent. Candidate
//!    selection is fully deterministic, so resumed sweeps retrace the same
//!    refinement path bit for bit.
//! 2. **Warm evaluation** ([`evaluate`]) — the [`SweepEvaluator`] trait
//!    turns one round of frequency points into solved loss factors.
//!    [`EngineEvaluator`] executes rounds in-process through a single shared
//!    [`rough_engine::KernelCache`], so the KL basis, geometry-driven
//!    matrix-free generator tables and other frequency-independent state
//!    built for point *i* are reused at point *i + 1*; cache counters are
//!    accumulated into the outcome so the reuse is observable. Rounds are
//!    checkpointed per frequency point and resume bit-identically.
//! 3. **Export** ([`export`]) — the table is the sweep's one curve model:
//!    it is written as a `Z(f)` CSV table, a Touchstone-style one-port
//!    impedance file and a SPICE-friendly effective-conductivity table, and
//!    its measured error travels with it as [`SweepOutcome::table_error`].

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod evaluate;
pub mod export;

pub use adaptive::{FrequencySweep, SweepOutcome};
pub use evaluate::{EngineEvaluator, RoundOutcome, SweepEvaluator, SweepPoint};
pub use export::{spice_table, touchstone, write_exports, zf_csv};
