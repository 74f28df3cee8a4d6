//! # rough-service
//!
//! The campaign service layer: a long-running daemon (`roughsimd`) that
//! accepts [`rough_engine::Scenario`] submissions over the engine's socket
//! framing, queues them durably with priority classes
//! ([`queue::Priority`]), executes up to `ROUGHSIMD_JOBS` campaigns
//! concurrently — each runner on its own core-budget slice — with any
//! configured executor (including the distributed
//! [`rough_engine::SocketExecutor`]), streams typed run events to watching
//! clients, and serves finished [`rough_engine::CampaignReport`]s from a
//! content-addressed cache keyed by scenario fingerprint — plus the matching
//! blocking [`Client`] (`roughsim-client`).
//!
//! Module map:
//!
//! * [`protocol`] — service frame kinds (32+) and payload codecs over
//!   [`rough_engine::frame`], one layout per frame kind.
//! * [`queue`] — the persistent JSONL job journal with open-time compaction,
//!   priority/aging dispatch, per-job engine checkpoints and the published
//!   report cache.
//! * [`daemon`] — accept loop, connection handlers, the runner pool with
//!   restart-resume of every interrupted campaign, and event broadcast to
//!   watchers.
//! * [`client`] — blocking submit / watch / fetch / status / shutdown.
//! * [`sweep`] — [`DaemonEvaluator`], running broadband adaptive sweeps
//!   round by round through the daemon (each round dedupes against the
//!   report cache).
//! * [`presets`] — named scenarios and sweeps shared by the client CLI and
//!   CI smoke tests.
//!
//! The report cache is bounded by the `ROUGHSIMD_CACHE_BUDGET` environment
//! variable (bytes; unset = unbounded; [`Daemon::start`] reads it once with
//! `ROUGHSIMD_JOBS` and `ROUGHSIMD_JOB_RETRIES` and refuses a malformed
//! value): least-recently-used reports are
//! evicted first, with recency journaled so the order survives restarts.
//!
//! Durability story: submissions are journaled before they are acknowledged;
//! campaigns checkpoint per unit; a daemon killed at any point restarts with
//! *all* unfinished jobs re-queued — however many were running concurrently
//! — and resumes each via [`rough_engine::Run::resume`] — reports come out
//! bit-identical to an uninterrupted run, which the service integration
//! tests pin.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod daemon;
pub mod presets;
pub mod protocol;
pub mod queue;
pub mod sweep;

pub use client::{Client, Submission};
pub use daemon::{Daemon, DaemonConfig, CACHE_BUDGET_ENV, JOBS_ENV, JOB_RETRIES_ENV};
pub use protocol::{JobSummary, QueueStatus, ServiceEvent};
pub use queue::{Job, JobQueue, JobState, Priority};
pub use sweep::DaemonEvaluator;
