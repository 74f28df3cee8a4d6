//! Wire protocol of the campaign service.
//!
//! The daemon speaks the engine's length-prefixed frame format
//! ([`rough_engine::frame`]) on the same socket transports the distributed
//! executor uses; service frames claim the kind space from 32 upward so a
//! service endpoint can never be confused with an executor worker.
//!
//! Conversation shapes:
//!
//! * **Submit**: client sends [`kind::SUBMIT`] (wire-encoded scenario + watch
//!   flag + priority class), daemon replies [`kind::ACCEPTED`] (job id,
//!   scenario fingerprint, cached flag). When watching, the daemon then
//!   streams [`kind::EVENT`] frames (typed [`ServiceEvent`]s) until a
//!   terminal [`kind::JOB_DONE`].
//! * **Fetch**: client sends [`kind::FETCH`] (fingerprint), daemon replies
//!   [`kind::REPORT`] carrying the cached campaign checkpoint text, or
//!   [`kind::NOT_FOUND`].
//! * **Status**: [`kind::STATUS`] → [`kind::STATUS_REPORT`] (queue depths
//!   plus a per-job `(id, priority, state)` table).
//! * **Shutdown**: [`kind::SHUTDOWN`] → [`kind::BYE`], then the daemon drains
//!   and exits.
//!
//! # Versioning
//!
//! Every frame kind has exactly one payload layout, and every field in it is
//! required: a short payload is a protocol error, never a default. A layout
//! change bumps [`rough_engine::frame::VERSION`], which `read_frame` checks
//! on every frame, so peers of different revisions refuse each other at the
//! first header instead of misreading a payload.

use crate::queue::Priority;
use rough_engine::frame::{Frame, PayloadWriter};
use rough_engine::{EngineError, RunEvent};

/// Service frame kinds (executor kinds occupy 1..=8; service starts at 32).
pub mod kind {
    /// Client → daemon: submit a scenario (`scenario wire text`, `watch`).
    pub const SUBMIT: u8 = 32;
    /// Daemon → client: submission accepted (`job`, `fingerprint`, `cached`).
    pub const ACCEPTED: u8 = 33;
    /// Daemon → client: one typed run event of a watched job.
    pub const EVENT: u8 = 34;
    /// Daemon → client: terminal job outcome (`job`, `ok`, `error`).
    pub const JOB_DONE: u8 = 35;
    /// Client → daemon: fetch a cached report by scenario fingerprint.
    pub const FETCH: u8 = 36;
    /// Daemon → client: cached report (`fingerprint`, checkpoint JSONL text).
    pub const REPORT: u8 = 37;
    /// Daemon → client: no cached report under that fingerprint.
    pub const NOT_FOUND: u8 = 38;
    /// Client → daemon: request queue counters.
    pub const STATUS: u8 = 39;
    /// Daemon → client: queue counters (`queued`, `running`, `done`, `failed`).
    pub const STATUS_REPORT: u8 = 40;
    /// Client → daemon: stop accepting work and exit after the current job.
    pub const SHUTDOWN: u8 = 41;
    /// Daemon → client: shutdown acknowledged.
    pub const BYE: u8 = 42;
}

fn protocol_error(reason: impl Into<String>) -> EngineError {
    EngineError::Socket(format!("service protocol: {}", reason.into()))
}

/// The subset of [`RunEvent`] the daemon streams to watching clients,
/// flattened into wire-friendly scalars.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// An executor picked up a unit.
    UnitStarted {
        /// Unit id (position in the plan).
        unit: u64,
        /// Index of the owning case.
        case: u64,
    },
    /// A unit finished; its value survives bit-exactly.
    UnitCompleted {
        /// Unit id.
        unit: u64,
        /// Index of the owning case.
        case: u64,
        /// The committed enhancement-factor value.
        value: f64,
        /// True when the unit's solve escalated off the requested solver
        /// (e.g. a Krylov breakdown rescued by the dense fallback).
        degraded: bool,
    },
    /// Every unit of one case completed.
    CaseCompleted {
        /// Case index.
        case: u64,
        /// Units the case scheduled.
        units: u64,
    },
    /// A distributed worker died; its units were re-queued.
    WorkerLost {
        /// Worker index within its executor.
        worker: u64,
        /// Units returned to the dispatch queue.
        requeued: u64,
    },
    /// The socket executor's circuit breaker stopped respawning a flapping
    /// worker; the run continues on the surviving fleet.
    FleetDegraded {
        /// Workers still serving the run.
        active: u64,
        /// Workers the executor was configured with.
        configured: u64,
    },
    /// A record was durably appended to the job checkpoint.
    CheckpointWritten {
        /// Records now resident in the checkpoint.
        units_recorded: u64,
    },
    /// The run finished.
    Finished {
        /// Units evaluated.
        units: u64,
        /// Wall-clock seconds of the run.
        wall_seconds: f64,
    },
    /// An adaptive sweep solved one frequency point.
    SweepPoint {
        /// Points solved so far.
        solved: u64,
        /// Total sweep point budget.
        budget: u64,
        /// The solved frequency in Hz.
        frequency_hz: f64,
    },
}

impl ServiceEvent {
    /// Maps an engine [`RunEvent`] onto its wire form.
    pub fn from_run_event(event: &RunEvent) -> Self {
        match event {
            RunEvent::UnitStarted { unit, case_index } => ServiceEvent::UnitStarted {
                unit: *unit as u64,
                case: *case_index as u64,
            },
            RunEvent::UnitCompleted { record, .. } => ServiceEvent::UnitCompleted {
                unit: record.unit as u64,
                case: record.case_index as u64,
                value: record.value,
                degraded: record.degraded,
            },
            RunEvent::CaseCompleted { case_index, units } => ServiceEvent::CaseCompleted {
                case: *case_index as u64,
                units: *units as u64,
            },
            RunEvent::WorkerLost { worker, requeued } => ServiceEvent::WorkerLost {
                worker: *worker as u64,
                requeued: *requeued as u64,
            },
            RunEvent::FleetDegraded { active, configured } => ServiceEvent::FleetDegraded {
                active: *active as u64,
                configured: *configured as u64,
            },
            RunEvent::CheckpointWritten { units_recorded } => ServiceEvent::CheckpointWritten {
                units_recorded: *units_recorded as u64,
            },
            RunEvent::RunFinished {
                units, wall_time, ..
            } => ServiceEvent::Finished {
                units: *units as u64,
                wall_seconds: wall_time.as_secs_f64(),
            },
            RunEvent::SweepPointSolved {
                frequency_hz,
                solved,
                budget,
                ..
            } => ServiceEvent::SweepPoint {
                solved: *solved as u64,
                budget: *budget as u64,
                frequency_hz: *frequency_hz,
            },
        }
    }

    /// Encodes the event as an [`kind::EVENT`] frame for `job`:
    /// `(job, tag, a, b, value bits, degraded)`, where `degraded` is 1 only
    /// for a [`ServiceEvent::UnitCompleted`] whose solve escalated.
    pub fn encode(&self, job: u64) -> Frame {
        let (tag, a, b, value) = match *self {
            ServiceEvent::UnitStarted { unit, case } => (1, unit, case, 0.0),
            ServiceEvent::UnitCompleted {
                unit, case, value, ..
            } => (2, unit, case, value),
            ServiceEvent::CaseCompleted { case, units } => (3, case, units, 0.0),
            ServiceEvent::WorkerLost { worker, requeued } => (4, worker, requeued, 0.0),
            ServiceEvent::CheckpointWritten { units_recorded } => (5, units_recorded, 0, 0.0),
            ServiceEvent::Finished {
                units,
                wall_seconds,
            } => (6, units, 0, wall_seconds),
            ServiceEvent::SweepPoint {
                solved,
                budget,
                frequency_hz,
            } => (7, solved, budget, frequency_hz),
            ServiceEvent::FleetDegraded { active, configured } => (8, active, configured, 0.0),
        };
        let degraded = matches!(self, ServiceEvent::UnitCompleted { degraded: true, .. });
        PayloadWriter::new()
            .u64(job)
            .u64(tag)
            .u64(a)
            .u64(b)
            .f64_bits(value)
            .u64(u64::from(degraded))
            .frame(kind::EVENT)
    }

    /// Decodes an [`kind::EVENT`] frame into `(job, event)`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on a truncated payload or unknown tag.
    pub fn decode(frame: &Frame) -> Result<(u64, Self), EngineError> {
        let mut reader = frame.reader();
        let job = reader.u64()?;
        let tag = reader.u64()?;
        let a = reader.u64()?;
        let b = reader.u64()?;
        let value = reader.f64_bits()?;
        let degraded = reader.u64()? != 0;
        let event = match tag {
            1 => ServiceEvent::UnitStarted { unit: a, case: b },
            2 => ServiceEvent::UnitCompleted {
                unit: a,
                case: b,
                value,
                degraded,
            },
            3 => ServiceEvent::CaseCompleted { case: a, units: b },
            4 => ServiceEvent::WorkerLost {
                worker: a,
                requeued: b,
            },
            5 => ServiceEvent::CheckpointWritten { units_recorded: a },
            6 => ServiceEvent::Finished {
                units: a,
                wall_seconds: value,
            },
            7 => ServiceEvent::SweepPoint {
                solved: a,
                budget: b,
                frequency_hz: value,
            },
            8 => ServiceEvent::FleetDegraded {
                active: a,
                configured: b,
            },
            other => return Err(protocol_error(format!("unknown event tag {other}"))),
        };
        Ok((job, event))
    }
}

/// Encodes a [`kind::SUBMIT`] frame: `(scenario wire text, watch, priority
/// class)`.
pub fn encode_submit(scenario_wire: &str, watch: bool, priority: Priority) -> Frame {
    PayloadWriter::new()
        .str(scenario_wire)
        .u64(u64::from(watch))
        .u64(u64::from(priority.class()))
        .frame(kind::SUBMIT)
}

/// Decodes a priority class word.
fn decode_priority(word: u64) -> Result<Priority, EngineError> {
    u8::try_from(word)
        .ok()
        .and_then(Priority::from_class)
        .ok_or_else(|| protocol_error(format!("unknown priority class {word}")))
}

/// Decodes a [`kind::SUBMIT`] frame into `(scenario wire text, watch,
/// priority)`.
///
/// # Errors
///
/// Returns [`EngineError::Socket`] on a truncated payload or an unknown
/// priority class.
pub fn decode_submit(frame: &Frame) -> Result<(String, bool, Priority), EngineError> {
    let mut reader = frame.reader();
    let wire = reader.str()?;
    let watch = reader.u64()? != 0;
    let priority = decode_priority(reader.u64()?)?;
    Ok((wire, watch, priority))
}

/// Encodes a [`kind::ACCEPTED`] frame.
pub fn encode_accepted(job: u64, fingerprint: u64, cached: bool) -> Frame {
    PayloadWriter::new()
        .u64(job)
        .u64(fingerprint)
        .u64(u64::from(cached))
        .frame(kind::ACCEPTED)
}

/// Decodes a [`kind::ACCEPTED`] frame into `(job, fingerprint, cached)`.
///
/// # Errors
///
/// Returns [`EngineError::Socket`] on a truncated payload.
pub fn decode_accepted(frame: &Frame) -> Result<(u64, u64, bool), EngineError> {
    let mut reader = frame.reader();
    Ok((reader.u64()?, reader.u64()?, reader.u64()? != 0))
}

/// Encodes a [`kind::JOB_DONE`] frame (`error` is empty on success).
pub fn encode_job_done(job: u64, result: Result<(), &str>) -> Frame {
    PayloadWriter::new()
        .u64(job)
        .u64(u64::from(result.is_ok()))
        .str(result.err().unwrap_or(""))
        .frame(kind::JOB_DONE)
}

/// Decodes a [`kind::JOB_DONE`] frame into `(job, outcome)`.
///
/// # Errors
///
/// Returns [`EngineError::Socket`] on a truncated payload.
pub fn decode_job_done(frame: &Frame) -> Result<(u64, Result<(), String>), EngineError> {
    let mut reader = frame.reader();
    let job = reader.u64()?;
    let ok = reader.u64()? != 0;
    let error = reader.str()?;
    Ok((job, if ok { Ok(()) } else { Err(error) }))
}

/// Encodes a [`kind::FETCH`] frame.
pub fn encode_fetch(fingerprint: u64) -> Frame {
    PayloadWriter::new().u64(fingerprint).frame(kind::FETCH)
}

/// Decodes a [`kind::FETCH`] frame into the requested fingerprint.
///
/// # Errors
///
/// Returns [`EngineError::Socket`] on a truncated payload.
pub fn decode_fetch(frame: &Frame) -> Result<u64, EngineError> {
    frame.reader().u64()
}

/// Encodes a [`kind::REPORT`] frame carrying cached checkpoint text.
pub fn encode_report(fingerprint: u64, checkpoint_text: &str) -> Frame {
    PayloadWriter::new()
        .u64(fingerprint)
        .str(checkpoint_text)
        .frame(kind::REPORT)
}

/// Decodes a [`kind::REPORT`] frame into `(fingerprint, checkpoint text)`.
///
/// # Errors
///
/// Returns [`EngineError::Socket`] on a truncated payload.
pub fn decode_report(frame: &Frame) -> Result<(u64, String), EngineError> {
    let mut reader = frame.reader();
    Ok((reader.u64()?, reader.str()?))
}

/// Queue depth counters returned by [`kind::STATUS_REPORT`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStatus {
    /// Jobs waiting to run.
    pub queued: u64,
    /// Jobs currently executing (up to the daemon's `max_concurrent_jobs`).
    pub running: u64,
    /// Jobs completed with a cached report.
    pub done: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Poison jobs: failed every retry [`crate::daemon::JOB_RETRIES_ENV`]
    /// allows.
    pub quarantined: u64,
}

/// One row of the per-job table of [`kind::STATUS_REPORT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSummary {
    /// Job id.
    pub id: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Lifecycle state label: `queued`, `running`, `done`, `failed` or
    /// `quarantined`.
    pub state: &'static str,
}

fn state_tag(label: &str) -> u64 {
    match label {
        "queued" => 0,
        "running" => 1,
        "done" => 2,
        "quarantined" => 4,
        _ => 3,
    }
}

fn state_label(tag: u64) -> &'static str {
    match tag {
        0 => "queued",
        1 => "running",
        2 => "done",
        4 => "quarantined",
        _ => "failed",
    }
}

/// Encodes a [`kind::STATUS_REPORT`] frame: the `queued`, `running`,
/// `done` and `failed` counters, the per-job table (`count`, then
/// `(id, priority class, state tag)` triples), then the `quarantined`
/// counter.
pub fn encode_status_report(status: QueueStatus, jobs: &[JobSummary]) -> Frame {
    let mut writer = PayloadWriter::new()
        .u64(status.queued)
        .u64(status.running)
        .u64(status.done)
        .u64(status.failed)
        .u64(jobs.len() as u64);
    for job in jobs {
        writer = writer
            .u64(job.id)
            .u64(u64::from(job.priority.class()))
            .u64(state_tag(job.state));
    }
    writer.u64(status.quarantined).frame(kind::STATUS_REPORT)
}

/// Decodes a [`kind::STATUS_REPORT`] frame into the counters and the per-job
/// table.
///
/// # Errors
///
/// Returns [`EngineError::Socket`] on a truncated payload or an unknown
/// priority class.
pub fn decode_status_detail(frame: &Frame) -> Result<(QueueStatus, Vec<JobSummary>), EngineError> {
    let mut reader = frame.reader();
    let (queued, running, done, failed) =
        (reader.u64()?, reader.u64()?, reader.u64()?, reader.u64()?);
    let count = reader.u64()?;
    let mut jobs = Vec::new();
    for _ in 0..count {
        jobs.push(JobSummary {
            id: reader.u64()?,
            priority: decode_priority(reader.u64()?)?,
            state: state_label(reader.u64()?),
        });
    }
    let status = QueueStatus {
        queued,
        running,
        done,
        failed,
        quarantined: reader.u64()?,
    };
    Ok((status, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_and_accepted_roundtrip() {
        let frame = encode_submit("scenario wire\nblock", true, Priority::Batch);
        assert_eq!(frame.kind, kind::SUBMIT);
        let (wire, watch, priority) = decode_submit(&frame).unwrap();
        assert_eq!(wire, "scenario wire\nblock");
        assert!(watch);
        assert_eq!(priority, Priority::Batch);

        let frame = encode_accepted(7, 0xDEAD_BEEF, false);
        assert_eq!(decode_accepted(&frame).unwrap(), (7, 0xDEAD_BEEF, false));
    }

    #[test]
    fn submit_frames_without_a_known_priority_are_refused() {
        // Both a priority-less SUBMIT and one carrying an unknown class are
        // refused; the daemon answers either with ERR.
        let no_priority = PayloadWriter::new()
            .str("scenario wire")
            .u64(1)
            .frame(kind::SUBMIT);
        assert!(decode_submit(&no_priority).is_err());
        let unknown = PayloadWriter::new()
            .str("scenario wire")
            .u64(0)
            .u64(99)
            .frame(kind::SUBMIT);
        let error = decode_submit(&unknown).unwrap_err().to_string();
        assert!(error.contains("unknown priority class 99"), "{error}");
    }

    #[test]
    fn events_roundtrip_with_bit_exact_values() {
        let value = 0.1f64 + 0.2;
        let events = [
            ServiceEvent::UnitStarted { unit: 3, case: 1 },
            ServiceEvent::UnitCompleted {
                unit: 3,
                case: 1,
                value,
                degraded: false,
            },
            ServiceEvent::UnitCompleted {
                unit: 3,
                case: 1,
                value,
                degraded: true,
            },
            ServiceEvent::CaseCompleted { case: 1, units: 4 },
            ServiceEvent::WorkerLost {
                worker: 0,
                requeued: 2,
            },
            ServiceEvent::FleetDegraded {
                active: 2,
                configured: 4,
            },
            ServiceEvent::CheckpointWritten { units_recorded: 5 },
            ServiceEvent::Finished {
                units: 6,
                wall_seconds: 1.25,
            },
        ];
        for event in events {
            let frame = event.encode(42);
            let (job, decoded) = ServiceEvent::decode(&frame).unwrap();
            assert_eq!(job, 42);
            assert_eq!(decoded, event);
        }
        // Bit-exactness of the completed value specifically.
        let frame = ServiceEvent::UnitCompleted {
            unit: 0,
            case: 0,
            value,
            degraded: false,
        }
        .encode(1);
        match ServiceEvent::decode(&frame).unwrap().1 {
            ServiceEvent::UnitCompleted { value: decoded, .. } => {
                assert_eq!(decoded.to_bits(), value.to_bits());
            }
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn job_done_carries_errors() {
        let (job, outcome) = decode_job_done(&encode_job_done(9, Ok(()))).unwrap();
        assert_eq!(job, 9);
        assert!(outcome.is_ok());
        let (_, outcome) = decode_job_done(&encode_job_done(9, Err("solve failed"))).unwrap();
        assert_eq!(outcome.unwrap_err(), "solve failed");
    }

    #[test]
    fn reports_and_status_roundtrip() {
        let (fp, text) = decode_report(&encode_report(0xF00D, "header\nrecord\n")).unwrap();
        assert_eq!(fp, 0xF00D);
        assert_eq!(text, "header\nrecord\n");
        assert_eq!(decode_fetch(&encode_fetch(0xF00D)).unwrap(), 0xF00D);

        let status = QueueStatus {
            queued: 1,
            running: 2,
            done: 3,
            failed: 0,
            quarantined: 1,
        };
        let jobs = [
            JobSummary {
                id: 1,
                priority: Priority::High,
                state: "running",
            },
            JobSummary {
                id: 2,
                priority: Priority::Batch,
                state: "queued",
            },
            JobSummary {
                id: 3,
                priority: Priority::Normal,
                state: "quarantined",
            },
        ];
        let frame = encode_status_report(status, &jobs);
        let (decoded, table) = decode_status_detail(&frame).unwrap();
        assert_eq!(decoded, status);
        assert_eq!(table, jobs);
    }
}
