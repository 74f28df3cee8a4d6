//! Blocking client of the campaign daemon.
//!
//! Every operation dials a fresh connection, performs one protocol
//! conversation and returns. [`Client::submit_watch`] keeps its connection
//! open to stream [`ServiceEvent`]s until the job settles.
//!
//! Fetched reports arrive as engine checkpoint text; [`Client::fetch_report`]
//! rebuilds the full [`CampaignReport`] locally by re-planning the embedded
//! scenario and aggregating the fetched records — because every record's
//! value travels as exact f64 bit patterns end to end, the rebuilt report is
//! bit-identical to the one the daemon computed.

use crate::protocol::{self, kind, JobSummary, QueueStatus, ServiceEvent};
use crate::queue::Priority;
use rough_engine::frame::{self, read_frame, write_frame, Frame};
use rough_engine::{
    checkpoint, report_from_records, wire, CampaignReport, EngineError, Plan, Scenario,
};
use std::net::TcpStream;

fn client_error(reason: impl Into<String>) -> EngineError {
    EngineError::Socket(format!("client: {}", reason.into()))
}

/// Outcome of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Job id assigned (or shared, for duplicate submissions) by the daemon.
    pub job: u64,
    /// Scenario fingerprint — the key for [`Client::fetch_report`].
    pub fingerprint: u64,
    /// Whether a cached report already existed for this fingerprint.
    pub cached: bool,
}

/// A campaign daemon client bound to one `host:port` address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// Creates a client for the daemon at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into() }
    }

    fn dial(&self) -> Result<TcpStream, EngineError> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| client_error(format!("cannot reach daemon at {}: {e}", self.addr)))?;
        stream.set_nodelay(true).ok();
        Ok(stream)
    }

    fn expect_reply(stream: &mut TcpStream, expected: u8) -> Result<Frame, EngineError> {
        let frame = read_frame(stream)?;
        if frame.kind == frame::kind::ERR {
            let message = frame.reader().str().unwrap_or_default();
            return Err(client_error(format!("daemon rejected request: {message}")));
        }
        if frame.kind != expected {
            return Err(client_error(format!(
                "expected frame kind {expected}, got {}",
                frame.kind
            )));
        }
        Ok(frame)
    }

    /// Submits a scenario without watching; returns immediately after the
    /// daemon accepts (or dedupes) it. Submits at [`Priority::Normal`]; see
    /// [`Client::submit_priority`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on connection or protocol failure.
    pub fn submit(&self, scenario: &Scenario) -> Result<Submission, EngineError> {
        self.submit_priority(scenario, Priority::Normal)
    }

    /// Submits a scenario at an explicit priority class without watching.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on connection or protocol failure.
    pub fn submit_priority(
        &self,
        scenario: &Scenario,
        priority: Priority,
    ) -> Result<Submission, EngineError> {
        let mut stream = self.dial()?;
        write_frame(
            &mut stream,
            &protocol::encode_submit(&wire::encode_scenario(scenario), false, priority),
        )?;
        let frame = Self::expect_reply(&mut stream, kind::ACCEPTED)?;
        let (job, fingerprint, cached) = protocol::decode_accepted(&frame)?;
        Ok(Submission {
            job,
            fingerprint,
            cached,
        })
    }

    /// Submits a scenario and streams its [`ServiceEvent`]s into `on_event`
    /// until the job settles; returns the submission and the job outcome.
    /// Submits at [`Priority::Normal`]; see [`Client::submit_watch_priority`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on connection or protocol failure (a
    /// *job* failure is reported in the returned outcome, not as an error).
    pub fn submit_watch(
        &self,
        scenario: &Scenario,
        on_event: impl FnMut(&ServiceEvent),
    ) -> Result<(Submission, Result<(), String>), EngineError> {
        self.submit_watch_priority(scenario, Priority::Normal, on_event)
    }

    /// Submits a scenario at an explicit priority class and streams its
    /// [`ServiceEvent`]s into `on_event` until the job settles.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on connection or protocol failure (a
    /// *job* failure is reported in the returned outcome, not as an error).
    pub fn submit_watch_priority(
        &self,
        scenario: &Scenario,
        priority: Priority,
        mut on_event: impl FnMut(&ServiceEvent),
    ) -> Result<(Submission, Result<(), String>), EngineError> {
        let mut stream = self.dial()?;
        write_frame(
            &mut stream,
            &protocol::encode_submit(&wire::encode_scenario(scenario), true, priority),
        )?;
        let frame = Self::expect_reply(&mut stream, kind::ACCEPTED)?;
        let (job, fingerprint, cached) = protocol::decode_accepted(&frame)?;
        let submission = Submission {
            job,
            fingerprint,
            cached,
        };
        loop {
            let frame = read_frame(&mut stream)?;
            match frame.kind {
                kind::EVENT => {
                    let (event_job, event) = ServiceEvent::decode(&frame)?;
                    if event_job == job {
                        on_event(&event);
                    }
                }
                kind::JOB_DONE => {
                    let (done_job, outcome) = protocol::decode_job_done(&frame)?;
                    if done_job == job {
                        return Ok((submission, outcome));
                    }
                }
                other => {
                    return Err(client_error(format!(
                        "unexpected frame kind {other} while watching job {job}"
                    )));
                }
            }
        }
    }

    /// Fetches the cached report checkpoint text for `fingerprint`, or `None`
    /// when the daemon has nothing cached under that key.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on connection or protocol failure.
    pub fn fetch_checkpoint(&self, fingerprint: u64) -> Result<Option<String>, EngineError> {
        let mut stream = self.dial()?;
        write_frame(&mut stream, &protocol::encode_fetch(fingerprint))?;
        let frame = read_frame(&mut stream)?;
        match frame.kind {
            kind::REPORT => {
                let (got, text) = protocol::decode_report(&frame)?;
                if got != fingerprint {
                    return Err(client_error(format!(
                        "daemon answered fingerprint {got:016x}, asked {fingerprint:016x}"
                    )));
                }
                Ok(Some(text))
            }
            kind::NOT_FOUND => Ok(None),
            other => Err(client_error(format!("unexpected frame kind {other}"))),
        }
    }

    /// Fetches and **rebuilds** the cached [`CampaignReport`] for
    /// `fingerprint`: parses the checkpoint text, re-plans its embedded
    /// scenario and aggregates the records — bit-identical to the report the
    /// daemon computed. Returns `None` when nothing is cached.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on transport failure and
    /// [`EngineError::Checkpoint`] when the fetched checkpoint is incomplete
    /// or corrupt.
    pub fn fetch_report(&self, fingerprint: u64) -> Result<Option<CampaignReport>, EngineError> {
        let Some(text) = self.fetch_checkpoint(fingerprint)? else {
            return Ok(None);
        };
        let parsed = checkpoint::parse(&text)?;
        let scenario = parsed.header.scenario()?;
        let plan = Plan::new(&scenario)?;
        let mut records = parsed.records;
        records.sort_by_key(|r| r.unit);
        Ok(Some(report_from_records(&plan, records)?))
    }

    /// Asks the daemon for its queue depths.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on connection or protocol failure.
    pub fn status(&self) -> Result<QueueStatus, EngineError> {
        self.status_detail().map(|(status, _)| status)
    }

    /// Asks the daemon for its queue depths plus the per-job
    /// `(id, priority, state)` table.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on connection or protocol failure.
    pub fn status_detail(&self) -> Result<(QueueStatus, Vec<JobSummary>), EngineError> {
        let mut stream = self.dial()?;
        write_frame(&mut stream, &Frame::empty(kind::STATUS))?;
        let frame = Self::expect_reply(&mut stream, kind::STATUS_REPORT)?;
        protocol::decode_status_detail(&frame)
    }

    /// Requests daemon shutdown and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Socket`] on connection or protocol failure.
    pub fn shutdown(&self) -> Result<(), EngineError> {
        let mut stream = self.dial()?;
        write_frame(&mut stream, &Frame::empty(kind::SHUTDOWN))?;
        Self::expect_reply(&mut stream, kind::BYE)?;
        Ok(())
    }
}
