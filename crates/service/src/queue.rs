//! Persistent job queue.
//!
//! The daemon journals every job transition to `queue.jsonl` under its state
//! directory — the same single-line-JSON discipline as the engine's
//! checkpoint format, and with the same tolerance: torn tails and malformed
//! lines are skipped on replay, and opening the queue compacts the journal
//! (rewrite via temp file + atomic rename) so retries never accumulate
//! garbage. Each job's campaign progress lives in its own engine checkpoint
//! under `jobs/<id>.jsonl`, and completed campaigns are published to
//! `reports/<fingerprint>.jsonl` — the content-addressed report cache.
//!
//! Replay restores daemon state across restarts: `done`/`failed`/
//! `quarantined` jobs keep their terminal state, while jobs that were
//! `running` when the daemon died
//! are re-queued — their partial checkpoints let [`rough_engine::Run::resume`]
//! continue from the last completed unit. With a multi-runner daemon several
//! jobs may be `running` at once; every one of them re-queues and resumes.
//!
//! Jobs carry a [`Priority`] class (`high` / `normal` / `batch`). Dispatch
//! order is score-based: `class × AGE_STEP − age`, smallest score (then
//! smallest id) first, and every dispatch ages the passed-over queued jobs by
//! one. Aging preserves FIFO order among existing waiters and bounds
//! starvation: once a batch job has waited `AGE_STEP × class` dispatches, its
//! score ties a fresh high-priority submission and its smaller id wins the
//! tie. Journal lines without a `priority` field (written by older daemons)
//! replay as `normal`, so existing `queue.jsonl` files keep working.
//!
//! The report cache is bounded: with a budget set
//! ([`JobQueue::set_cache_budget`]; the daemon reads `ROUGHSIMD_CACHE_BUDGET`),
//! publishing a report evicts the least-recently-used cached reports until
//! the cache fits the budget. Recency is journaled as `touch` records — every
//! publish and every served fetch refreshes its report — so the LRU order
//! survives restarts, and the hottest entry is never evicted (the report just
//! published or fetched always lands). An evicted fingerprint simply
//! recomputes on its next submission; eviction never breaks correctness,
//! only the cache hit.

use rough_engine::checkpoint::{extract_str, extract_u64};
use rough_engine::{wire, EngineError};
use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use crate::protocol::QueueStatus;

/// Scheduling class of a job. Ordering is urgency: `High < Normal < Batch`,
/// so `a < b` means "a is more urgent than b".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Dispatched before everything else (interactive submissions).
    High,
    /// The default class; also what priority-less journal lines (written
    /// before priorities existed) replay as.
    #[default]
    Normal,
    /// Background work: yields to high/normal until aging promotes it.
    Batch,
}

impl Priority {
    /// Numeric class used by the dispatch score and the wire encoding:
    /// 0 = high, 1 = normal, 2 = batch.
    pub fn class(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Inverse of [`Priority::class`].
    pub fn from_class(class: u8) -> Option<Self> {
        match class {
            0 => Some(Priority::High),
            1 => Some(Priority::Normal),
            2 => Some(Priority::Batch),
            _ => None,
        }
    }

    /// Journal / CLI token.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Parses a journal / CLI token.
    pub fn parse(token: &str) -> Option<Self> {
        match token {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// Dispatches a queued job ages every passed-over queued job by one; a job's
/// score is `class × AGE_STEP − age`, so after `class × AGE_STEP` dispatches
/// spent waiting, any job ties the score of a brand-new high submission and
/// wins the tie on its smaller id. This is the anti-starvation bound the
/// property tests assert.
pub const AGE_STEP: u64 = 4;

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for the runner.
    Queued,
    /// Executing now.
    Running,
    /// Finished; the report is cached under the job's fingerprint.
    Done,
    /// Failed with an error message.
    Failed(String),
    /// Poison job: failed on every retry the daemon allows. Quarantined jobs
    /// are terminal like `Failed` — they never re-queue, never block a
    /// runner, and resubmitting their fingerprint schedules a fresh job —
    /// but they are counted separately so operators can spot jobs that
    /// exhausted a retry budget rather than failing once.
    Quarantined(String),
}

impl JobState {
    /// Journal / STATUS token: `queued`, `running`, `done`, `failed` or
    /// `quarantined`.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Quarantined(_) => "quarantined",
        }
    }
}

/// One submitted campaign.
#[derive(Debug, Clone)]
pub struct Job {
    /// Monotonic id assigned at submission.
    pub id: u64,
    /// Fingerprint of the wire-encoded scenario (the report cache key).
    pub fingerprint: u64,
    /// Wire-encoded scenario text.
    pub scenario_wire: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Scheduling class.
    pub priority: Priority,
    /// Failed runs so far. Journaled, so the daemon's quarantine threshold
    /// (`ROUGHSIMD_JOB_RETRIES`) keeps counting across restarts.
    pub attempts: u64,
    /// Dispatches this job has been passed over for while queued. In-memory
    /// only — a restart resets ages, which merely restarts the (bounded)
    /// anti-starvation clock.
    age: u64,
}

impl Job {
    /// Dispatch score: smaller runs sooner; ties break on smaller id.
    fn score(&self) -> i64 {
        i64::from(self.priority.class()) * (AGE_STEP as i64) - self.age as i64
    }
}

fn queue_error(reason: impl Into<String>) -> EngineError {
    EngineError::Checkpoint(format!("job queue: {}", reason.into()))
}

fn job_line(job: &Job) -> String {
    // `priority` is appended last: journals written before the field existed
    // parse the same way (absent ⇒ `normal`), and older replay code simply
    // never looks for the key.
    format!(
        "{{\"kind\":\"job\",\"id\":{},\"fingerprint\":\"{:016x}\",\"scenario\":\"{}\",\"priority\":\"{}\"}}",
        job.id,
        job.fingerprint,
        wire::encode_token(&job.scenario_wire),
        job.priority.label()
    )
}

/// Journals a priority upgrade of an already-submitted job (dedupe
/// resubmission at a more urgent class).
fn priority_line(id: u64, priority: Priority) -> String {
    format!(
        "{{\"kind\":\"priority\",\"id\":{id},\"priority\":\"{}\"}}",
        priority.label()
    )
}

fn state_line(id: u64, state: &JobState) -> String {
    match state {
        JobState::Failed(error) | JobState::Quarantined(error) => format!(
            "{{\"kind\":\"state\",\"id\":{id},\"state\":\"{}\",\"error\":\"{}\"}}",
            state.label(),
            wire::encode_token(error)
        ),
        other => format!(
            "{{\"kind\":\"state\",\"id\":{id},\"state\":\"{}\"}}",
            other.label()
        ),
    }
}

/// Journals a job's retry count so the daemon's quarantine threshold
/// survives restarts.
fn attempt_line(id: u64, attempts: u64) -> String {
    format!("{{\"kind\":\"attempt\",\"id\":{id},\"attempts\":{attempts}}}")
}

fn touch_line(fingerprint: u64) -> String {
    format!("{{\"kind\":\"touch\",\"fingerprint\":\"{fingerprint:016x}\"}}")
}

/// Moves `fingerprint` to the most-recently-used end of the order.
fn touch_in(recency: &mut Vec<u64>, fingerprint: u64) {
    recency.retain(|&f| f != fingerprint);
    recency.push(fingerprint);
}

/// The daemon's durable job table.
#[derive(Debug)]
pub struct JobQueue {
    root: PathBuf,
    journal: BufWriter<File>,
    jobs: BTreeMap<u64, Job>,
    next_id: u64,
    /// Report fingerprints, least-recently-used first.
    recency: Vec<u64>,
    /// Size budget of the report cache in bytes (`None` = unbounded).
    cache_budget: Option<u64>,
}

impl JobQueue {
    /// Opens (creating when absent) the queue under `root`, replaying and
    /// compacting the journal. Jobs that were `running` when the previous
    /// daemon died come back `queued`; their partial checkpoints survive.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] on I/O failure.
    pub fn open(root: impl AsRef<Path>) -> Result<Self, EngineError> {
        let root = root.as_ref().to_path_buf();
        for dir in [root.clone(), root.join("jobs"), root.join("reports")] {
            std::fs::create_dir_all(&dir)
                .map_err(|e| queue_error(format!("cannot create {}: {e}", dir.display())))?;
        }
        let journal_path = root.join("queue.jsonl");
        let mut jobs: BTreeMap<u64, Job> = BTreeMap::new();
        let mut recency: Vec<u64> = Vec::new();
        if let Ok(text) = std::fs::read_to_string(&journal_path) {
            for line in text.lines() {
                if line.contains("\"kind\":\"job\"") {
                    let parsed = (|| {
                        let id = extract_u64(line, "id")?;
                        let fingerprint = extract_str(line, "fingerprint")
                            .and_then(|s| u64::from_str_radix(s, 16).ok())?;
                        let scenario_wire =
                            wire::decode_token(extract_str(line, "scenario")?).ok()?;
                        // Absent on journals written before priorities
                        // existed: default to `normal`.
                        let priority = extract_str(line, "priority")
                            .and_then(Priority::parse)
                            .unwrap_or_default();
                        Some(Job {
                            id,
                            fingerprint,
                            scenario_wire,
                            state: JobState::Queued,
                            priority,
                            attempts: 0,
                            age: 0,
                        })
                    })();
                    if let Some(job) = parsed {
                        jobs.entry(job.id).or_insert(job);
                    }
                } else if line.contains("\"kind\":\"state\"") {
                    let parsed = (|| {
                        let id = extract_u64(line, "id")?;
                        let state = match extract_str(line, "state")? {
                            "queued" => JobState::Queued,
                            "running" => JobState::Running,
                            "done" => JobState::Done,
                            "failed" => JobState::Failed(
                                extract_str(line, "error")
                                    .and_then(|e| wire::decode_token(e).ok())
                                    .unwrap_or_default(),
                            ),
                            "quarantined" => JobState::Quarantined(
                                extract_str(line, "error")
                                    .and_then(|e| wire::decode_token(e).ok())
                                    .unwrap_or_default(),
                            ),
                            _ => return None,
                        };
                        Some((id, state))
                    })();
                    if let Some((id, state)) = parsed {
                        if let Some(job) = jobs.get_mut(&id) {
                            job.state = state;
                        }
                    }
                } else if line.contains("\"kind\":\"attempt\"") {
                    let parsed =
                        (|| Some((extract_u64(line, "id")?, extract_u64(line, "attempts")?)))();
                    if let Some((id, attempts)) = parsed {
                        if let Some(job) = jobs.get_mut(&id) {
                            job.attempts = attempts;
                        }
                    }
                } else if line.contains("\"kind\":\"priority\"") {
                    let parsed = (|| {
                        let id = extract_u64(line, "id")?;
                        let priority = Priority::parse(extract_str(line, "priority")?)?;
                        Some((id, priority))
                    })();
                    if let Some((id, priority)) = parsed {
                        if let Some(job) = jobs.get_mut(&id) {
                            job.priority = priority;
                        }
                    }
                } else if line.contains("\"kind\":\"touch\"") {
                    if let Some(fingerprint) = extract_str(line, "fingerprint")
                        .and_then(|s| u64::from_str_radix(s, 16).ok())
                    {
                        touch_in(&mut recency, fingerprint);
                    }
                }
            }
        }
        // A `running` job means the previous daemon died mid-campaign:
        // re-queue it so the runner resumes from its partial checkpoint.
        for job in jobs.values_mut() {
            if job.state == JobState::Running {
                job.state = JobState::Queued;
            }
        }
        let next_id = jobs.keys().next_back().map_or(1, |id| id + 1);

        // Compact: rewrite the journal as one job line plus (for settled
        // jobs) one state line, dropping duplicates, torn tails and the
        // queued/running churn of past runs.
        let mut out = String::new();
        for job in jobs.values() {
            out.push_str(&job_line(job));
            out.push('\n');
            if job.state != JobState::Queued {
                out.push_str(&state_line(job.id, &job.state));
                out.push('\n');
            }
            // A re-queued job keeps its failure count: quarantine thresholds
            // must not reset just because the daemon restarted.
            if job.attempts > 0 && job.state == JobState::Queued {
                out.push_str(&attempt_line(job.id, job.attempts));
                out.push('\n');
            }
        }
        // Keep the LRU order of still-resident reports (one touch line each,
        // coldest first); fingerprints whose files are gone drop out here.
        recency.retain(|&fp| {
            root.join("reports")
                .join(format!("{fp:016x}.jsonl"))
                .exists()
        });
        for &fingerprint in &recency {
            out.push_str(&touch_line(fingerprint));
            out.push('\n');
        }
        rough_engine::durable::replace_file(&journal_path, "compact-tmp", out.as_bytes())
            .map_err(|e| queue_error(format!("cannot compact journal: {e}")))?;

        let journal = OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .map_err(|e| queue_error(format!("cannot append to journal: {e}")))?;
        Ok(Self {
            root,
            journal: BufWriter::new(journal),
            jobs,
            next_id,
            recency,
            cache_budget: None,
        })
    }

    fn write_line(&mut self, line: &str) -> Result<(), EngineError> {
        if rough_faults::should_fire("journal.append.short") {
            // A short write: half the line, no newline — exactly the torn
            // tail the replay path must scrub.
            let torn = &line[..line.len() / 2];
            write!(self.journal, "{torn}")
                .and_then(|()| self.journal.flush())
                .ok();
            return Err(queue_error("injected short journal append (fault plan)"));
        }
        writeln!(self.journal, "{line}")
            .and_then(|()| self.journal.flush())
            .map_err(|e| queue_error(format!("journal write failed: {e}")))
    }

    /// Submits a scenario, deduplicating by fingerprint: an unfinished job
    /// with the same fingerprint is shared (upgrading its priority when the
    /// resubmission is more urgent — never downgrading), and a fingerprint
    /// whose report is already cached completes instantly. Returns
    /// `(job id, cached)`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] when the journal cannot be written.
    pub fn submit(
        &mut self,
        scenario_wire: &str,
        fingerprint: u64,
        priority: Priority,
    ) -> Result<(u64, bool), EngineError> {
        let existing = self
            .jobs
            .values()
            .find(|j| {
                j.fingerprint == fingerprint
                    && !matches!(j.state, JobState::Failed(_) | JobState::Quarantined(_))
            })
            .map(|j| (j.id, j.state.clone(), j.priority));
        if let Some((id, state, current)) = existing {
            let cached = state == JobState::Done && self.report_path(fingerprint).exists();
            if cached || state != JobState::Done {
                if !cached && priority < current {
                    self.write_line(&priority_line(id, priority))?;
                    if let Some(job) = self.jobs.get_mut(&id) {
                        job.priority = priority;
                    }
                }
                return Ok((id, cached));
            }
        }
        let job = Job {
            id: self.next_id,
            fingerprint,
            scenario_wire: scenario_wire.to_owned(),
            state: JobState::Queued,
            priority,
            attempts: 0,
            age: 0,
        };
        self.next_id += 1;
        self.write_line(&job_line(&job))?;
        let id = job.id;
        self.jobs.insert(id, job);
        Ok((id, false))
    }

    /// Returns the queued job a runner should dispatch next — smallest
    /// dispatch score (`class × AGE_STEP − age`), ties on smallest id — and
    /// ages every passed-over queued job by one dispatch. Aging all waiters
    /// equally keeps FIFO order within a class and high-before-batch among
    /// fresh submissions, while bounding how long a batch job can starve: its
    /// score reaches a fresh high job's after `AGE_STEP × class` dispatches
    /// and its smaller id then wins the tie.
    pub fn take_next(&mut self) -> Option<u64> {
        let chosen = self.next_queued()?;
        for job in self.jobs.values_mut() {
            if job.state == JobState::Queued && job.id != chosen {
                job.age += 1;
            }
        }
        Some(chosen)
    }

    /// Peeks at the job [`Self::take_next`] would dispatch, without aging.
    pub fn next_queued(&self) -> Option<u64> {
        self.jobs
            .values()
            .filter(|j| j.state == JobState::Queued)
            .min_by_key(|j| (j.score(), j.id))
            .map(|j| j.id)
    }

    /// Transitions a job to `state`, journaling the change durably.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] on an unknown job or journal
    /// failure.
    pub fn mark(&mut self, id: u64, state: JobState) -> Result<(), EngineError> {
        if !self.jobs.contains_key(&id) {
            return Err(queue_error(format!("unknown job {id}")));
        }
        self.write_line(&state_line(id, &state))?;
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = state;
        }
        Ok(())
    }

    /// Records one more failed run of a job and returns the new count. The
    /// count is journaled, so quarantine thresholds keep counting across
    /// daemon restarts.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] on an unknown job or journal
    /// failure.
    pub fn record_attempt(&mut self, id: u64) -> Result<u64, EngineError> {
        let attempts = self
            .jobs
            .get(&id)
            .ok_or_else(|| queue_error(format!("unknown job {id}")))?
            .attempts
            + 1;
        self.write_line(&attempt_line(id, attempts))?;
        if let Some(job) = self.jobs.get_mut(&id) {
            job.attempts = attempts;
        }
        Ok(attempts)
    }

    /// Looks up a job.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// All jobs in id order (used by the detailed STATUS reply).
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Current queue depths.
    pub fn status(&self) -> QueueStatus {
        let mut status = QueueStatus::default();
        for job in self.jobs.values() {
            match job.state {
                JobState::Queued => status.queued += 1,
                JobState::Running => status.running += 1,
                JobState::Done => status.done += 1,
                JobState::Failed(_) => status.failed += 1,
                JobState::Quarantined(_) => status.quarantined += 1,
            }
        }
        status
    }

    /// Path of a job's engine checkpoint.
    pub fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.root.join("jobs").join(format!("{id}.jsonl"))
    }

    /// Path of the content-addressed cached report for `fingerprint`.
    pub fn report_path(&self, fingerprint: u64) -> PathBuf {
        self.root
            .join("reports")
            .join(format!("{fingerprint:016x}.jsonl"))
    }

    /// Publishes a completed job's compacted checkpoint into the report
    /// cache (write to a temp name, `fsync`, then atomic rename with the
    /// parent directory synced), refreshes its LRU slot and evicts
    /// over-budget cold reports.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] on I/O failure.
    pub fn publish_report(&mut self, id: u64, fingerprint: u64) -> Result<(), EngineError> {
        let source = self.checkpoint_path(id);
        let target = self.report_path(fingerprint);
        let contents =
            std::fs::read(&source).map_err(|e| queue_error(format!("cannot stage report: {e}")))?;
        rough_engine::durable::replace_file(&target, "publish-tmp", &contents)
            .map_err(|e| queue_error(format!("cannot publish report: {e}")))?;
        self.touch_report(fingerprint)?;
        self.enforce_cache_budget()?;
        Ok(())
    }

    /// Marks a cached report as just-used (publish or served fetch): it
    /// becomes the last candidate for eviction. Journaled, so the LRU order
    /// survives restarts.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] when the journal cannot be
    /// written.
    pub fn touch_report(&mut self, fingerprint: u64) -> Result<(), EngineError> {
        touch_in(&mut self.recency, fingerprint);
        self.write_line(&touch_line(fingerprint))
    }

    /// Sets the report-cache size budget (bytes; `None`, the default at open,
    /// is unbounded). The daemon applies [`crate::daemon::CACHE_BUDGET_ENV`]
    /// here; the next publish, or an explicit
    /// [`JobQueue::enforce_cache_budget`], trims the cache to it.
    pub fn set_cache_budget(&mut self, budget: Option<u64>) {
        self.cache_budget = budget;
    }

    /// Deletes least-recently-used cached reports until the cache fits the
    /// budget; a no-op without one. The most-recently-touched report is never
    /// evicted, so a just-published report always lands even when it alone
    /// exceeds the budget. Returns the number of evicted reports.
    ///
    /// # Errors
    ///
    /// Currently infallible (deletion failures skip the entry); the
    /// signature reserves the right to journal evictions.
    pub fn enforce_cache_budget(&mut self) -> Result<usize, EngineError> {
        let Some(budget) = self.cache_budget else {
            return Ok(0);
        };
        let mut sizes: HashMap<u64, u64> = HashMap::new();
        if let Ok(entries) = std::fs::read_dir(self.root.join("reports")) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(hex) = name.to_str().and_then(|n| n.strip_suffix(".jsonl")) else {
                    continue;
                };
                let Ok(fingerprint) = u64::from_str_radix(hex, 16) else {
                    continue;
                };
                if let Ok(meta) = entry.metadata() {
                    sizes.insert(fingerprint, meta.len());
                }
            }
        }
        let mut total: u64 = sizes.values().sum();
        if total <= budget {
            return Ok(0);
        }
        // Eviction order: reports the journal has never seen first (ascending
        // fingerprint, for determinism), then least-recently-touched.
        let mut order: Vec<u64> = {
            let mut unknown: Vec<u64> = sizes
                .keys()
                .copied()
                .filter(|fp| !self.recency.contains(fp))
                .collect();
            unknown.sort_unstable();
            unknown
        };
        order.extend(
            self.recency
                .iter()
                .copied()
                .filter(|fp| sizes.contains_key(fp)),
        );
        let hottest = order.last().copied();
        let mut evicted = 0;
        for fingerprint in order {
            if total <= budget || Some(fingerprint) == hottest {
                break;
            }
            if std::fs::remove_file(self.report_path(fingerprint)).is_ok() {
                total -= sizes[&fingerprint];
                evicted += 1;
                self.recency.retain(|&f| f != fingerprint);
            }
        }
        Ok(evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("rough_service_queue")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn submissions_survive_reopen_and_running_jobs_requeue() {
        let root = temp_root("reopen");
        {
            let mut queue = JobQueue::open(&root).unwrap();
            let (a, cached) = queue.submit("scenario-a", 0xA, Priority::Normal).unwrap();
            assert!(!cached);
            let (b, _) = queue.submit("scenario-b", 0xB, Priority::Normal).unwrap();
            queue.mark(a, JobState::Running).unwrap();
            assert_eq!(queue.next_queued(), Some(b));
        }
        let queue = JobQueue::open(&root).unwrap();
        // The running job came back queued (resume path), order preserved.
        assert_eq!(queue.next_queued(), Some(1));
        assert_eq!(queue.status().queued, 2);
        assert_eq!(queue.job(1).unwrap().scenario_wire, "scenario-a");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn duplicate_fingerprints_share_one_job() {
        let root = temp_root("dedupe");
        let mut queue = JobQueue::open(&root).unwrap();
        let (a, _) = queue.submit("scenario-a", 0xA, Priority::Normal).unwrap();
        let (same, cached) = queue.submit("scenario-a", 0xA, Priority::Normal).unwrap();
        assert_eq!(a, same);
        assert!(!cached);
        // A done job with a published report is served from cache.
        queue.mark(a, JobState::Done).unwrap();
        std::fs::write(queue.report_path(0xA), "header\n").unwrap();
        let (id, cached) = queue.submit("scenario-a", 0xA, Priority::Normal).unwrap();
        assert_eq!(id, a);
        assert!(cached);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn failed_jobs_resubmit_fresh() {
        let root = temp_root("failed");
        let mut queue = JobQueue::open(&root).unwrap();
        let (a, _) = queue.submit("scenario-a", 0xA, Priority::Normal).unwrap();
        queue.mark(a, JobState::Running).unwrap();
        queue
            .mark(a, JobState::Failed("solver blew up".into()))
            .unwrap();
        let (b, cached) = queue.submit("scenario-a", 0xA, Priority::Normal).unwrap();
        assert_ne!(a, b);
        assert!(!cached);
        // Reopen preserves the failure message through the compacted journal.
        drop(queue);
        let queue = JobQueue::open(&root).unwrap();
        assert_eq!(
            queue.job(a).unwrap().state,
            JobState::Failed("solver blew up".into())
        );
        assert_eq!(queue.status().failed, 1);
        assert_eq!(queue.status().queued, 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn quarantined_jobs_survive_reopen_and_never_requeue() {
        let root = temp_root("quarantine");
        {
            let mut queue = JobQueue::open(&root).unwrap();
            let (a, _) = queue.submit("scenario-a", 0xA, Priority::Normal).unwrap();
            queue.mark(a, JobState::Running).unwrap();
            assert_eq!(queue.record_attempt(a).unwrap(), 1);
            assert_eq!(queue.record_attempt(a).unwrap(), 2);
            queue
                .mark(a, JobState::Quarantined("persistent blowup".into()))
                .unwrap();
            // The poison job never blocks the runner loop.
            assert_eq!(queue.next_queued(), None);
            // Resubmitting its fingerprint schedules a fresh job.
            let (b, cached) = queue.submit("scenario-a", 0xA, Priority::Normal).unwrap();
            assert_ne!(a, b);
            assert!(!cached);
            assert_eq!(queue.job(b).unwrap().attempts, 0);
        }
        // Quarantine and its error survive the compacted journal.
        let queue = JobQueue::open(&root).unwrap();
        assert_eq!(
            queue.job(1).unwrap().state,
            JobState::Quarantined("persistent blowup".into())
        );
        assert_eq!(queue.status().quarantined, 1);
        assert_eq!(queue.status().queued, 1);
        assert_eq!(queue.next_queued(), Some(2));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn attempt_counts_survive_reopen_for_requeued_jobs() {
        let root = temp_root("attempts");
        {
            let mut queue = JobQueue::open(&root).unwrap();
            let (a, _) = queue.submit("scenario-a", 0xA, Priority::Normal).unwrap();
            queue.mark(a, JobState::Running).unwrap();
            assert_eq!(queue.record_attempt(a).unwrap(), 1);
            queue.mark(a, JobState::Queued).unwrap();
        }
        // The retry budget keeps counting across a daemon restart.
        let queue = JobQueue::open(&root).unwrap();
        assert_eq!(queue.job(1).unwrap().attempts, 1);
        assert_eq!(queue.job(1).unwrap().state, JobState::Queued);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Settles a 100-byte report for `fingerprint` through the normal
    /// publish path.
    fn publish_small(queue: &mut JobQueue, wire: &str, fingerprint: u64) -> u64 {
        let (id, _) = queue.submit(wire, fingerprint, Priority::Normal).unwrap();
        queue.mark(id, JobState::Done).unwrap();
        std::fs::write(queue.checkpoint_path(id), vec![b'x'; 100]).unwrap();
        queue.publish_report(id, fingerprint).unwrap();
        id
    }

    #[test]
    fn cache_budget_evicts_cold_reports_and_keeps_hot_ones() {
        let root = temp_root("budget");
        let mut queue = JobQueue::open(&root).unwrap();
        publish_small(&mut queue, "scenario-a", 0xA);
        publish_small(&mut queue, "scenario-b", 0xB);
        publish_small(&mut queue, "scenario-c", 0xC);
        // Unbounded: everything stays resident.
        for fp in [0xA, 0xB, 0xC] {
            assert!(queue.report_path(fp).exists());
        }
        // A fetch hit refreshes 0xA, leaving 0xB the coldest entry.
        queue.touch_report(0xA).unwrap();
        queue.set_cache_budget(Some(250));
        assert_eq!(queue.enforce_cache_budget().unwrap(), 1);
        assert!(!queue.report_path(0xB).exists(), "coldest survived");
        assert!(queue.report_path(0xA).exists(), "hot entry evicted");
        assert!(queue.report_path(0xC).exists());
        // Publishing under a full budget evicts the now-coldest 0xC; the
        // fresh report always lands.
        publish_small(&mut queue, "scenario-d", 0xD);
        assert!(!queue.report_path(0xC).exists());
        assert!(queue.report_path(0xA).exists());
        assert!(queue.report_path(0xD).exists());
        // An evicted fingerprint is no longer served from cache: its
        // resubmission schedules a fresh job.
        let (id, cached) = queue.submit("scenario-b", 0xB, Priority::Normal).unwrap();
        assert!(!cached);
        assert_eq!(queue.job(id).unwrap().state, JobState::Queued);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn lru_order_survives_reopen() {
        let root = temp_root("budget-reopen");
        {
            let mut queue = JobQueue::open(&root).unwrap();
            publish_small(&mut queue, "scenario-a", 0xA);
            publish_small(&mut queue, "scenario-b", 0xB);
            queue.touch_report(0xA).unwrap(); // 0xB is now coldest
        }
        let mut queue = JobQueue::open(&root).unwrap();
        queue.set_cache_budget(Some(150));
        assert_eq!(queue.enforce_cache_budget().unwrap(), 1);
        assert!(!queue.report_path(0xB).exists(), "journaled LRU order lost");
        assert!(queue.report_path(0xA).exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_single_oversized_report_is_never_evicted() {
        let root = temp_root("budget-oversized");
        let mut queue = JobQueue::open(&root).unwrap();
        queue.set_cache_budget(Some(10));
        publish_small(&mut queue, "scenario-a", 0xA); // 100 bytes > budget
        assert!(
            queue.report_path(0xA).exists(),
            "publish evicted its own report"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn dispatch_order_is_priority_then_fifo() {
        let root = temp_root("priority-order");
        let mut queue = JobQueue::open(&root).unwrap();
        let (a, _) = queue.submit("scenario-a", 0xA, Priority::Batch).unwrap();
        let (b, _) = queue.submit("scenario-b", 0xB, Priority::High).unwrap();
        let (c, _) = queue.submit("scenario-c", 0xC, Priority::Normal).unwrap();
        let (d, _) = queue.submit("scenario-d", 0xD, Priority::High).unwrap();
        let mut order = Vec::new();
        while let Some(id) = queue.take_next() {
            queue.mark(id, JobState::Running).unwrap();
            order.push(id);
        }
        assert_eq!(order, vec![b, d, c, a]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn aged_batch_jobs_beat_fresh_high_submissions() {
        let root = temp_root("priority-aging");
        let mut queue = JobQueue::open(&root).unwrap();
        let (batch, _) = queue
            .submit("scenario-batch", 0x100, Priority::Batch)
            .unwrap();
        // Sustained high-priority load: each dispatch ages the waiting batch
        // job by one. After AGE_STEP × class(batch) = 8 dispatches its score
        // matches a fresh high job's, and its smaller id wins the tie.
        for round in 0..(AGE_STEP * u64::from(Priority::Batch.class())) {
            let (high, _) = queue
                .submit(&format!("hot-{round}"), 0x200 + round, Priority::High)
                .unwrap();
            let took = queue.take_next().unwrap();
            assert_eq!(took, high, "batch promoted early at round {round}");
            queue.mark(took, JobState::Done).unwrap();
        }
        let (_fresh, _) = queue.submit("hot-late", 0x300, Priority::High).unwrap();
        assert_eq!(
            queue.take_next(),
            Some(batch),
            "batch job starved past the aging bound"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn priorities_survive_reopen_and_old_journals_default_to_normal() {
        let root = temp_root("priority-reopen");
        {
            let mut queue = JobQueue::open(&root).unwrap();
            queue.submit("scenario-a", 0xA, Priority::Batch).unwrap();
            queue.submit("scenario-b", 0xB, Priority::High).unwrap();
        }
        let queue = JobQueue::open(&root).unwrap();
        assert_eq!(queue.job(1).unwrap().priority, Priority::Batch);
        assert_eq!(queue.job(2).unwrap().priority, Priority::High);
        assert_eq!(queue.next_queued(), Some(2));
        drop(queue);

        // A journal written before priorities existed: no `priority` key.
        let old = temp_root("priority-oldline");
        std::fs::create_dir_all(&old).unwrap();
        std::fs::write(
            old.join("queue.jsonl"),
            "{\"kind\":\"job\",\"id\":1,\"fingerprint\":\"000000000000000a\",\"scenario\":\"scenario-a\"}\n",
        )
        .unwrap();
        let queue = JobQueue::open(&old).unwrap();
        assert_eq!(queue.job(1).unwrap().priority, Priority::Normal);
        assert_eq!(queue.job(1).unwrap().scenario_wire, "scenario-a");
        std::fs::remove_dir_all(&root).ok();
        std::fs::remove_dir_all(&old).ok();
    }

    #[test]
    fn resubmission_upgrades_priority_but_never_downgrades() {
        let root = temp_root("priority-upgrade");
        {
            let mut queue = JobQueue::open(&root).unwrap();
            let (a, _) = queue.submit("scenario-a", 0xA, Priority::Batch).unwrap();
            let (same, cached) = queue.submit("scenario-a", 0xA, Priority::High).unwrap();
            assert_eq!(a, same);
            assert!(!cached);
            assert_eq!(queue.job(a).unwrap().priority, Priority::High);
            // A later, lazier resubmission must not demote it.
            queue.submit("scenario-a", 0xA, Priority::Batch).unwrap();
            assert_eq!(queue.job(a).unwrap().priority, Priority::High);
        }
        // The upgrade was journaled: it survives a reopen.
        let queue = JobQueue::open(&root).unwrap();
        assert_eq!(queue.job(1).unwrap().priority, Priority::High);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn journals_tolerate_torn_tails() {
        let root = temp_root("torn");
        {
            let mut queue = JobQueue::open(&root).unwrap();
            queue.submit("scenario-a", 0xA, Priority::Normal).unwrap();
        }
        let journal = root.join("queue.jsonl");
        let mut text = std::fs::read_to_string(&journal).unwrap();
        text.push_str("{\"kind\":\"job\",\"id\":2,\"finge"); // torn append
        std::fs::write(&journal, text).unwrap();
        let queue = JobQueue::open(&root).unwrap();
        assert_eq!(queue.status().queued, 1);
        // Compaction scrubbed the torn line.
        let rewritten = std::fs::read_to_string(&journal).unwrap();
        assert!(!rewritten.contains("finge\n"));
        assert!(rewritten.ends_with('\n'));
        std::fs::remove_dir_all(&root).ok();
    }
}
