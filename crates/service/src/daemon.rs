//! The campaign daemon.
//!
//! A [`Daemon`] binds a TCP listener and serves the [`crate::protocol`]
//! conversations: an accept loop hands each connection to a handler thread,
//! while a pool of runner threads drains the persistent [`JobQueue`] —
//! [`DaemonConfig::max_concurrent_jobs`] campaigns at a time (default 1, env
//! [`JOBS_ENV`]). Campaigns are internally parallel, so each runner owns its
//! *own* executor sized from an even split of the machine's core budget
//! ([`rough_engine::executor_from_env_budgeted`]): J concurrent jobs never
//! oversubscribe the cores a single job would have used. Dispatch order
//! comes from the queue's priority/aging score ([`crate::queue::Priority`]),
//! so high-priority submissions preempt the backlog while aged batch jobs
//! are never starved.
//!
//! Durability: every job transition is journaled before it takes effect, and
//! each campaign checkpoints per-unit under the state directory. A daemon
//! killed mid-campaign restarts with *every* interrupted job re-queued and
//! resumes each via [`Run::resume`] — completed units are not recomputed,
//! and the final reports are bit-identical to uninterrupted runs. Completed
//! campaigns are compacted ([`rough_engine::checkpoint::compact`]) and
//! published to the content-addressed report cache, from which repeat
//! submissions and [`crate::protocol::kind::FETCH`] requests are served
//! without recomputing.
//!
//! Scheduling: every finished report's measured per-unit wall times are
//! absorbed into a [`CostTable`] persisted as `cost_table.json` under the
//! state directory, and each job is scheduled with
//! [`CostOrdered::calibrated`] — once every unit class of a plan has been
//! measured, later campaigns run their slowest classes first (better tail
//! latency under the executor's parallelism); until then the scheduler falls
//! back to the static `cells⁴·frequency` model.

use crate::protocol::{self, kind, JobSummary, ServiceEvent};
use crate::queue::{JobQueue, JobState};
use rough_engine::frame::{self, read_frame, write_frame, Frame, PayloadWriter};
use rough_engine::{
    checkpoint, wire, CostOrdered, CostTable, EngineError, FnObserver, Run, RunConfig, UnitExecutor,
};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

fn daemon_error(reason: impl Into<String>) -> EngineError {
    EngineError::Socket(format!("daemon: {}", reason.into()))
}

/// Environment variable selecting how many campaigns run concurrently
/// (default 1). [`DaemonConfig::max_concurrent_jobs`] overrides it.
pub const JOBS_ENV: &str = "ROUGHSIMD_JOBS";

/// Environment variable granting each job this many automatic re-runs after
/// a failure (default 0 — a failure settles the job as `failed`, exactly the
/// pre-retry behaviour). With `N > 0`, the first `N` failures re-queue the
/// job (its checkpoint resumes completed units), and failure `N + 1` settles
/// it as `quarantined`: a journaled poison-job state that never re-queues
/// and never blocks the runner pool.
pub const JOB_RETRIES_ENV: &str = "ROUGHSIMD_JOB_RETRIES";

/// Environment variable bounding the report cache, in bytes (unset =
/// unbounded); see [`JobQueue::set_cache_budget`].
pub const CACHE_BUDGET_ENV: &str = "ROUGHSIMD_CACHE_BUDGET";

/// Parses one numeric daemon knob from the raw contents of variable `name`
/// (`None` when unset). Unset yields `Ok(None)`, so the caller applies its
/// default; a set value must parse after trimming whitespace.
///
/// # Errors
///
/// Returns [`EngineError::InvalidScenario`] naming the variable and its value
/// when it does not parse.
fn parse_knob<T: std::str::FromStr>(
    name: &str,
    value: Option<&str>,
) -> Result<Option<T>, EngineError> {
    value
        .map(|raw| {
            raw.trim().parse().map_err(|_| {
                EngineError::InvalidScenario(format!(
                    "{name}={raw:?} is not a non-negative integer"
                ))
            })
        })
        .transpose()
}

/// Configuration of a [`Daemon`].
pub struct DaemonConfig {
    addr: String,
    state_dir: PathBuf,
    executor: Option<Arc<dyn UnitExecutor>>,
    executors: Option<Vec<Arc<dyn UnitExecutor>>>,
    max_concurrent_jobs: Option<usize>,
}

impl DaemonConfig {
    /// Creates a configuration serving `addr` (e.g. `127.0.0.1:7171`; port 0
    /// picks an ephemeral port) with durable state under `state_dir`.
    pub fn new(addr: impl Into<String>, state_dir: impl Into<PathBuf>) -> Self {
        Self {
            addr: addr.into(),
            state_dir: state_dir.into(),
            executor: None,
            executors: None,
            max_concurrent_jobs: None,
        }
    }

    /// Overrides the campaign executor; every runner shares this one
    /// instance, so it must tolerate concurrent `execute` calls (the
    /// stateless [`rough_engine::SerialExecutor`] and
    /// [`rough_engine::ThreadPoolExecutor`] do). For stateful executors —
    /// a socket worker pool, say — give each runner its own instance via
    /// [`DaemonConfig::executors`]. The default builds one budgeted executor
    /// per runner from the `ROUGHSIM_EXECUTOR` environment variable
    /// ([`rough_engine::executor_from_env_budgeted`]).
    pub fn executor(mut self, executor: Arc<dyn UnitExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Gives each runner its own executor instance; the pool size becomes
    /// `executors.len()`, overriding [`DaemonConfig::max_concurrent_jobs`].
    pub fn executors(mut self, executors: Vec<Arc<dyn UnitExecutor>>) -> Self {
        self.executors = Some(executors);
        self
    }

    /// Sets how many campaigns run concurrently (default 1; env
    /// [`JOBS_ENV`]). Each runner gets `core_budget / jobs` cores, so raising
    /// this trades single-campaign latency for queue throughput without
    /// oversubscribing the machine.
    pub fn max_concurrent_jobs(mut self, jobs: usize) -> Self {
        self.max_concurrent_jobs = Some(jobs.max(1));
        self
    }
}

struct Watcher {
    job: u64,
    stream: Mutex<TcpStream>,
}

struct Shared {
    queue: Mutex<JobQueue>,
    work: Condvar,
    watchers: Mutex<Vec<Arc<Watcher>>>,
    stop: AtomicBool,
    /// Persisted per-class cost measurements feeding the calibrated
    /// scheduler of subsequent jobs.
    cost_table_path: PathBuf,
    /// Serializes the load → absorb → save cycle on the cost table:
    /// concurrent runners would otherwise lose each other's samples.
    cost_lock: Mutex<()>,
    /// Re-runs granted to a failing job ([`JOB_RETRIES_ENV`]).
    job_retries: u64,
    /// Where [`Shared::shutdown`] connects to wake the blocking `accept`:
    /// the bound address, with an unspecified IP replaced by loopback.
    wake_addr: SocketAddr,
}

impl Shared {
    /// Requests shutdown: sets the stop flag, wakes the idle runners, then
    /// connects once to the daemon's own listener so the accept loop,
    /// blocked in `accept`, returns and sees the flag.
    fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.work.notify_all();
        TcpStream::connect(self.wake_addr).ok();
    }

    /// Sends `frame` to every watcher of `job`, dropping watchers whose
    /// connection has gone away.
    fn broadcast(&self, job: u64, frame: &Frame) {
        let mut watchers = self.watchers.lock().expect("watchers poisoned");
        watchers.retain(|w| {
            if w.job != job {
                return true;
            }
            let mut stream = w.stream.lock().expect("watcher stream poisoned");
            write_frame(&mut *stream, frame).is_ok()
        });
    }

    /// Sends the terminal frame to `job`'s watchers and deregisters them.
    fn finish_watchers(&self, job: u64, outcome: Result<(), &str>) {
        let frame = protocol::encode_job_done(job, outcome);
        let mut watchers = self.watchers.lock().expect("watchers poisoned");
        watchers.retain(|w| {
            if w.job != job {
                return true;
            }
            let mut stream = w.stream.lock().expect("watcher stream poisoned");
            write_frame(&mut *stream, &frame).ok();
            false
        });
    }
}

/// A running campaign daemon; dropping it does **not** stop the threads —
/// call [`Daemon::stop`] (or send [`kind::SHUTDOWN`] via a client) and then
/// [`Daemon::join`].
pub struct Daemon {
    addr: String,
    /// The settings `start` resolved, rendered by [`Daemon::describe`].
    settings: String,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    runners: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener, opens (and compacts) the job queue, re-queues
    /// every job the previous daemon died running, and starts the accept
    /// thread plus one runner thread per concurrent job slot.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidScenario`] when [`JOBS_ENV`],
    /// [`JOB_RETRIES_ENV`] or [`CACHE_BUDGET_ENV`] is set but not a
    /// non-negative integer, [`EngineError::Socket`] when the address cannot
    /// be bound and [`EngineError::Checkpoint`] when the state directory is
    /// unusable.
    pub fn start(config: DaemonConfig) -> Result<Self, EngineError> {
        // The daemon's numeric knobs, read once: a malformed value refuses
        // start instead of silently becoming the default.
        let env = |name| std::env::var(name).ok();
        let env_jobs: Option<usize> = parse_knob(JOBS_ENV, env(JOBS_ENV).as_deref())?;
        let job_retries: u64 =
            parse_knob(JOB_RETRIES_ENV, env(JOB_RETRIES_ENV).as_deref())?.unwrap_or(0);
        let cache_budget: Option<u64> =
            parse_knob(CACHE_BUDGET_ENV, env(CACHE_BUDGET_ENV).as_deref())?;
        let jobs = config.max_concurrent_jobs.or(env_jobs).unwrap_or(1).max(1);
        // One executor per runner. A single configured executor is shared by
        // every runner; otherwise each runner builds its own from an even
        // split of the core budget, so J concurrent campaigns use no more
        // cores than one unbudgeted campaign would.
        let executors: Vec<Arc<dyn UnitExecutor>> = match (config.executors, config.executor) {
            (Some(list), _) if !list.is_empty() => list,
            (_, Some(executor)) => (0..jobs).map(|_| Arc::clone(&executor)).collect(),
            _ => {
                let budget = (rough_engine::core_budget() / jobs).max(1);
                (0..jobs)
                    .map(|_| rough_engine::executor_from_env_budgeted(budget))
                    .collect::<Result<_, _>>()?
            }
        };
        let mut queue = JobQueue::open(&config.state_dir)?;
        // A budget lowered between daemon lives applies on restart, not only
        // at the next publish.
        queue.set_cache_budget(cache_budget);
        queue.enforce_cache_budget()?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| daemon_error(format!("cannot bind {}: {e}", config.addr)))?;
        let mut wake_addr = listener
            .local_addr()
            .map_err(|e| daemon_error(format!("no local addr: {e}")))?;
        let addr = wake_addr.to_string();
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let settings = format!(
            "listening on {addr}, state {state}, executor {name}:{workers}, jobs {runners}, \
             job retries {job_retries}, cache budget {budget}",
            state = config.state_dir.display(),
            name = executors[0].name(),
            workers = executors[0].parallelism(),
            runners = executors.len(),
            budget = cache_budget.map_or("unbounded".to_owned(), |b| format!("{b} bytes")),
        );

        let shared = Arc::new(Shared {
            queue: Mutex::new(queue),
            work: Condvar::new(),
            watchers: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            cost_table_path: config.state_dir.join("cost_table.json"),
            cost_lock: Mutex::new(()),
            job_retries,
            wake_addr,
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        let runners = executors
            .into_iter()
            .map(|executor| {
                let runner_shared = Arc::clone(&shared);
                std::thread::spawn(move || runner_loop(&runner_shared, &executor))
            })
            .collect();

        Ok(Self {
            settings,
            addr,
            shared,
            accept: Some(accept),
            runners,
        })
    }

    /// The bound address, `host:port` (useful with an ephemeral port).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One line naming what [`Daemon::start`] resolved: bound address, state
    /// directory, executor (`name:workers` of a runner's executor), concurrent
    /// jobs, job retries and report-cache budget.
    pub fn describe(&self) -> &str {
        &self.settings
    }

    /// Requests shutdown: every runner finishes (at most) its job in flight,
    /// the accept loop stops taking connections.
    pub fn stop(&self) {
        self.shared.shutdown();
    }

    /// Blocks until the accept and runner threads exit (after [`Daemon::stop`]
    /// or a client-initiated [`kind::SHUTDOWN`]).
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            handle.join().ok();
        }
        for handle in self.runners.drain(..) {
            handle.join().ok();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        // Shutdown sets the flag before its wake-up connection arrives.
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { break };
        stream.set_nodelay(true).ok();
        let conn_shared = Arc::clone(shared);
        std::thread::spawn(move || handle_connection(&conn_shared, stream));
    }
}

fn send_err(stream: &mut TcpStream, message: &str) {
    let frame = PayloadWriter::new().str(message).frame(frame::kind::ERR);
    write_frame(stream, &frame).ok();
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(_) => return, // disconnect or torn frame: drop the connection
        };
        match frame.kind {
            kind::SUBMIT => {
                if let Err(e) = handle_submit(shared, &mut stream, &frame) {
                    send_err(&mut stream, &e.to_string());
                }
            }
            kind::FETCH => {
                let reply = match protocol::decode_fetch(&frame) {
                    Ok(fingerprint) => {
                        let mut queue = shared.queue.lock().expect("queue poisoned");
                        match std::fs::read_to_string(queue.report_path(fingerprint)) {
                            Ok(text) => {
                                // A served report is hot again: refresh its
                                // LRU slot so the budget evicts around it.
                                queue.touch_report(fingerprint).ok();
                                protocol::encode_report(fingerprint, &text)
                            }
                            Err(_) => PayloadWriter::new().u64(fingerprint).frame(kind::NOT_FOUND),
                        }
                    }
                    Err(e) => {
                        send_err(&mut stream, &e.to_string());
                        continue;
                    }
                };
                if write_frame(&mut stream, &reply).is_err() {
                    return;
                }
            }
            kind::STATUS => {
                let (status, jobs) = {
                    let queue = shared.queue.lock().expect("queue poisoned");
                    let jobs: Vec<JobSummary> = queue
                        .jobs()
                        .map(|j| JobSummary {
                            id: j.id,
                            priority: j.priority,
                            state: j.state.label(),
                        })
                        .collect();
                    (queue.status(), jobs)
                };
                if write_frame(&mut stream, &protocol::encode_status_report(status, &jobs)).is_err()
                {
                    return;
                }
            }
            kind::SHUTDOWN => {
                write_frame(&mut stream, &Frame::empty(kind::BYE)).ok();
                shared.shutdown();
                return;
            }
            other => send_err(&mut stream, &format!("unexpected frame kind {other}")),
        }
    }
}

fn handle_submit(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    frame: &Frame,
) -> Result<(), EngineError> {
    let (scenario_wire, watch, priority) = protocol::decode_submit(frame)?;
    let scenario = wire::decode_scenario(&scenario_wire)?;
    let fingerprint = wire::scenario_fingerprint(&scenario);

    // Submission, terminal-state inspection and watcher registration happen
    // under the queue lock: the runners also need it to settle a job, so a
    // watcher can never slip in *after* its job's terminal broadcast.
    let mut queue = shared.queue.lock().expect("queue poisoned");
    let (job, cached) = queue.submit(&scenario_wire, fingerprint, priority)?;
    write_frame(stream, &protocol::encode_accepted(job, fingerprint, cached))?;
    if watch {
        let terminal: Option<Result<(), String>> = match queue.job(job).map(|j| &j.state) {
            _ if cached => Some(Ok(())),
            Some(JobState::Done) => Some(Ok(())),
            Some(JobState::Failed(error)) | Some(JobState::Quarantined(error)) => {
                Some(Err(error.clone()))
            }
            _ => None,
        };
        match terminal {
            Some(outcome) => {
                let outcome = outcome.as_ref().map(|_| ()).map_err(String::as_str);
                write_frame(stream, &protocol::encode_job_done(job, outcome))?;
            }
            None => {
                let watcher =
                    Arc::new(Watcher {
                        job,
                        stream: Mutex::new(stream.try_clone().map_err(|e| {
                            daemon_error(format!("cannot clone watcher stream: {e}"))
                        })?),
                    });
                shared
                    .watchers
                    .lock()
                    .expect("watchers poisoned")
                    .push(watcher);
            }
        }
    }
    drop(queue);
    shared.work.notify_all();
    Ok(())
}

fn runner_loop(shared: &Arc<Shared>, executor: &Arc<dyn UnitExecutor>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                // Dispatch and mark under one lock hold: another runner
                // scanning the queue never sees the job as still queued.
                if let Some(id) = queue.take_next() {
                    queue.mark(id, JobState::Running).ok();
                    break id;
                }
                let (guard, _) = shared
                    .work
                    .wait_timeout(queue, Duration::from_millis(200))
                    .expect("queue poisoned");
                queue = guard;
            }
        };
        run_job(shared, executor, job);
    }
}

/// Executes one job end to end; every failure path settles the job — as
/// `Failed`, or through the [`JOB_RETRIES_ENV`] retry/quarantine ladder —
/// so the queue never wedges.
fn run_job(shared: &Arc<Shared>, executor: &Arc<dyn UnitExecutor>, job: u64) {
    let (scenario_wire, fingerprint, checkpoint_path) = {
        let queue = shared.queue.lock().expect("queue poisoned");
        let Some(entry) = queue.job(job) else { return };
        (
            entry.scenario_wire.clone(),
            entry.fingerprint,
            queue.checkpoint_path(job),
        )
    };

    let result = execute_job(
        shared,
        executor,
        job,
        &scenario_wire,
        fingerprint,
        &checkpoint_path,
    );

    let mut queue = shared.queue.lock().expect("queue poisoned");
    match result {
        Ok(()) => {
            queue.mark(job, JobState::Done).ok();
            shared.finish_watchers(job, Ok(()));
        }
        Err(e) => {
            let message = e.to_string();
            let retries = shared.job_retries;
            let attempts = queue.record_attempt(job).unwrap_or(u64::MAX);
            if attempts <= retries {
                // Budget left: re-queue. The job's checkpoint survives, so
                // the retry resumes past every completed unit. Watchers stay
                // registered — the job is not terminal yet.
                queue.mark(job, JobState::Queued).ok();
                shared.work.notify_all();
            } else if retries > 0 {
                // Retries exhausted: poison job. Terminal like `Failed`, but
                // counted separately so operators can spot it.
                queue.mark(job, JobState::Quarantined(message.clone())).ok();
                shared.finish_watchers(job, Err(&message));
            } else {
                queue.mark(job, JobState::Failed(message.clone())).ok();
                shared.finish_watchers(job, Err(&message));
            }
        }
    }
}

fn execute_job(
    shared: &Arc<Shared>,
    executor: &Arc<dyn UnitExecutor>,
    job: u64,
    scenario_wire: &str,
    fingerprint: u64,
    checkpoint_path: &std::path::Path,
) -> Result<(), EngineError> {
    if rough_faults::should_fire("job.run.fail") {
        return Err(daemon_error("injected job failure (fault plan)"));
    }
    let scenario = wire::decode_scenario(scenario_wire)?;

    // Schedule with whatever cost measurements previous jobs accumulated; an
    // unreadable or absent table degrades to the static cost model.
    let cost_table = {
        let _cost = shared.cost_lock.lock().expect("cost lock poisoned");
        CostTable::load(&shared.cost_table_path).unwrap_or_default()
    };
    let build_config = || {
        let event_shared = Arc::clone(shared);
        RunConfig::new()
            .executor_arc(Arc::clone(executor))
            .scheduler(CostOrdered::calibrated(cost_table))
            .checkpoint(checkpoint_path)
            .observer(FnObserver(move |event: &rough_engine::RunEvent| {
                let frame = ServiceEvent::from_run_event(event).encode(job);
                event_shared.broadcast(job, &frame);
            }))
    };

    // A partial checkpoint from a previous daemon life resumes instead of
    // recomputing — but only when it actually belongs to this scenario.
    let resumable = checkpoint::read(checkpoint_path)
        .map(|ckpt| ckpt.header.fingerprint == fingerprint)
        .unwrap_or(false);
    let run = if resumable {
        Run::resume(checkpoint_path, build_config())?
    } else {
        Run::new(&scenario, build_config())?
    };
    let plan = run.plan().clone();
    let report = run.execute()?;

    // Feed the calibration loop: fold this job's measured unit times into the
    // persisted cost table (re-read under the cost lock so concurrent
    // runners don't lose each other's samples). Calibration is best-effort —
    // a failed save never fails the job.
    {
        let _cost = shared.cost_lock.lock().expect("cost lock poisoned");
        let mut table = CostTable::load(&shared.cost_table_path).unwrap_or_default();
        if table.absorb(&plan, &report) > 0 {
            table.save(&shared.cost_table_path).ok();
        }
    }

    // Settle the artifact: scrub checkpoint churn, then publish it as the
    // content-addressed cached report.
    checkpoint::compact(checkpoint_path)?;
    let mut queue = shared.queue.lock().expect("queue poisoned");
    queue.publish_report(job, fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_parse_or_refuse_naming_the_variable() {
        assert_eq!(parse_knob::<u64>(JOB_RETRIES_ENV, None).unwrap(), None);
        assert_eq!(parse_knob::<usize>(JOBS_ENV, Some("2")).unwrap(), Some(2));
        assert_eq!(parse_knob::<usize>(JOBS_ENV, Some(" 2 ")).unwrap(), Some(2));
        for (name, raw) in [
            (CACHE_BUDGET_ENV, "10MB"),
            (JOB_RETRIES_ENV, "two"),
            (JOBS_ENV, "-1"),
        ] {
            let error = parse_knob::<u64>(name, Some(raw)).unwrap_err().to_string();
            assert!(
                error.contains(name) && error.contains(raw),
                "{name}={raw}: {error}"
            );
        }
    }
}
