//! Distributed execution over sockets: persistent warm workers.
//!
//! [`SocketExecutor`] keeps a fleet of **long-lived worker processes**
//! connected over loopback TCP, speaking the length-prefixed framing of
//! [`crate::frame`] around the bit-exact [`crate::wire`] scenario encoding. The design goals, in order:
//!
//! 1. **Warm caches where the work is.** Each worker owns a process-local
//!    [`KernelCache`] that survives across runs: re-running a campaign (or
//!    running the next shard of the same scenario fingerprint) hits the
//!    worker's cached Ewald kernels, flat-reference solves and KL bases
//!    instead of rebuilding them. Worker cache activity is credited back into
//!    the dispatcher's cache counters ([`KernelCache::credit_external`]) so
//!    reports carry real hit rates.
//! 2. **Fault tolerance without changing a single bit.** Units are dispatched
//!    in small case-contiguous batches; workers heartbeat while computing; a
//!    dead, silent or inconsistent worker's in-flight units are re-queued to
//!    survivors and a typed [`RunEvent::WorkerLost`] is streamed. Plan-time
//!    seeding makes the final report bit-identical no matter which worker
//!    computed which unit.
//! 3. **Honest timing.** Workers measure each solve's wall time themselves
//!    and ship it inside the result frame, so remote units populate
//!    [`crate::CampaignReport::unit_times`] like local ones (`None` there
//!    means only "restored from a checkpoint").
//!
//! Binaries opt in through [`crate::subprocess::maybe_serve_worker`], which
//! serves this protocol when [`SOCKET_WORKER_ENV`] is set.
//!
//! [`RunEvent::WorkerLost`]: crate::events::RunEvent::WorkerLost

use crate::cache::{CacheStats, KernelCache};
use crate::error::EngineError;
use crate::executor::{core_budget, evaluate_unit, shared_budget_assembly, UnitExecutor};
use crate::frame::{kind, read_frame, write_frame, Frame, PayloadWriter};
use crate::plan::Plan;
use crate::report::UnitRecord;
use crate::run::UnitSink;
use crate::wire;
use rough_core::{AssemblyParallelism, ASSEMBLY_THREADS_ENV};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable that switches a spawned process into socket-worker
/// mode; its value is the dispatcher's listening [`SocketAddr`] (e.g.
/// `127.0.0.1:40123`). A worker refuses a value that does not parse as one.
pub const SOCKET_WORKER_ENV: &str = "ROUGH_ENGINE_SOCKET_WORKER";

/// Interval between worker heartbeats while a batch is being computed.
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(200);

/// Dispatcher-side silence tolerance before a computing worker is declared
/// lost and its units re-queued. Generous relative to [`HEARTBEAT_PERIOD`].
const HEARTBEAT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the dispatcher waits for freshly spawned workers to connect.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(20);

/// Reconnect attempts a disconnected worker makes before giving up.
const MAX_RECONNECT_ATTEMPTS: u32 = 8;

/// Base pause of the worker dial loop's backoff (milliseconds).
const RECONNECT_BASE_MS: u64 = 25;

/// Backoff cap of the worker dial loop (milliseconds).
const RECONNECT_CAP_MS: u64 = 1_600;

/// Respawns the dispatcher grants beyond the initial fleet before the
/// flapping-worker circuit breaker opens.
const RESPAWN_CAP: usize = 4;

fn socket_error(reason: impl Into<String>) -> EngineError {
    EngineError::Socket(reason.into())
}

/// Binds the dispatcher's listener on an ephemeral loopback port, polled
/// non-blockingly by the accept loop.
fn bind_listener() -> Result<TcpListener, EngineError> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| socket_error(format!("cannot bind tcp 127.0.0.1:0: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| socket_error(format!("cannot configure listener: {e}")))?;
    Ok(listener)
}

/// Accepts one pending worker connection as a blocking, no-delay stream.
fn accept_worker(listener: &TcpListener) -> io::Result<TcpStream> {
    listener.accept().map(|(stream, _)| {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_nonblocking(false);
        stream
    })
}

/// Dials the dispatcher as a no-delay stream.
fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Parses the [`SOCKET_WORKER_ENV`] value a worker was spawned with.
fn worker_addr(spec: &str) -> Result<SocketAddr, EngineError> {
    spec.parse().map_err(|_| {
        socket_error(format!(
            "{SOCKET_WORKER_ENV} `{spec}` is not a socket address"
        ))
    })
}

/// One connected, ready worker as the dispatcher sees it.
#[derive(Debug)]
struct WorkerConn {
    /// Stable worker index (assigned at accept, reported in events).
    index: usize,
    conn: TcpStream,
}

#[derive(Debug, Default)]
struct SocketState {
    listener: Option<TcpListener>,
    idle: Vec<WorkerConn>,
    children: Vec<Child>,
    next_index: usize,
    /// Worker processes ever spawned by this executor; the respawn circuit
    /// breaker compares it against `workers + RESPAWN_CAP`.
    spawned_total: usize,
}

/// Shards work units across persistent worker processes connected over
/// sockets. See the [module docs](crate::socket) for the protocol and the
/// fault-tolerance contract.
#[derive(Debug)]
pub struct SocketExecutor {
    workers: usize,
    args: Vec<String>,
    core_budget: Option<usize>,
    state: Mutex<SocketState>,
    run_counter: AtomicU64,
}

impl SocketExecutor {
    /// Creates an executor with `workers` persistent worker processes (0
    /// means one per hardware core) on a loopback TCP transport with an
    /// ephemeral port. Workers are spawned lazily on the first
    /// [`UnitExecutor::execute`] call and stay warm until the executor drops.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        Self {
            workers,
            args: Vec::new(),
            core_budget: None,
            state: Mutex::new(SocketState::default()),
            run_counter: AtomicU64::new(1),
        }
    }

    /// Caps the core budget this executor divides among its workers' solves
    /// (default: the whole machine). A daemon running several campaigns
    /// concurrently hands each job's executor its slice, so spawned workers'
    /// assembly shares stay within `budget` instead of `core_budget()`.
    pub fn with_core_budget(mut self, budget: usize) -> Self {
        self.core_budget = Some(budget.max(1));
        self
    }

    /// Sets extra arguments for the spawned program (e.g. a libtest filter
    /// pointing at a worker-entry `#[test]`).
    pub fn with_args(mut self, args: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.args = args.into_iter().map(Into::into).collect();
        self
    }

    /// Fault-injection hook: kills one live worker *process* (the first one
    /// still running), simulating a crash mid-run. Returns `false` when no
    /// live child exists. The dispatcher notices through the dead socket and
    /// re-dispatches — exercised by the fault-tolerance tests.
    pub fn kill_one_worker(&self) -> bool {
        let mut state = self.state.lock().expect("socket state poisoned");
        for child in &mut state.children {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
                let _ = child.wait();
                return true;
            }
        }
        false
    }

    fn spawn_worker(&self, addr: SocketAddr, ordinal: usize) -> Result<Child, EngineError> {
        // Workers are this very build, so dispatcher and worker always speak
        // the same frame revision.
        let program = std::env::current_exe()
            .map_err(|e| socket_error(format!("cannot locate current executable: {e}")))?;
        // Each worker gets its fair share of the core budget as intra-solve
        // assembly threads, unless the parent environment pins an explicit
        // value.
        let assembly =
            shared_budget_assembly(self.core_budget.unwrap_or_else(core_budget), self.workers);
        let mut command = Command::new(&program);
        command.env(ASSEMBLY_THREADS_ENV, assembly.worker_count().to_string());
        command
            .args(&self.args)
            .env(SOCKET_WORKER_ENV, addr.to_string())
            // Scope the inherited fault plan to this worker: `name#w<N>`
            // entries fire only in the N-th spawned worker process.
            .env(rough_faults::SCOPE_ENV, format!("w{ordinal}"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| socket_error(format!("cannot spawn {}: {e}", program.display())))
    }

    /// Ensures the listener is bound and `self.workers` workers are
    /// connected, spawning and accepting as needed. Returns the ready
    /// connections (removed from the idle pool for the duration of a run)
    /// plus whether the respawn circuit breaker clamped the fleet top-up.
    fn checkout_workers(&self) -> Result<(Vec<WorkerConn>, bool), EngineError> {
        let mut state = self.state.lock().expect("socket state poisoned");
        if state.listener.is_none() {
            state.listener = Some(bind_listener()?);
        }
        let addr = state
            .listener
            .as_ref()
            .expect("listener just bound")
            .local_addr()
            .map_err(|e| socket_error(format!("cannot read listener address: {e}")))?;

        // Reap exited children so the fleet top-up below is sized right.
        state
            .children
            .retain_mut(|c| matches!(c.try_wait(), Ok(None)));

        // Drop idle connections whose process died while parked (a parked
        // worker cannot be mid-frame, so a dead peer surfaces on first use;
        // probing here keeps the common path simple).
        let missing = self.workers.saturating_sub(state.idle.len());
        let mut to_spawn = missing.saturating_sub(state.children.len().saturating_sub(
            // children currently backing idle connections
            state.idle.len(),
        ));
        // Flapping-worker circuit breaker: once this executor has spawned
        // `workers + RESPAWN_CAP` processes in total, stop replacing dead
        // ones and degrade to whatever fleet survives.
        let spawn_budget = (self.workers + RESPAWN_CAP).saturating_sub(state.spawned_total);
        let breaker_tripped = to_spawn > spawn_budget;
        to_spawn = to_spawn.min(spawn_budget);
        for _ in 0..to_spawn {
            let child = self.spawn_worker(addr, state.spawned_total)?;
            state.spawned_total += 1;
            state.children.push(child);
        }

        let deadline = Instant::now() + ACCEPT_DEADLINE;
        loop {
            // Never wait for more connections than live processes can
            // provide: with the breaker open (or a child that died right
            // after spawning) the fleet target shrinks below `workers`.
            state
                .children
                .retain_mut(|c| matches!(c.try_wait(), Ok(None)));
            let reachable = state.children.len().max(state.idle.len());
            if state.idle.len() >= self.workers.min(reachable) {
                break;
            }
            let accepted = accept_worker(state.listener.as_ref().expect("listener bound"));
            match accepted {
                Ok(mut conn) => {
                    // The worker leads with HELLO; consume and validate it.
                    conn.set_read_timeout(Some(Duration::from_secs(5)))
                        .map_err(|e| socket_error(format!("cannot configure worker: {e}")))?;
                    let hello = read_frame(&mut conn)?;
                    if hello.kind != kind::HELLO {
                        return Err(socket_error(format!(
                            "worker led with frame kind {} instead of HELLO",
                            hello.kind
                        )));
                    }
                    let index = state.next_index;
                    state.next_index += 1;
                    state.idle.push(WorkerConn { index, conn });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(socket_error(format!("accept failed: {e}"))),
            }
        }
        if state.idle.is_empty() {
            return Err(socket_error(format!(
                "no workers connected within {ACCEPT_DEADLINE:?}"
            )));
        }
        Ok((state.idle.drain(..).collect(), breaker_tripped))
    }

    fn checkin_workers(&self, survivors: Vec<WorkerConn>) {
        let mut state = self.state.lock().expect("socket state poisoned");
        state.idle.extend(survivors);
    }
}

impl Drop for SocketExecutor {
    fn drop(&mut self) {
        let mut state = self.state.lock().expect("socket state poisoned");
        for worker in &mut state.idle {
            let _ = write_frame(&mut worker.conn, &Frame::empty(kind::SHUTDOWN));
            let _ = worker.conn.shutdown(Shutdown::Both);
        }
        for child in &mut state.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Splits the scheduled order into case-contiguous dispatch batches.
///
/// Batches never straddle a case boundary, so a worker's shard confines each
/// context build to as few workers as possible — and they are small enough
/// that a lost worker forfeits little work and survivors rebalance naturally.
fn dispatch_batches(plan: &Plan, order: &[usize], workers: usize) -> VecDeque<Vec<usize>> {
    let batch_size = (order.len() / (workers.max(1) * 4)).clamp(1, 16);
    let mut batches = VecDeque::new();
    let mut current: Vec<usize> = Vec::new();
    let mut current_case = usize::MAX;
    for &unit_id in order {
        let case = plan.units()[unit_id].case_index;
        if !current.is_empty() && (case != current_case || current.len() >= batch_size) {
            batches.push_back(std::mem::take(&mut current));
        }
        current_case = case;
        current.push(unit_id);
    }
    if !current.is_empty() {
        batches.push_back(current);
    }
    batches
}

/// Outcome of driving one worker through one run.
enum WorkerOutcome {
    /// Worker alive and consistent; return it to the idle pool with the
    /// cache activity it reported for this run.
    Alive(WorkerConn, CacheStats),
    /// Worker died or went silent; its pending units were re-queued.
    Lost,
}

impl UnitExecutor for SocketExecutor {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn parallelism(&self) -> usize {
        self.workers
    }

    fn execute(
        &self,
        plan: &Plan,
        order: &[usize],
        cache: &KernelCache,
        sink: &UnitSink<'_>,
    ) -> Result<(), EngineError> {
        if order.is_empty() || sink.is_cancelled() {
            return Ok(());
        }
        let (workers, breaker_tripped) = self.checkout_workers()?;
        if breaker_tripped && workers.len() < self.workers {
            sink.fleet_degraded(workers.len(), self.workers);
        }
        let run_id = self.run_counter.fetch_add(1, Ordering::Relaxed);
        let wire_text = wire::encode_scenario(plan.scenario());
        let queue = Mutex::new(dispatch_batches(plan, order, workers.len()));
        let remaining = AtomicUsize::new(order.len());
        let failed = AtomicBool::new(false);

        let outcomes: Vec<Result<WorkerOutcome, EngineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|worker| {
                    let queue = &queue;
                    let remaining = &remaining;
                    let failed = &failed;
                    let wire_text = wire_text.as_str();
                    scope.spawn(move || {
                        drive_worker(
                            worker, run_id, wire_text, plan, sink, queue, remaining, failed,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker driver thread panicked"))
                .collect()
        });

        let mut survivors = Vec::new();
        let mut first_error = None;
        for outcome in outcomes {
            match outcome {
                Ok(WorkerOutcome::Alive(worker, stats)) => {
                    cache.credit_external(stats.hits, stats.misses);
                    survivors.push(worker);
                }
                Ok(WorkerOutcome::Lost) => {}
                Err(error) => first_error = first_error.or(Some(error)),
            }
        }
        self.checkin_workers(survivors);
        if let Some(error) = first_error {
            return Err(error);
        }
        if remaining.load(Ordering::SeqCst) > 0 && !sink.is_cancelled() {
            return Err(socket_error(format!(
                "every worker was lost with {} units outstanding",
                remaining.load(Ordering::SeqCst)
            )));
        }
        Ok(())
    }
}

/// Drives one worker through one run: RUN handshake, then a dispatch loop
/// pulling batches from the shared queue until no units remain anywhere.
#[allow(clippy::too_many_arguments)]
fn drive_worker(
    mut worker: WorkerConn,
    run_id: u64,
    wire_text: &str,
    plan: &Plan,
    sink: &UnitSink<'_>,
    queue: &Mutex<VecDeque<Vec<usize>>>,
    remaining: &AtomicUsize,
    failed: &AtomicBool,
) -> Result<WorkerOutcome, EngineError> {
    let lost = |worker: &WorkerConn, pending: Vec<usize>, sink: &UnitSink<'_>| {
        let requeued = pending.len();
        if requeued > 0 {
            queue
                .lock()
                .expect("dispatch queue poisoned")
                .push_front(pending);
        }
        sink.worker_lost(worker.index, requeued);
        WorkerOutcome::Lost
    };

    if worker
        .conn
        .set_read_timeout(Some(HEARTBEAT_TIMEOUT))
        .is_err()
    {
        return Ok(lost(&worker, Vec::new(), sink));
    }
    let run = PayloadWriter::new()
        .u64(run_id)
        .str(wire_text)
        .frame(kind::RUN);
    if write_frame(&mut worker.conn, &run).is_err() {
        // A worker that died while parked fails here; nothing dispatched yet.
        return Ok(lost(&worker, Vec::new(), sink));
    }

    let mut stats = CacheStats::default();
    loop {
        if failed.load(Ordering::SeqCst) {
            return Ok(WorkerOutcome::Alive(worker, stats));
        }
        if sink.is_cancelled() {
            return Ok(WorkerOutcome::Alive(worker, stats));
        }
        if remaining.load(Ordering::SeqCst) == 0 {
            return Ok(WorkerOutcome::Alive(worker, stats));
        }
        let Some(batch) = queue.lock().expect("dispatch queue poisoned").pop_front() else {
            // Other workers hold the remaining units in flight; wait for
            // either completion or a re-queue from a lost worker.
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };

        let mut message = PayloadWriter::new().u64(run_id).u64(batch.len() as u64);
        for &unit in &batch {
            message = message.u64(unit as u64);
        }
        if write_frame(&mut worker.conn, &message.frame(kind::DISPATCH)).is_err() {
            return Ok(lost(&worker, batch, sink));
        }

        let mut pending: HashSet<usize> = batch.iter().copied().collect();
        while !pending.is_empty() {
            let frame = match read_frame(&mut worker.conn) {
                Ok(frame) => frame,
                Err(_) => {
                    // Connection error, EOF, or heartbeat-timeout silence.
                    return Ok(lost(&worker, pending.into_iter().collect(), sink));
                }
            };
            match frame.kind {
                kind::HEARTBEAT => {}
                kind::RESULT => {
                    let mut reader = frame.reader();
                    let parsed = (|| -> Result<(u64, UnitRecord, f64), EngineError> {
                        let id = reader.u64()?;
                        let unit = reader.u64()? as usize;
                        let case_index = reader.u64()? as usize;
                        let value = reader.f64_bits()?;
                        let relative_residual = reader.f64_bits()?;
                        let wall = reader.f64_bits()?;
                        let degraded = reader.u64()? != 0;
                        Ok((
                            id,
                            UnitRecord {
                                unit,
                                case_index,
                                value,
                                relative_residual,
                                degraded,
                            },
                            wall,
                        ))
                    })();
                    let Ok((id, record, wall_seconds)) = parsed else {
                        return Ok(lost(&worker, pending.into_iter().collect(), sink));
                    };
                    if id != run_id {
                        continue; // stale frame from a previous run; skip
                    }
                    if !pending.contains(&record.unit) {
                        failed.store(true, Ordering::SeqCst);
                        return Err(socket_error(format!(
                            "worker {} reported unassigned unit {}",
                            worker.index, record.unit
                        )));
                    }
                    // A wall or case index that cannot be true (seconds that
                    // are non-finite, negative or beyond `Duration`, a case
                    // the plan does not give this unit) is as untrustworthy
                    // as a torn frame: lose the worker and re-queue its
                    // batch, this unit included.
                    let wall = Duration::try_from_secs_f64(wall_seconds)
                        .ok()
                        .filter(|_| plan.units()[record.unit].case_index == record.case_index);
                    let Some(wall) = wall else {
                        return Ok(lost(&worker, pending.into_iter().collect(), sink));
                    };
                    pending.remove(&record.unit);
                    sink.unit_started(&plan.units()[record.unit]);
                    sink.complete_timed(record, wall)?;
                    remaining.fetch_sub(1, Ordering::SeqCst);
                }
                kind::STATS => {
                    let mut reader = frame.reader();
                    if let (Ok(id), Ok(hits), Ok(misses)) =
                        (reader.u64(), reader.u64(), reader.u64())
                    {
                        if id == run_id {
                            stats.hits = hits as usize;
                            stats.misses = misses as usize;
                        }
                    }
                }
                kind::ERR => {
                    // A solve error is deterministic: re-dispatching the unit
                    // reproduces it, so fail the run.
                    failed.store(true, Ordering::SeqCst);
                    let message = frame.reader().str().unwrap_or_default();
                    return Err(socket_error(format!(
                        "worker {} failed: {message}",
                        worker.index
                    )));
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Persistent per-process worker state: the warm kernel cache and the plans
/// it has already expanded, keyed by scenario fingerprint. This is what makes
/// the socket executor's warm runs fast — the cache lives as long as the
/// worker process, across every run and every reconnect.
struct WorkerState {
    cache: Arc<KernelCache>,
    plans: HashMap<u64, Plan>,
    assembly: AssemblyParallelism,
    /// `(run_id, fingerprint, cache stats at run start)` of the current run.
    current: Option<(u64, u64, CacheStats)>,
}

impl WorkerState {
    fn new() -> Self {
        Self {
            cache: Arc::new(KernelCache::new()),
            plans: HashMap::new(),
            // The dispatcher sized our assembly share into the environment; a
            // worker launched by hand without it stays serial.
            assembly: AssemblyParallelism::from_env().unwrap_or(AssemblyParallelism::Serial),
            current: None,
        }
    }
}

/// The pause before the worker's reconnect attempt `attempt + 1` (0-based:
/// `reconnect_backoff(0)` paces the first redial). Capped exponential —
/// `min(cap, base · 2^attempt)` — scaled by a deterministic jitter factor in
/// `[0.5, 1.0]` derived from `splitmix64(attempt + 1)`, so a dial schedule
/// is a pure function of the attempt number and chaos runs replay
/// identically.
fn reconnect_backoff(attempt: u32) -> Duration {
    let capped = (RECONNECT_BASE_MS << attempt.min(32)).min(RECONNECT_CAP_MS);
    let jitter_bits = rough_faults::splitmix64(u64::from(attempt) + 1);
    // Map the top 11 bits into [0.5, 1.0].
    let jitter = 0.5 + (jitter_bits >> 53) as f64 / 4096.0;
    Duration::from_millis((capped as f64 * jitter).round() as u64)
}

/// The worker process's main loop: dials the dispatcher at `spec` (a
/// [`SocketAddr`]), serves runs, and redials with backoff after a dropped
/// connection. Returns the process exit code; a `spec` that does not parse
/// fails at once. At start it prints one stderr line with its effective
/// settings: pid, dispatcher address, assembly threads and fault scope.
pub(crate) fn worker_main(spec: &str) -> i32 {
    let addr = match worker_addr(spec) {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("roughsim worker: {e}");
            return 1;
        }
    };
    let mut state = WorkerState::new();
    eprintln!(
        "roughsim worker {pid} dialing {addr}, assembly threads {threads}, fault scope {scope}",
        pid = std::process::id(),
        threads = state.assembly.worker_count(),
        scope = std::env::var(rough_faults::SCOPE_ENV).unwrap_or_else(|_| "none".to_owned()),
    );
    let mut attempt: u32 = 0;
    loop {
        if let Ok(conn) = dial(addr) {
            attempt = 0;
            // Ok(true) is an orderly SHUTDOWN; Ok(false) / Err mean the
            // connection dropped and we should reconnect with backoff.
            if let Ok(true) = serve_connection(conn, &mut state) {
                return 0;
            }
        }
        attempt += 1;
        if attempt > MAX_RECONNECT_ATTEMPTS {
            return 1;
        }
        std::thread::sleep(reconnect_backoff(attempt - 1));
    }
}

/// Serves one connection until SHUTDOWN (`Ok(true)`), peer disconnect
/// (`Ok(false)`), or a transport error. Solve errors are reported in-band
/// (ERR frame) and do not tear down the connection.
fn serve_connection(conn: TcpStream, state: &mut WorkerState) -> Result<bool, EngineError> {
    let writer =
        Arc::new(Mutex::new(conn.try_clone().map_err(|e| {
            socket_error(format!("cannot clone connection: {e}"))
        })?));
    let mut reader = conn;
    {
        let hello = PayloadWriter::new()
            .u64(u64::from(crate::frame::VERSION))
            .u64(u64::from(std::process::id()))
            .frame(kind::HELLO);
        write_frame(&mut *writer.lock().expect("writer lock poisoned"), &hello)?;
    }

    // Heartbeat thread: beacons only while a batch is being computed, so an
    // idle worker never fills the socket buffer of a dispatcher that is not
    // reading. A solve can take arbitrarily long; the beacons are what keep
    // the dispatcher's read timeout from declaring us dead mid-solve.
    let active = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = {
        let writer = Arc::clone(&writer);
        let active = Arc::clone(&active);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                if active.load(Ordering::SeqCst) {
                    // Fault point: go silent past the dispatcher's timeout,
                    // so it declares this worker lost and re-queues.
                    if rough_faults::should_fire("worker.heartbeat.delay") {
                        std::thread::sleep(HEARTBEAT_TIMEOUT + HEARTBEAT_PERIOD * 2);
                    }
                    let frame = Frame::empty(kind::HEARTBEAT);
                    let mut writer = writer.lock().expect("writer lock poisoned");
                    if write_frame(&mut *writer, &frame).is_err() {
                        break;
                    }
                }
                std::thread::sleep(HEARTBEAT_PERIOD);
            }
        })
    };

    let result = serve_frames(&mut reader, &writer, &active, state);
    stop.store(true, Ordering::SeqCst);
    active.store(false, Ordering::SeqCst);
    let _ = heartbeat.join();
    result
}

fn serve_frames(
    reader: &mut TcpStream,
    writer: &Arc<Mutex<TcpStream>>,
    active: &AtomicBool,
    state: &mut WorkerState,
) -> Result<bool, EngineError> {
    loop {
        let frame = match read_frame(reader) {
            Ok(frame) => frame,
            Err(_) => return Ok(false), // peer gone; caller decides on reconnect
        };
        match frame.kind {
            kind::RUN => {
                let mut payload = frame.reader();
                let run_id = payload.u64()?;
                let wire_text = payload.str()?;
                let scenario = wire::decode_scenario(&wire_text)?;
                let fingerprint = wire::scenario_fingerprint(&scenario);
                if !state.plans.contains_key(&fingerprint) {
                    let plan = Plan::new_with_cache(&scenario, Some(&state.cache))?;
                    state.plans.insert(fingerprint, plan);
                }
                state.current = Some((run_id, fingerprint, state.cache.stats()));
            }
            kind::DISPATCH => {
                let mut payload = frame.reader();
                let run_id = payload.u64()?;
                let count = payload.u64()? as usize;
                let mut units = Vec::with_capacity(count);
                for _ in 0..count {
                    units.push(payload.u64()? as usize);
                }
                let Some((current_run, fingerprint, stats_at_start)) = state.current else {
                    send_err(writer, "DISPATCH before RUN");
                    continue;
                };
                if run_id != current_run {
                    send_err(writer, "DISPATCH for an unknown run");
                    continue;
                }
                // Fault point: the worker process dies mid-run; the
                // dispatcher re-queues this batch to the survivors.
                if rough_faults::should_fire("worker.exit") {
                    std::process::exit(86);
                }
                let plan = &state.plans[&fingerprint];
                active.store(true, Ordering::SeqCst);
                let outcome =
                    evaluate_batch(plan, &units, state.assembly, &state.cache, run_id, writer);
                active.store(false, Ordering::SeqCst);
                if let Err(error) = outcome {
                    // A torn result write leaves the outgoing stream
                    // desynchronized; drop the connection instead of framing
                    // an ERR the dispatcher could never parse.
                    if error.to_string().contains("injected torn result frame") {
                        return Ok(false);
                    }
                    send_err(writer, &error.to_string());
                    continue;
                }
                // Cumulative per-run cache delta, so the dispatcher's report
                // reflects worker-side kernel reuse.
                let now = state.cache.stats();
                let stats = PayloadWriter::new()
                    .u64(run_id)
                    .u64((now.hits - stats_at_start.hits) as u64)
                    .u64((now.misses - stats_at_start.misses) as u64)
                    .frame(kind::STATS);
                let mut writer = writer.lock().expect("writer lock poisoned");
                if write_frame(&mut *writer, &stats).is_err() {
                    return Ok(false);
                }
            }
            kind::SHUTDOWN => return Ok(true),
            _ => {}
        }
    }
}

fn evaluate_batch(
    plan: &Plan,
    units: &[usize],
    assembly: AssemblyParallelism,
    cache: &KernelCache,
    run_id: u64,
    writer: &Arc<Mutex<TcpStream>>,
) -> Result<(), EngineError> {
    for &unit_id in units {
        let unit = plan
            .units()
            .get(unit_id)
            .ok_or_else(|| socket_error(format!("unit id {unit_id} out of range")))?;
        let started = Instant::now();
        let record = evaluate_unit(plan, unit, cache, assembly)?;
        let wall = started.elapsed();
        let frame = PayloadWriter::new()
            .u64(run_id)
            .u64(record.unit as u64)
            .u64(record.case_index as u64)
            .f64_bits(record.value)
            .f64_bits(record.relative_residual)
            .f64_bits(wall.as_secs_f64())
            .u64(u64::from(record.degraded))
            .frame(kind::RESULT);
        // Fault point: the connection dies halfway through this RESULT
        // frame — the dispatcher must discard the fragment and re-queue.
        if rough_faults::should_fire("worker.result.torn") {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &frame)?;
            let mut writer = writer.lock().expect("writer lock poisoned");
            io::Write::write_all(&mut *writer, &bytes[..bytes.len() / 2]).ok();
            io::Write::flush(&mut *writer).ok();
            return Err(socket_error("injected torn result frame (fault plan)"));
        }
        let mut writer = writer.lock().expect("writer lock poisoned");
        write_frame(&mut *writer, &frame)?;
    }
    Ok(())
}

fn send_err(writer: &Arc<Mutex<TcpStream>>, message: &str) {
    let frame = PayloadWriter::new().str(message).frame(kind::ERR);
    let mut writer = writer.lock().expect("writer lock poisoned");
    let _ = write_frame(&mut *writer, &frame);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use proptest::prelude::*;
    use rough_core::RoughnessSpec;
    use rough_em::material::Stackup;
    use rough_em::units::{GigaHertz, Micrometers};

    fn scenario() -> Scenario {
        Scenario::builder(Stackup::paper_baseline())
            .name("socket-batch-unit")
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(6.0).into()])
            .cells_per_side(6)
            .max_kl_modes(2)
            .monte_carlo(3)
            .build()
            .unwrap()
    }

    fn plan() -> Plan {
        Plan::new(&scenario()).unwrap()
    }

    #[test]
    fn dispatch_batches_respect_case_boundaries() {
        let plan = plan();
        let order: Vec<usize> = (0..plan.units().len()).collect();
        let batches = dispatch_batches(&plan, &order, 2);
        let mut seen = Vec::new();
        for batch in &batches {
            assert!(!batch.is_empty());
            let case = plan.units()[batch[0]].case_index;
            assert!(
                batch.iter().all(|&u| plan.units()[u].case_index == case),
                "batch {batch:?} straddles a case boundary"
            );
            seen.extend_from_slice(batch);
        }
        assert_eq!(seen, order, "batches must cover the order exactly");
    }

    /// A listener's address, written to the worker env and parsed back, is
    /// dialable and carries a frame exchange.
    #[test]
    fn transport_specs_roundtrip() {
        let listener = bind_listener().unwrap();
        let spec = listener.local_addr().unwrap().to_string();
        assert!(spec.starts_with("127.0.0.1:"));
        let mut client = dial(worker_addr(&spec).unwrap()).unwrap();
        let mut accepted = accept_blocking(&listener);
        write_frame(&mut client, &Frame::empty(kind::HEARTBEAT)).unwrap();
        let frame = read_frame(&mut accepted).unwrap();
        assert_eq!(frame.kind, kind::HEARTBEAT);
    }

    #[test]
    fn connect_rejects_unknown_specs() {
        for spec in [
            "smoke-signal:hill-7",
            "tcp:127.0.0.1:9",
            "unix:/tmp/x.sock",
            "",
        ] {
            assert!(worker_addr(spec).is_err(), "`{spec}` must be refused");
        }
        assert_eq!(worker_main("smoke-signal:hill-7"), 1);
    }

    /// The worker dial schedule, pinned: the pauses a disconnected worker
    /// sleeps between redials, and the fleet constants around them.
    #[test]
    fn worker_dial_schedule_is_pinned() {
        let schedule: Vec<u64> = (0..MAX_RECONNECT_ATTEMPTS)
            .map(|a| reconnect_backoff(a).as_millis() as u64)
            .collect();
        assert_eq!(schedule, [20, 40, 56, 143, 277, 696, 1112, 1295]);
        assert_eq!(
            (MAX_RECONNECT_ATTEMPTS, RECONNECT_CAP_MS, RESPAWN_CAP),
            (8, 1600, 4)
        );
    }

    proptest! {
        // Every pause is a pure function of the attempt and within
        // [cap/2, cap] of the capped exponential envelope.
        #[test]
        fn reconnect_backoff_is_deterministic_and_bounded(attempt in 0u32..u32::MAX) {
            let pause = reconnect_backoff(attempt);
            prop_assert_eq!(pause, reconnect_backoff(attempt));
            let envelope = (RECONNECT_BASE_MS << attempt.min(32)).min(RECONNECT_CAP_MS);
            let ms = pause.as_millis() as u64;
            prop_assert!(ms >= envelope / 2 && ms <= envelope, "{ms} ms vs {envelope}");
        }
    }

    #[test]
    fn worker_reconnects_with_backoff_when_the_listener_arrives_late() {
        // Bind a listener, learn the port, drop it, then re-bind it from a
        // thread after a delay: a connecting worker must retry through the
        // refused window and succeed once the listener exists.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let listener = TcpListener::bind(addr).unwrap();
            let (mut conn, _) = listener.accept().unwrap();
            read_frame(&mut conn).unwrap();
        });
        // Mirror worker_main's dial-with-backoff loop.
        let mut attempt = 0u32;
        let conn = loop {
            match dial(addr) {
                Ok(conn) => break conn,
                Err(_) => {
                    attempt += 1;
                    assert!(attempt <= MAX_RECONNECT_ATTEMPTS, "never connected");
                    std::thread::sleep(Duration::from_millis(25u64 << attempt.min(6)));
                }
            }
        };
        assert!(attempt >= 1, "first dial must have been refused");
        let mut conn = conn;
        write_frame(&mut conn, &Frame::empty(kind::HEARTBEAT)).unwrap();
        binder.join().unwrap();
    }

    fn accept_blocking(listener: &TcpListener) -> TcpStream {
        loop {
            match accept_worker(listener) {
                Ok(conn) => return conn,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("accept failed: {e}"),
            }
        }
    }

    /// How the rogue worker of the frame-level fault test misbehaves.
    #[derive(Debug, Clone, Copy)]
    enum Rogue {
        /// The connection dies halfway through a RESULT frame.
        TornFrame,
        /// A complete RESULT whose wall time is `+inf`.
        InfiniteWall,
        /// A complete RESULT whose finite wall time overflows `Duration`.
        OverflowingWall,
        /// A complete RESULT naming a case the plan does not give the unit.
        WrongCaseIndex,
        /// No frame at all after the DISPATCH, connection left open: the
        /// dispatcher's read times out after [`HEARTBEAT_TIMEOUT`].
        Silent,
    }

    /// Fault injection at the *frame* level: a worker that tears a RESULT
    /// frame, sends a complete one whose wall or case index cannot be true,
    /// or goes silent mid-batch. The dispatcher must treat each like a lost
    /// worker (never committing a record), re-queue the batch to the
    /// survivor, and finish bit-identically.
    #[test]
    fn a_torn_or_inconsistent_result_frame_requeues_to_survivors_bit_identically() {
        use crate::events::{FnObserver, RunEvent};
        use crate::executor::SerialExecutor;
        use crate::run::{Run, RunConfig};

        let scenario = scenario();
        let reference = Run::new(&scenario, RunConfig::new().executor(SerialExecutor))
            .unwrap()
            .execute()
            .unwrap();
        let plan = plan();
        let case_of: Vec<usize> = plan.units().iter().map(|u| u.case_index).collect();
        let cases = plan.cases().len();
        assert!(cases > 1, "a wrong case index needs a second case");

        for rogue_kind in [
            Rogue::TornFrame,
            Rogue::InfiniteWall,
            Rogue::OverflowingWall,
            Rogue::WrongCaseIndex,
            Rogue::Silent,
        ] {
            let listener = bind_listener().unwrap();
            let addr = listener.local_addr().unwrap();

            // Worker 1: honest, served in-process by the real worker loop.
            let honest = std::thread::spawn(move || {
                let conn = dial(addr).unwrap();
                let mut state = WorkerState::new();
                let _ = serve_connection(conn, &mut state);
            });
            // Worker 2: rogue — handshakes, accepts a dispatch, answers its
            // first unit with a bad RESULT frame (or nothing), then hangs up.
            let case_of = case_of.clone();
            let rogue = std::thread::spawn(move || {
                let mut conn = dial(addr).unwrap();
                let hello = PayloadWriter::new()
                    .u64(u64::from(crate::frame::VERSION))
                    .u64(u64::from(std::process::id()))
                    .frame(kind::HELLO);
                write_frame(&mut conn, &hello).unwrap();
                assert_eq!(read_frame(&mut conn).unwrap().kind, kind::RUN);
                let dispatch = read_frame(&mut conn).unwrap();
                assert_eq!(dispatch.kind, kind::DISPATCH);
                let mut payload = dispatch.reader();
                let run_id = payload.u64().unwrap();
                assert!(payload.u64().unwrap() >= 1, "a dispatch carries units");
                let unit = payload.u64().unwrap() as usize;
                let (case_index, wall) = match rogue_kind {
                    Rogue::TornFrame => (case_of[unit], 0.0),
                    Rogue::InfiniteWall => (case_of[unit], f64::INFINITY),
                    Rogue::OverflowingWall => (case_of[unit], 1e30),
                    Rogue::WrongCaseIndex => ((case_of[unit] + 1) % cases, 0.5),
                    Rogue::Silent => {
                        // Stay connected and mute until the dispatcher gives
                        // up on us and closes its end. Never hang up first:
                        // only the dispatcher's read timeout may end this.
                        assert!(read_frame(&mut conn).is_err(), "expected a hang-up");
                        return;
                    }
                };
                let result = PayloadWriter::new()
                    .u64(run_id)
                    .u64(unit as u64)
                    .u64(case_index as u64)
                    .f64_bits(1.0)
                    .f64_bits(0.0)
                    .f64_bits(wall)
                    .u64(0)
                    .frame(kind::RESULT);
                let mut bytes = Vec::new();
                write_frame(&mut bytes, &result).unwrap();
                if let Rogue::TornFrame = rogue_kind {
                    // Full header, half the payload.
                    bytes.truncate(bytes.len() / 2);
                }
                io::Write::write_all(&mut conn, &bytes).unwrap();
                io::Write::flush(&mut conn).unwrap();
                let _ = conn.shutdown(Shutdown::Both);
            });

            // Hand the executor the two pre-connected workers directly (its
            // accept loop normally consumes the HELLO; do the same here).
            let mut idle = Vec::new();
            for index in 0..2 {
                let mut conn = accept_blocking(&listener);
                assert_eq!(read_frame(&mut conn).unwrap().kind, kind::HELLO);
                idle.push(WorkerConn { index, conn });
            }
            let executor = Arc::new(SocketExecutor {
                workers: 2,
                args: Vec::new(),
                core_budget: None,
                state: Mutex::new(SocketState {
                    listener: Some(listener),
                    idle,
                    children: Vec::new(),
                    next_index: 2,
                    spawned_total: 0,
                }),
                run_counter: AtomicU64::new(1),
            });

            let lost = Arc::new(AtomicBool::new(false));
            let lost_flag = Arc::clone(&lost);
            let run = Run::new(
                &scenario,
                RunConfig::new()
                    .executor_arc(Arc::clone(&executor) as Arc<dyn crate::executor::UnitExecutor>)
                    .observer(FnObserver(move |event: &RunEvent| {
                        if let RunEvent::WorkerLost { requeued, .. } = event {
                            assert!(*requeued > 0, "the rogue batch must be re-queued");
                            lost_flag.store(true, Ordering::SeqCst);
                        }
                    })),
            )
            .unwrap();
            // Run under a deadline: a dispatcher that drops the rogue's unit
            // without re-queuing it leaves the survivor waiting forever.
            let (done, outcome) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let _ = done.send(run.execute());
            });
            let report = outcome
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|_| panic!("{rogue_kind:?}: the run panicked or hung"))
                .unwrap();

            assert!(
                lost.load(Ordering::SeqCst),
                "{rogue_kind:?} must surface as WorkerLost"
            );
            assert_eq!(report.records.len(), reference.records.len());
            for (got, want) in report.records.iter().zip(&reference.records) {
                assert_eq!(got.unit, want.unit);
                assert_eq!(got.case_index, want.case_index);
                assert_eq!(
                    got.value.to_bits(),
                    want.value.to_bits(),
                    "{rogue_kind:?}: unit {} must be bit-identical",
                    want.unit
                );
            }

            rogue.join().unwrap();
            drop(executor); // SHUTDOWN frame releases the honest worker loop
            honest.join().unwrap();
        }
    }
}
