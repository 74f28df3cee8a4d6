//! End-to-end service tests: submit → stream → fetch round trips, cached
//! re-submission, the restart-resume guarantee (a daemon killed mid-job
//! comes back, resumes the partial checkpoint and publishes a report
//! bit-identical to an uninterrupted run), and the concurrent-runner proofs:
//! two jobs observably running at once, concurrent reports bit-identical to
//! serial ones, every interrupted concurrent job resuming across a restart,
//! distributed-worker death during concurrent jobs, batch-priority progress
//! under sustained high-priority load, wire compatibility with clients
//! that predate priorities, and an idle daemon stopping promptly.

use rough_core::RoughnessSpec;
use rough_em::material::Stackup;
use rough_em::units::{GigaHertz, Micrometers};
use rough_engine::{
    wire, CampaignReport, CancelToken, EngineError, FnObserver, Run, RunConfig, RunEvent, Scenario,
    SerialExecutor,
};
use rough_service::{Client, Daemon, DaemonConfig, JobQueue, JobState, Priority, ServiceEvent};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn scenario(name: &str, master_seed: u64) -> Scenario {
    Scenario::builder(Stackup::paper_baseline())
        .name(name)
        .roughness(RoughnessSpec::gaussian(
            Micrometers::new(1.0),
            Micrometers::new(1.0),
        ))
        .frequencies([GigaHertz::new(2.0).into()])
        .cells_per_side(6)
        .max_kl_modes(3)
        .monte_carlo(3)
        .master_seed(master_seed)
        .build()
        .expect("valid scenario")
}

fn serial_reference(scenario: &Scenario) -> CampaignReport {
    Run::new(scenario, RunConfig::new().executor(SerialExecutor))
        .expect("plan")
        .execute()
        .expect("reference campaign")
}

fn assert_reports_bit_identical(a: &CampaignReport, b: &CampaignReport, label: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{label}: record count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.unit, rb.unit, "{label}: unit order");
        assert_eq!(
            ra.value.to_bits(),
            rb.value.to_bits(),
            "{label}: unit {} value",
            ra.unit
        );
    }
    for (ca, cb) in a.cases.iter().zip(&b.cases) {
        assert_eq!(ca.mean.to_bits(), cb.mean.to_bits(), "{label}: case mean");
        assert_eq!(
            ca.std_dev.to_bits(),
            cb.std_dev.to_bits(),
            "{label}: case std"
        );
    }
    assert_eq!(a.csv_rows(), b.csv_rows(), "{label}: CSV rows");
}

fn temp_state(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("rough_service_tests")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn start_daemon(state: &PathBuf) -> Daemon {
    Daemon::start(DaemonConfig::new("127.0.0.1:0", state).executor(Arc::new(SerialExecutor)))
        .expect("daemon starts")
}

/// Runs `join` on a watchdog thread and fails if it has not returned after
/// 10 s: the accept loop blocks in `accept`, so a shutdown that does not wake
/// it hangs here.
fn join_within_10s(daemon: Daemon, label: &str) {
    let (done, joined) = std::sync::mpsc::channel();
    let watchdog = std::thread::spawn(move || {
        daemon.join();
        done.send(()).ok();
    });
    joined
        .recv_timeout(std::time::Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{label}: join() did not return within 10 s"));
    watchdog.join().expect("join thread panicked");
}

#[test]
fn idle_daemon_stops_on_stop_and_on_client_shutdown() {
    let state = temp_state("idle-stop");
    let daemon = start_daemon(&state);
    daemon.stop();
    join_within_10s(daemon, "Daemon::stop");

    let daemon = start_daemon(&state);
    Client::new(daemon.addr())
        .shutdown()
        .expect("SHUTDOWN answered");
    join_within_10s(daemon, "client SHUTDOWN");
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn submit_watch_fetch_roundtrip_with_cached_resubmission() {
    let state = temp_state("roundtrip");
    let daemon = start_daemon(&state);
    let client = Client::new(daemon.addr());
    let scenario = scenario("service-roundtrip", 0x51);

    // Nothing cached before the first submission.
    let fingerprint = wire::scenario_fingerprint(&scenario);
    assert!(client.fetch_checkpoint(fingerprint).unwrap().is_none());

    // Submit and watch the full event stream to completion.
    let events: Arc<std::sync::Mutex<Vec<ServiceEvent>>> = Arc::default();
    let sink = Arc::clone(&events);
    let (submission, outcome) = client
        .submit_watch(&scenario, |event| {
            sink.lock().unwrap().push(event.clone());
        })
        .expect("watched submission");
    assert!(outcome.is_ok(), "job failed: {outcome:?}");
    assert!(!submission.cached);
    assert_eq!(submission.fingerprint, fingerprint);
    let events = events.lock().unwrap();
    let completed = events
        .iter()
        .filter(|e| matches!(e, ServiceEvent::UnitCompleted { .. }))
        .count();
    assert_eq!(completed, 3, "every unit streams a completion event");
    assert!(
        matches!(events.last(), Some(ServiceEvent::Finished { units: 3, .. })),
        "stream ends with Finished: {:?}",
        events.last()
    );

    // The fetched report is bit-identical to a local serial run.
    let fetched = client
        .fetch_report(fingerprint)
        .expect("fetch")
        .expect("report cached after completion");
    assert_reports_bit_identical(
        &serial_reference(&scenario),
        &fetched,
        "daemon-computed vs local serial",
    );

    // Resubmitting the same scenario is served from cache, instantly.
    let (resubmission, outcome) = client
        .submit_watch(&scenario, |_| {})
        .expect("cached resubmission");
    assert!(resubmission.cached);
    assert_eq!(resubmission.job, submission.job);
    assert!(outcome.is_ok());

    let status = client.status().expect("status");
    assert_eq!(status.done, 1);
    assert_eq!(status.failed, 0);

    client.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&state).ok();
}

/// A daemon killed mid-campaign must come back, resume the partial
/// checkpoint via `Run::resume` and publish a report bit-identical to an
/// uninterrupted run. The "killed daemon" state is reconstructed exactly:
/// a journaled `running` job plus its partial engine checkpoint.
#[test]
fn daemon_restart_resumes_partial_jobs_bit_identically() {
    let state = temp_state("restart");
    let scenario = scenario("service-restart", 0x52);
    let scenario_wire = wire::encode_scenario(&scenario);
    let fingerprint = wire::scenario_fingerprint(&scenario);

    // Previous daemon life: job journaled as running…
    let checkpoint_path = {
        let mut queue = JobQueue::open(&state).expect("queue");
        let (job, cached) = queue
            .submit(&scenario_wire, fingerprint, Priority::Normal)
            .expect("submit");
        assert!(!cached);
        queue.mark(job, JobState::Running).expect("mark running");
        queue.checkpoint_path(job)
    };
    // …with a partial checkpoint: interrupt a run after 1 of 3 units.
    let token = CancelToken::default();
    let observer_token = token.clone();
    let completed = AtomicUsize::new(0);
    let interrupted = Run::new(
        &scenario,
        RunConfig::new()
            .executor(SerialExecutor)
            .checkpoint(&checkpoint_path)
            .cancel_token(token)
            .observer(FnObserver(move |event: &RunEvent| {
                if matches!(event, RunEvent::UnitCompleted { .. })
                    && completed.fetch_add(1, Ordering::SeqCst) == 0
                {
                    observer_token.cancel();
                }
            })),
    )
    .expect("plan")
    .execute();
    assert!(matches!(
        interrupted,
        Err(EngineError::Interrupted {
            completed: 1,
            total: 3
        })
    ));

    // Restart: the daemon re-queues the job, resumes it and publishes.
    let daemon = start_daemon(&state);
    let client = Client::new(daemon.addr());
    // Duplicate submission attaches to the SAME restored job (fingerprint
    // dedupe), so watching it doubles as waiting for recovery to finish.
    let (submission, outcome) = client
        .submit_watch(&scenario, |_| {})
        .expect("watch restored job");
    assert!(outcome.is_ok(), "restored job failed: {outcome:?}");
    assert_eq!(submission.fingerprint, fingerprint);

    let fetched = client
        .fetch_report(fingerprint)
        .expect("fetch")
        .expect("report cached after recovery");
    assert_reports_bit_identical(
        &serial_reference(&scenario),
        &fetched,
        "resumed-across-restart vs uninterrupted serial",
    );

    let status = client.status().expect("status");
    assert_eq!(status.done, 1);
    assert_eq!(status.queued, 0);
    assert_eq!(status.failed, 0);

    client.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&state).ok();
}

/// The published report cache is just compacted checkpoint text: it must
/// parse with the engine's tolerant reader and carry the exact fingerprint.
#[test]
fn published_reports_are_compacted_checkpoints() {
    let state = temp_state("published");
    let daemon = start_daemon(&state);
    let client = Client::new(daemon.addr());
    let scenario = scenario("service-published", 0x53);
    let fingerprint = wire::scenario_fingerprint(&scenario);

    let (_, outcome) = client.submit_watch(&scenario, |_| {}).expect("submission");
    assert!(outcome.is_ok());

    let text = client
        .fetch_checkpoint(fingerprint)
        .expect("fetch")
        .expect("cached");
    let parsed = rough_engine::checkpoint::parse(&text).expect("parses as a checkpoint");
    assert_eq!(parsed.header.fingerprint, fingerprint);
    assert_eq!(parsed.records.len(), 3);
    // Compacted: exactly header + one line per record.
    assert_eq!(text.lines().count(), 1 + parsed.records.len());

    client.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&state).ok();
}

/// A scheduler-observable executor: records the class sequence each job was
/// scheduled in and fabricates records with a class-dependent artificial
/// solve time (low-frequency units are the *slow* ones — the opposite of the
/// static `cells⁴·frequency` model, so measured reordering is unmistakable).
#[derive(Debug)]
struct TimedFakeExecutor {
    orders: Arc<std::sync::Mutex<Vec<Vec<String>>>>,
}

impl rough_engine::UnitExecutor for TimedFakeExecutor {
    fn name(&self) -> &'static str {
        "timed-fake"
    }

    fn parallelism(&self) -> usize {
        1
    }

    fn execute(
        &self,
        plan: &rough_engine::Plan,
        order: &[usize],
        _cache: &rough_engine::KernelCache,
        sink: &rough_engine::UnitSink<'_>,
    ) -> Result<(), EngineError> {
        let mut classes = Vec::new();
        for &unit_id in order {
            let unit = &plan.units()[unit_id];
            let class = rough_engine::unit_class(plan, unit);
            sink.unit_started(unit);
            let millis = if class.ends_with("@1GHz") { 60 } else { 5 };
            std::thread::sleep(std::time::Duration::from_millis(millis));
            sink.complete(rough_engine::UnitRecord {
                unit: unit_id,
                case_index: unit.case_index,
                value: 1.0,
                relative_residual: 1e-12,
                degraded: false,
            })?;
            classes.push(class);
        }
        self.orders.lock().unwrap().push(classes);
        Ok(())
    }
}

/// The daemon's calibration loop: job 1 is scheduled by the static model
/// (high frequency first), its measured unit times land in the state dir's
/// `cost_table.json`, and job 2 is reordered by measured cost (the slow
/// low-frequency class first).
#[test]
fn daemon_feeds_cost_table_and_second_job_reorders_by_measured_cost() {
    let state = temp_state("calibration");
    let orders: Arc<std::sync::Mutex<Vec<Vec<String>>>> = Arc::default();
    let daemon = Daemon::start(DaemonConfig::new("127.0.0.1:0", &state).executor(Arc::new(
        TimedFakeExecutor {
            orders: Arc::clone(&orders),
        },
    )))
    .expect("daemon starts");
    let client = Client::new(daemon.addr());

    let two_frequency = |seed: u64| {
        Scenario::builder(Stackup::paper_baseline())
            .name("calibration")
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(1.0).into(), GigaHertz::new(9.0).into()])
            .cells_per_side(5)
            .max_kl_modes(3)
            .monte_carlo(2)
            .master_seed(seed)
            .build()
            .expect("valid scenario")
    };

    let (_, outcome) = client
        .submit_watch(&two_frequency(0x61), |_| {})
        .expect("job 1");
    assert!(outcome.is_ok());

    // Job 1 ran before any measurements existed: the static model orders by
    // frequency, 9 GHz first.
    {
        let orders = orders.lock().unwrap();
        assert_eq!(orders.len(), 1);
        assert!(
            orders[0].first().unwrap().ends_with("@9GHz"),
            "uncalibrated job starts with the statically-expensive class: {:?}",
            orders[0]
        );
    }

    // Its measured unit times were absorbed into the persisted table.
    let table_path = state.join("cost_table.json");
    let table = rough_engine::CostTable::load(&table_path).expect("cost table persisted");
    assert_eq!(table.len(), 2, "both classes measured");
    let slow = table.lookup("c5@1GHz").expect("slow class measured");
    let fast = table.lookup("c5@9GHz").expect("fast class measured");
    assert!(
        slow > fast,
        "measured costs invert the static model: {slow} vs {fast}"
    );

    // Job 2 (different seed, so no cache hit) schedules by measured cost:
    // the genuinely slow 1 GHz class now runs first.
    let (submission, outcome) = client
        .submit_watch(&two_frequency(0x62), |_| {})
        .expect("job 2");
    assert!(outcome.is_ok());
    assert!(!submission.cached);
    {
        let orders = orders.lock().unwrap();
        assert_eq!(orders.len(), 2);
        assert!(
            orders[1].first().unwrap().ends_with("@1GHz"),
            "calibrated job starts with the measured-slow class: {:?}",
            orders[1]
        );
        // All slow-class units precede all fast-class units.
        let first_fast = orders[1]
            .iter()
            .position(|c| c.ends_with("@9GHz"))
            .expect("fast class present");
        assert!(
            orders[1][first_fast..].iter().all(|c| c.ends_with("@9GHz")),
            "longest-first order is total: {:?}",
            orders[1]
        );
    }

    client.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&state).ok();
}

#[test]
fn daemon_sweep_rounds_dedupe_and_export_bit_identically() {
    use rough_engine::SweepScenario;
    use rough_service::DaemonEvaluator;
    use rough_sweep::{zf_csv, FrequencySweep};

    let state = temp_state("sweep");
    let daemon = start_daemon(&state);
    let client = Client::new(daemon.addr());

    // A 3-point sweep (budget == coarse scan): one daemon round, no
    // refinement — small enough for CI, wide enough to hit every layer.
    let sweep = || {
        SweepScenario::builder(
            scenario("sweep-roundtrip", 77),
            GigaHertz::new(2.0).into(),
            GigaHertz::new(10.0).into(),
        )
        .coarse_points(3)
        .max_points(3)
        .tolerance(1e-3)
        .build()
        .expect("valid sweep")
    };
    let stack = Stackup::paper_baseline();

    let events = Arc::new(AtomicUsize::new(0));
    let events_clone = Arc::clone(&events);
    let mut evaluator = DaemonEvaluator::new(&client, move |_event| {
        events_clone.fetch_add(1, Ordering::Relaxed);
    });
    let first = FrequencySweep::new(sweep())
        .run(&mut evaluator)
        .expect("first sweep");
    assert_eq!(first.points.len(), 3);
    assert_eq!(evaluator.rounds(), 1);
    assert_eq!(evaluator.cached_rounds(), 0);
    assert!(
        events.load(Ordering::Relaxed) > 0,
        "daemon streamed no run events"
    );

    // Re-running the identical sweep dedupes every round against the
    // daemon's content-addressed report cache and reproduces the exported
    // table byte for byte.
    let mut warm = DaemonEvaluator::new(&client, |_event: &ServiceEvent| {});
    let second = FrequencySweep::new(sweep())
        .run(&mut warm)
        .expect("second sweep");
    assert_eq!(warm.cached_rounds(), 1, "round was not served from cache");
    assert_eq!(zf_csv(&first, &stack), zf_csv(&second, &stack));
    for (a, b) in first.points.iter().zip(&second.points) {
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }

    client.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&state).ok();
}

/// A serial executor whose `execute` parks until the test releases it,
/// counting how many runs are in flight — the window in which concurrent
/// execution is *observable* from outside via STATUS.
#[derive(Debug, Default)]
struct Gate {
    started: std::sync::Mutex<usize>,
    started_cv: std::sync::Condvar,
    release: std::sync::Mutex<bool>,
    release_cv: std::sync::Condvar,
}

impl Gate {
    fn wait_started(&self, want: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let mut started = self.started.lock().unwrap();
        while *started < want {
            assert!(
                std::time::Instant::now() < deadline,
                "only {} of {want} runs started",
                *started
            );
            let (guard, _) = self
                .started_cv
                .wait_timeout(started, std::time::Duration::from_millis(100))
                .unwrap();
            started = guard;
        }
    }

    fn release_all(&self) {
        *self.release.lock().unwrap() = true;
        self.release_cv.notify_all();
    }
}

#[derive(Debug)]
struct GatedSerialExecutor {
    gate: Arc<Gate>,
}

impl rough_engine::UnitExecutor for GatedSerialExecutor {
    fn name(&self) -> &'static str {
        "gated-serial"
    }

    fn parallelism(&self) -> usize {
        1
    }

    fn execute(
        &self,
        plan: &rough_engine::Plan,
        order: &[usize],
        cache: &rough_engine::KernelCache,
        sink: &rough_engine::UnitSink<'_>,
    ) -> Result<(), EngineError> {
        {
            let mut started = self.gate.started.lock().unwrap();
            *started += 1;
            self.gate.started_cv.notify_all();
        }
        {
            let mut released = self.gate.release.lock().unwrap();
            while !*released {
                released = self.gate.release_cv.wait(released).unwrap();
            }
        }
        SerialExecutor.execute(plan, order, cache, sink)
    }
}

fn wait_status(client: &Client, label: &str, done: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    loop {
        let status = client.status().expect("status");
        if status.done >= done {
            return;
        }
        assert_eq!(status.failed, 0, "{label}: a job failed");
        assert!(
            std::time::Instant::now() < deadline,
            "{label}: stuck at {status:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

/// The tentpole proof: with `max_concurrent_jobs = 2`, two of three
/// mixed-priority jobs are *observably* running at the same time (STATUS
/// reports two `running` jobs while the third queues), and every report is
/// bit-identical to a local serial run of the same scenario.
#[test]
fn concurrent_runners_overlap_and_reports_stay_bit_identical() {
    let state = temp_state("concurrent");
    let gate: Arc<Gate> = Arc::default();
    let daemon = Daemon::start(
        DaemonConfig::new("127.0.0.1:0", &state)
            .executor(Arc::new(GatedSerialExecutor {
                gate: Arc::clone(&gate),
            }))
            .max_concurrent_jobs(2),
    )
    .expect("daemon starts");
    let client = Client::new(daemon.addr());

    let scenarios = [
        (scenario("concurrent-high", 0x71), Priority::High),
        (scenario("concurrent-normal", 0x72), Priority::Normal),
        (scenario("concurrent-batch", 0x73), Priority::Batch),
    ];
    let mut submitted = Vec::new();
    for (scenario, priority) in &scenarios {
        let submission = client
            .submit_priority(scenario, *priority)
            .expect("submission accepted");
        assert!(!submission.cached);
        submitted.push(submission);
    }

    // Two runners must pick up two different jobs and sit in execute()
    // simultaneously — the gate holds them there so STATUS can observe it.
    gate.wait_started(2);
    let (status, jobs) = client.status_detail().expect("status detail");
    assert_eq!(status.running, 2, "two jobs run concurrently: {status:?}");
    assert_eq!(status.queued, 1);
    let running: Vec<u64> = jobs
        .iter()
        .filter(|j| j.state == "running")
        .map(|j| j.id)
        .collect();
    assert_eq!(running.len(), 2);
    // The per-job table reports each submission's priority class.
    for (submission, (_, priority)) in submitted.iter().zip(&scenarios) {
        let row = jobs
            .iter()
            .find(|j| j.id == submission.job)
            .expect("job listed in STATUS");
        assert_eq!(row.priority, *priority);
    }
    // The high-priority job was dispatched (it is not the one still queued).
    assert!(
        running.contains(&submitted[0].job),
        "high-priority job not among the running pair: {running:?}"
    );

    gate.release_all();
    wait_status(&client, "concurrent", 3);

    // Concurrency must not perturb a single bit of any result.
    for (submission, (scenario, _)) in submitted.iter().zip(&scenarios) {
        let fetched = client
            .fetch_report(submission.fingerprint)
            .expect("fetch")
            .expect("report cached");
        assert_reports_bit_identical(
            &serial_reference(scenario),
            &fetched,
            "concurrent daemon run vs local serial",
        );
    }

    client.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&state).ok();
}

/// Restart-resume under concurrency: a daemon dies with TWO jobs mid-flight
/// (both journaled `running`, both with partial checkpoints). The restarted
/// daemon re-queues and resumes BOTH, and each published report is
/// bit-identical to an uninterrupted serial run.
#[test]
fn restart_resumes_all_concurrently_interrupted_jobs_bit_identically() {
    let state = temp_state("restart-concurrent");
    let scenarios = [
        scenario("restart-concurrent-a", 0x81),
        scenario("restart-concurrent-b", 0x82),
    ];

    // Previous daemon life: both jobs journaled running, each with a partial
    // checkpoint interrupted after 1 of its 3 units.
    for (i, scenario) in scenarios.iter().enumerate() {
        let scenario_wire = wire::encode_scenario(scenario);
        let fingerprint = wire::scenario_fingerprint(scenario);
        let checkpoint_path = {
            let mut queue = JobQueue::open(&state).expect("queue");
            let (job, cached) = queue
                .submit(&scenario_wire, fingerprint, Priority::Normal)
                .expect("submit");
            assert!(!cached);
            queue.mark(job, JobState::Running).expect("mark running");
            queue.checkpoint_path(job)
        };
        let token = CancelToken::default();
        let observer_token = token.clone();
        let completed = AtomicUsize::new(0);
        let interrupted = Run::new(
            scenario,
            RunConfig::new()
                .executor(SerialExecutor)
                .checkpoint(&checkpoint_path)
                .cancel_token(token)
                .observer(FnObserver(move |event: &RunEvent| {
                    if matches!(event, RunEvent::UnitCompleted { .. })
                        && completed.fetch_add(1, Ordering::SeqCst) == 0
                    {
                        observer_token.cancel();
                    }
                })),
        )
        .expect("plan")
        .execute();
        assert!(
            matches!(
                interrupted,
                Err(EngineError::Interrupted {
                    completed: 1,
                    total: 3
                })
            ),
            "job {i} interruption went wrong: {interrupted:?}"
        );
    }

    // Restart with two runners: both restored jobs resume concurrently.
    let daemon = Daemon::start(
        DaemonConfig::new("127.0.0.1:0", &state)
            .executor(Arc::new(SerialExecutor))
            .max_concurrent_jobs(2),
    )
    .expect("daemon restarts");
    let client = Client::new(daemon.addr());
    wait_status(&client, "restart-concurrent", 2);

    for scenario in &scenarios {
        let fingerprint = wire::scenario_fingerprint(scenario);
        let fetched = client
            .fetch_report(fingerprint)
            .expect("fetch")
            .expect("report cached after recovery");
        assert_reports_bit_identical(
            &serial_reference(scenario),
            &fetched,
            "resumed-concurrently-across-restart vs uninterrupted serial",
        );
    }
    let status = client.status().expect("status");
    assert_eq!(status.done, 2);
    assert_eq!(status.queued, 0);
    assert_eq!(status.failed, 0);

    client.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&state).ok();
}

/// Sustained high-priority load: a batch job is submitted, then a stream of
/// high-priority jobs is pushed through the daemon one after another. The
/// batch job must reach `done` — the queue's aging promotes it past fresh
/// high-priority arrivals after at most `AGE_STEP × class` dispatches.
#[test]
fn batch_jobs_complete_under_sustained_high_priority_load() {
    let state = temp_state("starvation");
    let daemon = start_daemon(&state);
    let client = Client::new(daemon.addr());

    let batch = scenario("starvation-batch", 0x91);
    let submission = client
        .submit_priority(&batch, Priority::Batch)
        .expect("batch accepted");

    // 2 × the aging bound of the batch class: more than enough dispatches
    // for aging to promote the batch job whatever the interleaving.
    let rounds = 2 * rough_service::queue::AGE_STEP * u64::from(Priority::Batch.class()) + 2;
    for round in 0..rounds {
        let high = scenario("starvation-high", 0xA0 + round);
        let (_, outcome) = client
            .submit_watch_priority(&high, Priority::High, |_| {})
            .expect("high-priority job");
        assert!(outcome.is_ok(), "high job {round} failed: {outcome:?}");
    }

    let (_, jobs) = client.status_detail().expect("status detail");
    let row = jobs
        .iter()
        .find(|j| j.id == submission.job)
        .expect("batch job listed");
    assert_eq!(
        row.state, "done",
        "batch job starved under sustained high-priority load"
    );
    let fetched = client
        .fetch_report(submission.fingerprint)
        .expect("fetch")
        .expect("batch report cached");
    assert_reports_bit_identical(
        &serial_reference(&batch),
        &fetched,
        "batch-under-load vs local serial",
    );

    client.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&state).ok();
}

/// Worker-mode hook for the distributed fault-injection test below: the
/// socket executors re-launch this test binary with
/// `service_worker_entry --exact` as persistent worker processes.
#[test]
fn service_worker_entry() {
    rough_engine::subprocess::maybe_serve_worker();
}

fn socket_executor(workers: usize) -> rough_engine::SocketExecutor {
    rough_engine::SocketExecutor::new(workers).with_args([
        "service_worker_entry",
        "--exact",
        "--nocapture",
    ])
}

/// Fault injection during concurrency: two jobs run at once, each on its own
/// two-worker socket executor; the moment the first unit result lands we kill
/// one worker process under EACH executor. Both jobs must finish on the
/// surviving workers with reports bit-identical to serial runs, and at least
/// one event stream must report the loss.
#[test]
fn worker_death_during_concurrent_jobs_keeps_both_reports_bit_identical() {
    use std::sync::atomic::AtomicBool;

    let state = temp_state("worker-death-concurrent");
    let executor_a = Arc::new(socket_executor(2));
    let executor_b = Arc::new(socket_executor(2));
    let daemon = Daemon::start(DaemonConfig::new("127.0.0.1:0", &state).executors(vec![
        executor_a.clone() as Arc<dyn rough_engine::UnitExecutor>,
        executor_b.clone() as Arc<dyn rough_engine::UnitExecutor>,
    ]))
    .expect("daemon starts");
    let addr = daemon.addr().to_owned();

    let killed = Arc::new(AtomicBool::new(false));
    let worker_lost_seen = Arc::new(AtomicBool::new(false));
    let scenarios = [
        scenario("worker-death-a", 0xC1),
        scenario("worker-death-b", 0xC2),
    ];
    let mut watchers = Vec::new();
    for scenario in scenarios.clone() {
        let addr = addr.clone();
        let killed = Arc::clone(&killed);
        let lost = Arc::clone(&worker_lost_seen);
        let killer_a = Arc::clone(&executor_a);
        let killer_b = Arc::clone(&executor_b);
        watchers.push(std::thread::spawn(move || {
            let client = Client::new(&addr);
            client.submit_watch(&scenario, |event: &ServiceEvent| match event {
                // First result from either job: kill one worker process
                // under each executor, mid-flight for both runs.
                ServiceEvent::UnitCompleted { .. } if !killed.swap(true, Ordering::SeqCst) => {
                    assert!(killer_a.kill_one_worker(), "executor A has a live worker");
                    assert!(killer_b.kill_one_worker(), "executor B has a live worker");
                }
                ServiceEvent::WorkerLost { .. } => {
                    lost.store(true, Ordering::SeqCst);
                }
                _ => {}
            })
        }));
    }
    for watcher in watchers {
        let (_, outcome) = watcher
            .join()
            .expect("watcher thread")
            .expect("watch stream");
        assert!(outcome.is_ok(), "job died with the worker: {outcome:?}");
    }
    assert!(
        worker_lost_seen.load(Ordering::SeqCst),
        "no stream reported the killed workers"
    );

    let client = Client::new(&addr);
    for scenario in &scenarios {
        let fetched = client
            .fetch_report(wire::scenario_fingerprint(scenario))
            .expect("fetch")
            .expect("report cached");
        assert_reports_bit_identical(
            &serial_reference(scenario),
            &fetched,
            "concurrent-with-worker-death vs local serial",
        );
    }

    client.shutdown().expect("shutdown");
    daemon.join();
    std::fs::remove_dir_all(&state).ok();
}

/// Numeric Z(f)-table comparison: structure exact, every value within 1e-6
/// relative (1e-9 absolute) — the bits columns are decoded and compared as
/// numbers so last-ulp libm differences across toolchains don't flake.
fn assert_zf_rows_match(want: &str, got: &str) {
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    assert_eq!(
        want_lines.len(),
        got_lines.len(),
        "row count changed (golden {} vs actual {})",
        want_lines.len(),
        got_lines.len()
    );
    assert_eq!(want_lines[0], got_lines[0], "header changed");
    for (row, (w, g)) in want_lines.iter().zip(&got_lines).enumerate().skip(1) {
        let wf: Vec<&str> = w.split(',').collect();
        let gf: Vec<&str> = g.split(',').collect();
        assert_eq!(wf.len(), gf.len(), "row {row}: column count changed");
        for (col, (wc, gc)) in wf.iter().zip(&gf).enumerate() {
            let decode = |t: &str| -> f64 {
                if col >= 5 {
                    f64::from_bits(u64::from_str_radix(t, 16).expect("bits column"))
                } else {
                    t.parse().expect("numeric column")
                }
            };
            let (wv, gv) = (decode(wc), decode(gc));
            let tol = 1e-6 * wv.abs().max(1e-9);
            assert!(
                (wv - gv).abs() <= tol,
                "row {row} col {col}: golden {wv} vs actual {gv}"
            );
        }
    }
}

/// The `fig5-band-reduced` preset's exported `Z(f)` table is pinned against
/// a golden snapshot — the same file the CI service-smoke job diffs the
/// daemon-computed sweep against. Regenerate with `REGEN_GOLDEN=1`.
#[test]
fn sweep_preset_zf_table_matches_golden() {
    let sweep = rough_service::presets::sweep_by_name("fig5-band-reduced").unwrap();
    let stack = *sweep.template().stack();
    let mut evaluator = rough_sweep::EngineEvaluator::new();
    let outcome = rough_sweep::FrequencySweep::new(sweep)
        .run(&mut evaluator)
        .unwrap();
    let csv = rough_sweep::zf_csv(&outcome, &stack);
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig5_band_zf.csv");
    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, &csv).unwrap();
        eprintln!("regenerated {}", golden.display());
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden fig5_band_zf.csv missing; regenerate with REGEN_GOLDEN=1");
    assert_zf_rows_match(&want, &csv);
}
