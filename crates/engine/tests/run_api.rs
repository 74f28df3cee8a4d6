//! Integration tests of the session-oriented run API: executor equivalence
//! (serial vs thread pool vs socket must agree bit for bit), checkpoint
//! interruption + resume determinism, and event streaming.
//!
//! The socket tests re-spawn **this test binary** with a libtest filter
//! pointing at [`engine_worker_entry`], which serves the worker protocol when
//! the worker environment variable is set and is a no-op pass otherwise.

use rough_core::RoughnessSpec;
use rough_em::material::Stackup;
use rough_em::units::{GigaHertz, Micrometers};
use rough_engine::{
    CampaignReport, CancelToken, CostOrdered, EngineError, FnObserver, Run, RunConfig, RunEvent,
    Scenario, SerialExecutor, SocketExecutor, ThreadPoolExecutor, UnitExecutor,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Worker-mode entry point for the socket executor (see module docs).
#[test]
fn engine_worker_entry() {
    rough_engine::subprocess::maybe_serve_worker();
}

fn socket_executor(workers: usize) -> SocketExecutor {
    SocketExecutor::new(workers).with_args(["engine_worker_entry", "--exact", "--nocapture"])
}

fn scenario() -> Scenario {
    Scenario::builder(Stackup::paper_baseline())
        .name("run-api, \"integration\"") // exercises CSV quoting end to end
        .roughness(RoughnessSpec::gaussian(
            Micrometers::new(1.0),
            Micrometers::new(1.0),
        ))
        .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(6.0).into()])
        .cells_per_side(6)
        .max_kl_modes(3)
        .monte_carlo(3)
        .master_seed(0xA11CE)
        .build()
        .expect("valid scenario")
}

fn run_with(executor: impl UnitExecutor + 'static) -> CampaignReport {
    Run::new(&scenario(), RunConfig::new().executor(executor))
        .expect("plan")
        .execute()
        .expect("campaign")
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
        assert_eq!(
            ra.relative_residual.to_bits(),
            rb.relative_residual.to_bits(),
            "{label}: unit {} residual",
            ra.unit
        );
    }
    for (ca, cb) in a.cases.iter().zip(&b.cases) {
        assert_eq!(
            ca.mean.to_bits(),
            cb.mean.to_bits(),
            "{label}: case mean drifted"
        );
        assert_eq!(
            ca.std_dev.to_bits(),
            cb.std_dev.to_bits(),
            "{label}: case std drifted"
        );
    }
    // CSV rows are pure functions of the above; equal bits ⇒ equal text.
    assert_eq!(a.csv_rows(), b.csv_rows(), "{label}: CSV rows");
}

#[test]
fn serial_threadpool_and_socket_executors_agree_bitwise() {
    let serial = run_with(SerialExecutor);
    assert_eq!(serial.records.len(), 6);
    assert!(serial.cases.iter().all(|c| c.mean > 0.5));

    let pooled2 = run_with(ThreadPoolExecutor::new(2));
    let pooled8 = run_with(ThreadPoolExecutor::new(8));
    let socket = run_with(socket_executor(2));

    assert_reports_bit_identical(&serial, &pooled2, "serial vs 2 threads");
    assert_reports_bit_identical(&serial, &pooled8, "serial vs 8 threads");
    assert_reports_bit_identical(&serial, &socket, "serial vs socket");
    assert_eq!(socket.threads, 2);
}

fn temp_checkpoint(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rough_engine_run_api");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Runs the scenario, cancelling after `interrupt_after` completed units,
/// then resumes from the checkpoint with `resume_executor` and returns the
/// final report.
fn interrupt_and_resume(
    name: &str,
    interrupt_after: usize,
    resume_executor: impl UnitExecutor + 'static,
) -> CampaignReport {
    let path = temp_checkpoint(name);
    let token = CancelToken::default();
    let observer_token = token.clone();
    let completed = AtomicUsize::new(0);
    let config = RunConfig::new()
        .executor(SerialExecutor)
        .checkpoint(&path)
        .cancel_token(token)
        .observer(FnObserver(move |event: &RunEvent| {
            if matches!(event, RunEvent::UnitCompleted { .. })
                && completed.fetch_add(1, Ordering::SeqCst) + 1 == interrupt_after
            {
                observer_token.cancel();
            }
        }));
    let run = Run::new(&scenario(), config).expect("plan");
    match run.execute() {
        Err(EngineError::Interrupted { completed, total }) => {
            assert_eq!(completed, interrupt_after);
            assert_eq!(total, 6);
        }
        other => panic!("expected interruption, got {other:?}"),
    }

    // Resume rebuilds the scenario from the checkpoint header alone.
    let resumed = Run::resume(&path, RunConfig::new().executor(resume_executor)).expect("resume");
    assert_eq!(resumed.resumed_units(), interrupt_after);
    assert_eq!(resumed.remaining_units(), 6 - interrupt_after);
    let report = resumed.execute().expect("resumed campaign");
    std::fs::remove_file(&path).ok();
    report
}

#[test]
fn interrupted_runs_resume_bit_identically_across_executors() {
    let reference = run_with(SerialExecutor);
    for (name, threads) in [
        ("resume-1t.jsonl", 1),
        ("resume-2t.jsonl", 2),
        ("resume-8t.jsonl", 8),
    ] {
        let resumed = interrupt_and_resume(name, 2, ThreadPoolExecutor::new(threads));
        assert_reports_bit_identical(
            &reference,
            &resumed,
            &format!("fresh vs resumed ({threads} threads)"),
        );
    }
    let resumed = interrupt_and_resume("resume-socket.jsonl", 3, socket_executor(2));
    assert_reports_bit_identical(&reference, &resumed, "fresh vs resumed (socket)");
}

#[test]
fn resume_after_cost_ordered_interruption_matches_plan_order_runs() {
    // Interrupt a cost-ordered socket run, resume serially in plan order:
    // schedule and executor may change across the interruption without
    // affecting a single output bit.
    let path = temp_checkpoint("resume-cross-schedule.jsonl");
    let token = CancelToken::default();
    let observer_token = token.clone();
    let completed = AtomicUsize::new(0);
    let config = RunConfig::new()
        .executor(socket_executor(2))
        .scheduler(CostOrdered::new())
        .checkpoint(&path)
        .cancel_token(token)
        .observer(FnObserver(move |event: &RunEvent| {
            if matches!(event, RunEvent::UnitCompleted { .. })
                && completed.fetch_add(1, Ordering::SeqCst) + 1 == 2
            {
                observer_token.cancel();
            }
        }));
    let result = Run::new(&scenario(), config).expect("plan").execute();
    let recorded = match result {
        Err(EngineError::Interrupted { completed, total }) => {
            assert_eq!(total, 6);
            completed
        }
        Ok(_) => panic!("run should have been interrupted"),
        Err(other) => panic!("unexpected failure: {other}"),
    };
    assert!(recorded >= 2, "at least the trigger units are recorded");

    let resumed = Run::resume(&path, RunConfig::new().executor(SerialExecutor))
        .expect("resume")
        .execute()
        .expect("resumed campaign");
    assert_reports_bit_identical(&run_with(SerialExecutor), &resumed, "cross-schedule resume");
    std::fs::remove_file(&path).ok();
}

#[test]
fn events_stream_through_shared_engine_cache_runs() {
    // Run twice on one shared cache: the second run must be fully cached and
    // still stream a complete event sequence ending in RunFinished carrying
    // the cache statistics.
    let cache = Arc::new(rough_engine::KernelCache::new());
    let scenario = scenario();
    Run::new(
        &scenario,
        RunConfig::new()
            .executor(SerialExecutor)
            .cache(Arc::clone(&cache)),
    )
    .expect("plan")
    .execute()
    .expect("first run");

    let (config, events) = RunConfig::new()
        .executor(SerialExecutor)
        .cache(Arc::clone(&cache))
        .observer_channel();
    let report = Run::new(&scenario, config)
        .expect("plan")
        .execute()
        .expect("second run");
    assert_eq!(report.cache.misses, 0, "second run fully cached");

    let events: Vec<RunEvent> = events.try_iter().collect();
    match events.last() {
        Some(RunEvent::RunFinished { units, cache, .. }) => {
            assert_eq!(*units, 6);
            assert_eq!(cache.misses, 0);
            assert!(cache.hits >= 6);
        }
        other => panic!("expected RunFinished, got {other:?}"),
    }
}

#[test]
fn socket_executor_agrees_bitwise_and_stays_warm_across_runs() {
    let reference = run_with(SerialExecutor);

    // One persistent worker, two runs on the same executor: the second run
    // must hit the *worker-side* cache for every unit, and every unit must
    // carry a worker-measured wall time.
    let executor: Arc<SocketExecutor> = Arc::new(socket_executor(1));
    let first = Run::new(
        &scenario(),
        RunConfig::new().executor_arc(executor.clone() as Arc<dyn UnitExecutor>),
    )
    .expect("plan")
    .execute()
    .expect("first socket campaign");
    assert_reports_bit_identical(&reference, &first, "serial vs socket (cold)");
    assert!(
        first.cache.misses > 0,
        "cold run populates the worker cache"
    );
    assert!(
        first.unit_times.iter().all(Option::is_some),
        "every remote unit carries a worker-measured wall time"
    );

    let second = Run::new(
        &scenario(),
        RunConfig::new().executor_arc(executor.clone() as Arc<dyn UnitExecutor>),
    )
    .expect("plan")
    .execute()
    .expect("second socket campaign");
    assert_reports_bit_identical(&reference, &second, "serial vs socket (warm)");
    assert_eq!(
        second.cache.misses, 0,
        "warm worker reuses every cached context"
    );
    assert!(
        second.cache.hits > 0,
        "warm hits are credited to the report"
    );
}

#[test]
fn socket_run_survives_a_worker_killed_mid_run_bit_identically() {
    let reference = run_with(SerialExecutor);

    let executor: Arc<SocketExecutor> = Arc::new(socket_executor(2));
    let killer = executor.clone();
    let killed = AtomicBool::new(false);
    let worker_lost_seen = Arc::new(AtomicBool::new(false));
    let lost_flag = worker_lost_seen.clone();
    let config = RunConfig::new()
        .executor_arc(executor.clone() as Arc<dyn UnitExecutor>)
        .observer(FnObserver(move |event: &RunEvent| match event {
            // Kill a live worker process right after the first result lands:
            // its in-flight units must be re-dispatched to the survivor.
            RunEvent::UnitCompleted { .. } if !killed.swap(true, Ordering::SeqCst) => {
                assert!(killer.kill_one_worker(), "a worker child is live");
            }
            RunEvent::WorkerLost { .. } => {
                lost_flag.store(true, Ordering::SeqCst);
            }
            _ => {}
        }));
    let report = Run::new(&scenario(), config)
        .expect("plan")
        .execute()
        .expect("campaign survives worker loss");
    assert!(
        worker_lost_seen.load(Ordering::SeqCst),
        "the dispatcher reports the lost worker"
    );
    assert_reports_bit_identical(&reference, &report, "serial vs socket (worker killed)");
}

/// The flapping-worker circuit breaker: kill a worker during every run on one
/// executor. The respawn cap (4 beyond the initial fleet of 2) covers the
/// first 5 runs; after that the executor stops respawning, streams
/// `FleetDegraded` and finishes on the survivor, bit-identically.
#[test]
fn respawn_cap_trips_the_circuit_breaker_bit_identically() {
    let reference = run_with(SerialExecutor);
    let executor: Arc<SocketExecutor> = Arc::new(socket_executor(2));
    for run in 1..=12 {
        let killer = executor.clone();
        let killed = AtomicBool::new(false);
        let degraded = Arc::new(AtomicBool::new(false));
        let degraded_flag = degraded.clone();
        let config = RunConfig::new()
            .executor_arc(executor.clone() as Arc<dyn UnitExecutor>)
            .observer(FnObserver(move |event: &RunEvent| match event {
                RunEvent::FleetDegraded { configured, .. } => {
                    assert_eq!(*configured, 2);
                    degraded_flag.store(true, Ordering::SeqCst);
                }
                // A degraded run keeps its last worker alive.
                RunEvent::UnitCompleted { .. }
                    if !degraded_flag.load(Ordering::SeqCst)
                        && !killed.swap(true, Ordering::SeqCst) =>
                {
                    assert!(killer.kill_one_worker(), "a worker child is live");
                }
                _ => {}
            }));
        let report = Run::new(&scenario(), config)
            .expect("plan")
            .execute()
            .expect("campaign survives worker loss");
        assert_reports_bit_identical(&reference, &report, &format!("serial vs socket run {run}"));
        if degraded.load(Ordering::SeqCst) {
            assert!(
                run > 5,
                "breaker tripped at run {run}, within the respawn cap"
            );
            return;
        }
    }
    panic!("FleetDegraded never arrived within 12 runs");
}

#[test]
fn resume_rejects_corrupt_checkpoints() {
    let path = temp_checkpoint("corrupt.jsonl");
    std::fs::write(&path, "not a checkpoint\n").unwrap();
    assert!(matches!(
        Run::resume(&path, RunConfig::new()),
        Err(EngineError::Checkpoint(_))
    ));
    std::fs::remove_file(&path).ok();
}
