//! `roughsim-client` — CLI client of the campaign daemon.
//!
//! ```text
//! roughsim-client submit --preset NAME [--priority high|normal|batch] [--watch] [--csv PATH] [--addr HOST:PORT]
//! roughsim-client sweep --preset NAME [--watch] [--csv PATH] [--export DIR [--base NAME]]
//! roughsim-client fetch --fingerprint HEX --csv PATH [--addr HOST:PORT]
//! roughsim-client status [--addr HOST:PORT]
//! roughsim-client shutdown [--addr HOST:PORT]
//! ```
//!
//! `submit --priority` picks the scheduling class (default `normal`):
//! `high` jobs dispatch before the backlog, `batch` jobs yield until the
//! queue's aging promotes them. `submit --watch` streams the daemon's typed
//! run events to stderr and, when `--csv` is given, fetches the finished
//! report and writes its CSV rows. `status` prints the queue counters
//! followed by one `job <id> <priority> <state>` line per known job.
//! `sweep` drives a broadband adaptive sweep preset through the daemon round
//! by round (each round dedupes against the daemon's report cache), prints
//! per-point progress, and writes the exported `Z(f)` table (`--csv`) and/or
//! the full CSV + Touchstone + SPICE export set (`--export DIR`); its JSON
//! summary goes to stdout. `fetch` retrieves a previously cached report by
//! scenario fingerprint (the hex value `submit` prints). The daemon address
//! defaults to `127.0.0.1:7171` or `ROUGHSIMD_ADDR`.

use rough_engine::{CampaignReport, FnObserver, RunEvent};
use rough_service::{presets, Client, DaemonEvaluator, Priority, ServiceEvent};
use rough_sweep::FrequencySweep;
use std::sync::Arc;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn usage() -> ! {
    eprintln!("usage: roughsim-client <submit|sweep|fetch|status|shutdown> [options]");
    eprintln!("  submit --preset NAME [--priority high|normal|batch] [--watch] [--csv PATH] [--addr HOST:PORT]");
    eprintln!("  sweep --preset NAME [--watch] [--csv PATH] [--export DIR [--base NAME]]");
    eprintln!("  fetch --fingerprint HEX --csv PATH [--addr HOST:PORT]");
    eprintln!("  status | shutdown [--addr HOST:PORT]");
    std::process::exit(2);
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("roughsim-client: {message}");
    std::process::exit(1);
}

fn write_csv(report: &CampaignReport, path: &str) {
    let mut text = CampaignReport::csv_header().to_owned();
    for row in report.csv_rows() {
        text.push('\n');
        text.push_str(&row);
    }
    text.push('\n');
    if let Err(e) = std::fs::write(path, text) {
        fail(format!("cannot write {path}: {e}"));
    }
    eprintln!("wrote {path}");
}

fn print_event(event: &ServiceEvent) {
    match event {
        ServiceEvent::UnitStarted { unit, case } => {
            eprintln!("  unit {unit} started (case {case})");
        }
        ServiceEvent::UnitCompleted {
            unit,
            value,
            degraded,
            ..
        } => {
            let marker = if *degraded { " (degraded solve)" } else { "" };
            eprintln!("  unit {unit} completed: {value:.6}{marker}");
        }
        ServiceEvent::CaseCompleted { case, units } => {
            eprintln!("  case {case} completed ({units} units)");
        }
        ServiceEvent::WorkerLost { worker, requeued } => {
            eprintln!("  worker {worker} lost; {requeued} units re-queued");
        }
        ServiceEvent::FleetDegraded { active, configured } => {
            eprintln!("  fleet degraded: {active}/{configured} workers (circuit breaker open)");
        }
        ServiceEvent::CheckpointWritten { units_recorded } => {
            eprintln!("  checkpoint: {units_recorded} records");
        }
        ServiceEvent::Finished {
            units,
            wall_seconds,
        } => {
            eprintln!("  finished: {units} units in {wall_seconds:.1} s");
        }
        ServiceEvent::SweepPoint {
            solved,
            budget,
            frequency_hz,
        } => {
            eprintln!(
                "  sweep point {solved}/{budget}: {:.4} GHz",
                frequency_hz * 1e-9
            );
        }
    }
}

fn main() {
    // Keep worker-mode symmetry with roughsimd: if this binary is ever used
    // as an executor worker target, serve and exit before CLI parsing.
    rough_engine::maybe_serve_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        usage();
    };
    let addr = arg_value(&args, "--addr")
        .or_else(|| std::env::var("ROUGHSIMD_ADDR").ok())
        .unwrap_or_else(|| "127.0.0.1:7171".to_owned());
    let client = Client::new(&addr);

    match command.as_str() {
        "submit" => {
            let Some(preset) = arg_value(&args, "--preset") else {
                usage();
            };
            let scenario = presets::by_name(&preset).unwrap_or_else(|e| fail(e));
            let watch = args.iter().any(|a| a == "--watch");
            let csv = arg_value(&args, "--csv");
            let priority = match arg_value(&args, "--priority") {
                Some(token) => Priority::parse(&token).unwrap_or_else(|| {
                    fail(format!(
                        "bad priority `{token}` (expected high, normal or batch)"
                    ))
                }),
                None => Priority::Normal,
            };
            if watch {
                let (submission, outcome) = client
                    .submit_watch_priority(&scenario, priority, print_event)
                    .unwrap_or_else(|e| fail(e));
                eprintln!(
                    "job {} fingerprint {:016x} (cached: {})",
                    submission.job, submission.fingerprint, submission.cached
                );
                if let Err(message) = outcome {
                    fail(format!("job failed: {message}"));
                }
                if let Some(path) = csv {
                    match client.fetch_report(submission.fingerprint) {
                        Ok(Some(report)) => write_csv(&report, &path),
                        Ok(None) => fail("job finished but no report is cached"),
                        Err(e) => fail(e),
                    }
                }
            } else {
                let submission = client
                    .submit_priority(&scenario, priority)
                    .unwrap_or_else(|e| fail(e));
                println!("{:016x}", submission.fingerprint);
                eprintln!(
                    "job {} fingerprint {:016x} (cached: {})",
                    submission.job, submission.fingerprint, submission.cached
                );
                if csv.is_some() {
                    fail("--csv requires --watch (the report exists only after the job runs)");
                }
            }
        }
        "sweep" => {
            let Some(preset) = arg_value(&args, "--preset") else {
                usage();
            };
            let sweep = presets::sweep_by_name(&preset).unwrap_or_else(|e| fail(e));
            let watch = args.iter().any(|a| a == "--watch");
            let csv = arg_value(&args, "--csv");
            let export_dir = arg_value(&args, "--export");
            let stack = *sweep.template().stack();
            let mut evaluator = DaemonEvaluator::new(&client, |event: &ServiceEvent| {
                if watch {
                    print_event(event);
                }
            });
            let driver =
                FrequencySweep::new(sweep).observer(Arc::new(FnObserver(|event: &RunEvent| {
                    if let RunEvent::SweepPointSolved {
                        frequency_hz,
                        value,
                        solved,
                        budget,
                    } = event
                    {
                        eprintln!(
                            "sweep point {solved}/{budget}: {:.4} GHz -> K = {value:.6}",
                            frequency_hz * 1e-9
                        );
                    }
                })));
            let outcome = driver.run(&mut evaluator).unwrap_or_else(|e| fail(e));
            eprintln!(
                "sweep done: {} points in {} rounds (converged {}, table error {:e}, daemon-cached rounds {}/{})",
                outcome.points.len(),
                outcome.rounds,
                outcome.converged,
                outcome.table_error,
                evaluator.cached_rounds(),
                evaluator.rounds(),
            );
            if let Some(path) = &csv {
                if let Err(e) = std::fs::write(path, rough_sweep::zf_csv(&outcome, &stack)) {
                    fail(format!("cannot write {path}: {e}"));
                }
                eprintln!("wrote {path}");
            }
            if let Some(dir) = &export_dir {
                let base = arg_value(&args, "--base").unwrap_or_else(|| preset.clone());
                match rough_sweep::write_exports(&outcome, &stack, dir, &base) {
                    Ok(paths) => {
                        for path in paths {
                            eprintln!("wrote {}", path.display());
                        }
                    }
                    Err(e) => fail(format!("cannot export to {dir}: {e}")),
                }
            }
            print!("{}", outcome.to_json());
        }
        "fetch" => {
            let (Some(fingerprint), Some(path)) =
                (arg_value(&args, "--fingerprint"), arg_value(&args, "--csv"))
            else {
                usage();
            };
            let fingerprint = u64::from_str_radix(fingerprint.trim_start_matches("0x"), 16)
                .unwrap_or_else(|_| fail(format!("bad fingerprint `{fingerprint}`")));
            match client.fetch_report(fingerprint) {
                Ok(Some(report)) => write_csv(&report, &path),
                Ok(None) => fail(format!("no cached report for {fingerprint:016x}")),
                Err(e) => fail(e),
            }
        }
        "status" => {
            let (status, jobs) = client.status_detail().unwrap_or_else(|e| fail(e));
            println!(
                "queued {} running {} done {} failed {} quarantined {}",
                status.queued, status.running, status.done, status.failed, status.quarantined
            );
            for job in jobs {
                println!("job {} {} {}", job.id, job.priority.label(), job.state);
            }
        }
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| fail(e));
            eprintln!("daemon acknowledged shutdown");
        }
        _ => usage(),
    }
}
