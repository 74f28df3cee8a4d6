//! `roughsimd` — the campaign daemon.
//!
//! ```text
//! roughsimd [--addr HOST:PORT] [--state-dir DIR]
//! ```
//!
//! Binds the service address (default `127.0.0.1:7171`, or `ROUGHSIMD_ADDR`),
//! keeps durable queue/checkpoint/report state under the state directory
//! (default `roughsimd-state`, or `ROUGHSIMD_STATE`), and executes campaigns
//! with the executor named by `ROUGHSIM_EXECUTOR` (`threads[:N]`, `serial`,
//! `socket[:N]`; default: hardware-sized thread pool).
//!
//! `ROUGHSIMD_JOBS`, `ROUGHSIMD_JOB_RETRIES` and `ROUGHSIMD_CACHE_BUDGET`
//! set the concurrent jobs, the job retry budget and the report-cache budget
//! in bytes; `ROUGHSIM_FAULTS` arms a fault-injection plan (see
//! `rough_faults`). A malformed value of any of them refuses start. Once
//! started, the daemon prints one line with every setting it resolved.
//!
//! With `ROUGHSIM_EXECUTOR=socket:N` the daemon re-executes *itself* as its
//! persistent workers — which is why `main` consults
//! [`rough_engine::maybe_serve_worker`] before doing anything else.

use rough_service::{Daemon, DaemonConfig};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    // Worker mode: when the engine spawned this process as a socket worker,
    // serve units and exit without touching the daemon path. Must run before
    // anything else.
    rough_engine::maybe_serve_worker();

    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: roughsimd [--addr HOST:PORT] [--state-dir DIR]");
        eprintln!("  env: ROUGHSIMD_ADDR, ROUGHSIMD_STATE, ROUGHSIM_EXECUTOR,");
        eprintln!("       ROUGHSIMD_JOBS, ROUGHSIMD_JOB_RETRIES, ROUGHSIMD_CACHE_BUDGET,");
        eprintln!("       ROUGHSIM_FAULTS");
        return;
    }
    if let Err(e) = rough_faults::init_from_env() {
        eprintln!("roughsimd: {e}");
        std::process::exit(1);
    }
    let addr = arg_value(&args, "--addr")
        .or_else(|| std::env::var("ROUGHSIMD_ADDR").ok())
        .unwrap_or_else(|| "127.0.0.1:7171".to_owned());
    let state_dir = arg_value(&args, "--state-dir")
        .or_else(|| std::env::var("ROUGHSIMD_STATE").ok())
        .unwrap_or_else(|| "roughsimd-state".to_owned());

    match Daemon::start(DaemonConfig::new(&addr, &state_dir)) {
        Ok(daemon) => {
            eprintln!("roughsimd {}", daemon.describe());
            daemon.join();
            eprintln!("roughsimd stopped");
        }
        Err(e) => {
            eprintln!("roughsimd: {e}");
            std::process::exit(1);
        }
    }
}
