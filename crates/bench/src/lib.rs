//! # rough-bench
//!
//! Experiment harness reproducing every table and figure of Chen & Wong
//! (DATE 2009). Each `src/bin/*` binary regenerates one experiment and prints
//! the same series/rows the paper reports (aligned table on stdout plus a CSV
//! file under `results/`). Performance is measured by the separate
//! `perfbench/` package, and the performance gates run as tests
//! (`tests/perf_gates.rs`).
//!
//! Every binary accepts `--full` to run at the paper's fidelity (η/8 grid,
//! 2nd-order SSCM, 5000-sample Monte-Carlo). The default is a reduced *fast*
//! preset sized to finish on a laptop-class single core in minutes while
//! preserving the qualitative shape of every result.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod experiment;
pub mod sweep;

pub use experiment::{Fidelity, FrequencySweep};
pub use sweep::{sscm_mean_enhancement, SscmSweepConfig, SweepOutcome};

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Writes a CSV file under `results/`, creating the directory when needed, and
/// returns the path written.
///
/// # Panics
///
/// Panics if the file cannot be written (experiment drivers treat that as
/// fatal).
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(name);
    let mut file = fs::File::create(&path).expect("create CSV file");
    writeln!(file, "{header}").expect("write CSV header");
    for row in rows {
        writeln!(file, "{row}").expect("write CSV row");
    }
    path
}

/// Returns `true` when the process arguments request the full-fidelity run.
pub fn full_fidelity_requested() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Selects a [`rough_engine::UnitExecutor`] from the `ROUGHSIM_EXECUTOR`
/// environment variable, so every figure driver can switch between
/// in-process and socket execution without code changes. Thin wrapper over
/// [`rough_engine::executor_from_env_budgeted`] with the whole machine's
/// [`rough_engine::core_budget`] — see
/// [`rough_engine::parse_executor_spec_budgeted`] for the accepted values
/// (`serial`, `threads[:N]`, `socket[:N]`).
///
/// Each executor additionally gives every solve its fair share of the core
/// budget as *intra-solve assembly threads* (`units × threads ≤ cores`); the
/// mirroring `ROUGHSIM_ASSEMBLY_THREADS` variable (`serial` or a count)
/// overrides that share — results are bit-identical either way.
///
/// # Panics
///
/// Panics on an unrecognized value — drivers treat a bad configuration as
/// fatal.
pub fn executor_from_env() -> std::sync::Arc<dyn rough_engine::UnitExecutor> {
    rough_engine::executor_from_env_budgeted(rough_engine::core_budget())
        .unwrap_or_else(|e| panic!("ROUGHSIM_EXECUTOR: {e}"))
}

/// A [`rough_engine::RunObserver`] that prints unit/case progress to stderr —
/// the figure drivers' default way of watching long campaigns.
pub fn progress_observer(total_units: usize) -> impl rough_engine::RunObserver {
    use rough_engine::{FnObserver, RunEvent};
    use std::sync::atomic::{AtomicUsize, Ordering};
    let completed = AtomicUsize::new(0);
    FnObserver(move |event: &RunEvent| match event {
        RunEvent::UnitCompleted { .. } => {
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            if done == total_units || done.is_multiple_of(8) {
                eprintln!("  [{done}/{total_units}] units complete");
            }
        }
        RunEvent::RunFinished {
            cache, wall_time, ..
        } => {
            eprintln!(
                "  run finished in {:.1} s (cache: {} hits / {} misses)",
                wall_time.as_secs_f64(),
                cache.hits,
                cache.misses
            );
        }
        _ => {}
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writer_creates_files() {
        let path = write_csv(
            "unit_test_output.csv",
            "a,b",
            &["1,2".to_string(), "3,4".to_string()],
        );
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("3,4"));
        std::fs::remove_file(path).ok();
    }
}
