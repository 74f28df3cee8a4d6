//! Golden-file regression tests for the engine's campaign reports.
//!
//! Small, deterministic scenarios — a reduced Fig. 5 deterministic-protrusion
//! sweep and a reduced Fig. 6-style Monte-Carlo ensemble — are run through the
//! engine and their per-case CSV rows are diffed against snapshots under
//! `tests/golden/`. The engine's plan-time seeding makes the runs
//! bit-reproducible, so any drift in the numbers is a real behaviour change:
//! either intentional (regenerate the snapshots by running with
//! `REGEN_GOLDEN=1`) or a regression this suite exists to catch.
//!
//! Numeric fields are compared with a relative tolerance (1e-6) so that
//! last-ulp libm differences across platforms do not flake the suite.

use roughsim::engine::CampaignReport;
use roughsim::prelude::*;
use roughsim::surface::RoughSurface;
use std::path::PathBuf;

fn paper_stack() -> Stackup {
    Stackup::new(Conductor::copper_foil(), Dielectric::silicon_dioxide())
}

/// Reduced Fig. 5: the deterministic half-spheroid protrusion swept over
/// three frequencies on a coarse 8-cell grid.
fn fig5_reduced() -> Scenario {
    let tile = 12.0e-6;
    let (height, base_radius) = (5.8e-6, 4.7e-6);
    let cells = 8;
    let surface = RoughSurface::from_fn(cells, tile, |x, y| {
        let dx = x - 0.5 * tile;
        let dy = y - 0.5 * tile;
        let r2 = (dx * dx + dy * dy) / (base_radius * base_radius);
        if r2 < 1.0 {
            height * (1.0 - r2).sqrt()
        } else {
            0.0
        }
    });
    Scenario::builder(paper_stack())
        .name("fig5-golden-reduced")
        .roughness(RoughnessSpec::deterministic(Micrometers::new(12.0)))
        .frequencies([
            GigaHertz::new(2.0).into(),
            GigaHertz::new(6.0).into(),
            GigaHertz::new(10.0).into(),
        ])
        .cells_per_side(cells)
        .deterministic(surface)
        .build()
        .expect("valid reduced Fig. 5 scenario")
}

/// Reduced Fig. 6-style ensemble: a tiny Monte-Carlo campaign over two
/// frequencies with plan-time-seeded realizations.
fn fig6_reduced() -> Scenario {
    Scenario::builder(paper_stack())
        .name("fig6-golden-reduced")
        .roughness(RoughnessSpec::gaussian(
            Micrometers::new(1.0),
            Micrometers::new(1.0),
        ))
        .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(8.0).into()])
        .cells_per_side(6)
        .max_kl_modes(3)
        .monte_carlo(3)
        .master_seed(0x2009)
        .build()
        .expect("valid reduced Fig. 6 scenario")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Runs the scenario and diffs its CSV rows against the named snapshot.
fn check_against_golden(scenario: &Scenario, name: &str) {
    let engine = Engine::builder().threads(2).build();
    let report = engine.run(scenario).expect("campaign");
    compare_with_golden(report, name);
}

/// Runs the scenario with 4 intra-solve assembly threads per unit — the
/// configuration `ROUGHSIM_ASSEMBLY_THREADS=4` selects (the env override is
/// parsed into exactly this `AssemblyParallelism::Threads(4)` value; see
/// `rough_core::parallel`) — and diffs against the *same* snapshot the serial
/// run is pinned to: campaign outputs must be unchanged by parallelism.
fn check_against_golden_with_parallel_assembly(scenario: &Scenario, name: &str) {
    let config = RunConfig::new().executor(ThreadPoolExecutor::with_assembly(
        2,
        AssemblyParallelism::Threads(4),
    ));
    let report = Run::new(scenario, config)
        .expect("plan")
        .execute()
        .expect("campaign");
    compare_with_golden(report, name);
}

fn compare_with_golden(report: CampaignReport, name: &str) {
    let mut actual = vec![CampaignReport::csv_header().to_string()];
    actual.extend(report.csv_rows());

    let path = golden_path(name);
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual.join("\n") + "\n").expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} (run with REGEN_GOLDEN=1)",
            path.display()
        )
    });
    let expected_lines: Vec<&str> = expected.lines().collect();
    assert_eq!(
        expected_lines.len(),
        actual.len(),
        "{name}: row count changed (golden {} vs actual {})",
        expected_lines.len(),
        actual.len()
    );
    for (row, (want, got)) in expected_lines.iter().zip(&actual).enumerate() {
        assert_fields_match(name, row, want, got);
    }
}

/// Field-wise comparison: numbers within 1e-6 relative (1e-9 absolute),
/// everything else exact.
fn assert_fields_match(name: &str, row: usize, want: &str, got: &str) {
    let want_fields: Vec<&str> = want.split(',').collect();
    let got_fields: Vec<&str> = got.split(',').collect();
    assert_eq!(
        want_fields.len(),
        got_fields.len(),
        "{name} row {row}: field count changed\n  golden: {want}\n  actual: {got}"
    );
    for (column, (w, g)) in want_fields.iter().zip(&got_fields).enumerate() {
        match (w.parse::<f64>(), g.parse::<f64>()) {
            (Ok(wv), Ok(gv)) => {
                let tolerance = 1e-9f64.max(1e-6 * wv.abs());
                assert!(
                    (wv - gv).abs() <= tolerance,
                    "{name} row {row} column {column}: {wv} vs {gv}\n  golden: {want}\n  actual: {got}"
                );
            }
            _ => assert_eq!(
                w, g,
                "{name} row {row} column {column}\n  golden: {want}\n  actual: {got}"
            ),
        }
    }
}

#[test]
fn fig5_reduced_matches_golden_corrected() {
    check_against_golden(&fig5_reduced(), "fig5_reduced_corrected.csv");
}

#[test]
fn fig6_reduced_matches_golden_corrected() {
    check_against_golden(&fig6_reduced(), "fig6_reduced_corrected.csv");
}

#[test]
fn fig5_reduced_matches_golden_with_parallel_assembly() {
    // 4 assembly threads per solve (the ROUGHSIM_ASSEMBLY_THREADS=4
    // configuration) against the serial-run snapshot: campaign outputs are
    // unchanged by intra-solve parallelism.
    check_against_golden_with_parallel_assembly(&fig5_reduced(), "fig5_reduced_corrected.csv");
}

#[test]
fn fig6_reduced_matches_golden_with_parallel_assembly() {
    check_against_golden_with_parallel_assembly(&fig6_reduced(), "fig6_reduced_corrected.csv");
}
