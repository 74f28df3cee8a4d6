//! Fig. 6 — 3D SWM vs the simplified 2D SWM for Gaussian roughness with
//! σ = 1 µm and η = 1, 2 µm: 3D roughness produces markedly more loss.
//!
//! The 3D ensembles across the whole η × frequency grid are one Monte-Carlo
//! [`rough_engine::Scenario`]; the 2D comparison column keeps its small
//! explicit loop (the 2D SWM formulation solves 1D contour profiles, which
//! the batch engine does not schedule).

use rough_bench::{write_csv, Fidelity, FrequencySweep};
use rough_core::swm2d::Swm2dProblem;
use rough_core::{RoughnessSpec, SwmProblem};
use rough_em::material::Stackup;
use rough_em::units::Micrometers;
use rough_engine::{Engine, Scenario};
use rough_surface::Profile1d;

fn main() {
    // Worker mode for ROUGHSIM_EXECUTOR=socket runs (no-op otherwise).
    rough_engine::subprocess::maybe_serve_worker();
    let fidelity = Fidelity::from_args();
    let sweep = FrequencySweep::linear_ghz(1.0, 9.0, fidelity.sweep_points());
    let stack = Stackup::paper_baseline();
    // The stochastic average is taken over a small seeded ensemble (the 2D/3D
    // contrast is large compared with the ensemble scatter).
    let ensemble = if fidelity == Fidelity::Paper { 8 } else { 3 };
    let cells = fidelity.cells_per_side().div_ceil(4) * 4; // keep it a multiple of 4
    let cells = cells.next_power_of_two().min(16); // spectral sampling wants powers of two
    let etas_um = [1.0, 2.0];

    let scenario = Scenario::builder(stack)
        .name("fig6-3d-ensemble")
        .roughness_grid(etas_um.iter().map(|&eta_um| {
            RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(eta_um))
        }))
        .frequencies(sweep.points().iter().copied())
        .cells_per_side(cells)
        .monte_carlo(ensemble)
        .master_seed(1)
        .build()
        .expect("valid Fig. 6 scenario");
    let engine = Engine::new();
    let report = engine.run(&scenario).expect("Fig. 6 3D campaign");

    println!(
        "Fig. 6 — 3D SWM vs 2D SWM, Gaussian CF, sigma = 1 um ({fidelity:?}, {} 3D solves in {:.1} s)",
        report.total_solves,
        report.wall_time.as_secs_f64()
    );
    println!(
        "{:>8} {:>6} {:>10} {:>10}",
        "f (GHz)", "eta", "3D SWM", "2D SWM"
    );
    let mut rows = Vec::new();
    for (r, &eta_um) in etas_um.iter().enumerate() {
        for (fi, &f) in sweep.points().iter().enumerate() {
            let mean_3d = report.case(r, fi).expect("planned case").mean;

            // 2D comparison: ridged realizations of the same 1D statistics,
            // solved with the singly-periodic contour formulation.
            let spec = RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(eta_um));
            let problem = SwmProblem::builder(stack, spec)
                .frequency(f)
                .cells_per_side(cells)
                .build()
                .expect("valid configuration");
            let problem_2d = Swm2dProblem::new(stack, f).expect("valid 2D problem");
            let profiles: Vec<Profile1d> = (0..ensemble)
                .map(|seed| {
                    problem
                        .sample_ridged_surface(seed as u64 + 1)
                        .profile_along_x(0)
                })
                .collect();
            // Every realization shares the flat reference (same segment count
            // and period), so it is solved once per (eta, f).
            let flat = problem_2d
                .absorbed_power(&Profile1d::flat(profiles[0].len(), profiles[0].period()))
                .expect("2D flat solve");
            let mut mean_2d = 0.0;
            for profile in &profiles {
                mean_2d += problem_2d.absorbed_power(profile).expect("2D solve") / flat;
            }
            mean_2d /= ensemble as f64;

            println!(
                "{:>8.2} {:>6.1} {:>10.4} {:>10.4}",
                f.as_gigahertz(),
                eta_um,
                mean_3d,
                mean_2d
            );
            rows.push(format!(
                "{:.3},{eta_um},{mean_3d:.5},{mean_2d:.5}",
                f.as_gigahertz()
            ));
        }
    }
    let path = write_csv(
        "fig6_3d_vs_2d.csv",
        "f_ghz,eta_um,swm3d_pr_ps,swm2d_pr_ps",
        &rows,
    );
    println!("series written to {}", path.display());
}
