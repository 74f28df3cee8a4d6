//! Fig. 3 — SWM vs SPM2 vs the Hammerstad empirical formula for Gaussian
//! surfaces with σ = 1 µm and η = 1, 2, 3 µm, 0.5–9 GHz.
//!
//! The whole η × frequency grid is one [`rough_engine::Scenario`]: the engine
//! deduplicates the shared kernels per case, runs every collocation node in
//! parallel, and returns the grid of SSCM means in one report.

use rough_baselines::hammerstad::HammerstadModel;
use rough_baselines::spm2::Spm2Model;
use rough_baselines::RoughnessLossModel;
use rough_bench::{write_csv, Fidelity, FrequencySweep, SscmSweepConfig};
use rough_em::material::{Conductor, Stackup};
use rough_em::units::Micrometers;
use rough_engine::Engine;
use rough_surface::correlation::CorrelationFunction;

fn main() {
    // Worker mode for ROUGHSIM_EXECUTOR=socket runs (no-op otherwise).
    rough_engine::subprocess::maybe_serve_worker();
    let fidelity = Fidelity::from_args();
    let sweep = FrequencySweep::linear_ghz(1.0, 9.0, fidelity.sweep_points());
    let stack = Stackup::paper_baseline();
    let sigma = 1.0e-6;
    let etas_um = [1.0, 2.0, 3.0];
    let hammerstad = HammerstadModel::new(Micrometers::new(1.0).into(), Conductor::copper_foil());

    let config = SscmSweepConfig {
        cells_per_side: fidelity.cells_per_side(),
        max_kl_modes: fidelity.max_kl_modes(),
        order: if fidelity == Fidelity::Paper { 2 } else { 1 },
        ..Default::default()
    };
    let correlations: Vec<CorrelationFunction> = etas_um
        .iter()
        .map(|&eta_um| CorrelationFunction::gaussian(sigma, eta_um * 1e-6))
        .collect();
    let scenario = config.scenario(stack, correlations.clone(), sweep.points().iter().copied());

    let engine = Engine::new();
    let report = engine.run(&scenario).expect("Fig. 3 campaign");

    println!(
        "Fig. 3 — SWM vs SPM2 vs empirical, Gaussian CF, sigma = 1 um ({fidelity:?}, {} solves in {:.1} s on {} threads)",
        report.total_solves,
        report.wall_time.as_secs_f64(),
        report.threads
    );
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>10}",
        "f (GHz)", "eta", "SWM", "SPM2", "Empirical"
    );

    let mut rows = Vec::new();
    for (r, (&eta_um, cf)) in etas_um.iter().zip(&correlations).enumerate() {
        let spm2 = Spm2Model::new(*cf, Conductor::copper_foil());
        for (fi, &f) in sweep.points().iter().enumerate() {
            let case = report.case(r, fi).expect("planned case");
            let spm = spm2.enhancement_factor(f);
            let emp = hammerstad.enhancement_factor(f);
            println!(
                "{:>8.2} {:>6.1} {:>10.4} {:>10.4} {:>10.4}",
                f.as_gigahertz(),
                eta_um,
                case.mean,
                spm,
                emp
            );
            rows.push(format!(
                "{:.3},{eta_um},{:.5},{:.5},{:.5},{}",
                f.as_gigahertz(),
                case.mean,
                spm,
                emp,
                case.solves
            ));
        }
    }
    let path = write_csv(
        "fig3_gaussian_cf.csv",
        "f_ghz,eta_um,swm_pr_ps,spm2_pr_ps,empirical_pr_ps,swm_solves",
        &rows,
    );
    println!("series written to {}", path.display());
}
