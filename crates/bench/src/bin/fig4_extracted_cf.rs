//! Fig. 4 — SWM vs SPM2 with the measurement-extracted correlation function of
//! paper eq. (12): σ = 1 µm, η₁ = 1.4 µm, η₂ = 0.53 µm, 0.1–10 GHz.
//!
//! The frequency sweep is one [`rough_engine::Scenario`] executed as a single
//! parallel campaign.

use rough_baselines::spm2::Spm2Model;
use rough_baselines::RoughnessLossModel;
use rough_bench::{write_csv, Fidelity, FrequencySweep, SscmSweepConfig};
use rough_em::material::{Conductor, Stackup};
use rough_engine::Engine;
use rough_surface::correlation::CorrelationFunction;

fn main() {
    // Worker mode for ROUGHSIM_EXECUTOR=socket runs (no-op otherwise).
    rough_engine::subprocess::maybe_serve_worker();
    let fidelity = Fidelity::from_args();
    let sweep = FrequencySweep::linear_ghz(0.5, 10.0, fidelity.sweep_points());
    let stack = Stackup::paper_baseline();
    let cf = CorrelationFunction::paper_extracted();
    let spm2 = Spm2Model::new(cf, Conductor::copper_foil());
    let config = SscmSweepConfig {
        cells_per_side: fidelity.cells_per_side(),
        max_kl_modes: fidelity.max_kl_modes(),
        order: if fidelity == Fidelity::Paper { 2 } else { 1 },
        ..Default::default()
    };
    let scenario = config.scenario(stack, [cf], sweep.points().iter().copied());

    let engine = Engine::new();
    let report = engine.run(&scenario).expect("Fig. 4 campaign");

    println!(
        "Fig. 4 — SWM vs SPM2, extracted CF (sigma=1um, eta1=1.4um, eta2=0.53um) ({fidelity:?}, {} solves in {:.1} s)",
        report.total_solves,
        report.wall_time.as_secs_f64()
    );
    println!("{:>8} {:>10} {:>10}", "f (GHz)", "SWM", "SPM2");
    let mut rows = Vec::new();
    for (fi, &f) in sweep.points().iter().enumerate() {
        let case = report.case(0, fi).expect("planned case");
        let spm = spm2.enhancement_factor(f);
        println!(
            "{:>8.2} {:>10.4} {:>10.4}",
            f.as_gigahertz(),
            case.mean,
            spm
        );
        rows.push(format!(
            "{:.3},{:.5},{:.5},{}",
            f.as_gigahertz(),
            case.mean,
            spm,
            case.solves
        ));
    }
    let path = write_csv(
        "fig4_extracted_cf.csv",
        "f_ghz,swm_pr_ps,spm2_pr_ps,swm_solves",
        &rows,
    );
    println!("series written to {}", path.display());
}
