//! Fig. 5 — SWM vs HBM (and SPM2, which fails here) for a single deterministic
//! conducting half-spheroid: h = 5.8 µm, base diameter 9.4 µm, 1–20 GHz.
//!
//! The frequency sweep of the explicit protrusion is one deterministic-mode
//! [`rough_engine::Scenario`]; the engine solves every frequency in parallel.

use rough_baselines::hbm::HemisphericalBossModel;
use rough_baselines::spm2::Spm2Model;
use rough_baselines::RoughnessLossModel;
use rough_bench::{write_csv, Fidelity, FrequencySweep};
use rough_core::RoughnessSpec;
use rough_em::material::{Conductor, Stackup};
use rough_em::units::Micrometers;
use rough_engine::{Run, RunConfig, Scenario};
use rough_surface::correlation::CorrelationFunction;
use rough_surface::RoughSurface;

fn main() {
    // Worker mode for ROUGHSIM_EXECUTOR=socket: serves dispatched units and
    // exits; a no-op in normal driver runs.
    rough_engine::subprocess::maybe_serve_worker();
    let fidelity = Fidelity::from_args();
    let max_ghz = if fidelity == Fidelity::Paper {
        20.0
    } else {
        10.0
    };
    let sweep = FrequencySweep::linear_ghz(1.0, max_ghz, fidelity.sweep_points());
    let stack = Stackup::paper_baseline();

    // Geometry of the protrusion (paper Fig. 5): height 5.8 um, base diameter
    // 9.4 um, on a patch whose side equals the boss spacing (the tile).
    let height = 5.8e-6;
    let base_radius = 4.7e-6;
    let tile = 12.0e-6;
    let cells = fidelity.cells_per_side().max(16);

    let hbm = HemisphericalBossModel::half_spheroid(
        Micrometers::new(5.8).into(),
        Micrometers::new(4.7).into(),
        Micrometers::new(12.0).into(),
        Conductor::copper_foil(),
    );
    // SPM2 fed with an "equivalent" Gaussian roughness of the same RMS height
    // and base scale — applied far outside its validity, as in the paper.
    let spm2 = Spm2Model::new(
        CorrelationFunction::gaussian(2.45e-6, 2.45e-6),
        Conductor::copper_foil(),
    );

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

    let scenario = Scenario::builder(stack)
        .name("fig5-half-spheroid")
        .roughness(RoughnessSpec::deterministic(Micrometers::new(tile * 1e6)))
        .frequencies(sweep.points().iter().copied())
        .cells_per_side(cells)
        .deterministic(surface)
        .build()
        .expect("valid Fig. 5 scenario");
    // Session-oriented run: executor selected via ROUGHSIM_EXECUTOR
    // (threads[:N] | serial | socket[:N]), progress streamed to stderr.
    let config = RunConfig::new()
        .executor_arc(rough_bench::executor_from_env())
        .observer(rough_bench::progress_observer(sweep.points().len()));
    let report = Run::new(&scenario, config)
        .and_then(Run::execute)
        .expect("Fig. 5 campaign");

    println!(
        "Fig. 5 — SWM vs HBM, conducting half-spheroid ({fidelity:?}, {cells}x{cells} cells, {} solves in {:.1} s)",
        report.total_solves,
        report.wall_time.as_secs_f64()
    );
    println!(
        "{:>8} {:>10} {:>10} {:>12}",
        "f (GHz)", "SWM", "HBM", "SPM2 (invalid)"
    );
    let mut rows = Vec::new();
    for (fi, &f) in sweep.points().iter().enumerate() {
        let swm = report.case(0, fi).expect("planned case").mean;
        let boss = hbm.enhancement_factor(f);
        let spm = spm2.enhancement_factor(f);
        println!(
            "{:>8.2} {:>10.4} {:>10.4} {:>12.4}",
            f.as_gigahertz(),
            swm,
            boss,
            spm
        );
        rows.push(format!(
            "{:.3},{swm:.5},{boss:.5},{spm:.5}",
            f.as_gigahertz()
        ));
    }
    let path = write_csv(
        "fig5_spheroid.csv",
        "f_ghz,swm_pr_ps,hbm_pr_ps,spm2_pr_ps",
        &rows,
    );
    println!("series written to {}", path.display());
}
