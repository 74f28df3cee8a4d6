//! Broadband loss sweep: adaptively sample the loss-enhancement factor
//! `K(f)` of the paper's Fig. 5 half-spheroid protrusion over 2–10 GHz
//! until the piecewise-linear table meets the tolerance, and export that
//! table as a `Z(f)` CSV, a Touchstone-style `.s1p` and a SPICE
//! effective-conductivity table.
//!
//! Run with `cargo run --release --example broadband_loss`.

use roughsim::engine::sweep::SweepScenario;
use roughsim::prelude::*;
use roughsim::surface::RoughSurface;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The Fig. 5 geometry: a deterministic half-spheroid protrusion
    //    (height 5.8 µm, base radius 4.7 µm) on a 12 µm tile.
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
    let stack = Stackup::new(Conductor::copper_foil(), Dielectric::silicon_dioxide());
    let template = Scenario::builder(stack)
        .name("broadband-loss")
        .roughness(RoughnessSpec::deterministic(Micrometers::new(12.0)))
        .frequencies([GigaHertz::new(2.0).into()]) // replaced by the sweep
        .cells_per_side(cells)
        .deterministic(surface)
        .build()?;

    // 2. The band request: 2–10 GHz, a 5-point coarse scan, refined wherever
    //    the exported table misses a local rational interpolant of the
    //    curve at an interval's midpoint by more than 1e-3, up to 9 solved
    //    points.
    let sweep = SweepScenario::builder(
        template,
        GigaHertz::new(2.0).into(),
        GigaHertz::new(10.0).into(),
    )
    .coarse_points(5)
    .max_points(9)
    .tolerance(1e-3)
    .build()?;

    // 3. Run it. The evaluator owns the warm state: the kernel cache spans
    //    refinement rounds, so later rounds only pay for genuinely new
    //    frequencies.
    let mut evaluator = EngineEvaluator::new();
    let outcome = FrequencySweep::new(sweep).run(&mut evaluator)?;

    println!("broadband loss sweep (Fig. 5 half-spheroid, 2-10 GHz)");
    println!(
        "  {} points in {} rounds (converged: {}, table error: {:.2e})",
        outcome.points.len(),
        outcome.rounds,
        outcome.converged,
        outcome.table_error,
    );
    for point in &outcome.points {
        println!(
            "  {:7.4} GHz  K = {:.6}",
            point.frequency_hz * 1e-9,
            point.value
        );
    }

    // 4. Export the curve for circuit tools.
    let dir = std::env::temp_dir().join("roughsim_broadband_loss");
    std::fs::create_dir_all(&dir)?;
    for path in roughsim::sweep::write_exports(&outcome, &stack, &dir, "broadband_loss")? {
        println!("  wrote {}", path.display());
    }
    Ok(())
}
