//! Tiered convergence-test harness for the SWM near-field assembly.
//!
//! The solver's headline accuracy problem (ROADMAP "SWM high-frequency
//! accuracy") was a *negative discretization bias*: with the seed's fixed
//! near-field rules (since deleted), a deterministic protrusion's Pr/Ps
//! decreased with frequency on 10–16-cell grids once the skin depth dropped
//! below the cell size — the opposite of the physical (and paper Fig. 5)
//! trend. This harness measures the observed order of accuracy via
//! Richardson extrapolation on the deterministic-protrusion benchmark and
//! proves the locally corrected assembly converges from a strictly smaller
//! bias than the seed rules had.
//!
//! Tiers:
//!
//! * **tier 1** (default `cargo test`): the Richardson machinery itself plus a
//!   cheap smoke test on a 6-cell grid.
//! * **slow tier** (`cargo test --release -- --ignored`, the nightly CI job):
//!   the grid-refinement studies at 8/12/16/24 cells and the Fig. 5 trend
//!   check at 16 cells, minutes of dense solves each.

use roughsim::prelude::*;
use roughsim::surface::RoughSurface;

/// The deterministic-protrusion benchmark: a smooth conducting cosine bump
/// (height 3 µm, base radius 5 µm, maximum slope ≈ 0.94) on a 12 µm periodic
/// tile — the Fig. 5 protrusion class, but C¹-smooth so the tangent-plane
/// cell representation is not the accuracy bottleneck and grid-refinement
/// studies measure the *quadrature* order. At 16 GHz the copper skin depth
/// (0.52 µm) is below the 16-cell size (0.75 µm), the regime where the seed
/// near-field rules' negative bias inverted the physical trend.
fn protrusion_surface(cells: usize) -> RoughSurface {
    let tile = 12.0e-6;
    let (height, base_radius) = (3.0e-6, 5.0e-6);
    RoughSurface::from_fn(cells, tile, |x, y| {
        let dx = x - 0.5 * tile;
        let dy = y - 0.5 * tile;
        let r = (dx * dx + dy * dy).sqrt();
        if r < base_radius {
            let c = (std::f64::consts::PI * r / (2.0 * base_radius)).cos();
            height * c * c
        } else {
            0.0
        }
    })
}

/// Solves the protrusion benchmark and returns the enhancement factor Pr/Ps.
fn protrusion_enhancement(cells: usize, ghz: f64) -> f64 {
    let problem = SwmProblem::builder(
        Stackup::new(Conductor::copper_foil(), Dielectric::silicon_dioxide()),
        RoughnessSpec::deterministic(Micrometers::new(12.0)),
    )
    .frequency(GigaHertz::new(ghz).into())
    .cells_per_side(cells)
    .build()
    .expect("valid protrusion problem");
    problem
        .solve(&protrusion_surface(cells))
        .expect("protrusion solve")
        .enhancement_factor()
}

/// Observed order of accuracy from three values on grids `h1 > h2 > h3`
/// (arbitrary, not necessarily geometric, refinement ratios), assuming the
/// model `E(h) = E* + C·h^p`: solves
/// `(E1 − E3)/(E2 − E3) = (h1^p − h3^p)/(h2^p − h3^p)` for `p` by bisection.
///
/// Returns `None` when the sequence is not monotone (no meaningful order).
fn observed_order(grid: [f64; 3], values: [f64; 3]) -> Option<f64> {
    let [h1, h2, h3] = grid;
    let [e1, e2, e3] = values;
    assert!(h1 > h2 && h2 > h3 && h3 > 0.0, "grids must refine");
    let d12 = e1 - e3;
    let d23 = e2 - e3;
    if d23 == 0.0 || (d12 / d23) <= 1.0 {
        return None;
    }
    let target = d12 / d23;
    let ratio = |p: f64| (h1.powf(p) - h3.powf(p)) / (h2.powf(p) - h3.powf(p));
    let (mut lo, mut hi) = (0.05, 12.0);
    // ratio(p) is increasing in p for h1 > h2 > h3; bracket then bisect.
    if target <= ratio(lo) || target >= ratio(hi) {
        return None;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if ratio(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// Richardson-extrapolated limit `E*` from three values on refining grids,
/// using the observed order. Falls back to the finest value when no order can
/// be fitted.
fn richardson_limit(grid: [f64; 3], values: [f64; 3]) -> f64 {
    match observed_order(grid, values) {
        Some(p) => {
            let [_, h2, h3] = grid;
            let [_, e2, e3] = values;
            // E* = E3 − (E2 − E3)·h3^p/(h2^p − h3^p)
            e3 - (e2 - e3) * h3.powf(p) / (h2.powf(p) - h3.powf(p))
        }
        None => values[2],
    }
}

#[test]
fn richardson_machinery_recovers_synthetic_orders() {
    for p in [1.0, 2.0, 3.5] {
        let grid: [f64; 3] = [1.0 / 8.0, 1.0 / 12.0, 1.0 / 16.0];
        let exact = 1.37;
        let values = grid.map(|h| exact + 0.8 * h.powf(p));
        let fitted = observed_order(grid, values).expect("clean synthetic data");
        assert!((fitted - p).abs() < 1e-6, "p = {p}: fitted {fitted}");
        let limit = richardson_limit(grid, values);
        assert!((limit - exact).abs() < 1e-9, "p = {p}: limit {limit}");
    }
}

#[test]
fn richardson_machinery_rejects_non_monotone_sequences() {
    let grid = [1.0 / 8.0, 1.0 / 12.0, 1.0 / 16.0];
    assert!(observed_order(grid, [1.0, 1.2, 1.1]).is_none());
    // The fallback limit is the finest value.
    let limit = richardson_limit(grid, [1.0, 1.2, 1.1]);
    assert!((limit - 1.1).abs() < 1e-15);
}

#[test]
fn smoke_corrected_scheme_solves_the_protrusion_on_a_coarse_grid() {
    // Cheap tier-1 guard that the slow-tier benchmark stays runnable: the
    // corrected scheme produces a physical enhancement on a 6-cell grid.
    let corrected = protrusion_enhancement(6, 4.0);
    assert!(
        corrected > 0.5 && corrected < 3.0,
        "corrected = {corrected}"
    );
}

/// |Pr/Ps − limit| of the seed's fixed near-field rules at 8, 12 and 16
/// cells on this benchmark at 8 GHz, measured against the corrected path's
/// extrapolated limit before those rules were deleted (README, "Accuracy").
const SEED_RULES_BIAS: [f64; 3] = [0.173, 0.072, 0.038];

/// Slow tier: the corrected assembly must converge from a strictly smaller
/// bias than the seed near-field rules had at 8, 12 and 16 cells.
///
/// The reference limit is Richardson-extrapolated from the corrected path on
/// the three finest grids (12/16/24); the corrected path's own finest values
/// enter the limit, which is exactly what Richardson extrapolation is for.
#[test]
#[ignore = "slow tier: minutes of dense MOM solves; run with --release -- --ignored"]
fn corrected_bias_is_strictly_smaller_at_8_12_16_cells() {
    let ghz = 8.0;
    let grids = [8usize, 12, 16];
    let corrected: Vec<f64> = [8usize, 12, 16, 24]
        .iter()
        .map(|&c| protrusion_enhancement(c, ghz))
        .collect();

    let fit_grid = [1.0 / 12.0, 1.0 / 16.0, 1.0 / 24.0];
    let fit_values = [corrected[1], corrected[2], corrected[3]];
    let limit = richardson_limit(fit_grid, fit_values);
    let order = observed_order(fit_grid, fit_values);
    println!("corrected Pr/Ps at 8/12/16/24 cells: {corrected:?}");
    println!("extrapolated limit {limit:.4}, observed order {order:?}");

    for (index, &cells) in grids.iter().enumerate() {
        let corrected_bias = (corrected[index] - limit).abs();
        let seed_bias = SEED_RULES_BIAS[index];
        assert!(
            corrected_bias < seed_bias,
            "cells = {cells}: |corrected bias| {corrected_bias:.4} must beat \
             the seed rules' |bias| {seed_bias:.3} (limit {limit:.4})"
        );
    }
}

/// Slow tier: at 16 cells the corrected path must reproduce the paper's
/// rising Pr/Ps-vs-frequency trend (Fig. 5) that the seed near-field rules
/// inverted.
#[test]
#[ignore = "slow tier: minutes of dense MOM solves; run with --release -- --ignored"]
fn corrected_path_restores_the_rising_fig5_trend_at_16_cells() {
    let cells = 16;
    let series: Vec<f64> = [2.0, 8.0, 16.0]
        .iter()
        .map(|&ghz| protrusion_enhancement(cells, ghz))
        .collect();
    println!("corrected Pr/Ps at 2/8/16 GHz, {cells} cells: {series:?}");
    assert!(
        series[0] < series[1] && series[1] < series[2],
        "Pr/Ps must rise with frequency: {series:?}"
    );
    assert!(
        series.iter().all(|&e| e > 1.0),
        "a protrusion always increases the loss: {series:?}"
    );
}
