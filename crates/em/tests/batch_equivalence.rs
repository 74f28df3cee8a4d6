//! Batched-vs-scalar kernel equivalence on random separations.
//!
//! The batched Ewald paths ([`PeriodicGreen3d::eval_batch_samples`] and
//! friends) must reproduce the scalar oracle to ≤ 1e-12 relative error
//! across the wavenumber regimes the solver actually visits — the
//! quasi-static dielectric side, the lossy conductor side, and the
//! `|k|L ≈ 33` high-frequency case guarded against the Ewald splitting
//! breakdown (the conductor side of the Fig. 5 benchmark at 16 GHz). The two
//! paths differ in summation order and in the batched path's folding of each
//! term's exponentials into the Faddeeva function, so the measured
//! disagreement is typically at the 1e-16 level; the 1e-12 bound is the
//! contract the assembly layer and golden regressions rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rough_em::green::{GreenSample, PeriodicGreen3d, SeparationVector};
use rough_numerics::complex::c64;

const RELATIVE_BOUND: f64 = 1e-12;

/// (wavenumber, period) pairs spanning the solver's |k|L regimes:
/// quasi-static (|k|L ≈ 1e-3), moderately lossy (|k|L ≈ 8.5), propagating,
/// and the |k|L ≈ 33 high-frequency guard case.
fn regimes() -> Vec<(c64, f64)> {
    vec![
        (c64::new(2.0e-4, 0.0), 5.0),
        (c64::new(1.2, 1.2), 5.0),
        (c64::new(0.6, 0.1), 5.0),
        (c64::new(1.95, 1.95), 12.0),
    ]
}

fn random_separations(rng: &mut StdRng, period: f64, count: usize) -> Vec<SeparationVector> {
    (0..count)
        .map(|_| {
            // Stay a little away from the lattice points (where the kernel is
            // singular) but cover several periods and both signs of Δz.
            let dx = rng.gen_range(0.05..0.95) * period * rng.gen_range(-2.0..2.0f64).signum()
                + rng.gen_range(-1.0..1.0) * period;
            let dy = rng.gen_range(0.05..0.95) * period;
            let dz = rng.gen_range(-0.6..0.6) * period;
            SeparationVector::new(dx, dy, dz.abs().max(0.01 * period) * dz.signum())
        })
        .collect()
}

#[test]
fn batched_3d_values_and_gradients_match_scalar_on_random_separations() {
    let mut rng = StdRng::seed_from_u64(0x2009);
    for (k, period) in regimes() {
        let g = PeriodicGreen3d::new(k, period);
        let pairs = random_separations(&mut rng, period, 40);
        let mut samples = vec![GreenSample::default(); pairs.len()];
        g.eval_batch_samples(&pairs, &mut samples);
        for (pair, sample) in pairs.iter().zip(&samples) {
            let scalar = g.sample(pair.dx, pair.dy, pair.dz);
            assert!(
                (sample.value - scalar.value).abs() <= RELATIVE_BOUND * (1.0 + scalar.value.abs()),
                "k={k} L={period} Δ=({}, {}, {}): batch {} vs scalar {}",
                pair.dx,
                pair.dy,
                pair.dz,
                sample.value,
                scalar.value
            );
            for axis in 0..3 {
                assert!(
                    (sample.gradient[axis] - scalar.gradient[axis]).abs()
                        <= RELATIVE_BOUND * (1.0 + scalar.gradient[axis].abs()),
                    "k={k} gradient[{axis}] at Δ=({}, {}, {}): {} vs {}",
                    pair.dx,
                    pair.dy,
                    pair.dz,
                    sample.gradient[axis],
                    scalar.gradient[axis]
                );
            }
        }
    }
}

#[test]
fn batched_3d_regularized_matches_scalar_on_random_near_separations() {
    let mut rng = StdRng::seed_from_u64(0x1609);
    for (k, period) in regimes() {
        let g = PeriodicGreen3d::new(k, period);
        // Near-field-sized separations (the regularized kernel is what the
        // corrected near-field image quadrature batches), plus the origin.
        let mut pairs = vec![SeparationVector::new(0.0, 0.0, 0.0)];
        for _ in 0..20 {
            pairs.push(SeparationVector::new(
                rng.gen_range(-0.2..0.2) * period,
                rng.gen_range(-0.2..0.2) * period,
                rng.gen_range(-0.1..0.1) * period,
            ));
        }
        let mut out = vec![GreenSample::default(); pairs.len()];
        g.eval_batch_regularized(&pairs, &mut out);
        for (pair, got) in pairs.iter().zip(&out) {
            let want = g.regularized(pair.dx, pair.dy, pair.dz);
            assert!(
                (got.value - want.value).abs() <= RELATIVE_BOUND * (1.0 + want.value.abs()),
                "k={k} Δ=({}, {}, {}): {} vs {}",
                pair.dx,
                pair.dy,
                pair.dz,
                got.value,
                want.value
            );
            for axis in 0..3 {
                assert!(
                    (got.gradient[axis] - want.gradient[axis]).abs()
                        <= RELATIVE_BOUND * (1.0 + want.gradient[axis].abs()),
                    "k={k} regularized gradient[{axis}]"
                );
            }
        }
    }
}
