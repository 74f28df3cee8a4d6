//! FFT-based spectral synthesis of Gaussian random rough surfaces.
//!
//! A zero-mean stationary Gaussian surface with isotropic spectrum `W(k)` is
//! synthesized on an `n × n` periodic grid of side `L` by colouring white
//! Gaussian noise in the spectral domain:
//!
//! ```text
//! f(r) = √2 · Re Σ_k √(W(k) / L²) · ξ_k · e^{j k·r},   ξ_k ~ CN(0, 1)
//! ```
//!
//! which reproduces the prescribed correlation function in the ensemble sense
//! (verified by the statistical tests below). This is the standard spectral
//! method of Tsang et al. used for Fig. 2 of the paper and for the Monte-Carlo
//! reference ensemble.

use crate::correlation::CorrelationFunction;
use crate::spectrum::SurfaceSpectrum;
use crate::surface::{RoughSurface, SurfaceError};
use rand::Rng;
use rand_distr_normal::StandardNormalPair;
use rough_numerics::complex::c64;
use rough_numerics::fft::{fft2_in_place, Direction};
use std::f64::consts::PI;

/// Minimal Box–Muller helper so the crate only depends on `rand`'s uniform
/// sampling (keeping the dependency surface small).
mod rand_distr_normal {
    use rand::Rng;

    /// Draws pairs of independent standard normal variates via Box–Muller.
    pub struct StandardNormalPair;

    impl StandardNormalPair {
        /// Draws one pair of independent `N(0, 1)` samples.
        pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
            // Avoid log(0).
            let u1: f64 = loop {
                let u: f64 = rng.gen();
                if u > 1e-300 {
                    break u;
                }
            };
            let u2: f64 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            (r * theta.cos(), r * theta.sin())
        }
    }
}

/// Generator of Gaussian rough-surface realizations with a prescribed
/// correlation function.
///
/// # Example
///
/// ```
/// use rough_surface::correlation::CorrelationFunction;
/// use rough_surface::generation::spectral::SpectralSurfaceGenerator;
/// use rand::SeedableRng;
///
/// let cf = CorrelationFunction::gaussian(1.0e-6, 1.0e-6);
/// let gen = SpectralSurfaceGenerator::new(cf, 32, 5.0e-6)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let surface = gen.generate(&mut rng);
/// assert!(surface.rms_height() > 0.0);
/// # Ok::<(), rough_surface::SurfaceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpectralSurfaceGenerator {
    spectrum: SurfaceSpectrum,
    n: usize,
    length: f64,
}

impl SpectralSurfaceGenerator {
    /// Creates a generator producing `n × n` samples over a periodic patch of
    /// side `length` (metres).
    ///
    /// # Errors
    ///
    /// Returns [`SurfaceError::InvalidGrid`] if `n` is not a power of two of at
    /// least 4 (the grids this synthesis is validated on; other sizes use the
    /// Karhunen–Loève sampler), or if `length` is not positive.
    pub fn new(cf: CorrelationFunction, n: usize, length: f64) -> Result<Self, SurfaceError> {
        if n < 4 || !n.is_power_of_two() {
            return Err(SurfaceError::InvalidGrid {
                reason: format!("grid size {n} must be a power of two ≥ 4"),
            });
        }
        if length.is_nan() || length <= 0.0 {
            return Err(SurfaceError::InvalidGrid {
                reason: "patch length must be positive".into(),
            });
        }
        Ok(Self {
            spectrum: SurfaceSpectrum::new(cf),
            n,
            length,
        })
    }

    /// The correlation function being synthesized.
    pub fn correlation(&self) -> &CorrelationFunction {
        self.spectrum.correlation()
    }

    /// Grid size per side.
    pub fn samples_per_side(&self) -> usize {
        self.n
    }

    /// Patch side length (m).
    pub fn patch_length(&self) -> f64 {
        self.length
    }

    /// Generates one surface realization.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> RoughSurface {
        let n = self.n;
        let l = self.length;
        let dk = 2.0 * PI / l;
        let mut spec = vec![c64::zero(); n * n];

        for iy in 0..n {
            for ix in 0..n {
                // Map FFT bins to signed wavenumbers.
                let mx = if ix <= n / 2 {
                    ix as isize
                } else {
                    ix as isize - n as isize
                };
                let my = if iy <= n / 2 {
                    iy as isize
                } else {
                    iy as isize - n as isize
                };
                let kx = mx as f64 * dk;
                let ky = my as f64 * dk;
                let k = (kx * kx + ky * ky).sqrt();
                let w = self.spectrum.evaluate(k);
                // Amplitude such that the *real part* of the inverse transform
                // has the prescribed covariance; the √2 compensates taking the
                // real part of a circularly symmetric complex field.
                let amp = (w / (l * l)).sqrt() * std::f64::consts::SQRT_2;
                let (a, b) = StandardNormalPair::sample(rng);
                let noise = c64::new(a, b).scale(std::f64::consts::FRAC_1_SQRT_2);
                spec[iy * n + ix] = noise.scale(amp);
            }
        }
        // The mean plane is fixed to zero: drop the DC component.
        spec[0] = c64::zero();

        // f(r) = Re Σ_k A_k e^{+j k·r}; the inverse FFT computes exactly this
        // (up to the 1/N² scaling which is compensated by multiplying by N²,
        // i.e. using the *forward* sum convention with e^{+j}).
        let Ok(()) = fft2_in_place(&mut spec, n, n, Direction::Inverse);
        let scale = (n * n) as f64;
        let heights: Vec<f64> = spec.iter().map(|z| z.re * scale).collect();

        let mut surface = RoughSurface::new(n, l, heights).expect("validated dimensions");
        surface.remove_mean();
        surface
    }

    /// Generates a 2D-roughness surface: the height varies along `x` only and
    /// is constant along `y` (the "2D SWM" comparison case of Fig. 6), while
    /// matching the same 1D statistics.
    pub fn generate_ridged<R: Rng + ?Sized>(&self, rng: &mut R) -> RoughSurface {
        let base = self.generate(rng);
        let profile = base.profile_along_x(0);
        // Rescale the profile to the target σ (a single row of a 2D surface
        // has the right correlation but its sample variance fluctuates more).
        let target = self.correlation().sigma();
        let actual = profile.rms_height().max(1e-300);
        let gain = target / actual;
        RoughSurface::from_fn(self.n, self.length, |x, _| {
            let idx = (x / base.spacing()).round() as isize;
            profile.height(idx) * gain
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rough_numerics::stats::mean;

    fn ensemble_rms(cf: CorrelationFunction, n: usize, l: f64, samples: usize) -> f64 {
        let gen = SpectralSurfaceGenerator::new(cf, n, l).unwrap();
        let mut rng = StdRng::seed_from_u64(12345);
        let mut values = Vec::new();
        for _ in 0..samples {
            let s = gen.generate(&mut rng);
            values.push(s.rms_height());
        }
        mean(&values)
    }

    #[test]
    fn rejects_bad_grids() {
        let cf = CorrelationFunction::gaussian(1e-6, 1e-6);
        assert!(SpectralSurfaceGenerator::new(cf, 12, 5e-6).is_err());
        assert!(SpectralSurfaceGenerator::new(cf, 2, 5e-6).is_err());
        assert!(SpectralSurfaceGenerator::new(cf, 16, -1.0).is_err());
        assert!(SpectralSurfaceGenerator::new(cf, 16, 5e-6).is_ok());
    }

    #[test]
    fn reproducible_with_seed() {
        let cf = CorrelationFunction::gaussian(1e-6, 1e-6);
        let gen = SpectralSurfaceGenerator::new(cf, 16, 5e-6).unwrap();
        let a = gen.generate(&mut StdRng::seed_from_u64(7));
        let b = gen.generate(&mut StdRng::seed_from_u64(7));
        let c = gen.generate(&mut StdRng::seed_from_u64(8));
        assert_eq!(a.heights(), b.heights());
        assert_ne!(a.heights(), c.heights());
    }

    #[test]
    fn ensemble_rms_height_matches_sigma() {
        // Paper Fig. 2 parameters: σ = η = 1 µm on a 5η patch.
        let cf = CorrelationFunction::gaussian(1e-6, 1e-6);
        let rms = ensemble_rms(cf, 32, 5e-6, 60);
        // The finite patch removes some low-frequency content, so the sample
        // RMS sits slightly below σ; 10% agreement is expected at L = 5η.
        assert!((rms - 1e-6).abs() < 0.12e-6, "ensemble rms = {rms}");
    }

    #[test]
    fn ensemble_correlation_matches_target() {
        let sigma = 1e-6;
        let eta = 1e-6;
        let cf = CorrelationFunction::gaussian(sigma, eta);
        let n = 32;
        let l = 8e-6;
        let gen = SpectralSurfaceGenerator::new(cf, n, l).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let lags = [1usize, 2, 4, 8];
        let mut acc = vec![0.0; lags.len()];
        let mut var_acc = 0.0;
        let samples = 80;
        for _ in 0..samples {
            let s = gen.generate(&mut rng);
            let h = s.heights();
            var_acc += h.iter().map(|v| v * v).sum::<f64>() / h.len() as f64;
            for (li, &lag) in lags.iter().enumerate() {
                let mut c = 0.0;
                for iy in 0..n {
                    for ix in 0..n {
                        c += s.height(ix as isize, iy as isize)
                            * s.height(ix as isize + lag as isize, iy as isize);
                    }
                }
                acc[li] += c / (n * n) as f64;
            }
        }
        let var = var_acc / samples as f64;
        for (li, &lag) in lags.iter().enumerate() {
            let measured = acc[li] / samples as f64;
            let d = lag as f64 * (l / n as f64);
            let expected = cf.evaluate(d) * (var / (sigma * sigma));
            assert!(
                (measured - expected).abs() < 0.15 * sigma * sigma,
                "lag {lag}: measured {measured:.3e}, expected {expected:.3e}"
            );
        }
    }

    #[test]
    fn heights_are_approximately_gaussian() {
        // Excess kurtosis of the aggregated samples should be near zero.
        let cf = CorrelationFunction::gaussian(1e-6, 1e-6);
        let gen = SpectralSurfaceGenerator::new(cf, 32, 8e-6).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut all = Vec::new();
        for _ in 0..40 {
            all.extend_from_slice(gen.generate(&mut rng).heights());
        }
        let m = mean(&all);
        let var = all.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / all.len() as f64;
        let fourth = all.iter().map(|x| (x - m).powi(4)).sum::<f64>() / all.len() as f64;
        let excess_kurtosis = fourth / (var * var) - 3.0;
        assert!(excess_kurtosis.abs() < 0.35, "kurtosis = {excess_kurtosis}");
    }

    #[test]
    fn smoother_surface_has_smaller_slope() {
        let rough = CorrelationFunction::gaussian(1e-6, 1e-6);
        let smooth = CorrelationFunction::gaussian(1e-6, 3e-6);
        let mut rng = StdRng::seed_from_u64(3);
        let g_rough = SpectralSurfaceGenerator::new(rough, 32, 8e-6).unwrap();
        let g_smooth = SpectralSurfaceGenerator::new(smooth, 32, 15e-6).unwrap();
        let mut slope_rough = 0.0;
        let mut slope_smooth = 0.0;
        for _ in 0..20 {
            slope_rough += g_rough.generate(&mut rng).area_ratio();
            slope_smooth += g_smooth.generate(&mut rng).area_ratio();
        }
        assert!(slope_rough > slope_smooth);
    }

    #[test]
    fn ridged_surface_is_uniform_along_y() {
        let cf = CorrelationFunction::gaussian(1e-6, 1e-6);
        let gen = SpectralSurfaceGenerator::new(cf, 16, 5e-6).unwrap();
        let s = gen.generate_ridged(&mut StdRng::seed_from_u64(11));
        for ix in 0..16 {
            let h0 = s.height(ix, 0);
            for iy in 1..16 {
                assert_eq!(s.height(ix, iy), h0);
            }
        }
        assert!((s.profile_along_x(0).rms_height() - 1e-6).abs() < 0.2e-6);
    }
}
