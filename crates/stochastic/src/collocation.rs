//! The spectral stochastic collocation method (SSCM), paper §III-D.
//!
//! The stochastic problem — the loss-enhancement factor as a function of the
//! random surface — is reduced to a small number of *deterministic* solves:
//!
//! 1. the surface is expressed through `M` independent standard-normal germs
//!    (the Karhunen–Loève expansion of `rough-surface`),
//! 2. the deterministic SWM model is evaluated at the nodes of a Smolyak
//!    sparse grid over those germs ([`crate::sparse_grid`]),
//! 3. the results are projected onto the Hermite polynomial chaos
//!    ([`crate::pce`]) by discrete quadrature,
//! 4. mean, variance and the full CDF are read off the resulting surrogate
//!    (the CDF by cheaply sampling the surrogate, not the model).
//!
//! A 1st-order SSCM uses the level-1 grid (2M + 1 nodes) and a linear chaos; a
//! 2nd-order SSCM uses the level-2 grid and a quadratic chaos — the two columns
//! of the paper's Table I.

use crate::pce::{multi_indices, PceSurrogate};
use crate::sparse_grid::SparseGrid;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rough_numerics::stats::EmpiricalCdf;
use std::sync::OnceLock;

/// Configuration of an SSCM run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SscmConfig {
    /// Chaos / sparse-grid order (1 or 2 in the paper; higher orders are
    /// supported).
    pub order: usize,
    /// Number of surrogate samples used to build the output CDF.
    pub surrogate_samples: usize,
    /// Seed for the surrogate-sampling RNG.
    pub seed: u64,
}

impl Default for SscmConfig {
    fn default() -> Self {
        Self {
            order: 2,
            surrogate_samples: 20_000,
            seed: 0xC0FFEE,
        }
    }
}

/// Result of an SSCM run.
///
/// The CDF is built from `surrogate_samples` draws of the surrogate on the
/// first [`SscmResult::cdf`] call, not with the result: a report that never
/// reads it does not hold the sorted samples.
#[derive(Debug, Clone)]
pub struct SscmResult {
    surrogate: PceSurrogate,
    evaluations: usize,
    order: usize,
    dimension: usize,
    surrogate_samples: usize,
    seed: u64,
    cdf: OnceLock<EmpiricalCdf>,
}

impl SscmResult {
    /// Mean of the quantity of interest.
    pub fn mean(&self) -> f64 {
        self.surrogate.mean()
    }

    /// Variance of the quantity of interest.
    pub fn variance(&self) -> f64 {
        self.surrogate.variance()
    }

    /// Standard deviation of the quantity of interest.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Number of *deterministic model evaluations* that were needed (the
    /// quantity reported in the paper's Table I).
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Chaos order of the run.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The polynomial-chaos surrogate itself.
    pub fn surrogate(&self) -> &PceSurrogate {
        &self.surrogate
    }

    /// CDF of the quantity of interest obtained by sampling the surrogate
    /// (built on the first call).
    pub fn cdf(&self) -> &EmpiricalCdf {
        self.cdf.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(self.seed);
            let mut samples = Vec::with_capacity(self.surrogate_samples);
            let mut xi = vec![0.0; self.dimension];
            for _ in 0..self.surrogate_samples {
                for x in xi.iter_mut() {
                    let u1: f64 = rng.gen::<f64>().max(1e-300);
                    let u2: f64 = rng.gen();
                    *x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                }
                samples.push(self.surrogate.evaluate(&xi));
            }
            EmpiricalCdf::from_samples(&samples)
        })
    }
}

/// Runs the SSCM for a deterministic model driven by `dimension` independent
/// standard-normal germs.
///
/// The `model` closure is called once per sparse-grid node; each call is one
/// full deterministic solve (e.g. an SWM solution of the surface realization
/// synthesized from the germ vector).
///
/// # Panics
///
/// Panics if `dimension == 0`, `config.order == 0` or
/// `config.surrogate_samples == 0`.
pub fn run_sscm(
    dimension: usize,
    config: &SscmConfig,
    mut model: impl FnMut(&[f64]) -> f64,
) -> SscmResult {
    assert!(dimension > 0, "germ dimension must be positive");
    assert!(config.order > 0, "chaos order must be positive");
    let grid = SparseGrid::new(dimension, config.order);
    // Evaluate the model once per node.
    let values: Vec<f64> = grid.nodes().iter().map(|n| model(&n.point)).collect();
    run_sscm_on_grid(&grid, config, &values)
}

/// Batch variant of [`run_sscm`]: projects externally evaluated node values
/// onto the Hermite chaos. This is the engine-backed entry point —
/// `rough-engine` plans the sparse grid, evaluates the deterministic model at
/// every node in parallel, and hands the ordered values back for projection.
///
/// `node_values[i]` must be the model value at `grid.nodes()[i].point`.
///
/// # Panics
///
/// Panics if `config.order` differs from the grid level, the value count does
/// not match the node count, or `config.surrogate_samples == 0`.
pub fn run_sscm_on_grid(grid: &SparseGrid, config: &SscmConfig, node_values: &[f64]) -> SscmResult {
    assert_eq!(
        config.order,
        grid.level(),
        "chaos order must match the sparse-grid level"
    );
    assert_eq!(
        node_values.len(),
        grid.len(),
        "one model value per sparse-grid node is required"
    );
    assert!(
        config.surrogate_samples > 0,
        "surrogate sample count must be positive"
    );
    let dimension = grid.dimension();
    let values = node_values;

    // Galerkin projection by discrete quadrature:
    // c_α = E[Q Ψ_α] / E[Ψ_α²] ≈ Σ_k w_k Q(ξ_k) Ψ_α(ξ_k) / E[Ψ_α²].
    let basis = multi_indices(dimension, config.order);
    let mut coefficients = Vec::with_capacity(basis.len());
    for alpha in &basis {
        let mut projection = 0.0;
        for (node, &q) in grid.nodes().iter().zip(values) {
            projection += node.weight * q * alpha.evaluate(&node.point);
        }
        coefficients.push(projection / alpha.norm_squared());
    }
    SscmResult {
        surrogate: PceSurrogate::new(basis, coefficients),
        evaluations: grid.len(),
        order: config.order,
        dimension,
        surrogate_samples: config.surrogate_samples,
        seed: config.seed,
        cdf: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monte_carlo::{run_monte_carlo, MonteCarloConfig};

    fn quadratic_model(x: &[f64]) -> f64 {
        // A benign nonlinear model with known moments:
        // Q = 1 + 0.4 ξ0 − 0.25 ξ1 + 0.1 ξ0² + 0.05 ξ0 ξ2
        // mean = 1 + 0.1·E[ξ0²] = 1.1
        // var  = 0.16 + 0.0625 + 0.01·2 + 0.0025 = 0.245
        1.0 + 0.4 * x[0] - 0.25 * x[1] + 0.1 * x[0] * x[0] + 0.05 * x[0] * x[2]
    }

    #[test]
    fn second_order_sscm_is_exact_for_quadratic_models() {
        let config = SscmConfig {
            order: 2,
            surrogate_samples: 5000,
            seed: 1,
        };
        let result = run_sscm(3, &config, quadratic_model);
        assert!(
            (result.mean() - 1.1).abs() < 1e-10,
            "mean = {}",
            result.mean()
        );
        assert!(
            (result.variance() - 0.245).abs() < 1e-10,
            "variance = {}",
            result.variance()
        );
        assert_eq!(result.order(), 2);
        // 2nd-order grid in 3 dimensions: 2·9 + 4·3 + 1 = 31 nodes.
        assert_eq!(result.evaluations(), 31);
    }

    #[test]
    fn first_order_sscm_captures_the_linear_part() {
        let config = SscmConfig {
            order: 1,
            surrogate_samples: 2000,
            seed: 1,
        };
        let result = run_sscm(3, &config, quadratic_model);
        // Level-1 Gauss-Hermite nodes integrate E[ξ²] exactly, so even the
        // 1st-order run recovers the exact mean here; the variance misses the
        // quadratic contribution (0.245 vs 0.2225 exact linear part + eps).
        assert!((result.mean() - 1.1).abs() < 1e-9);
        assert!(result.variance() < 0.245);
        assert!(result.variance() > 0.2);
        // Level-1 grids have 2M + 1 nodes except in dimension 3, where the
        // origin's Smolyak weight cancels exactly and the node is dropped.
        assert_eq!(result.evaluations(), 6);
    }

    #[test]
    fn sscm_matches_monte_carlo_with_far_fewer_evaluations() {
        // The Table-I claim in miniature.
        let sscm = run_sscm(
            4,
            &SscmConfig {
                order: 2,
                surrogate_samples: 30_000,
                seed: 2,
            },
            |x| (0.3 * x[0] + 0.2 * x[1] - 0.1 * x[3]).exp(),
        );
        let mc = run_monte_carlo(
            4,
            &MonteCarloConfig {
                samples: 30_000,
                seed: 3,
            },
            |x| (0.3 * x[0] + 0.2 * x[1] - 0.1 * x[3]).exp(),
        );
        let exact_mean = (0.5f64 * (0.09 + 0.04 + 0.01)).exp();
        assert!(
            (sscm.mean() - exact_mean).abs() < 5e-3,
            "sscm {}",
            sscm.mean()
        );
        assert!((mc.mean() - exact_mean).abs() < 1e-2, "mc {}", mc.mean());
        assert!(sscm.evaluations() * 100 < mc.evaluations());
        // The two CDFs describe the same distribution.
        let ks = sscm.cdf().ks_distance(mc.cdf());
        assert!(ks < 0.05, "KS distance = {ks}");
    }

    #[test]
    fn surrogate_cdf_is_consistent_with_its_moments() {
        let result = run_sscm(
            2,
            &SscmConfig {
                order: 2,
                surrogate_samples: 50_000,
                seed: 9,
            },
            |x| 2.0 + x[0] + 0.5 * x[1],
        );
        // Median of a Gaussian equals its mean.
        assert!((result.cdf().quantile(0.5) - result.mean()).abs() < 0.03);
        // ~68% of samples within one standard deviation.
        let lo = result.mean() - result.std_dev();
        let hi = result.mean() + result.std_dev();
        let mass = result.cdf().evaluate(hi) - result.cdf().evaluate(lo);
        assert!((mass - 0.683).abs() < 0.02, "mass = {mass}");
    }

    #[test]
    fn lazily_built_cdf_matches_the_eager_sampling_loop() {
        let config = SscmConfig {
            order: 2,
            surrogate_samples: 3000,
            seed: 17,
        };
        let result = run_sscm(3, &config, quadratic_model);
        // The eager loop every SSCM result used to run before returning.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut samples = Vec::new();
        let mut xi = vec![0.0; 3];
        for _ in 0..config.surrogate_samples {
            for x in xi.iter_mut() {
                let u1: f64 = rng.gen::<f64>().max(1e-300);
                let u2: f64 = rng.gen();
                *x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
            samples.push(result.surrogate().evaluate(&xi));
        }
        let eager = EmpiricalCdf::from_samples(&samples);
        let bits = |cdf: &EmpiricalCdf| -> Vec<u64> {
            cdf.sorted_samples().iter().map(|x| x.to_bits()).collect()
        };

        let before = result.clone();
        assert_eq!(bits(result.cdf()), bits(&eager));
        let after = result.clone();
        assert_eq!(bits(before.cdf()), bits(&eager));
        assert_eq!(bits(after.cdf()), bits(&eager));
    }

    #[test]
    #[should_panic(expected = "chaos order must be positive")]
    fn zero_order_panics() {
        let _ = run_sscm(
            2,
            &SscmConfig {
                order: 0,
                surrogate_samples: 10,
                seed: 0,
            },
            |_| 0.0,
        );
    }
}
