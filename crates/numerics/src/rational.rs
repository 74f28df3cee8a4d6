//! Barycentric rational interpolation of sampled curves.
//!
//! [`BarycentricRational`] is the Floater–Hormann interpolant: pole-free on
//! the sampled interval by construction and `O(h^{d+1})` accurate on smooth
//! data. A broadband sweep uses it as the local model of its solved curve —
//! a few neighbouring samples predict the curve between two nodes, and the
//! gap between that prediction and the piecewise-linear table the sweep
//! exports is the table's error estimate there.
//!
//! Everything is deterministic: the same samples always produce the same
//! interpolant, bit for bit.

/// Samples the interpolant cannot be built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Samples were missing, mismatched, non-finite or not strictly
    /// increasing in the abscissa.
    InvalidSamples(String),
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::InvalidSamples(why) => write!(f, "invalid samples: {why}"),
        }
    }
}

impl std::error::Error for FitError {}

fn validate_samples(xs: &[f64], ys: &[f64]) -> Result<(), FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::InvalidSamples(format!(
            "{} abscissae vs {} ordinates",
            xs.len(),
            ys.len()
        )));
    }
    if xs.len() < 2 {
        return Err(FitError::InvalidSamples(format!(
            "at least 2 samples are required, got {}",
            xs.len()
        )));
    }
    for pair in xs.windows(2) {
        if pair[1].partial_cmp(&pair[0]) != Some(std::cmp::Ordering::Greater) {
            return Err(FitError::InvalidSamples(
                "abscissae must be strictly increasing".into(),
            ));
        }
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return Err(FitError::InvalidSamples("samples must be finite".into()));
    }
    Ok(())
}

/// Floater–Hormann barycentric rational interpolant of blend degree `d`.
///
/// Reproduces the samples exactly, has **no poles on the real line** (the
/// Floater–Hormann construction guarantees it for equispaced and arbitrary
/// increasing nodes alike), and converges at `O(h^{d+1})` on smooth data —
/// the right local model for predicting a sweep curve between its solved
/// samples.
#[derive(Debug, Clone)]
pub struct BarycentricRational {
    xs: Vec<f64>,
    ys: Vec<f64>,
    weights: Vec<f64>,
}

impl BarycentricRational {
    /// Builds the interpolant. `d` is clamped to `len − 1`; `d = 0` gives
    /// Berrut's first interpolant, `d = 3` is the usual accuracy/robustness
    /// sweet spot.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::InvalidSamples`] for mismatched, short, unsorted
    /// or non-finite samples.
    pub fn new(xs: &[f64], ys: &[f64], d: usize) -> Result<Self, FitError> {
        validate_samples(xs, ys)?;
        let n = xs.len();
        let d = d.min(n - 1);
        let mut weights = vec![0.0f64; n];
        for (k, w) in weights.iter_mut().enumerate() {
            let lo = k.saturating_sub(d);
            let hi = k.min(n - 1 - d);
            let mut acc = 0.0;
            for i in lo..=hi {
                let mut prod = 1.0;
                for j in i..=i + d {
                    if j != k {
                        prod /= (xs[k] - xs[j]).abs();
                    }
                }
                acc += prod;
            }
            // The classical sign pattern (−1)^{k−d}; only relative signs
            // matter in the barycentric quotient.
            *w = if (k + d).is_multiple_of(2) { acc } else { -acc };
        }
        Ok(Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            weights,
        })
    }

    /// Evaluates the interpolant (exact at the nodes).
    pub fn evaluate(&self, x: f64) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for ((&xk, &yk), &wk) in self.xs.iter().zip(&self.ys).zip(&self.weights) {
            let dx = x - xk;
            if dx == 0.0 {
                return yk;
            }
            let q = wk / dx;
            num += q * yk;
            den += q;
        }
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
            .collect()
    }

    #[test]
    fn barycentric_reproduces_nodes_and_interpolates_smoothly() {
        let xs = linspace(1.0, 10.0, 13);
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + x.sqrt()).collect();
        let r = BarycentricRational::new(&xs, &ys, 3).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            assert_eq!(r.evaluate(x), y);
        }
        // Between nodes the interpolant tracks the smooth function closely.
        for i in 0..xs.len() - 1 {
            let mid = 0.5 * (xs[i] + xs[i + 1]);
            let exact = 1.0 + mid.sqrt();
            assert!((r.evaluate(mid) - exact).abs() < 1e-3 * exact);
        }
    }

    #[test]
    fn barycentric_rejects_bad_input() {
        assert!(BarycentricRational::new(&[1.0], &[1.0], 1).is_err());
        assert!(BarycentricRational::new(&[1.0, 1.0], &[1.0, 2.0], 1).is_err());
        assert!(BarycentricRational::new(&[1.0, 2.0], &[1.0], 1).is_err());
        assert!(BarycentricRational::new(&[1.0, 2.0], &[1.0, f64::NAN], 1).is_err());
    }
}
