//! Equispaced height tables of the periodic kernel.
//!
//! Two tables read the Ewald-summed kernel at heights between their levels
//! by centred `p`-point Lagrange interpolation: the matrix-free operator's
//! z slab (the far field's generator planes, [`crate::matrixfree`]) and the
//! near field's image table (the regularized kernel at the periodic-image
//! quadrature points, [`crate::assembly3d`]). Both size their level spacing
//! here, from the two ways the interpolated kernel can vary faster than the
//! stencil resolves, and weigh their stencil levels here.

/// Per-entry relative accuracy the level spacing rule targets. A safety
/// factor below one then buys several further digits of margin.
const TABLE_TARGET: f64 = 1e-12;

/// Relative error of centered `p`-point equispaced Lagrange interpolation of
/// the `1/R` kernel, whose nearest complex-z singularity sits at `z = ±iρ`
/// (`ρ` = the smallest lateral distance to the singularity the table must
/// stay clear of). From the Hermite remainder with the node polynomial
/// `ω(z) = Π (z − z_l)` and symmetric node offsets `q_j = (2j−1)h/2`:
///
/// ```text
/// err(h) ≈ |ω(0)| / |ω(iρ)| = Π_j q_j² / (ρ² + q_j²)
/// ```
///
/// The naive bound `(h/2ρ)^p` is wildly optimistic here because the outer
/// stencil nodes sit many spacings away from the evaluation point — the
/// stencil *width* `(p−1)h` competes with `ρ`, not `h` itself.
fn stencil_error(h: f64, rho: f64, order: usize) -> f64 {
    let mut err = 1.0;
    for j in 1..=order / 2 {
        let q = ((2 * j - 1) as f64 * h / 2.0).powi(2);
        err *= q / (rho * rho + q);
    }
    err
}

/// Level spacing of an `order`-point table from the two error mechanisms of
/// its interpolation: the `e^{jk z}` oscillation at wavenumber magnitude `k`
/// (centered equispaced Lagrange error `((p−1)!!)² (hk/2)^p / p!`) and the
/// geometric `1/R` part at distance `rho` ([`stencil_error`], solved for `h`
/// by bisection — the error is monotone in `h`). Both are pinned at
/// [`TABLE_TARGET`] and `safety` is applied on top.
pub(crate) fn level_spacing(order: usize, k: f64, rho: f64, safety: f64) -> f64 {
    let p = order as f64;
    let mut factorial = 1.0f64;
    let mut double_factorial = 1.0f64;
    for i in 1..=order {
        factorial *= i as f64;
        if i % 2 == 1 {
            double_factorial *= i as f64;
        }
    }
    let oscillatory =
        (TABLE_TARGET * factorial / (double_factorial * double_factorial)).powf(1.0 / p) * 2.0
            / k.max(f64::MIN_POSITIVE);

    let mut lo = 0.0;
    let mut hi = 4.0 * rho;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if stencil_error(mid, rho, order) <= TABLE_TARGET {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let geometric = lo;
    safety * oscillatory.min(geometric)
}

/// The weights `ℓ_l(x) = Π_{v≠l} (x − v) / (l − v)` of Lagrange
/// interpolation on the stencil nodes `0, 1, …, p − 1` at `x`, `p` the length
/// of `weights`: prefix and suffix products of `x − v` over the denominators
/// `Π_{v≠l} (l − v) = (−1)^{p−1−l} l! (p−1−l)!`, exact integers up to
/// `p = 18`. At a node `x = l` every other weight is exactly zero.
pub(crate) fn lagrange_weights(x: f64, weights: &mut [f64]) {
    let p = weights.len();
    let mut prefix = 1.0;
    for (l, w) in weights.iter_mut().enumerate() {
        *w = prefix;
        prefix *= x - l as f64;
    }
    let mut suffix = 1.0;
    let mut denominator: f64 = (1..p).map(|v| v as f64).product();
    for l in (0..p).rev() {
        weights[l] *= suffix / denominator;
        suffix *= x - l as f64;
        if l > 0 {
            denominator = -denominator * (p - l) as f64 / l as f64;
        }
    }
}
