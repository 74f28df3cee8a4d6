//! Free-space scalar Green's function and singular cell integrals.
//!
//! The 3D scalar Green's function in the `e^{−jωt}` time convention is
//! `G(R) = e^{+jkR}/(4πR)` (paper eq. (4)). Its `1/(4πR)` singularity is what
//! the MOM self-term integration has to handle analytically; the remaining
//! `(e^{jkR} − 1)/(4πR)` part is smooth with limit `jk/(4π)`.

use rough_numerics::complex::c64;
use std::f64::consts::PI;

/// Free-space scalar Green's function `e^{jkR}/(4πR)`.
///
/// # Panics
///
/// Panics if `r == 0`; use the regularized helpers for self terms.
pub fn scalar_green_3d(k: c64, r: f64) -> c64 {
    assert!(r > 0.0, "the free-space kernel is singular at r = 0");
    (c64::i() * k * r).exp() / (4.0 * PI * r)
}

/// Value and gradient (with respect to the separation vector `Δ = r − r'`) of
/// the free-space scalar Green's function.
///
/// The gradient with respect to the *source* point is the negative of the
/// returned gradient.
///
/// # Panics
///
/// Panics if the separation vanishes.
pub fn scalar_green_3d_gradient(k: c64, dx: f64, dy: f64, dz: f64) -> (c64, [c64; 3]) {
    let r = (dx * dx + dy * dy + dz * dz).sqrt();
    assert!(r > 0.0, "the free-space kernel is singular at r = 0");
    let g = (c64::i() * k * r).exp() / (4.0 * PI * r);
    // dG/dR = G (jk - 1/R)
    let dg_dr = g * (c64::i() * k - c64::from_real(1.0 / r));
    let grad = [dg_dr * (dx / r), dg_dr * (dy / r), dg_dr * (dz / r)];
    (g, grad)
}

/// The smooth part of the kernel at zero separation:
/// `lim_{R→0} (e^{jkR} − 1)/(4πR) = jk/(4π)`.
pub fn smooth_part_at_origin(k: c64) -> c64 {
    c64::i() * k / (4.0 * PI)
}

/// The smooth part of the free-space kernel, `(e^{jkR} − 1)/(4πR)`, evaluated
/// stably for any `r ≥ 0` (series expansion near the removable singularity).
///
/// Together with [`inverse_r_integral_over_planar_polygon`] this is what the
/// locally corrected MOM assembly integrates numerically after the analytic
/// extraction of the `1/(4πR)` static singularity.
///
/// # Panics
///
/// Panics if `r` is negative.
pub fn smooth_kernel_3d(k: c64, r: f64) -> c64 {
    assert!(r >= 0.0, "separation must be non-negative");
    let z = c64::i() * k * r;
    if z.abs() < 1e-4 {
        // (e^z − 1)/z = 1 + z/2 + z²/6 + z³/24 + O(z⁴)
        let series = c64::one() + z.scale(0.5) + (z * z).scale(1.0 / 6.0);
        (c64::i() * k / (4.0 * PI)) * series
    } else {
        (z.exp() - c64::one()) / (4.0 * PI * r)
    }
}

/// Radial derivative `d/dR` of [`smooth_kernel_3d`], evaluated stably for any
/// `r ≥ 0`: `(e^{jkR}(jkR − 1) + 1)/(4πR²)`, with limit `(jk)²/(8π)` at the
/// origin.
///
/// # Panics
///
/// Panics if `r` is negative.
pub fn smooth_kernel_3d_radial_derivative(k: c64, r: f64) -> c64 {
    assert!(r >= 0.0, "separation must be non-negative");
    let z = c64::i() * k * r;
    if z.abs() < 1e-3 {
        // (e^z(z − 1) + 1)/z² = 1/2 + z/3 + z²/8 + O(z³)
        let series = c64::from_real(0.5) + z.scale(1.0 / 3.0) + (z * z).scale(0.125);
        let jk = c64::i() * k;
        jk * jk * series / (4.0 * PI)
    } else {
        (z.exp() * (z - c64::one()) + c64::one()) / (4.0 * PI * r * r)
    }
}

/// [`smooth_kernel_3d`] and [`smooth_kernel_3d_radial_derivative`] evaluated
/// together, sharing the one complex exponential both need.
///
/// The locally corrected assembly integrates the pair at every adaptive
/// quadrature node; fusing the two halves the `exp`/`sin`/`cos` work of that
/// hot loop. Each component follows the exact branch thresholds and
/// arithmetic of its standalone function, so the fused values are
/// bit-identical to separate calls.
///
/// # Panics
///
/// Panics if `r` is negative.
pub fn smooth_kernel_3d_with_derivative(k: c64, r: f64) -> (c64, c64) {
    assert!(r >= 0.0, "separation must be non-negative");
    let z = c64::i() * k * r;
    let z_abs = z.abs();
    // One exp serves both branches that need it (|z| ≥ 1e-4 for the value,
    // |z| ≥ 1e-3 for the derivative; the value's threshold is the smaller).
    let ez = if z_abs < 1e-4 { c64::zero() } else { z.exp() };
    let value = if z_abs < 1e-4 {
        let series = c64::one() + z.scale(0.5) + (z * z).scale(1.0 / 6.0);
        (c64::i() * k / (4.0 * PI)) * series
    } else {
        (ez - c64::one()) / (4.0 * PI * r)
    };
    let derivative = if z_abs < 1e-3 {
        let series = c64::from_real(0.5) + z.scale(1.0 / 3.0) + (z * z).scale(0.125);
        let jk = c64::i() * k;
        jk * jk * series / (4.0 * PI)
    } else {
        (ez * (z - c64::one()) + c64::one()) / (4.0 * PI * r * r)
    };
    (value, derivative)
}

/// Analytic integral `∫_P dA'/|p − r'|` of the static kernel over a *planar*
/// polygon `P` with vertices in order (either orientation), observed from an
/// arbitrary point `p` — the Wilton et al. closed form built from per-edge
/// logarithm and arctangent terms.
///
/// Dividing by `4π` (and, for the projected-cell measure of the SWM assembly,
/// by the source-cell Jacobian) gives the exact static part of a single-layer
/// MOM matrix entry. The formula is valid for every observation point,
/// including points inside the polygon's plane (`self` cells) where the
/// integrand is singular but integrable.
///
/// # Panics
///
/// Panics if fewer than three vertices are supplied or the polygon is
/// degenerate (no well-defined plane).
pub fn inverse_r_integral_over_planar_polygon(p: [f64; 3], vertices: &[[f64; 3]]) -> f64 {
    assert!(vertices.len() >= 3, "a polygon needs at least 3 vertices");
    let normal = polygon_unit_normal(vertices);
    // Height of p above the polygon plane and its in-plane projection.
    let w0 = dot3(sub3(p, vertices[0]), normal);
    let rho = sub3(p, scale3(normal, w0));
    let scale: f64 = vertices
        .iter()
        .map(|v| norm3(sub3(*v, vertices[0])))
        .fold(0.0, f64::max)
        .max(norm3(sub3(p, vertices[0])));
    let tiny = 1e-14 * scale.max(f64::MIN_POSITIVE);

    let mut sum = 0.0;
    for (index, &a) in vertices.iter().enumerate() {
        let b = vertices[(index + 1) % vertices.len()];
        let edge = sub3(b, a);
        let len = norm3(edge);
        if len <= tiny {
            continue;
        }
        let s_hat = scale3(edge, 1.0 / len);
        // Outward in-plane edge normal for counter-clockwise ordering.
        let m_hat = cross3(s_hat, normal);
        let s_minus = dot3(sub3(a, rho), s_hat);
        let s_plus = dot3(sub3(b, rho), s_hat);
        let t0 = dot3(sub3(a, rho), m_hat);
        let r0_sq = t0 * t0 + w0 * w0;
        let r_minus = (s_minus * s_minus + r0_sq).sqrt();
        let r_plus = (s_plus * s_plus + r0_sq).sqrt();

        if t0.abs() > tiny {
            let num = (r_plus + s_plus).max(tiny);
            let den = (r_minus + s_minus).max(tiny);
            sum += t0 * (num / den).ln();
        }
        if w0.abs() > tiny && t0.abs() > tiny {
            let aw = w0.abs();
            sum -= aw
                * ((t0 * s_plus).atan2(r0_sq + aw * r_plus)
                    - (t0 * s_minus).atan2(r0_sq + aw * r_minus));
        }
    }
    sum.abs()
}

/// Signed solid-angle integral `∫_P n̂·(p − r')/|p − r'|³ dA'` of a planar
/// polygon, computed by fanning into triangles and applying the van
/// Oosterom–Strackee closed form.
///
/// `n̂` is the right-hand normal of the vertex ordering, so the result is
/// positive when `p` lies on the side `n̂` points to, negative on the other
/// side, and zero for `p` in the polygon's plane. Dividing by `4π` gives the
/// exact static part of a double-layer MOM matrix entry.
///
/// Observation points *in* the polygon's plane (within rounding) return the
/// double-layer principal value 0 — without the guard, an in-plane point over
/// the polygon's interior would land on one side of the ±2π jump at the whim
/// of floating-point noise.
///
/// # Panics
///
/// Panics if fewer than three vertices are supplied.
pub fn solid_angle_of_planar_polygon(p: [f64; 3], vertices: &[[f64; 3]]) -> f64 {
    assert!(vertices.len() >= 3, "a polygon needs at least 3 vertices");
    let normal = polygon_unit_normal(vertices);
    let w0 = dot3(sub3(p, vertices[0]), normal);
    let scale: f64 = vertices
        .iter()
        .map(|v| norm3(sub3(*v, vertices[0])))
        .fold(norm3(sub3(p, vertices[0])), f64::max);
    if w0.abs() <= 1e-12 * scale.max(f64::MIN_POSITIVE) {
        return 0.0;
    }
    let mut omega = 0.0;
    for index in 1..vertices.len() - 1 {
        let a = sub3(vertices[0], p);
        let b = sub3(vertices[index], p);
        let c = sub3(vertices[index + 1], p);
        let (na, nb, nc) = (norm3(a), norm3(b), norm3(c));
        let numerator = dot3(a, cross3(b, c));
        let denominator = na * nb * nc + dot3(a, b) * nc + dot3(b, c) * na + dot3(c, a) * nb;
        omega += 2.0 * numerator.atan2(denominator);
    }
    // The Van Oosterom–Strackee triple product is negative for an observation
    // point on the side the right-hand normal points to; flip so the returned
    // angle matches ∫ n̂·(p − r')/R³ dA'.
    -omega
}

/// Analytic integral `∫_a^b ln|p − s| dℓ(s)` of the 2D logarithmic kernel
/// along the straight segment from `a` to `b`, observed from an arbitrary
/// in-plane point `p` (including points on the segment, where the integrand is
/// singular but integrable).
///
/// Multiplying by `−1/(2π)` (and dividing by the segment Jacobian for the
/// projected measure) gives the exact static part of a 2D single-layer MOM
/// entry.
///
/// # Panics
///
/// Panics if the segment is degenerate.
pub fn ln_r_integral_over_segment(p: [f64; 2], a: [f64; 2], b: [f64; 2]) -> f64 {
    let ex = b[0] - a[0];
    let ey = b[1] - a[1];
    let len = (ex * ex + ey * ey).sqrt();
    assert!(len > 0.0, "segment must have positive length");
    let sx = ex / len;
    let sy = ey / len;
    // Coordinates along the segment relative to the projection of p.
    let u1 = (a[0] - p[0]) * sx + (a[1] - p[1]) * sy;
    let u2 = (b[0] - p[0]) * sx + (b[1] - p[1]) * sy;
    // Unsigned distance from p to the segment's line.
    let h = ((p[0] - a[0]) * sy - (p[1] - a[1]) * sx).abs();
    let antiderivative = |u: f64| -> f64 {
        let d = (u * u + h * h).sqrt();
        if d == 0.0 {
            return 0.0;
        }
        let mut value = u * d.ln() - u;
        if h > 0.0 {
            value += h * (u / h).atan();
        }
        value
    };
    antiderivative(u2) - antiderivative(u1)
}

/// Signed subtended-angle integral `∫_a^b n̂·(p − s)/|p − s|² dℓ(s)` of a 2D
/// straight segment, where `n̂` is the segment direction `a → b` rotated +90°
/// (counter-clockwise).
///
/// This is the angle the segment subtends at `p`, signed positive when `p`
/// lies on the side `n̂` points to. Dividing by `2π` gives the exact static
/// part of a 2D double-layer MOM entry. Returns 0 when `p` lies on the
/// segment's line.
pub fn subtended_angle_of_segment(p: [f64; 2], a: [f64; 2], b: [f64; 2]) -> f64 {
    let (ax, ay) = (a[0] - p[0], a[1] - p[1]);
    let (bx, by) = (b[0] - p[0], b[1] - p[1]);
    let cross = ax * by - ay * bx;
    let dot = ax * bx + ay * by;
    // Points on the segment's line (within rounding) take the double-layer
    // principal value 0 — without the relative threshold, a point *on* the
    // segment has a negative dot product and rounding noise in the cross
    // product would land on one side of the ±π jump arbitrarily.
    let scale = (ax * ax + ay * ay).sqrt() * (bx * bx + by * by).sqrt();
    if cross.abs() <= 1e-12 * scale {
        return 0.0;
    }
    cross.atan2(dot)
}

/// Unit normal of the polygon plane from the first non-degenerate vertex pair
/// (right-hand rule with respect to the vertex ordering).
fn polygon_unit_normal(vertices: &[[f64; 3]]) -> [f64; 3] {
    let origin = vertices[0];
    let mut best = [0.0; 3];
    let mut best_norm = 0.0;
    for index in 1..vertices.len() - 1 {
        let candidate = cross3(
            sub3(vertices[index], origin),
            sub3(vertices[index + 1], origin),
        );
        let norm = norm3(candidate);
        if norm > best_norm {
            best = candidate;
            best_norm = norm;
        }
    }
    assert!(best_norm > 0.0, "degenerate polygon has no plane");
    scale3(best, 1.0 / best_norm)
}

fn sub3(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn scale3(a: [f64; 3], s: f64) -> [f64; 3] {
    [a[0] * s, a[1] * s, a[2] * s]
}

fn dot3(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn cross3(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn norm3(a: [f64; 3]) -> f64 {
    dot3(a, a).sqrt()
}

/// Analytic integral `∫∫ 1/√(x² + y²) dx dy` over the rectangle
/// `[-wx/2, wx/2] × [-wy/2, wy/2]` (observation point at the centre).
///
/// Dividing by `4π` gives the MOM self-cell integral of the static part of the
/// Green's function. For a square cell of side `a` the value is
/// `4·a·asinh(1) ≈ 3.5255·a`.
///
/// # Panics
///
/// Panics if either side length is not positive.
pub fn inverse_r_integral_over_rectangle(wx: f64, wy: f64) -> f64 {
    assert!(wx > 0.0 && wy > 0.0, "cell dimensions must be positive");
    let half_x = 0.5 * wx;
    let half_y = 0.5 * wy;
    4.0 * (half_y * (half_x / half_y).asinh() + half_x * (half_y / half_x).asinh())
}

/// Analytic integral `∫ ln|x| dx` over the segment `[-w/2, w/2]`
/// (observation point at the centre), used by the 2D SWM self term where the
/// kernel's singular part is `-ln(R)/(2π)`.
///
/// # Panics
///
/// Panics if the width is not positive.
pub fn ln_integral_over_segment(w: f64) -> f64 {
    assert!(w > 0.0, "segment width must be positive");
    // ∫_{-w/2}^{w/2} ln|x| dx = w (ln(w/2) - 1)
    w * ((0.5 * w).ln() - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rough_numerics::quadrature::TensorRule2d;

    #[test]
    fn kernel_matches_definition() {
        let k = c64::new(2.0, 0.5);
        let r = 1.3;
        let g = scalar_green_3d(k, r);
        let expected = (c64::i() * k * r).exp() / (4.0 * PI * r);
        assert!((g - expected).abs() < 1e-16);
        // Lossy media decay with distance.
        assert!(scalar_green_3d(k, 2.0).abs() < scalar_green_3d(k, 1.0).abs());
    }

    #[test]
    fn static_limit_is_coulomb() {
        let g = scalar_green_3d(c64::zero(), 2.0);
        assert!((g.re - 1.0 / (8.0 * PI)).abs() < 1e-16);
        assert!(g.im.abs() < 1e-16);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let k = c64::new(1.2, 0.8);
        let (dx, dy, dz) = (0.4, -0.7, 0.9);
        let h = 1e-6;
        let (_, grad) = scalar_green_3d_gradient(k, dx, dy, dz);
        let num_dx = (scalar_green_3d(k, ((dx + h).powi(2) + dy * dy + dz * dz).sqrt())
            - scalar_green_3d(k, ((dx - h).powi(2) + dy * dy + dz * dz).sqrt()))
            / (2.0 * h);
        let num_dz = (scalar_green_3d(k, (dx * dx + dy * dy + (dz + h).powi(2)).sqrt())
            - scalar_green_3d(k, (dx * dx + dy * dy + (dz - h).powi(2)).sqrt()))
            / (2.0 * h);
        assert!((grad[0] - num_dx).abs() < 1e-6 * grad[0].abs());
        assert!((grad[2] - num_dz).abs() < 1e-6 * grad[2].abs());
    }

    #[test]
    fn smooth_part_limit() {
        let k = c64::new(3.0, 1.0);
        let r = 1e-7;
        let smooth = (scalar_green_3d(k, r) - c64::from_real(1.0 / (4.0 * PI * r))).abs();
        assert!((smooth - smooth_part_at_origin(k).abs()).abs() < 1e-5);
    }

    #[test]
    fn square_cell_inverse_r_integral() {
        let a = 0.37;
        let exact = inverse_r_integral_over_rectangle(a, a);
        assert!((exact - 4.0 * a * 1.0f64.asinh()).abs() < 1e-14);
        // Cross-check with numerical quadrature away from the singular point by
        // splitting the square into four quadrants (each regular except at one
        // corner, where Gauss points never land).
        let rule = TensorRule2d::gauss_legendre_on(48, 1e-12, a / 2.0, 1e-12, a / 2.0);
        let quarter = rule.integrate(|x, y| 1.0 / (x * x + y * y).sqrt());
        assert!(
            (4.0 * quarter - exact).abs() < 2e-2 * exact,
            "quad {} vs exact {}",
            4.0 * quarter,
            exact
        );
    }

    #[test]
    fn rectangle_integral_symmetry() {
        let v1 = inverse_r_integral_over_rectangle(0.2, 0.6);
        let v2 = inverse_r_integral_over_rectangle(0.6, 0.2);
        assert!((v1 - v2).abs() < 1e-14);
    }

    #[test]
    fn ln_segment_integral() {
        let w = 0.5;
        let exact = ln_integral_over_segment(w);
        // numerical check with midpoint refinement avoiding x = 0
        let n = 400_000;
        let h = w / n as f64;
        let mut sum = 0.0;
        for i in 0..n {
            let x = -w / 2.0 + (i as f64 + 0.5) * h;
            sum += x.abs().ln() * h;
        }
        assert!((sum - exact).abs() < 1e-6, "{sum} vs {exact}");
    }

    #[test]
    #[should_panic(expected = "singular at r = 0")]
    fn zero_separation_panics() {
        scalar_green_3d(c64::one(), 0.0);
    }

    #[test]
    fn smooth_kernel_series_matches_direct_evaluation() {
        let k = c64::new(1.5e6, 1.2e6);
        // Either side of the series/direct switch at |kR| = 1e-4 the two
        // branches must agree smoothly.
        for &r in &[1e-12, 1e-11, 5e-11, 1e-10, 1e-9, 1e-7] {
            let stable = smooth_kernel_3d(k, r);
            let direct = scalar_green_3d(k, r) - c64::from_real(1.0 / (4.0 * PI * r));
            assert!(
                (stable - direct).abs() < 1e-8 * stable.abs(),
                "r = {r}: {stable} vs {direct}"
            );
        }
        assert!((smooth_kernel_3d(k, 0.0) - smooth_part_at_origin(k)).abs() < 1e-18);
    }

    #[test]
    fn smooth_kernel_derivative_matches_finite_differences() {
        let k = c64::new(2.0e6, 1.5e6);
        // Radii where |kR| is large enough that the finite difference of the
        // value function is not dominated by the e^{jkR} − 1 cancellation.
        for &r in &[1e-8, 1e-7, 1e-6] {
            let h = 1e-4 * r;
            let numeric = (smooth_kernel_3d(k, r + h) - smooth_kernel_3d(k, r - h)) / (2.0 * h);
            let analytic = smooth_kernel_3d_radial_derivative(k, r);
            assert!(
                (numeric - analytic).abs() < 1e-5 * analytic.abs().max(1e-30),
                "r = {r}: {numeric} vs {analytic}"
            );
        }
        let at_zero = smooth_kernel_3d_radial_derivative(k, 0.0);
        let expected = (c64::i() * k) * (c64::i() * k) / (8.0 * PI);
        assert!((at_zero - expected).abs() < 1e-12 * expected.abs());
    }

    #[test]
    fn fused_smooth_kernel_pair_is_bit_identical_to_separate_calls() {
        let k = c64::new(1.5e6, 1.2e6);
        // Radii straddling both branch thresholds (|kR| around 1e-4 and 1e-3)
        // and the origin itself.
        for &r in &[0.0, 1e-12, 4e-11, 6e-11, 4e-10, 6e-10, 1e-8, 1e-6] {
            let (value, derivative) = smooth_kernel_3d_with_derivative(k, r);
            let sep_value = smooth_kernel_3d(k, r);
            let sep_derivative = smooth_kernel_3d_radial_derivative(k, r);
            assert_eq!(value.re.to_bits(), sep_value.re.to_bits(), "r = {r}");
            assert_eq!(value.im.to_bits(), sep_value.im.to_bits(), "r = {r}");
            assert_eq!(
                derivative.re.to_bits(),
                sep_derivative.re.to_bits(),
                "r = {r}"
            );
            assert_eq!(
                derivative.im.to_bits(),
                sep_derivative.im.to_bits(),
                "r = {r}"
            );
        }
    }

    /// `(x, y, weight)` Gauss points along a straight 2D segment (arclength
    /// measure), for brute-force line-integral references.
    fn gauss_on_segment(order: usize, a: [f64; 2], b: [f64; 2]) -> Vec<(f64, f64, f64)> {
        let len = ((b[0] - a[0]).powi(2) + (b[1] - a[1]).powi(2)).sqrt();
        rough_numerics::quadrature::gauss_legendre_on(order, 0.0, len)
            .iter()
            .map(|(t, w)| {
                (
                    a[0] + (b[0] - a[0]) * t / len,
                    a[1] + (b[1] - a[1]) * t / len,
                    w,
                )
            })
            .collect()
    }

    /// The tilted MOM cell of side `delta` with centre-height slopes
    /// `(fx, fy)`, as the locally corrected assembly sees it.
    fn cell_parallelogram(delta: f64, fx: f64, fy: f64) -> [[f64; 3]; 4] {
        let h = 0.5 * delta;
        [
            [-h, -h, -fx * h - fy * h],
            [h, -h, fx * h - fy * h],
            [h, h, fx * h + fy * h],
            [-h, h, -fx * h + fy * h],
        ]
    }

    /// Brute-force reference for `∫ dA/R` over a parallelogram: high-order
    /// tensor Gauss over the parameter square times the (constant) area
    /// Jacobian, subdivided 4 × 4 for good measure.
    fn brute_force_polygon_potential(p: [f64; 3], delta: f64, fx: f64, fy: f64) -> f64 {
        let jacobian = (1.0 + fx * fx + fy * fy).sqrt();
        let mut sum = 0.0;
        let h = 0.5 * delta;
        for i in 0..4 {
            for j in 0..4 {
                let rule = TensorRule2d::gauss_legendre_on(
                    32,
                    -h + 0.5 * h * i as f64,
                    -h + 0.5 * h * (i + 1) as f64,
                    -h + 0.5 * h * j as f64,
                    -h + 0.5 * h * (j + 1) as f64,
                );
                sum += rule.integrate(|x, y| {
                    let z = fx * x + fy * y;
                    let dx = p[0] - x;
                    let dy = p[1] - y;
                    let dz = p[2] - z;
                    1.0 / (dx * dx + dy * dy + dz * dz).sqrt()
                });
            }
        }
        sum * jacobian
    }

    #[test]
    fn polygon_potential_reduces_to_the_centred_rectangle_formula() {
        // A flat cell observed from its centre is the classic closed form.
        let (wx, wy) = (0.7, 1.3);
        let vertices = [
            [-0.5 * wx, -0.5 * wy, 0.0],
            [0.5 * wx, -0.5 * wy, 0.0],
            [0.5 * wx, 0.5 * wy, 0.0],
            [-0.5 * wx, 0.5 * wy, 0.0],
        ];
        let value = inverse_r_integral_over_planar_polygon([0.0; 3], &vertices);
        let expected = inverse_r_integral_over_rectangle(wx, wy);
        assert!((value - expected).abs() < 1e-12 * expected);
        // Orientation of the vertex list must not matter.
        let reversed: Vec<[f64; 3]> = vertices.iter().rev().copied().collect();
        let flipped = inverse_r_integral_over_planar_polygon([0.0; 3], &reversed);
        assert!((flipped - expected).abs() < 1e-12 * expected);
    }

    #[test]
    fn polygon_potential_matches_brute_force_off_plane() {
        let delta = 1.0;
        for &(fx, fy, px, py, pz) in &[
            (0.0, 0.0, 0.9, -0.4, 0.6),
            (0.4, -0.7, 1.4, 0.3, 0.5),
            (1.2, 0.8, -0.2, 1.1, -0.9),
        ] {
            let vertices = cell_parallelogram(delta, fx, fy);
            let p = [px, py, pz];
            let analytic = inverse_r_integral_over_planar_polygon(p, &vertices);
            let reference = brute_force_polygon_potential(p, delta, fx, fy);
            assert!(
                (analytic - reference).abs() < 1e-10 * reference,
                "slopes ({fx},{fy}) obs ({px},{py},{pz}): {analytic} vs {reference}"
            );
        }
    }

    #[test]
    fn solid_angle_matches_known_square_values() {
        // A unit square seen from directly above its centre at height h
        // subtends Ω = 4·asin(1/(2h²+1))·... use the classic pyramid formula:
        // Ω = 4·atan(a²/(4h·sqrt(h² + a²/2))) for a square of side a.
        let a = 1.0;
        let vertices = [
            [-0.5, -0.5, 0.0],
            [0.5, -0.5, 0.0],
            [0.5, 0.5, 0.0],
            [-0.5, 0.5, 0.0],
        ];
        for &h in &[0.3, 1.0, 2.5] {
            let omega = solid_angle_of_planar_polygon([0.0, 0.0, h], &vertices);
            let expected = 4.0 * (a * a / (4.0 * h * (h * h + a * a / 2.0).sqrt())).atan();
            assert!(
                (omega - expected).abs() < 1e-12,
                "h = {h}: {omega} vs {expected}"
            );
            // Below the plane the sign flips; in the plane it vanishes.
            let below = solid_angle_of_planar_polygon([0.0, 0.0, -h], &vertices);
            assert!((below + expected).abs() < 1e-12);
        }
        let in_plane = solid_angle_of_planar_polygon([2.0, 0.3, 0.0], &vertices);
        assert!(in_plane.abs() < 1e-12);
    }

    #[test]
    fn solid_angle_matches_double_layer_brute_force() {
        // Ω must equal ∫ n̂·(p − r')/R³ dA' for a tilted cell.
        let (delta, fx, fy) = (1.0, 0.6, -0.3);
        let vertices = cell_parallelogram(delta, fx, fy);
        let jacobian = (1.0 + fx * fx + fy * fy).sqrt();
        let normal = [-fx / jacobian, -fy / jacobian, 1.0 / jacobian];
        let p = [0.4, 0.9, 1.1];
        let rule = TensorRule2d::gauss_legendre_on(48, -0.5, 0.5, -0.5, 0.5);
        let reference = rule.integrate(|x, y| {
            let z = fx * x + fy * y;
            let dx = p[0] - x;
            let dy = p[1] - y;
            let dz = p[2] - z;
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            (normal[0] * dx + normal[1] * dy + normal[2] * dz) / (r * r * r)
        }) * jacobian;
        let omega = solid_angle_of_planar_polygon(p, &vertices);
        assert!(
            (omega - reference).abs() < 1e-9 * reference.abs(),
            "{omega} vs {reference}"
        );
    }

    #[test]
    fn segment_ln_integral_matches_centred_closed_form_and_quadrature() {
        // Observation at the segment centre reduces to the centred closed form.
        let w = 0.8;
        let value = ln_r_integral_over_segment([0.0, 0.0], [-0.5 * w, 0.0], [0.5 * w, 0.0]);
        assert!((value - ln_integral_over_segment(w)).abs() < 1e-14);

        // Arbitrary observation point and a tilted segment vs quadrature.
        let (a, b) = ([-0.3, 0.1], [0.5, 0.4]);
        let p = [0.2, 0.9];
        let analytic = ln_r_integral_over_segment(p, a, b);
        let rule = gauss_on_segment(64, a, b);
        let reference: f64 = rule
            .iter()
            .map(|&(x, y, w)| ((p[0] - x).powi(2) + (p[1] - y).powi(2)).sqrt().ln() * w)
            .sum();
        assert!(
            (analytic - reference).abs() < 1e-12 * reference.abs().max(1.0),
            "{analytic} vs {reference}"
        );
    }

    #[test]
    fn subtended_angle_signs_and_limits() {
        let (a, b) = ([-0.5, 0.0], [0.5, 0.0]);
        // Above the segment (its +90°-rotated normal side): positive angle.
        let above = subtended_angle_of_segment([0.0, 0.4], a, b);
        let expected = 2.0 * (0.5f64 / 0.4).atan();
        assert!((above - expected).abs() < 1e-12);
        // Below: mirrored sign. On the line: zero.
        let below = subtended_angle_of_segment([0.0, -0.4], a, b);
        assert!((below + expected).abs() < 1e-12);
        assert_eq!(subtended_angle_of_segment([3.0, 0.0], a, b), 0.0);
        // Matches the brute-force double-layer line integral.
        let p = [0.3, 0.7];
        let rule = gauss_on_segment(64, a, b);
        let reference: f64 = rule
            .iter()
            .map(|&(x, y, w)| {
                let dx = p[0] - x;
                let dy = p[1] - y;
                dy / (dx * dx + dy * dy) * w
            })
            .sum();
        let analytic = subtended_angle_of_segment(p, a, b);
        assert!((analytic - reference).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Negating the observation offset about the cell centre swaps the
        // roles of source and observer; the static cell potential must be
        // invariant.
        #[test]
        fn prop_polygon_potential_symmetric_under_swap(
            delta in 0.3f64..2.0,
            fx in -1.2f64..1.2,
            fy in -1.2f64..1.2,
            px in -2.0f64..2.0,
            py in -2.0f64..2.0,
            pz in -2.0f64..2.0,
        ) {
            let vertices = cell_parallelogram(delta, fx, fy);
            let forward = inverse_r_integral_over_planar_polygon([px, py, pz], &vertices);
            let swapped = inverse_r_integral_over_planar_polygon([-px, -py, -pz], &vertices);
            prop_assert!(
                (forward - swapped).abs() < 1e-11 * forward.max(swapped),
                "forward {} vs swapped {}", forward, swapped
            );
        }

        // The self term (observation at the cell centre, in the cell plane)
        // is a positive quantity for every cell geometry.
        #[test]
        fn prop_self_potential_is_positive(
            delta in 0.1f64..3.0,
            fx in -2.0f64..2.0,
            fy in -2.0f64..2.0,
        ) {
            let vertices = cell_parallelogram(delta, fx, fy);
            let value = inverse_r_integral_over_planar_polygon([0.0; 3], &vertices);
            // The potential of a cell is at least that of its inscribed disk
            // (radius delta/2): 2π·(delta/2) per unit... use a safe lower
            // bound of delta (the flat square gives ≈ 3.53·delta).
            prop_assert!(value > delta, "value {} for delta {}", value, delta);
        }

        // Against brute-force high-order quadrature on random cell
        // geometries (observation separated enough that the reference rule
        // itself converges to 1e-10).
        #[test]
        fn prop_polygon_potential_matches_brute_force(
            delta in 0.3f64..1.5,
            fx in -1.0f64..1.0,
            fy in -1.0f64..1.0,
            px in -1.5f64..1.5,
            py in -1.5f64..1.5,
            pz in 0.4f64..2.0,
        ) {
            let vertices = cell_parallelogram(delta, fx, fy);
            let p = [px, py, pz + 1.2 * (fx.abs() + fy.abs()) * delta];
            let analytic = inverse_r_integral_over_planar_polygon(p, &vertices);
            let reference = brute_force_polygon_potential(p, delta, fx, fy);
            prop_assert!(
                (analytic - reference).abs() < 1e-10 * reference,
                "analytic {} vs brute-force {}", analytic, reference
            );
        }
    }
}
