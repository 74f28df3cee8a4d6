//! Singly-periodic scalar Green's function of the 2D Helmholtz operator.
//!
//! The 2D SWM formulation of Fig. 6 (surface height uniform along `y`) reduces
//! the problem to a contour integral equation in the `(x, z)` plane with the 2D
//! kernel `(j/4)·H₀⁽¹⁾(k|ρ|)` made periodic along `x` with period `L`:
//!
//! ```text
//! G_p(Δx, Δz) = Σ_m (j/4)·H₀⁽¹⁾(k·|Δ − m·L·x̂|)
//! ```
//!
//! Instead of Hankel functions, the kernel is evaluated through its Floquet
//! (spectral) series accelerated with a Kummer transformation: the slowly
//! converging large-`m` tail `e^{jk_xm Δx − |k_xm||Δz|}/(2L|k_xm|)` is summed in
//! closed form as `−ln(1 − w)/(4π) − ln(1 − w̄)/(4π)` with
//! `w = e^{2π(jΔx − |Δz|)/L}`, and only the rapidly (∝ 1/m³) decaying remainder
//! is summed numerically. The per-mode constants of that remainder are
//! built once per kernel, and the `±m` modes are folded into one real cosine
//! (sine) factor each, so one evaluation costs one complex `exp` per mode.

use rough_numerics::complex::c64;
use std::f64::consts::PI;
use std::fmt;
use std::sync::Arc;

/// Highest Floquet mode the remainder series sums before it stops.
const MAX_MODES: usize = 20_000;
/// Relative convergence tolerance of the remainder series.
const TOLERANCE: f64 = 1e-12;

/// Value and in-plane gradient of the 2D periodic kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Green2dSample {
    /// Kernel value.
    pub value: c64,
    /// Gradient with respect to the separation `(Δx, Δz)`.
    pub gradient: [c64; 2],
}

/// Separation-independent constants of Floquet mode `m`: the transverse
/// wavenumber `k_xm = 2πm/L`, the complex vertical wavenumber
/// `k_z = √(k² − k_xm²)` and `|k_xm|`.
#[derive(Debug, Clone, Copy)]
struct Mode2d {
    kxm: f64,
    kz: c64,
    abs_kxm: f64,
}

/// Singly-periodic (period `L` along x) scalar Green's function of the 2D
/// Helmholtz operator, evaluated by a Kummer-accelerated Floquet series.
///
/// # Example
///
/// ```
/// use rough_em::green::PeriodicGreen2d;
/// use rough_numerics::complex::c64;
///
/// let g = PeriodicGreen2d::new(c64::new(0.5, 0.2), 5.0);
/// // Periodic along x with period 5.
/// let a = g.value(1.0, 0.4);
/// let b = g.value(1.0 + 5.0, 0.4);
/// assert!((a - b).abs() < 1e-9 * a.abs());
/// ```
#[derive(Clone)]
pub struct PeriodicGreen2d {
    k: c64,
    period: f64,
    /// Constants of the modes `0..=MAX_MODES`, shared by clones.
    modes: Arc<[Mode2d]>,
}

impl fmt::Debug for PeriodicGreen2d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeriodicGreen2d")
            .field("k", &self.k)
            .field("period", &self.period)
            .finish_non_exhaustive()
    }
}

impl PeriodicGreen2d {
    /// Creates the kernel for wavenumber `k` and period `L`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive or `Im(k) < 0`.
    pub fn new(k: c64, period: f64) -> Self {
        assert!(period > 0.0, "period must be positive");
        assert!(k.im >= 0.0, "gain media (Im k < 0) are not supported");
        let modes = (0..=MAX_MODES)
            .map(|m| {
                let kxm = 2.0 * PI * m as f64 / period;
                Mode2d {
                    kxm,
                    kz: (k * k - c64::from_real(kxm * kxm)).sqrt(),
                    abs_kxm: kxm.abs(),
                }
            })
            .collect();
        Self { k, period, modes }
    }

    /// Wavenumber of the medium.
    pub fn wavenumber(&self) -> c64 {
        self.k
    }

    /// Period along x.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Kernel value at separation `(Δx, Δz)`.
    ///
    /// # Panics
    ///
    /// Panics if the separation coincides with a lattice point; use
    /// [`PeriodicGreen2d::regularized_at_origin`] for self terms.
    pub fn value(&self, dx: f64, dz: f64) -> c64 {
        self.sample(dx, dz).value
    }

    /// Kernel value and gradient at separation `(Δx, Δz)`.
    ///
    /// # Panics
    ///
    /// Panics if the separation coincides with a lattice point.
    pub fn sample(&self, dx: f64, dz: f64) -> Green2dSample {
        let on_axis = dz.abs() < 1e-12 * self.period;
        let near_lattice =
            on_axis && ((dx / self.period) - (dx / self.period).round()).abs() < 1e-12;
        assert!(
            !near_lattice,
            "periodic 2D Green's function evaluated at a lattice point; use regularized()"
        );
        let s = dz.abs();
        let sign_z = if dz >= 0.0 { 1.0 } else { -1.0 };
        let (m0, m0s) = self.zeroth_mode(s);
        let (closed, closed_x, closed_s) = self.tail_closed_form(dx, s);
        let (rem, rem_x, rem_s) = self.remainder(dx, s);
        Green2dSample {
            value: m0 + closed + rem,
            gradient: [closed_x + rem_x, (m0s + closed_s + rem_s).scale(sign_z)],
        }
    }

    /// The regularized kernel `G_p − (−ln R/(2π))`, finite as the separation
    /// goes to zero. Used together with the analytic cell integral of the
    /// logarithmic singularity for the MOM self terms.
    pub fn regularized_at_origin(&self) -> c64 {
        // Closed-form Kummer term behaves like −ln(2πR/L)/(2π); removing the
        // −ln(R)/(2π) singular part leaves −ln(2π/L)/(2π).
        let (remainder, _, _) = self.remainder(0.0, 0.0);
        let (m0, _) = self.zeroth_mode(0.0);
        remainder + m0 - c64::from_real((2.0 * PI / self.period).ln() / (2.0 * PI))
    }

    /// The `m = 0` Floquet term at `|Δz| = s` (its phase is exactly 1) and
    /// its `d/d|Δz|` derivative.
    fn zeroth_mode(&self, s: f64) -> (c64, c64) {
        let kz0 = self.modes[0].kz;
        let value = (c64::i() * kz0 * s).exp() / (c64::new(0.0, -2.0 * self.period) * kz0);
        (value, c64::i() * kz0 * value)
    }

    /// The Kummer remainder `Σ_{m≠0} (mode − tail)` and its `(d/dΔx, d/d|Δz|)`
    /// derivatives, with each `±m` phase pair folded into `2·cos(k_xm·Δx)`
    /// (values) and `−2·k_xm·sin(k_xm·Δx)` (x-derivative). The phases come
    /// from one sine/cosine recurrence; the series stops once a folded term
    /// drops below the tolerance or at `MAX_MODES`.
    fn remainder(&self, dx: f64, s: f64) -> (c64, c64, c64) {
        let l = self.period;
        let (sin1, cos1) = (self.modes[1].kxm * dx).sin_cos();
        let (mut cos_ma, mut sin_ma) = (cos1, sin1);
        let mut rem = c64::zero();
        let mut rem_x = c64::zero();
        let mut rem_s = c64::zero();
        for (m, mode) in self.modes.iter().enumerate().skip(1) {
            let vert = (c64::i() * mode.kz * s).exp();
            let v = vert / (c64::new(0.0, -2.0 * l) * mode.kz);
            let t = (-mode.abs_kxm * s).exp() / (2.0 * l * mode.abs_kxm);
            let diff = v - c64::from_real(t);
            rem += diff.scale(2.0 * cos_ma);
            rem_x += diff.scale(-2.0 * mode.kxm * sin_ma);
            rem_s +=
                (c64::i() * mode.kz * v + c64::from_real(mode.abs_kxm * t)).scale(2.0 * cos_ma);
            if 2.0 * diff.abs() < TOLERANCE * (1.0 + rem.abs()) && m > 4 {
                break;
            }
            let next_cos = cos_ma * cos1 - sin_ma * sin1;
            sin_ma = sin_ma * cos1 + cos_ma * sin1;
            cos_ma = next_cos;
        }
        (rem, rem_x, rem_s)
    }

    /// Closed form of the summed Kummer tail and its derivatives.
    fn tail_closed_form(&self, dx: f64, s: f64) -> (c64, c64, c64) {
        let l = self.period;
        let w = (c64::new(-s, dx) * (2.0 * PI / l)).exp();
        let wbar = (c64::new(-s, -dx) * (2.0 * PI / l)).exp();
        let one = c64::one();
        let value = -((one - w).ln() + (one - wbar).ln()) / (4.0 * PI);
        // d/d dx: (j/(2L)) [w/(1−w) − w̄/(1−w̄)]
        let ddx = c64::i() * (w / (one - w) - wbar / (one - wbar)) / (2.0 * l);
        // d/d s: −(1/(2L)) [w/(1−w) + w̄/(1−w̄)]
        let dds = -(w / (one - w) + wbar / (one - wbar)) / (2.0 * l);
        (value, ddx, dds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The unfolded Kummer series: one exact mode term and one asymptotic
    /// tail term per signed mode index, every per-mode constant recomputed.
    /// It is the oracle the folded, table-driven [`PeriodicGreen2d::sample`]
    /// is pinned against.
    impl PeriodicGreen2d {
        /// Exact Floquet mode term `m` and its (value, d/dΔx, d/d|Δz|)
        /// derivatives.
        fn mode_term(&self, m: i64, dx: f64, s: f64) -> (c64, c64, c64) {
            let kxm = 2.0 * PI * m as f64 / self.period;
            let kz = (self.k * self.k - c64::from_real(kxm * kxm)).sqrt();
            let phase = c64::from_polar(1.0, kxm * dx);
            let vert = (c64::i() * kz * s).exp();
            let denom = c64::new(0.0, -2.0 * self.period) * kz;
            let value = phase * vert / denom;
            let ddx = c64::i() * value * kxm;
            let dds = c64::i() * kz * value;
            (value, ddx, dds)
        }

        /// Asymptotic (Kummer) tail term for mode `m ≠ 0` and its
        /// derivatives.
        fn tail_term(&self, m: i64, dx: f64, s: f64) -> (c64, c64, c64) {
            let kxm = 2.0 * PI * m as f64 / self.period;
            let abs_kxm = kxm.abs();
            let phase = c64::from_polar(1.0, kxm * dx);
            let value = phase * (-abs_kxm * s).exp() / (2.0 * self.period * abs_kxm);
            let ddx = c64::i() * value * kxm;
            let dds = value.scale(-abs_kxm);
            (value, ddx, dds)
        }

        /// Sum of `(mode − tail)` remainders only (no m = 0 term, no closed
        /// form).
        fn kummer_sum_remainder_only(&self, dx: f64, s: f64) -> (c64, [c64; 2]) {
            let mut value = c64::zero();
            let mut ddx = c64::zero();
            let mut dds = c64::zero();
            let mut m = 1i64;
            loop {
                let mut chunk = 0.0;
                for sign in [1i64, -1] {
                    let mm = sign * m;
                    let (ev, ex, es) = self.mode_term(mm, dx, s);
                    let (tv, tx, ts) = self.tail_term(mm, dx, s);
                    value += ev - tv;
                    ddx += ex - tx;
                    dds += es - ts;
                    chunk += (ev - tv).abs();
                }
                if chunk < TOLERANCE * (1.0 + value.abs()) && m > 4 {
                    break;
                }
                m += 1;
                if m as usize > MAX_MODES {
                    break;
                }
            }
            (value, [ddx, dds])
        }

        fn kummer_sum(&self, dx: f64, dz: f64) -> Green2dSample {
            let s = dz.abs();
            let sign_z = if dz >= 0.0 { 1.0 } else { -1.0 };
            let (m0, m0x, m0s) = self.mode_term(0, dx, s);
            let (closed, closed_x, closed_s) = self.tail_closed_form(dx, s);
            let (rem, rem_grad) = self.kummer_sum_remainder_only(dx, s);
            Green2dSample {
                value: m0 + closed + rem,
                gradient: [
                    m0x + closed_x + rem_grad[0],
                    (m0s + closed_s + rem_grad[1]) * sign_z,
                ],
            }
        }
    }

    #[test]
    fn matches_plain_floquet_series_away_from_axis() {
        // For |dz| of the order of the period the plain Floquet series
        // converges and provides an independent reference.
        let g = PeriodicGreen2d::new(c64::new(0.4, 0.1), 5.0);
        let (dx, dz): (f64, f64) = (1.3, 3.5);
        let mut reference = c64::zero();
        for m in -2000i64..=2000 {
            reference += g.mode_term(m, dx, dz.abs()).0;
        }
        let fast = g.value(dx, dz);
        assert!(
            (fast - reference).abs() < 1e-9 * (1.0 + reference.abs()),
            "{fast} vs {reference}"
        );
    }

    #[test]
    fn kummer_and_plain_series_agree_close_to_axis() {
        // Closer to the axis the plain series needs a very large number of
        // terms; with 200k terms it is still only good to ~1e-6, which is
        // enough to validate the accelerated evaluation.
        let g = PeriodicGreen2d::new(c64::new(0.6, 0.3), 5.0);
        let (dx, dz) = (0.8, 0.15);
        let mut reference = c64::zero();
        for m in -200_000i64..=200_000 {
            reference += g.mode_term(m, dx, dz).0;
        }
        let fast = g.value(dx, dz);
        assert!(
            (fast - reference).abs() < 1e-5 * (1.0 + reference.abs()),
            "{fast} vs {reference}"
        );
    }

    #[test]
    fn periodicity_along_x() {
        let g = PeriodicGreen2d::new(c64::new(0.5, 0.2), 4.0);
        let a = g.value(0.7, 0.9);
        let b = g.value(0.7 + 4.0, 0.9);
        let c = g.value(0.7 - 8.0, 0.9);
        assert!((a - b).abs() < 1e-10 * a.abs());
        assert!((a - c).abs() < 1e-10 * a.abs());
    }

    #[test]
    fn even_in_separation() {
        let g = PeriodicGreen2d::new(c64::new(0.5, 0.2), 4.0);
        let a = g.value(1.1, 0.6);
        let b = g.value(-1.1, -0.6);
        assert!((a - b).abs() < 1e-10 * a.abs());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let g = PeriodicGreen2d::new(c64::new(0.7, 0.25), 5.0);
        let (dx, dz) = (1.4, 0.5);
        let h = 1e-6;
        let sample = g.sample(dx, dz);
        let num_x = (g.value(dx + h, dz) - g.value(dx - h, dz)) / (2.0 * h);
        let num_z = (g.value(dx, dz + h) - g.value(dx, dz - h)) / (2.0 * h);
        assert!((sample.gradient[0] - num_x).abs() < 1e-5 * (1.0 + num_x.abs()));
        assert!((sample.gradient[1] - num_z).abs() < 1e-5 * (1.0 + num_z.abs()));
    }

    #[test]
    fn log_singularity_is_removed_by_regularization() {
        let g = PeriodicGreen2d::new(c64::new(0.3, 0.1), 5.0);
        let reg0 = g.regularized_at_origin();
        assert!(reg0.is_finite());
        // G_p(r) + ln(r)/(2π) should approach the regularized value as r → 0.
        for &r in &[1e-3, 1e-4, 1e-5] {
            let approx = g.value(r, 0.0) + c64::from_real(r.ln() / (2.0 * PI));
            assert!(
                (approx - reg0).abs() < 5e-3 * (1.0 + reg0.abs()),
                "r = {r}: {approx} vs {reg0}"
            );
        }
    }

    /// Asserts the folded series reproduces the unfolded oracle: values to
    /// 1e-12 and gradients to 1e-11 relative.
    fn assert_matches_oracle(g: &PeriodicGreen2d, dx: f64, dz: f64) {
        let got = g.sample(dx, dz);
        let want = g.kummer_sum(dx, dz);
        let k = g.wavenumber();
        assert!(
            (got.value - want.value).abs() <= 1e-12 * (1.0 + want.value.abs()),
            "k={k} Δ=({dx},{dz}): folded {} vs oracle {}",
            got.value,
            want.value
        );
        for axis in 0..2 {
            assert!(
                (got.gradient[axis] - want.gradient[axis]).abs()
                    <= 1e-11 * (1.0 + want.gradient[axis].abs()),
                "k={k} Δ=({dx},{dz}) gradient[{axis}]: folded {} vs oracle {}",
                got.gradient[axis],
                want.gradient[axis]
            );
        }
    }

    #[test]
    fn folded_series_matches_unfolded_oracle() {
        // Fixed points across the three wavenumber regimes.
        for &k in &[
            c64::new(2.0e-4, 0.0),
            c64::new(0.5, 0.2),
            c64::new(1.2, 1.2),
        ] {
            let g = PeriodicGreen2d::new(k, 5.0);
            for &(dx, dz) in &[
                (0.07, 0.015),
                (0.8, 0.15),
                (1.3, 3.5),
                (-1.9, -0.6),
                (2.4, 0.02),
            ] {
                assert_matches_oracle(&g, dx, dz);
            }
        }
        // Random separations over several periods and both signs of Δz.
        let mut rng = StdRng::seed_from_u64(0x0206);
        for &(k, period) in &[
            (c64::new(2.0e-4, 0.0), 5.0),
            (c64::new(1.2, 1.2), 5.0),
            (c64::new(0.5, 0.2), 4.0),
        ] {
            let g = PeriodicGreen2d::new(k, period);
            for _ in 0..40 {
                let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                let dx = rng.gen_range(-1.45..1.45) * period;
                let dz = rng.gen_range(0.02..0.8) * period * sign;
                assert_matches_oracle(&g, dx, dz);
            }
            // Near-axis points, |Δz| ≤ 1e-3·L, where the remainder needs the
            // most modes.
            for &(fx, fz) in &[
                (0.013, 1e-3),
                (0.25, -1e-3),
                (0.5, 1e-4),
                (-0.37, -1e-5),
                (0.91, 1e-6),
                (0.002, 0.0),
            ] {
                assert_matches_oracle(&g, fx * period, fz * period);
            }
            // The self-term value runs the same folded loop at Δ = 0.
            let want = g.kummer_sum_remainder_only(0.0, 0.0).0 + g.mode_term(0, 0.0, 0.0).0
                - c64::from_real((2.0 * PI / period).ln() / (2.0 * PI));
            let got = g.regularized_at_origin();
            assert!(
                (got - want).abs() <= 1e-12 * (1.0 + want.abs()),
                "k={k}: regularized {got} vs oracle {want}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "lattice point")]
    fn lattice_point_evaluation_panics() {
        let g = PeriodicGreen2d::new(c64::new(0.3, 0.1), 5.0);
        let _ = g.value(5.0, 0.0);
    }
}
