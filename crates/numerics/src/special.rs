//! Special functions: real and complex error functions, the Faddeeva function,
//! and Gaussian distribution helpers.
//!
//! The complex complementary error function is the work-horse of the Ewald
//! representation of the doubly-periodic Green's function (paper §III-B,
//! ref. \[16\]): both the spatial and the spectral Ewald sums are expressed in
//! terms of `erfc` of complex arguments.
//!
//! Every error function here goes through one fixed-cost evaluation of the
//! Faddeeva function `w(z) = e^{−z²}·erfc(−jz)` in the closed upper
//! half-plane: Weideman's rational approximation with `N = 40` terms (SIAM J.
//! Numer. Anal. 31(5), 1994). [`erfc_complex`] is `e^{−z²}·w(jz)`, with
//! `e^{−z²}` formed from the exact square of `z`. No series, continued
//! fraction or branch switch is involved, so the result is smooth in `z` and
//! every call costs the same. Against mpmath at 40 digits
//! (`tests/data/erfc_reference.py` and its table) the relative error of
//! [`erfc_complex`] and [`erfc`] stays below 5e-15 (at most 1.3e-15 measured)
//! on an offset grid over `[−12, 12]²`, on the Ewald argument strips and on
//! the real axis.
//!
//! Callers that fold the `e^{−z²}` factor into their own exponentials, as the
//! batched Ewald sums do, call the Faddeeva core directly:
//! [`faddeeva_of_ju_lanes`] evaluates `w(j·u)` over a slice of arguments with
//! the coefficient loop outside the lane loop, bit-identical to the scalar
//! core per argument and about twice as fast per argument on long slices.

use crate::complex::c64;
use std::f64::consts::PI;

/// `1/√π`.
const ONE_OVER_SQRT_PI: f64 = 0.5641895835477563;

/// Weideman's parameter `L = √(N/√2)` for `N = 40`.
const WEIDEMAN_L: f64 = 5.3182958969449885;

/// Coefficients `a₁ … a₄₀` of Weideman's polynomial `p(Z) = Σ a_{n+1}·Zⁿ`,
/// from his DFT formula evaluated at 40 digits (`tests/data/erfc_reference.py
/// --coefficients`; the unit test `weideman_coefficients_match_their_dft`
/// recomputes them with this crate's FFT).
const WEIDEMAN_A: [f64; 40] = [
    2.8996245093897053,
    2.61605415276186,
    2.201513794878312,
    1.7253830848179779,
    1.2563815675765133,
    0.8472174576593818,
    0.5266528988277086,
    0.29989437996150065,
    0.15504263802479495,
    0.07182361779074337,
    0.029202916471241867,
    0.010048186242783424,
    0.0027054056330737914,
    0.0004398070159869668,
    -3.939363145489569e-05,
    -5.591309264248318e-05,
    -1.8007447144750956e-05,
    -1.0660138984947143e-06,
    1.483566113220078e-06,
    5.912136951899494e-07,
    1.4198642399935674e-08,
    -6.35177348504429e-08,
    -1.8315616783040462e-08,
    3.2497465180436973e-09,
    3.0177805400090707e-09,
    2.1086006347066517e-10,
    -3.5632339865976533e-10,
    -9.055124450928292e-11,
    3.47272670930455e-11,
    1.7714495214011192e-11,
    -2.7276023158200452e-12,
    -2.907688342182867e-12,
    1.2031458219387989e-13,
    4.5329666782606727e-13,
    1.37256205867155e-14,
    -7.074086260286855e-14,
    -5.409310282882142e-15,
    1.1357687198999241e-14,
    1.128073562364402e-15,
    -1.899694947394927e-15,
];

/// Error function of a real argument.
///
/// # Example
///
/// ```
/// use rough_numerics::special::erf;
/// assert!((erf(0.0)).abs() < 1e-15);
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-13);
/// assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-13);
/// ```
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function of a real argument: the real part of
/// [`erfc_complex`] on the real axis, relative error below 5e-15 wherever
/// `erfc(x)` is a normal number.
pub fn erfc(x: f64) -> f64 {
    erfc_complex(c64::from_real(x)).re
}

/// Error function of a complex argument.
pub fn erf_complex(z: c64) -> c64 {
    c64::one() - erfc_complex(z)
}

/// Complementary error function of a complex argument.
///
/// For `Re z ≥ 0` it evaluates `erfc(z) = e^{−z²}·w(jz)`, where `jz` lies in
/// the upper half-plane that Weideman's approximation covers; arguments with
/// negative real part are folded with the exact reflection
/// `erfc(z) = 2 − erfc(−z)`. The cost is the same for every argument.
///
/// # Example
///
/// ```
/// use rough_numerics::complex::c64;
/// use rough_numerics::special::erfc_complex;
///
/// // Reduces to the real function on the real axis.
/// let z = erfc_complex(c64::new(1.5, 0.0));
/// assert!((z.re - 0.033894853524689274).abs() < 1e-16);
/// assert_eq!(z.im, 0.0);
/// ```
pub fn erfc_complex(z: c64) -> c64 {
    if z.re < 0.0 {
        return c64::from_real(2.0) - erfc_complex(-z);
    }
    exp_minus_square(z) * faddeeva_of_ju(z)
}

/// The Faddeeva (plasma dispersion) function `w(z) = e^{-z²} erfc(−jz)`.
///
/// Valid for all `z`; the lower half-plane is handled with the reflection
/// `w(z) = 2·e^{-z²} − w(−z)` (which may overflow for arguments with very
/// large `|Im z|·|Re z|`, far outside the range used by this workspace).
pub fn faddeeva(z: c64) -> c64 {
    if z.im >= 0.0 {
        // z = j·u with u = −jz, Re u = Im z ≥ 0.
        faddeeva_of_ju(c64::new(z.im, -z.re))
    } else {
        exp_minus_square(z).scale(2.0) - faddeeva(-z)
    }
}

/// `w(j·u)` for `Re u ≥ 0`, by Weideman's rational approximation.
///
/// With `ζ = j·u` in the upper half-plane, Weideman writes
/// `w(ζ) ≈ 2·p(Z)/(L − jζ)² + (1/√π)/(L − jζ)` with `Z = (L + jζ)/(L − jζ)`;
/// here `L − jζ = L + u` and `L + jζ = L − u`. `Re(L + u) ≥ L`, so the one
/// reciprocal is always well conditioned.
fn faddeeva_of_ju(u: c64) -> c64 {
    let r = (u + WEIDEMAN_L).recip();
    let z = (c64::from_real(WEIDEMAN_L) - u) * r;
    // p(Z) = E(Z²) + Z·O(Z²): two independent Horner chains instead of one
    // twice as long, which the CPU overlaps.
    let z2 = z * z;
    let mut even = c64::zero();
    let mut odd = c64::zero();
    for pair in WEIDEMAN_A.chunks_exact(2).rev() {
        even = even * z2 + pair[0];
        odd = odd * z2 + pair[1];
    }
    let p = even + odd * z;
    r * ((p * r).scale(2.0) + ONE_OVER_SQRT_PI)
}

/// Structure-of-arrays work buffers of [`faddeeva_of_ju_lanes`]: one `f64`
/// lane per argument for each intermediate of Weideman's rational. They grow
/// to the longest slice seen and are reused, so a caller that keeps one
/// allocates only until it has seen its longest slice.
#[derive(Debug, Clone, Default)]
pub struct FaddeevaLanes {
    r_re: Vec<f64>,
    r_im: Vec<f64>,
    z_re: Vec<f64>,
    z_im: Vec<f64>,
    z2_re: Vec<f64>,
    z2_im: Vec<f64>,
    even_re: Vec<f64>,
    even_im: Vec<f64>,
    odd_re: Vec<f64>,
    odd_im: Vec<f64>,
}

impl FaddeevaLanes {
    fn resize(&mut self, lanes: usize) {
        for lane in [
            &mut self.r_re,
            &mut self.r_im,
            &mut self.z_re,
            &mut self.z_im,
            &mut self.z2_re,
            &mut self.z2_im,
            &mut self.even_re,
            &mut self.even_im,
            &mut self.odd_re,
            &mut self.odd_im,
        ] {
            lane.resize(lanes, 0.0);
        }
    }
}

/// `out[i] = w(j·args[i])` for arguments with `Re u ≥ 0`: the scalar core of
/// [`erfc_complex`] run over many independent arguments at once.
///
/// The scalar core is latency-bound on its two Horner chains. Here the
/// coefficient loop sits outside the lane loop, so each Horner step is one
/// pass of independent multiply-adds over structure-of-arrays lanes, which
/// the compiler vectorizes and the CPU overlaps. Every lane performs the
/// scalar core's operations in the scalar core's order (no fused
/// multiply-add), so each result is bit-identical to it.
///
/// # Panics
///
/// Panics if the slice lengths differ.
///
/// # Example
///
/// ```
/// use rough_numerics::complex::c64;
/// use rough_numerics::special::{erfc_complex, faddeeva_of_ju_lanes, FaddeevaLanes};
///
/// // erfc(z) = e^{−z²}·w(jz) for Re z ≥ 0.
/// let z = [c64::new(0.5, 1.0), c64::new(2.0, -0.5)];
/// let mut w = [c64::zero(); 2];
/// faddeeva_of_ju_lanes(&z, &mut w, &mut FaddeevaLanes::default());
/// for (z, w) in z.iter().zip(&w) {
///     let erfc = (-(*z * *z)).exp() * *w;
///     assert!((erfc - erfc_complex(*z)).abs() < 1e-14 * erfc.abs());
/// }
/// ```
pub fn faddeeva_of_ju_lanes(args: &[c64], out: &mut [c64], lanes: &mut FaddeevaLanes) {
    assert_eq!(
        args.len(),
        out.len(),
        "faddeeva_of_ju_lanes output slice must match the number of arguments"
    );
    let n = args.len();
    if lanes.even_re.len() < n {
        lanes.resize(n);
    }
    let r_re = &mut lanes.r_re[..n];
    let r_im = &mut lanes.r_im[..n];
    let z_re = &mut lanes.z_re[..n];
    let z_im = &mut lanes.z_im[..n];
    let z2_re = &mut lanes.z2_re[..n];
    let z2_im = &mut lanes.z2_im[..n];
    let even_re = &mut lanes.even_re[..n];
    let even_im = &mut lanes.even_im[..n];
    let odd_re = &mut lanes.odd_re[..n];
    let odd_im = &mut lanes.odd_im[..n];

    for (i, &u) in args.iter().enumerate() {
        debug_assert!(u.re >= 0.0, "Re u must be ≥ 0, got {u}");
        let r = (u + WEIDEMAN_L).recip();
        let z = (c64::from_real(WEIDEMAN_L) - u) * r;
        let z2 = z * z;
        r_re[i] = r.re;
        r_im[i] = r.im;
        z_re[i] = z.re;
        z_im[i] = z.im;
        z2_re[i] = z2.re;
        z2_im[i] = z2.im;
        even_re[i] = 0.0;
        even_im[i] = 0.0;
        odd_re[i] = 0.0;
        odd_im[i] = 0.0;
    }
    for pair in WEIDEMAN_A.chunks_exact(2).rev() {
        let (a_even, a_odd) = (pair[0], pair[1]);
        for i in 0..n {
            let (x, y) = (z2_re[i], z2_im[i]);
            let (er, ei) = (even_re[i], even_im[i]);
            even_re[i] = er * x - ei * y + a_even;
            even_im[i] = er * y + ei * x;
            let (or, oi) = (odd_re[i], odd_im[i]);
            odd_re[i] = or * x - oi * y + a_odd;
            odd_im[i] = or * y + oi * x;
        }
    }
    for (i, slot) in out.iter_mut().enumerate() {
        let r = c64::new(r_re[i], r_im[i]);
        let z = c64::new(z_re[i], z_im[i]);
        let p = c64::new(even_re[i], even_im[i]) + c64::new(odd_re[i], odd_im[i]) * z;
        *slot = r * ((p * r).scale(2.0) + ONE_OVER_SQRT_PI);
    }
}

/// `e^{−z²}` with `z²` formed exactly as an unevaluated sum of doubles, so the
/// rounding of `x² − y²` and `2xy` (up to `|z|²·2⁻⁵³` in the exponent) does
/// not cost relative accuracy at large `|z|`.
fn exp_minus_square(z: c64) -> c64 {
    let (x, y) = (z.re, z.im);
    let (xx, xx_err) = two_product(x, x);
    let (yy, yy_err) = two_product(y, y);
    let (xy, xy_err) = two_product(x, y);
    let re = xx - yy;
    // Exact rounding error of `xx − yy` (Knuth's two-sum).
    let shadow = re - xx;
    let re_err = (xx - (re - shadow)) - (yy + shadow) + xx_err - yy_err;
    // e^{−(re + re_err) − 2j(xy + xy_err)} = e^{−re − 2j·xy}·(1 − re_err − 2j·xy_err)
    // up to the square of the tiny corrections.
    (-c64::new(re, 2.0 * xy)).exp() * c64::new(1.0 - re_err, -2.0 * xy_err)
}

/// `a·b` as the rounded product and its exact rounding error.
fn two_product(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    (p, a.mul_add(b, -p))
}

/// Cumulative distribution function of the standard normal distribution.
///
/// # Example
///
/// ```
/// use rough_numerics::special::normal_cdf;
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-15);
/// assert!((normal_cdf(1.96) - 0.9750021048517795).abs() < 1e-10);
/// ```
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Quantile (inverse CDF) of the standard normal distribution.
///
/// Uses Acklam's rational approximation refined by one Halley step, giving
/// ~1e-15 relative accuracy.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1)");

    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    let x = if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Probability density function of the standard normal distribution.
pub fn normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * PI).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Relative error `|got − want| / |want|`.
    fn rel(got: c64, want: c64) -> f64 {
        (got - want).abs() / want.abs()
    }

    #[test]
    fn erf_known_values() {
        // mpmath at 40 digits, rounded to binary64.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778130465),
            (1.0, 0.8427007929497149),
            (2.0, 0.9953222650189527),
            (3.0, 0.9999779095030014),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 3e-16, "erf({x})");
            assert!((erf(-x) + want).abs() < 3e-16, "erf(-{x})");
        }
    }

    #[test]
    fn erfc_known_values() {
        // mpmath at 40 digits, rounded to binary64.
        let cases = [
            (1.0, 0.15729920705028513),
            (4.0, 1.541725790028002e-8),
            (6.0, 2.1519736712498913e-17),
            (-2.0, 1.9953222650189528),
        ];
        for (x, want) in cases {
            assert!((erfc(x) - want).abs() < 2e-15 * want, "erfc({x})");
        }
        assert_eq!(erfc(30.0), 0.0);
        assert_eq!(erfc(-30.0), 2.0);
    }

    #[test]
    fn erfc_complex_reduces_to_real_axis() {
        for x in [-3.5f64, -1.0, -0.2, 0.0, 0.4, 1.7, 3.2, 5.5, 8.0] {
            let z = erfc_complex(c64::from_real(x));
            assert_eq!(z.re, erfc(x), "x = {x}");
            assert_eq!(z.im, 0.0, "x = {x}");
        }
    }

    #[test]
    fn erfc_complex_reference_values() {
        // mpmath at 40 digits, rounded to binary64.
        let cases = [
            (
                c64::new(1.0, 1.0),
                c64::new(-0.31615128169794764, -0.19045346923783468),
            ),
            (
                c64::new(2.0, -1.0),
                c64::new(-0.003606342725651751, -0.011259006028815025),
            ),
        ];
        for (z, want) in cases {
            let got = erfc_complex(z);
            assert!(rel(got, want) < 2e-15, "erfc({z}) = {got}, want {want}");
        }
    }

    #[test]
    fn erfc_complex_symmetries() {
        let pts = [
            c64::new(0.3, 0.8),
            c64::new(1.2, -2.0),
            c64::new(2.5, 1.5),
            c64::new(4.5, 0.1),
            c64::new(0.1, 4.0),
        ];
        for z in pts {
            // erfc(conj z) = conj(erfc z)
            let a = erfc_complex(z.conj());
            let b = erfc_complex(z).conj();
            assert!(rel(a, b) < 1e-15, "conjugate symmetry at {z}");
            // erfc(z) + erfc(-z) = 2
            let s = erfc_complex(z) + erfc_complex(-z);
            assert!(
                (s - c64::from_real(2.0)).abs() < 1e-15 * (2.0 + erfc_complex(z).abs()),
                "reflection at {z}"
            );
        }
    }

    /// mpmath's `erfc` at 40 digits, one row `set re im erfc_re erfc_im` per
    /// argument; regenerate with `tests/data/erfc_reference.py`.
    const ERFC_REFERENCE: &str = include_str!("../tests/data/erfc_reference.txt");

    #[test]
    fn erfc_matches_the_mpmath_reference() {
        // Every set of the table must be present and within the bound: the
        // offset grid over [−12, 12]², both Ewald strips and the real axis,
        // where the real `erfc` is checked as well.
        let mut rows_per_set = [("grid", 0), ("strip0", 0), ("strip1", 0), ("real", 0)];
        for line in ERFC_REFERENCE.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| fields[i].parse::<f64>().expect("reference number");
            let set = fields[0];
            let z = c64::new(num(1), num(2));
            let want = c64::new(num(3), num(4));
            let got = erfc_complex(z);
            assert!(
                rel(got, want) <= 5e-15,
                "{set}: erfc_complex({z}) = {got}, want {want}"
            );
            if set == "real" {
                let got = erfc(z.re);
                assert!(
                    (got - want.re).abs() <= 5e-15 * want.re,
                    "real: erfc({}) = {got:e}, want {:e}",
                    z.re,
                    want.re
                );
            }
            let count = rows_per_set
                .iter_mut()
                .find(|(name, _)| *name == set)
                .unwrap_or_else(|| panic!("unknown reference set {set}"));
            count.1 += 1;
        }
        assert!(
            rows_per_set.iter().all(|&(_, n)| n > 100),
            "{rows_per_set:?}"
        );
    }

    /// The arguments the scalar core receives when `erfc_complex` evaluates
    /// every row of the mpmath table (the grid, both Ewald strips and the
    /// real axis), with negative real parts reflected as `erfc_complex` does.
    fn reference_core_arguments() -> Vec<c64> {
        ERFC_REFERENCE
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|line| {
                let fields: Vec<f64> = line
                    .split_whitespace()
                    .skip(1)
                    .map(|f| f.parse().expect("reference number"))
                    .collect();
                let z = c64::new(fields[0], fields[1]);
                if z.re < 0.0 {
                    -z
                } else {
                    z
                }
            })
            .collect()
    }

    #[test]
    fn faddeeva_lanes_are_bit_identical_to_the_scalar_core() {
        let args = reference_core_arguments();
        assert!(args.len() > 1000, "{} reference arguments", args.len());
        let bits = |w: c64| (w.re.to_bits(), w.im.to_bits());
        // Slices of length 0, 1, odd, even and longer than 64, through one
        // reused set of lane buffers that grows and shrinks between calls.
        let mut lanes = FaddeevaLanes::default();
        let mut start = 0;
        for &len in [0usize, 1, 7, 65, 2, 130, 0, 33].iter().cycle() {
            if start >= args.len() {
                break;
            }
            let chunk = &args[start..(start + len).min(args.len())];
            let mut out = vec![c64::new(f64::NAN, f64::NAN); chunk.len()];
            faddeeva_of_ju_lanes(chunk, &mut out, &mut lanes);
            for (&u, &w) in chunk.iter().zip(&out) {
                assert_eq!(bits(w), bits(faddeeva_of_ju(u)), "w(j·{u})");
            }
            start += chunk.len();
        }
    }

    #[test]
    fn faddeeva_lanes_are_bit_identical_on_the_ewald_strips() {
        // Spatial arguments RE ± jk/2E on the conductor side at the
        // high-frequency guard |k/2E| = 3.5 and on the quasi-static
        // dielectric side, for R·E across the spatial cutoff: the exact
        // arguments the batched Ewald sums pass to the lanes (reflected
        // where the real part is negative).
        let mut args = Vec::new();
        for jk_2e in [
            c64::new(-2.47, 2.47),
            c64::new(-0.3, 0.3),
            c64::new(0.0, 1e-4),
        ] {
            for i in 0..=110 {
                let re = 0.05 * i as f64;
                for z in [c64::from_real(re) + jk_2e, c64::from_real(re) - jk_2e] {
                    args.push(if z.re < 0.0 { -z } else { z });
                }
            }
        }
        let mut out = vec![c64::zero(); args.len()];
        faddeeva_of_ju_lanes(&args, &mut out, &mut FaddeevaLanes::default());
        for (&u, &w) in args.iter().zip(&out) {
            let want = faddeeva_of_ju(u);
            assert_eq!(
                (w.re.to_bits(), w.im.to_bits()),
                (want.re.to_bits(), want.im.to_bits()),
                "w(j·{u})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "output slice must match")]
    fn faddeeva_lanes_reject_mismatched_slices() {
        faddeeva_of_ju_lanes(&[c64::one()], &mut [], &mut FaddeevaLanes::default());
    }

    #[test]
    fn weideman_coefficients_match_their_dft() {
        // Weideman's formula: with M = 2N and t_k = L·tan(kπ/2M), the
        // coefficients are a_n = Re F_n / 2M, F the DFT of the 2M samples
        // f(k) = e^{−t_k²}·(L² + t_k²) in FFT order (k = −M sampled as 0).
        let n = WEIDEMAN_A.len();
        assert_eq!(WEIDEMAN_L, (n as f64 / 2f64.sqrt()).sqrt());
        let m = 2 * n;
        let samples: Vec<c64> = (0..2 * m)
            .map(|j| {
                if j == m {
                    return c64::zero();
                }
                let k = if j < m {
                    j as f64
                } else {
                    j as f64 - 2.0 * m as f64
                };
                let t = WEIDEMAN_L * (k * PI / (2 * m) as f64).tan();
                c64::from_real((-t * t).exp() * (WEIDEMAN_L * WEIDEMAN_L + t * t))
            })
            .collect();
        let spectrum = crate::fft::fft(&samples).expect("fft");
        for (i, &a) in WEIDEMAN_A.iter().enumerate() {
            let dft = spectrum[i + 1].re / (2 * m) as f64;
            assert!(
                (dft - a).abs() < 5e-15,
                "a_{} = {a:e}, DFT gives {dft:e}",
                i + 1
            );
        }
    }

    #[test]
    fn faddeeva_on_real_axis() {
        // w(x) = exp(-x^2) + 2j/sqrt(pi) * D(x); its real part is exp(-x^2),
        // recovered to absolute (not relative) accuracy once it is small.
        for x in [0.0f64, 0.5, 1.0, 2.0, 3.0, 5.0] {
            let w = faddeeva(c64::from_real(x));
            assert!((w.re - (-x * x).exp()).abs() < 1e-15, "x = {x}");
            assert!(w.im >= 0.0);
        }
    }

    #[test]
    fn faddeeva_at_origin_and_imaginary_axis() {
        let w0 = faddeeva(c64::zero());
        assert!((w0 - c64::one()).abs() < 1e-15);
        // w(iy) = exp(y^2) erfc(y), purely real.
        for y in [0.5f64, 1.0, 2.0, 4.0] {
            let w = faddeeva(c64::from_imag(y));
            assert!(
                (w.re - (y * y).exp() * erfc(y)).abs() < 1e-15 * w.re,
                "y = {y}"
            );
            assert_eq!(w.im, 0.0);
        }
    }

    #[test]
    fn faddeeva_reference_values() {
        // mpmath at 40 digits, rounded to binary64; both half-planes.
        let cases = [
            (
                c64::new(1.0, 2.0),
                c64::new(0.2184926152748907, 0.09299780939260187),
            ),
            (
                c64::new(-3.0, 0.5),
                c64::new(0.03712636605469234, -0.19298375530036208),
            ),
            (
                c64::new(2.0, -1.0),
                c64::new(-0.2053255806465875, 0.1468554850301674),
            ),
            (
                c64::new(0.5, -0.2),
                c64::new(0.9256304309340091, 0.6728277411257423),
            ),
        ];
        for (z, want) in cases {
            let got = faddeeva(z);
            assert!(rel(got, want) < 2e-15, "w({z}) = {got}, want {want}");
        }
    }

    #[test]
    fn faddeeva_lower_half_plane_reflection() {
        let z = c64::new(1.3, -0.7);
        let w = faddeeva(z);
        let expected = (-(z * z)).exp().scale(2.0) - faddeeva(-z);
        assert!((w - expected).abs() < 1e-15 * (1.0 + expected.abs()));
    }

    #[test]
    fn normal_cdf_and_quantile_roundtrip() {
        for p in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-12, "p = {p}");
        }
        assert!((normal_quantile(0.975) - 1.959963984540054).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn normal_quantile_rejects_zero() {
        normal_quantile(0.0);
    }

    #[test]
    fn normal_pdf_integrates_to_cdf_difference() {
        // Trapezoid integration of the pdf matches the cdf difference.
        let (a, b) = (-1.0, 2.0);
        let n = 4000;
        let h = (b - a) / n as f64;
        let mut sum = 0.5 * (normal_pdf(a) + normal_pdf(b));
        for i in 1..n {
            sum += normal_pdf(a + i as f64 * h);
        }
        sum *= h;
        // Composite trapezoid on 4000 panels carries an O(h²) error ≈ 5e-8.
        assert!((sum - (normal_cdf(b) - normal_cdf(a))).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn prop_erf_is_odd_and_bounded(x in -6.0f64..6.0) {
            prop_assert!((erf(x) + erf(-x)).abs() < 1e-15);
            prop_assert!(erf(x).abs() <= 1.0 + 1e-15);
        }

        #[test]
        fn prop_erfc_complex_reflection(re in -3.0f64..3.0, im in -3.0f64..3.0) {
            let z = c64::new(re, im);
            let s = erfc_complex(z) + erfc_complex(-z);
            prop_assert!((s - c64::from_real(2.0)).abs() < 1e-15 * (2.0 + erfc_complex(z).abs()));
        }

        #[test]
        fn prop_normal_cdf_monotone(a in -5.0f64..5.0, b in -5.0f64..5.0) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-15);
        }
    }
}

/// Bessel function of the first kind of order zero, `J₀(x)`.
///
/// Rational (Numerical-Recipes style) approximation with absolute accuracy of
/// about `1e-8`, sufficient for the numerical Hankel transforms that convert a
/// measured surface correlation function into its roughness spectrum.
pub fn bessel_j0(x: f64) -> f64 {
    let ax = x.abs();
    if ax < 8.0 {
        let y = x * x;
        let p1 = 57568490574.0
            + y * (-13362590354.0
                + y * (651619640.7 + y * (-11214424.18 + y * (77392.33017 + y * (-184.9052456)))));
        let p2 = 57568490411.0
            + y * (1029532985.0 + y * (9494680.718 + y * (59272.64853 + y * (267.8532712 + y))));
        p1 / p2
    } else {
        let z = 8.0 / ax;
        let y = z * z;
        let xx = ax - 0.785398164;
        let p1 = 1.0
            + y * (-0.1098628627e-2
                + y * (0.2734510407e-4 + y * (-0.2073370639e-5 + y * 0.2093887211e-6)));
        let p2 = -0.1562499995e-1
            + y * (0.1430488765e-3
                + y * (-0.6911147651e-5 + y * (0.7621095161e-6 + y * (-0.934935152e-7))));
        (2.0 / (std::f64::consts::PI * ax)).sqrt() * (xx.cos() * p1 - z * xx.sin() * p2)
    }
}

#[cfg(test)]
mod bessel_tests {
    use super::bessel_j0;

    #[test]
    fn j0_reference_values() {
        // Abramowitz & Stegun Table 9.1.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.9384698072),
            (1.0, 0.7651976866),
            (2.0, 0.2238907791),
            (2.404825557695773, 0.0), // first zero
            (5.0, -0.1775967713),
            (10.0, -0.2459357645),
            (20.0, 0.1670246643),
        ];
        for (x, want) in cases {
            assert!((bessel_j0(x) - want).abs() < 2e-8, "J0({x})");
        }
    }

    #[test]
    fn j0_is_even() {
        for x in [0.3, 1.7, 6.2, 14.5] {
            assert!((bessel_j0(x) - bessel_j0(-x)).abs() < 1e-12);
        }
    }

    #[test]
    fn j0_integral_representation() {
        // J0(x) = (1/pi) ∫_0^pi cos(x sin t) dt
        for &x in &[0.7f64, 3.3, 9.1] {
            let n = 20_000;
            let h = std::f64::consts::PI / n as f64;
            let mut sum =
                0.5 * ((x * (0.0f64).sin()).cos() + (x * std::f64::consts::PI.sin()).cos());
            for i in 1..n {
                sum += (x * (i as f64 * h).sin()).cos();
            }
            let integral = sum * h / std::f64::consts::PI;
            assert!((bessel_j0(x) - integral).abs() < 1e-6, "x = {x}");
        }
    }
}
