//! Doubly-periodic scalar Green's function evaluated with the Ewald method.
//!
//! The SWM formulation restricts the surface-roughness problem to an `L × L`
//! patch with doubly-periodic boundary conditions (paper §III-B). The kernel of
//! the resulting integral equations is the periodic Green's function
//!
//! ```text
//! G_p(Δ) = Σ_{p,q} exp(jk·R_pq) / (4π R_pq),   R_pq = |Δ − p·L·x̂ − q·L·ŷ|
//! ```
//!
//! which converges hopelessly slowly (or not at all) when summed directly for a
//! nearly real wavenumber. The Ewald method splits it into a *spatial* part
//! whose terms decay like a Gaussian in `R` and a *spectral* (Floquet) part
//! whose terms decay like a Gaussian in the transverse mode index — "very few
//! terms" of each are needed (paper §III-B, ref. \[16\]).
//!
//! Derivation sketch (see `DESIGN.md` §6 for the validation anchors): starting
//! from the identity
//! `e^{jkR}/(4πR) = (1/(2π^{3/2})) ∫₀^∞ exp(−R²s² + k²/(4s²)) ds`
//! and splitting the integral at `s = E`,
//!
//! * the `s ∈ (E, ∞)` piece gives, per lattice image,
//!   `(1/(8πR))·[e^{jkR}·erfc(RE + jk/2E) + e^{−jkR}·erfc(RE − jk/2E)]`,
//! * the `s ∈ (0, E)` piece is Poisson-summed over the lattice giving, per
//!   Floquet mode `(m, n)` with `k_t = 2π(m, n)/L` and
//!   `c = −j·√(k² − |k_t|²)` (principal branch),
//!   `(e^{j k_t·ρ}/(4L²c))·[e^{c|Δz|}·erfc(c/2E + |Δz|E) + e^{−c|Δz|}·erfc(c/2E − |Δz|E)]`.
//!
//! The value is independent of the splitting parameter `E`; the default
//! `E = √π / L` balances the two sums.
//!
//! Cost: the scalar sums ([`PeriodicGreen3d::sample`], the oracle) spend two
//! [`erfc_complex`] calls and two complex exponentials on each spatial image
//! and each spectral class (the Floquet modes that share one `|k_t|²`). The
//! batched sums fold the exponentials away analytically,
//! `e^{±jkR}·erfc(RE ± jk/2E) = e^{k²/4E² − R²E²}·w(j(RE ± jk/2E))` and
//! `e^{±cs}·erfc(c/2E ± sE) = e^{−c²/4E² − s²E²}·w(j(c/2E ± sE))`, so an
//! image costs one real exponential and a class none beyond one per `|Δz|`.
//! All `w` values of a sum then come from one lane-parallel call
//! ([`faddeeva_of_ju_lanes`], about 30 ns per value against about 140 ns per
//! `erfc_complex` on a 2-core x86-64 host). The Faddeeva evaluation has no
//! branch switch and its relative error stays below 5e-15 on every argument
//! these sums produce, so the kernel is smooth in the separation: moving
//! both points by the same vector changes a sample only by rounding.

use crate::green::free_space::scalar_green_3d;
use rough_numerics::complex::c64;
use rough_numerics::special::{erfc_complex, faddeeva_of_ju_lanes, FaddeevaLanes};
use std::f64::consts::PI;

/// Value and gradient of the periodic Green's function at one separation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreenSample {
    /// Kernel value `G_p(Δ)`.
    pub value: c64,
    /// Gradient with respect to the separation `Δ = r − r'` (the gradient with
    /// respect to the source point is the negative of this).
    pub gradient: [c64; 3],
}

impl Default for GreenSample {
    /// The zero sample — what batch output buffers are sized with.
    fn default() -> Self {
        Self {
            value: c64::zero(),
            gradient: [c64::zero(); 3],
        }
    }
}

/// One observation−source separation `Δ = r − r'` of a batched kernel
/// evaluation ([`PeriodicGreen3d::eval_batch_samples`] and friends).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeparationVector {
    /// `Δx` component.
    pub dx: f64,
    /// `Δy` component.
    pub dy: f64,
    /// `Δz` component.
    pub dz: f64,
}

impl SeparationVector {
    /// Creates a separation from its components.
    pub fn new(dx: f64, dy: f64, dz: f64) -> Self {
        Self { dx, dy, dz }
    }
}

/// Everything about the Ewald sums that does not depend on the separation,
/// hoisted out of the per-pair loops once at kernel construction: the lattice
/// image offsets, the grouped spectral classes, and the per-`k` constants of
/// the spatial series.
///
/// Floquet modes are grouped into classes sharing `|k_t|²` — and therefore
/// `k_z`, `c` and both Faddeeva terms of the Ewald spectral series. Grouping
/// the `(±m, ±n)` and `(±n, ±m)` variants of each `(|m| ≤ |n|)` pair into one
/// class cuts the number of Faddeeva evaluations per separation by ~6–8×
/// relative to the scalar per-mode loop; only the (cheap, real) phase factors
/// differ inside a class.
///
/// Classes and their member orientations are stored as flat
/// structure-of-arrays buffers rather than nested `Vec<Vec<…>>`: the per-class
/// profiles land in one contiguous scratch array
/// ([`HarmonicScratch`]), and the member phase loop reads consecutive `f64`
/// lanes (`weight`, `ktx`, `kty`, harmonic indices) — a layout the
/// auto-vectorizer can actually use, with no pointer chasing in the hot loop.
#[derive(Debug, Clone)]
struct BatchTables {
    /// Lattice image offsets `(pL, qL)` for `|p|, |q| ≤ spatial_range`.
    images: Vec<(f64, f64)>,
    /// Per class: `c = −j·k_z`.
    class_c: Vec<c64>,
    /// Per class: `c / 2E`, the separation-independent half of both erfc
    /// arguments.
    class_c_2e: Vec<c64>,
    /// Per class: `c · 4L²`, the denominator of the per-mode profile `h`.
    class_c4l2: Vec<c64>,
    /// Per class: `e^{−c²/4E²} = e^{k_z²/4E²}`, the separation-independent
    /// factor of both folded terms `e^{±cs}·erfc(c/2E ± sE)`.
    class_f: Vec<c64>,
    /// Per class: one-past-the-end index into the flat member arrays
    /// (class `i` owns members `class_member_end[i-1]..class_member_end[i]`).
    class_member_end: Vec<usize>,
    /// Per member orientation: harmonic index into the `cos(mθ_x)` table.
    member_m: Vec<usize>,
    /// Per member orientation: harmonic index into the `cos(nθ_y)` table.
    member_n: Vec<usize>,
    /// Per member orientation: transverse wavenumber `k_tx`.
    member_ktx: Vec<f64>,
    /// Per member orientation: transverse wavenumber `k_ty`.
    member_kty: Vec<f64>,
    /// Per member orientation: sign multiplicity 1, 2 or 4 (the four
    /// `(±m, ±n)` phases fold into `w·cos(mθ_x)·cos(nθ_y)`).
    member_weight: Vec<f64>,
    /// `j·k`, the exponent factor of the spatial phase `e^{jkR}`.
    jk: c64,
    /// `j·k/2E`, the constant half of both spatial erfc arguments.
    jk_2e: c64,
    /// `e^{k²/4E²}`, the image-independent factor of the spatial Gaussian.
    exp_k2_4e2: c64,
    /// Largest harmonic index the cosine recurrence tables must reach.
    axis: usize,
}

impl BatchTables {
    fn build(k: c64, period: f64, splitting: f64, spatial_range: i32, spectral_range: i32) -> Self {
        let e = splitting;
        let side = (2 * spatial_range + 1) as usize;
        let mut images = Vec::with_capacity(side * side);
        for p in -spatial_range..=spatial_range {
            for q in -spatial_range..=spatial_range {
                images.push((p as f64 * period, q as f64 * period));
            }
        }

        let weight_of = |index: i32| if index == 0 { 1.0 } else { 2.0 };
        let mut tables = BatchTables {
            images,
            class_c: Vec::new(),
            class_c_2e: Vec::new(),
            class_c4l2: Vec::new(),
            class_f: Vec::new(),
            class_member_end: Vec::new(),
            member_m: Vec::new(),
            member_n: Vec::new(),
            member_ktx: Vec::new(),
            member_kty: Vec::new(),
            member_weight: Vec::new(),
            jk: c64::i() * k,
            jk_2e: c64::i() * k / (2.0 * e),
            exp_k2_4e2: (k * k / (4.0 * e * e)).exp(),
            axis: spectral_range as usize,
        };
        for a in 0..=spectral_range {
            for b in a..=spectral_range {
                let ktx = 2.0 * PI * a as f64 / period;
                let kty = 2.0 * PI * b as f64 / period;
                let kt2 = ktx * ktx + kty * kty;
                let kz2 = k * k - c64::from_real(kt2);
                let c = c64::new(0.0, -1.0) * kz2.sqrt();
                // Same negligible-mode cutoff as the scalar spectral loop.
                if c.re / (2.0 * e) > 6.0 {
                    continue;
                }
                tables.class_c.push(c);
                tables.class_c_2e.push(c / (2.0 * e));
                tables.class_c4l2.push(c * (4.0 * period * period));
                tables.class_f.push((kz2 / (4.0 * e * e)).exp());
                tables.member_m.push(a as usize);
                tables.member_n.push(b as usize);
                tables.member_ktx.push(ktx);
                tables.member_kty.push(kty);
                tables.member_weight.push(weight_of(a) * weight_of(b));
                if a != b {
                    tables.member_m.push(b as usize);
                    tables.member_n.push(a as usize);
                    tables.member_ktx.push(kty);
                    tables.member_kty.push(ktx);
                    tables.member_weight.push(weight_of(b) * weight_of(a));
                }
                tables.class_member_end.push(tables.member_m.len());
            }
        }
        tables
    }

    /// Number of spectral classes.
    fn class_count(&self) -> usize {
        self.class_c.len()
    }
}

/// Reusable buffers of one batched evaluation, allocated once per
/// `eval_batch_*` call (the Faddeeva lane buffers on its first sample) and
/// never again per sample: the cosine/sine recurrence
/// tables, refilled per separation; the contiguous per-class `h`/`dh/ds`
/// profiles pass 1 of the spectral sum writes (only when `|Δz|` changes) and
/// pass 2 consumes; the live spatial images of the current sample; and the
/// Faddeeva arguments both sums evaluate in one lane-parallel call.
struct HarmonicScratch {
    cos_x: Vec<f64>,
    sin_x: Vec<f64>,
    cos_y: Vec<f64>,
    sin_y: Vec<f64>,
    class_h: Vec<c64>,
    class_dh: Vec<c64>,
    /// `s.to_bits()` of the `s = |Δz|` the class profiles were computed
    /// for (`None` while they are unfilled).
    profile_s: Option<u64>,
    images: Vec<LiveImage>,
    faddeeva: FaddeevaQueue,
}

impl HarmonicScratch {
    fn new(tables: &BatchTables) -> Self {
        let len = tables.axis + 1;
        let classes = tables.class_count();
        Self {
            cos_x: vec![0.0; len],
            sin_x: vec![0.0; len],
            cos_y: vec![0.0; len],
            sin_y: vec![0.0; len],
            class_h: vec![c64::zero(); classes],
            class_dh: vec![c64::zero(); classes],
            profile_s: None,
            images: Vec::with_capacity(tables.images.len()),
            faddeeva: FaddeevaQueue::with_capacity(2 * tables.images.len().max(classes)),
        }
    }
}

/// One spatial image inside the cutoff: the in-plane separation `(rx, ry)`
/// to it, the distance `R` and `e^{−R²E²}`.
struct LiveImage {
    rx: f64,
    ry: f64,
    r: f64,
    gauss: f64,
}

/// Terms `φ·erfc(z)` queued for one lane-parallel Faddeeva evaluation.
///
/// With `erfc(z) = e^{−z²}·w(jz)` for `Re z ≥ 0`, a term whose exponential
/// `φ` cancels against `e^{−z²}` becomes `A·w(jz)` with `A = φ·e^{−z²}`
/// formed analytically. Where `Re z < 0` the exact reflection
/// `erfc(z) = 2 − erfc(−z)` gives `2φ − A·w(−jz)`, with the same `A`.
struct FaddeevaQueue {
    /// `u = ±z`, folded into `Re u ≥ 0`.
    args: Vec<c64>,
    /// Whether `z` was reflected to `−z`.
    reflected: Vec<bool>,
    /// `w(j·u)` per argument, after [`FaddeevaQueue::evaluate`].
    values: Vec<c64>,
    lanes: FaddeevaLanes,
}

impl FaddeevaQueue {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            args: Vec::with_capacity(capacity),
            reflected: Vec::with_capacity(capacity),
            values: vec![c64::zero(); capacity],
            lanes: FaddeevaLanes::default(),
        }
    }

    fn clear(&mut self) {
        self.args.clear();
        self.reflected.clear();
    }

    /// Queues `erfc(z)`.
    fn push(&mut self, z: c64) {
        let reflected = z.re < 0.0;
        self.args.push(if reflected { -z } else { z });
        self.reflected.push(reflected);
    }

    /// Evaluates every queued argument.
    fn evaluate(&mut self) {
        let n = self.args.len();
        if self.values.len() < n {
            self.values.resize(n, c64::zero());
        }
        faddeeva_of_ju_lanes(&self.args, &mut self.values[..n], &mut self.lanes);
    }

    /// `φ·erfc(z)` for queued argument `i`, from `a = φ·e^{−z²}`; `phi`
    /// computes `φ` and runs only where `z` was reflected.
    fn term(&self, i: usize, a: c64, phi: impl FnOnce() -> c64) -> c64 {
        let folded = a * self.values[i];
        if self.reflected[i] {
            phi().scale(2.0) - folded
        } else {
            folded
        }
    }
}

/// Fills `cos_t[m] = cos(mθ)`, `sin_t[m] = sin(mθ)` by the Chebyshev-style
/// angle-addition recurrence — one `sin_cos` call instead of one per harmonic.
fn fill_harmonics(theta: f64, cos_t: &mut [f64], sin_t: &mut [f64]) {
    cos_t[0] = 1.0;
    sin_t[0] = 0.0;
    if cos_t.len() == 1 {
        return;
    }
    let (s1, c1) = theta.sin_cos();
    cos_t[1] = c1;
    sin_t[1] = s1;
    for m in 2..cos_t.len() {
        cos_t[m] = cos_t[m - 1] * c1 - sin_t[m - 1] * s1;
        sin_t[m] = sin_t[m - 1] * c1 + cos_t[m - 1] * s1;
    }
}

/// Doubly-periodic (period `L` along x and y) scalar Green's function of the
/// 3D Helmholtz operator, evaluated by Ewald summation.
///
/// # Example
///
/// ```
/// use rough_em::green::PeriodicGreen3d;
/// use rough_numerics::complex::c64;
///
/// // A lossy medium: the direct lattice sum converges and must agree.
/// let k = c64::new(1.0, 1.0);
/// let g = PeriodicGreen3d::new(k, 5.0);
/// let ewald = g.value(1.0, 0.5, 0.3);
/// let direct = g.direct_spatial_sum(1.0, 0.5, 0.3, 40);
/// assert!((ewald - direct).abs() < 1e-8 * direct.abs());
/// ```
#[derive(Debug, Clone)]
pub struct PeriodicGreen3d {
    k: c64,
    period: f64,
    splitting: f64,
    /// Spatial images with `|p|, |q| ≤ spatial_range` are considered (subject
    /// to the Gaussian-window cutoff).
    spatial_range: i32,
    /// Floquet modes with `|m|, |n| ≤ spectral_range` are considered.
    spectral_range: i32,
    /// Separation-independent state of the batched evaluation paths.
    tables: BatchTables,
}

impl PeriodicGreen3d {
    /// Creates the kernel for wavenumber `k` and period `L`, using the
    /// balanced splitting parameter `E = √π/L` — widened to `|k|/(2H)` with
    /// `H = 3.5` when `|k|L` is large, the standard guard against the Ewald
    /// *high-frequency breakdown* (every erfc argument carries a factor
    /// `e^{k²/4E²}`; with the balanced splitting and `|k|L ≳ 20` that factor
    /// amplifies the erfc evaluation error by many orders of magnitude and the
    /// kernel picks up a spatially near-constant absolute offset, which is
    /// exactly what a conductor-side kernel sees once the skin depth drops
    /// well below the period). Keeping `|k/2E| ≤ H` bounds the amplification
    /// at `e^{H²} ≈ 2·10⁵` while the term ranges (computed from the splitting)
    /// grow only linearly.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive or if `Im(k) < 0` (gain media are not
    /// supported).
    pub fn new(k: c64, period: f64) -> Self {
        let balanced = PI.sqrt() / period;
        let breakdown_guard = k.abs() / (2.0 * 3.5);
        Self::with_splitting(k, period, balanced.max(breakdown_guard))
    }

    /// Creates the kernel with an explicit Ewald splitting parameter.
    ///
    /// Exposed mainly so tests can verify that results do not depend on the
    /// splitting; use [`PeriodicGreen3d::new`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `splitting` is not positive, or if `Im(k) < 0`.
    pub fn with_splitting(k: c64, period: f64, splitting: f64) -> Self {
        assert!(period > 0.0, "period must be positive");
        assert!(splitting > 0.0, "splitting parameter must be positive");
        assert!(k.im >= 0.0, "gain media (Im k < 0) are not supported");
        // erfc(x) < 1e-11 for x > 4.8: choose ranges so the skipped terms are
        // below that threshold.
        let cutoff = 4.8;
        let spatial_range = ((cutoff / (splitting * period)).ceil() as i32 + 1).max(2);
        // Spectral terms decay like erfc(c/2E) with c ≈ 2π√(m²+n²)/L.
        let spectral_range =
            ((cutoff * 2.0 * splitting * period / (2.0 * PI)).ceil() as i32 + 1).max(2);
        let tables = BatchTables::build(k, period, splitting, spatial_range, spectral_range);
        Self {
            k,
            period,
            splitting,
            spatial_range,
            spectral_range,
            tables,
        }
    }

    /// Wavenumber of the homogeneous medium.
    pub fn wavenumber(&self) -> c64 {
        self.k
    }

    /// Period `L` of the square lattice.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Ewald splitting parameter `E`.
    pub fn splitting(&self) -> f64 {
        self.splitting
    }

    /// Kernel value at separation `Δ = (dx, dy, dz)`.
    ///
    /// # Panics
    ///
    /// Panics if the separation coincides with a lattice point (the kernel is
    /// singular there); use [`PeriodicGreen3d::regularized`] for self terms.
    pub fn value(&self, dx: f64, dy: f64, dz: f64) -> c64 {
        self.sample(dx, dy, dz).value
    }

    /// Kernel value and gradient at separation `Δ = (dx, dy, dz)`.
    ///
    /// # Panics
    ///
    /// Panics if the separation coincides with a lattice point.
    pub fn sample(&self, dx: f64, dy: f64, dz: f64) -> GreenSample {
        let (spatial, spatial_grad) = self.spatial_sum(dx, dy, dz, false);
        let (spectral, spectral_grad) = self.spectral_sum_internal(dx, dy, dz);
        GreenSample {
            value: spatial + spectral,
            gradient: [
                spatial_grad[0] + spectral_grad[0],
                spatial_grad[1] + spectral_grad[1],
                spatial_grad[2] + spectral_grad[2],
            ],
        }
    }

    /// The regularized kernel `G_p(Δ) − e^{jkR}/(4πR)` (primary image removed),
    /// which stays finite as `Δ → 0`.
    ///
    /// At exactly zero separation the analytic limit
    /// `−jk(1 + erf(jk/2E))/(4π) − E·e^{k²/4E²}/(2π^{3/2}) + spectral + images`
    /// is used; elsewhere the primary free-space image is subtracted
    /// explicitly. The gradient of the regularized kernel vanishes at the
    /// origin by symmetry.
    pub fn regularized(&self, dx: f64, dy: f64, dz: f64) -> GreenSample {
        let r = (dx * dx + dy * dy + dz * dz).sqrt();
        if r < 1e-9 * self.period {
            let (spatial, _) = self.spatial_sum(0.0, 0.0, 0.0, true);
            let (spectral, _) = self.spectral_sum_internal(0.0, 0.0, 0.0);
            self.regularized_at_origin_limit(spatial, spectral)
        } else {
            let full = self.sample(dx, dy, dz);
            self.subtract_primary_image(full, dx, dy, dz, r)
        }
    }

    /// The regularized origin limit assembled from the primary-skipped
    /// spatial sum and the spectral sum (gradient vanishes by symmetry).
    fn regularized_at_origin_limit(&self, spatial: c64, spectral: c64) -> GreenSample {
        GreenSample {
            value: spatial + spectral + self.primary_image_self_limit(),
            gradient: [c64::zero(); 3],
        }
    }

    /// Subtracts the primary free-space image (value and gradient) from a
    /// full kernel sample at separation `(dx, dy, dz)` with `r = |Δ| > 0` —
    /// the shared tail of the scalar and batched regularized paths.
    fn subtract_primary_image(
        &self,
        full: GreenSample,
        dx: f64,
        dy: f64,
        dz: f64,
        r: f64,
    ) -> GreenSample {
        let free = scalar_green_3d(self.k, r);
        let dfree_dr = free * (c64::i() * self.k - c64::from_real(1.0 / r));
        GreenSample {
            value: full.value - free,
            gradient: [
                full.gradient[0] - dfree_dr * (dx / r),
                full.gradient[1] - dfree_dr * (dy / r),
                full.gradient[2] - dfree_dr * (dz / r),
            ],
        }
    }

    /// Batched kernel values and gradients: `out[i]` is the sample at
    /// `pairs[i]`.
    ///
    /// Equivalent to calling [`PeriodicGreen3d::sample`] per pair but with
    /// the Ewald setup — splitting-parameter constants, lattice-sum loop
    /// bounds, per-`k_t` Floquet factors — hoisted out of the inner loops,
    /// the spectral series evaluated per `|k_t|²` *class* (the `(±m, ±n)` and
    /// `(±n, ±m)` variants share their Faddeeva factors and fold into real
    /// cosine products), the `e^{jk_t·ρ}` phase factors amortized through
    /// one cosine recurrence per separation, and every term's exponentials
    /// folded into one lane-parallel Faddeeva evaluation per sum. Agrees
    /// with the scalar path to well below 1e-12 relative.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ, or if a separation coincides with
    /// a lattice point (use [`PeriodicGreen3d::eval_batch_regularized`] for
    /// self terms).
    pub fn eval_batch_samples(&self, pairs: &[SeparationVector], out: &mut [GreenSample]) {
        assert_eq!(
            pairs.len(),
            out.len(),
            "eval_batch_samples output slice must match the number of separations"
        );
        let mut scratch = HarmonicScratch::new(&self.tables);
        for (pair, slot) in pairs.iter().zip(out.iter_mut()) {
            *slot = self.batch_sample(pair, &mut scratch);
        }
    }

    /// Batched **regularized** samples (`G_p − e^{jkR}/(4πR)`, primary image
    /// removed): the batch variant of [`PeriodicGreen3d::regularized`], used
    /// for the fixed-rule periodic-image quadrature of the locally corrected
    /// near field.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn eval_batch_regularized(&self, pairs: &[SeparationVector], out: &mut [GreenSample]) {
        assert_eq!(
            pairs.len(),
            out.len(),
            "eval_batch_regularized output slice must match the number of separations"
        );
        let mut scratch = HarmonicScratch::new(&self.tables);
        for (pair, slot) in pairs.iter().zip(out.iter_mut()) {
            let r = (pair.dx * pair.dx + pair.dy * pair.dy + pair.dz * pair.dz).sqrt();
            if r < 1e-9 * self.period {
                let (spatial, _) = self.batch_spatial(0.0, 0.0, 0.0, true, &mut scratch);
                let (spectral, _) = self.batch_spectral(0.0, 0.0, 0.0, &mut scratch);
                *slot = self.regularized_at_origin_limit(spatial, spectral);
            } else {
                let full = self.batch_sample(pair, &mut scratch);
                *slot = self.subtract_primary_image(full, pair.dx, pair.dy, pair.dz, r);
            }
        }
    }

    /// One full (spatial + spectral) sample through the batched tables.
    fn batch_sample(&self, pair: &SeparationVector, scratch: &mut HarmonicScratch) -> GreenSample {
        let (spatial, spatial_grad) = self.batch_spatial(pair.dx, pair.dy, pair.dz, false, scratch);
        let (spectral, spectral_grad) = self.batch_spectral(pair.dx, pair.dy, pair.dz, scratch);
        GreenSample {
            value: spatial + spectral,
            gradient: [
                spatial_grad[0] + spectral_grad[0],
                spatial_grad[1] + spectral_grad[1],
                spatial_grad[2] + spectral_grad[2],
            ],
        }
    }

    /// Ewald spatial sum over the precomputed image offsets, with the
    /// per-`k` constants (`jk`, `jk/2E`, `e^{k²/4E²}`) read from the tables
    /// instead of being recomputed per image.
    ///
    /// Each image's two terms `e^{±jkR}·erfc(RE ± jk/2E)` are
    /// `G·w(j(RE ± jk/2E))` with `G = e^{k²/4E² − R²E²}`: the complex
    /// exponentials cancel analytically, leaving one real `e^{−R²E²}` per
    /// image. A first pass gathers the live images and their `2 × images`
    /// Faddeeva arguments, one lane-parallel call evaluates them, and a
    /// second pass accumulates the terms in image order. `e^{±jkR}` is formed
    /// only where an argument needs the reflection (`RE < Im k/2E`, the
    /// conductor side near the source).
    fn batch_spatial(
        &self,
        dx: f64,
        dy: f64,
        dz: f64,
        skip_primary: bool,
        scratch: &mut HarmonicScratch,
    ) -> (c64, [c64; 3]) {
        let e = self.splitting;
        let t = &self.tables;
        let cutoff = 5.5 / e; // beyond this distance erfc(RE) < 1e-13

        scratch.images.clear();
        scratch.faddeeva.clear();
        for &(px, py) in &t.images {
            if skip_primary && px == 0.0 && py == 0.0 {
                continue;
            }
            let rx = dx - px;
            let ry = dy - py;
            let r = (rx * rx + ry * ry + dz * dz).sqrt();
            if r > cutoff {
                continue;
            }
            assert!(
                r > 0.0,
                "periodic Green's function evaluated at a lattice point; use eval_batch_regularized()"
            );
            let re = r * e;
            scratch.faddeeva.push(c64::from_real(re) + t.jk_2e);
            scratch.faddeeva.push(c64::from_real(re) - t.jk_2e);
            scratch.images.push(LiveImage {
                rx,
                ry,
                r,
                gauss: (-re * re).exp(),
            });
        }
        scratch.faddeeva.evaluate();

        let mut sum = c64::zero();
        let mut grad = [c64::zero(); 3];
        for (i, image) in scratch.images.iter().enumerate() {
            let r = image.r;
            let gauss = t.exp_k2_4e2.scale(image.gauss);
            let plus = scratch.faddeeva.term(2 * i, gauss, || (t.jk * r).exp());
            let minus = scratch
                .faddeeva
                .term(2 * i + 1, gauss, || (-(t.jk * r)).exp());
            let term = (plus + minus) / (8.0 * PI * r);
            sum += term;

            // d/dR of the bracketed sum: jk(plus − minus) − (4E/√π)·G
            let dbracket = t.jk * (plus - minus) - gauss.scale(4.0 * e / PI.sqrt());
            let dterm_dr = dbracket / (8.0 * PI * r) - term / r;
            grad[0] += dterm_dr * (image.rx / r);
            grad[1] += dterm_dr * (image.ry / r);
            grad[2] += dterm_dr * (dz / r);
        }
        (sum, grad)
    }

    /// Ewald spectral sum over the grouped mode classes: per class, the two
    /// terms `e^{±cs}·erfc(c/2E ± sE)` are evaluated once and distributed
    /// over the member orientations through real cosine products
    /// (`Σ_{±m,±n} e^{jk_t·ρ} = w·cos(mθ_x)·cos(nθ_y)`).
    ///
    /// Two passes over the structure-of-arrays tables: pass 1 queues the
    /// `2 × classes` Faddeeva arguments, evaluates them in one lane-parallel
    /// call and writes the profiles `h`, `dh/ds` into the scratch's class
    /// buffers; pass 2 accumulates the member phase factors — a branch-free
    /// `f64` loop over consecutive member lanes the compiler can vectorize.
    ///
    /// Pass 1 depends on the separation only through `s = |Δz|`, so it is
    /// skipped when `s` has the same bits as for the previous separation
    /// (every lateral offset of one generator plane, every pair of a flat
    /// surface): the profiles in the scratch are exactly what it would write.
    fn batch_spectral(
        &self,
        dx: f64,
        dy: f64,
        dz: f64,
        scratch: &mut HarmonicScratch,
    ) -> (c64, [c64; 3]) {
        let l = self.period;
        let t = &self.tables;
        let s = dz.abs();
        let sign_z = if dz >= 0.0 { 1.0 } else { -1.0 };
        fill_harmonics(2.0 * PI * dx / l, &mut scratch.cos_x, &mut scratch.sin_x);
        fill_harmonics(2.0 * PI * dy / l, &mut scratch.cos_y, &mut scratch.sin_y);

        // Pass 1: per-class profiles into contiguous scratch lanes. Both
        // terms e^{±cs}·erfc(c/2E ± sE) are F·w(j(c/2E ± sE)) with
        // F = e^{−c²/4E²}·e^{−s²E²}; e^{±cs} is formed only where an
        // argument needs the reflection (the minus one once sE > Re c/2E).
        if scratch.profile_s != Some(s.to_bits()) {
            let se = s * self.splitting;
            let gauss = (-se * se).exp();
            scratch.faddeeva.clear();
            for &c_2e in &t.class_c_2e {
                scratch.faddeeva.push(c_2e + se);
                scratch.faddeeva.push(c_2e - se);
            }
            scratch.faddeeva.evaluate();
            for class in 0..t.class_count() {
                let c = t.class_c[class];
                let f = t.class_f[class].scale(gauss);
                let term_plus = scratch.faddeeva.term(2 * class, f, || (c * s).exp());
                let term_minus = scratch.faddeeva.term(2 * class + 1, f, || (-(c * s)).exp());
                scratch.class_h[class] = (term_plus + term_minus) / t.class_c4l2[class];
                scratch.class_dh[class] = (term_plus - term_minus) / (4.0 * l * l);
            }
            scratch.profile_s = Some(s.to_bits());
        }

        // Pass 2: fold the member orientations' cosine products onto the
        // class profiles.
        let mut sum = c64::zero();
        let mut grad = [c64::zero(); 3];
        let mut member = 0usize;
        for class in 0..t.class_count() {
            let end = t.class_member_end[class];
            let mut phase = 0.0;
            let mut phase_x = 0.0;
            let mut phase_y = 0.0;
            while member < end {
                let m = t.member_m[member];
                let n = t.member_n[member];
                let weight = t.member_weight[member];
                let cos_m = scratch.cos_x[m];
                let cos_n = scratch.cos_y[n];
                phase += weight * cos_m * cos_n;
                phase_x -= weight * t.member_ktx[member] * scratch.sin_x[m] * cos_n;
                phase_y -= weight * t.member_kty[member] * cos_m * scratch.sin_y[n];
                member += 1;
            }
            let h = scratch.class_h[class];
            sum += h.scale(phase);
            grad[0] += h.scale(phase_x);
            grad[1] += h.scale(phase_y);
            grad[2] += scratch.class_dh[class].scale(phase);
        }
        grad[2] = grad[2].scale(sign_z);
        (sum, grad)
    }

    /// Brute-force spatial lattice sum (no Ewald splitting) over images with
    /// `|p|, |q| ≤ range`.
    ///
    /// Only converges usefully for lossy media (`Im(k)·L ≳ 1`); provided as an
    /// independent cross-check of the Ewald machinery.
    pub fn direct_spatial_sum(&self, dx: f64, dy: f64, dz: f64, range: i32) -> c64 {
        let mut sum = c64::zero();
        for p in -range..=range {
            for q in -range..=range {
                let rx = dx - p as f64 * self.period;
                let ry = dy - q as f64 * self.period;
                let r = (rx * rx + ry * ry + dz * dz).sqrt();
                sum += scalar_green_3d(self.k, r);
            }
        }
        sum
    }

    /// Pure Floquet (spectral) sum without Ewald acceleration, truncated at
    /// `|m|, |n| ≤ range`.
    ///
    /// Converges quickly only for `|Δz|` comparable to the period; provided as
    /// an independent cross-check of the Ewald machinery.
    pub fn direct_spectral_sum(&self, dx: f64, dy: f64, dz: f64, range: i32) -> c64 {
        let mut sum = c64::zero();
        let l = self.period;
        for m in -range..=range {
            for n in -range..=range {
                let ktx = 2.0 * PI * m as f64 / l;
                let kty = 2.0 * PI * n as f64 / l;
                let kz = (self.k * self.k - c64::from_real(ktx * ktx + kty * kty)).sqrt();
                // e^{j k_t·ρ} e^{j k_z |Δz|} / (2 L² (−j k_z))
                let phase = c64::from_polar(1.0, ktx * dx + kty * dy);
                let vert = (c64::i() * kz * dz.abs()).exp();
                sum += phase * vert / (c64::new(0.0, -1.0) * kz * (2.0 * l * l));
            }
        }
        sum
    }

    /// Ewald spatial sum. When `skip_primary` is set the `(0,0)` image is
    /// replaced by its *regular* part only (the free-space singularity is
    /// excluded analytically via [`Self::primary_image_self_limit`]).
    fn spatial_sum(&self, dx: f64, dy: f64, dz: f64, skip_primary: bool) -> (c64, [c64; 3]) {
        let e = self.splitting;
        let k = self.k;
        let jk_2e = c64::i() * k / (2.0 * e);
        let mut sum = c64::zero();
        let mut grad = [c64::zero(); 3];
        let cutoff = 5.5 / e; // beyond this distance erfc(RE) < 1e-13

        for p in -self.spatial_range..=self.spatial_range {
            for q in -self.spatial_range..=self.spatial_range {
                if skip_primary && p == 0 && q == 0 {
                    continue;
                }
                let rx = dx - p as f64 * self.period;
                let ry = dy - q as f64 * self.period;
                let r = (rx * rx + ry * ry + dz * dz).sqrt();
                if r > cutoff {
                    continue;
                }
                assert!(
                    r > 0.0,
                    "periodic Green's function evaluated at a lattice point; use regularized()"
                );
                let re = r * e;
                let plus = (c64::i() * k * r).exp() * erfc_complex(c64::from_real(re) + jk_2e);
                let minus = (-(c64::i() * k * r)).exp() * erfc_complex(c64::from_real(re) - jk_2e);
                let term = (plus + minus) / (8.0 * PI * r);
                sum += term;

                // d/dR of the bracketed sum: jk(plus − minus) − (4E/√π)·e^{−R²E² + k²/4E²}
                let gauss = (c64::from_real(-re * re) + k * k / (4.0 * e * e)).exp();
                let dbracket = c64::i() * k * (plus - minus) - gauss.scale(4.0 * e / PI.sqrt());
                let dterm_dr = dbracket / (8.0 * PI * r) - term / r;
                grad[0] += dterm_dr * (rx / r);
                grad[1] += dterm_dr * (ry / r);
                grad[2] += dterm_dr * (dz / r);
            }
        }
        (sum, grad)
    }

    /// Ewald spectral (Floquet) sum and its gradient.
    fn spectral_sum_internal(&self, dx: f64, dy: f64, dz: f64) -> (c64, [c64; 3]) {
        let e = self.splitting;
        let l = self.period;
        let s = dz.abs();
        let sign_z = if dz >= 0.0 { 1.0 } else { -1.0 };
        let mut sum = c64::zero();
        let mut grad = [c64::zero(); 3];

        for m in -self.spectral_range..=self.spectral_range {
            for n in -self.spectral_range..=self.spectral_range {
                let ktx = 2.0 * PI * m as f64 / l;
                let kty = 2.0 * PI * n as f64 / l;
                let kt2 = ktx * ktx + kty * kty;
                // c = −j·kz with kz the principal square root (Im ≥ 0), so that
                // Re(c) ≥ 0 and the evanescent modes decay.
                let kz = (self.k * self.k - c64::from_real(kt2)).sqrt();
                let c = c64::new(0.0, -1.0) * kz;
                // Skip modes whose contribution is below the accuracy target.
                if c.re / (2.0 * e) > 6.0 {
                    continue;
                }
                let arg_plus = c / (2.0 * e) + c64::from_real(s * e);
                let arg_minus = c / (2.0 * e) - c64::from_real(s * e);
                let term_plus = (c * s).exp() * erfc_complex(arg_plus);
                let term_minus = (-(c * s)).exp() * erfc_complex(arg_minus);
                let phase = c64::from_polar(1.0, ktx * dx + kty * dy);
                let h = (term_plus + term_minus) / (c * (4.0 * l * l));
                let contribution = phase * h;
                sum += contribution;

                grad[0] += c64::i() * contribution * ktx;
                grad[1] += c64::i() * contribution * kty;
                // dh/ds = (term_plus − term_minus) / (4 L²)  (the Gaussian
                // pieces of the two erfc derivatives cancel exactly).
                let dh_ds = (term_plus - term_minus) / (4.0 * l * l);
                grad[2] += phase * dh_ds * sign_z;
            }
        }
        (sum, grad)
    }

    /// The finite limit of `spatial(0,0)-image − e^{jkR}/(4πR)` as `R → 0`:
    /// `−(jk/4π)(1 + erf(jk/2E)) − E·e^{k²/4E²}/(2π^{3/2})`.
    fn primary_image_self_limit(&self) -> c64 {
        let e = self.splitting;
        let k = self.k;
        let jk_2e = c64::i() * k / (2.0 * e);
        let erf_term = c64::one() - erfc_complex(jk_2e);
        let first = -(c64::i() * k / (4.0 * PI)) * (c64::one() + erf_term);
        let second = (k * k / (4.0 * e * e))
            .exp()
            .scale(e / (2.0 * PI.powf(1.5)));
        first - second
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lossy wavenumber typical of the conductor side (k₂ = (1+j)/δ with δ
    /// comparable to the period / 5).
    fn lossy_k() -> c64 {
        c64::new(1.2, 1.2)
    }

    /// Nearly static wavenumber typical of the dielectric side.
    fn quasi_static_k() -> c64 {
        c64::new(2.0e-4, 0.0)
    }

    #[test]
    fn matches_direct_sum_for_lossy_medium() {
        let g = PeriodicGreen3d::new(lossy_k(), 5.0);
        for &(dx, dy, dz) in &[
            (0.5, 0.0, 0.1),
            (1.0, 2.0, -0.4),
            (2.5, 2.5, 0.0),
            (0.1, 0.1, 0.05),
            (-1.7, 0.8, 0.6),
        ] {
            let ewald = g.value(dx, dy, dz);
            let direct = g.direct_spatial_sum(dx, dy, dz, 40);
            assert!(
                (ewald - direct).abs() < 1e-9 * (1.0 + direct.abs()),
                "Δ = ({dx},{dy},{dz}): {ewald} vs {direct}"
            );
        }
    }

    #[test]
    fn matches_spectral_sum_for_large_separation() {
        // For |dz| ~ L the Floquet series converges quickly and provides an
        // independent check that also exercises the quasi-static wavenumber.
        let l = 5.0;
        for &k in &[quasi_static_k(), c64::new(0.3, 0.05)] {
            let g = PeriodicGreen3d::new(k, l);
            let (dx, dy, dz) = (1.2, -0.7, 4.0);
            let ewald = g.value(dx, dy, dz);
            let spectral = g.direct_spectral_sum(dx, dy, dz, 60);
            assert!(
                (ewald - spectral).abs() < 1e-8 * (1.0 + spectral.abs()),
                "k = {k}: {ewald} vs {spectral}"
            );
        }
    }

    #[test]
    fn independent_of_splitting_parameter() {
        let l = 5.0;
        for &k in &[quasi_static_k(), lossy_k(), c64::new(0.5, 0.2)] {
            let reference = PeriodicGreen3d::with_splitting(k, l, PI.sqrt() / l);
            let narrow = PeriodicGreen3d::with_splitting(k, l, 0.6 * PI.sqrt() / l);
            let wide = PeriodicGreen3d::with_splitting(k, l, 1.7 * PI.sqrt() / l);
            for &(dx, dy, dz) in &[(0.3, 0.3, 0.2), (2.0, 1.0, -0.8), (0.05, 0.0, 0.02)] {
                let a = reference.value(dx, dy, dz);
                let b = narrow.value(dx, dy, dz);
                let c = wide.value(dx, dy, dz);
                assert!((a - b).abs() < 1e-8 * (1.0 + a.abs()), "k={k} narrow");
                assert!((a - c).abs() < 1e-8 * (1.0 + a.abs()), "k={k} wide");
            }
        }
    }

    #[test]
    fn high_loss_kernel_has_no_constant_offset() {
        // |k|L ≈ 33, the conductor side of the Fig. 5 benchmark at 16 GHz in
        // scaled units. With the balanced splitting E = √π/L the erfc
        // arguments carry a factor e^{k²/4E²} ≈ e^{|kL|²/4π} that amplifies
        // evaluation error into a spatially near-constant absolute kernel
        // offset (the Ewald high-frequency breakdown); the widened default
        // splitting must keep the kernel on the direct lattice sum.
        let l = 12.0;
        let k = c64::new(1.95, 1.95);
        let g = PeriodicGreen3d::new(k, l);
        for &(dx, dy, dz) in &[
            (0.4, 0.0, 0.0),
            (0.75, 0.0, 0.1),
            (1.5, 1.5, 0.0),
            (6.0, 3.0, 0.0),
        ] {
            let ewald = g.value(dx, dy, dz);
            let direct = g.direct_spatial_sum(dx, dy, dz, 10);
            assert!(
                (ewald - direct).abs() < 1e-9 * (1.0 + direct.abs()),
                "Δ = ({dx},{dy},{dz}): {ewald} vs {direct}"
            );
        }
        // The regularized value at the origin is the sum of the (tiny)
        // non-primary images — it must not carry the breakdown offset.
        let reg0 = g.regularized(0.0, 0.0, 0.0).value;
        assert!(reg0.abs() < 1e-6, "regularized(0) = {reg0}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let g = PeriodicGreen3d::new(c64::new(0.8, 0.3), 5.0);
        let (dx, dy, dz) = (0.9, -1.3, 0.4);
        let h = 1e-6;
        let sample = g.sample(dx, dy, dz);
        let num = [
            (g.value(dx + h, dy, dz) - g.value(dx - h, dy, dz)) / (2.0 * h),
            (g.value(dx, dy + h, dz) - g.value(dx, dy - h, dz)) / (2.0 * h),
            (g.value(dx, dy, dz + h) - g.value(dx, dy, dz - h)) / (2.0 * h),
        ];
        for (i, expected) in num.iter().enumerate() {
            assert!(
                (sample.gradient[i] - *expected).abs() < 1e-5 * (1.0 + expected.abs()),
                "component {i}: {} vs {}",
                sample.gradient[i],
                expected
            );
        }
    }

    #[test]
    fn periodicity_in_both_transverse_directions() {
        let g = PeriodicGreen3d::new(c64::new(0.4, 0.1), 5.0);
        let a = g.value(1.3, 0.4, 0.7);
        let b = g.value(1.3 + 5.0, 0.4, 0.7);
        let c = g.value(1.3, 0.4 - 5.0, 0.7);
        assert!((a - b).abs() < 1e-9 * a.abs());
        assert!((a - c).abs() < 1e-9 * a.abs());
    }

    #[test]
    fn even_symmetry_in_separation() {
        let g = PeriodicGreen3d::new(c64::new(0.6, 0.2), 5.0);
        let a = g.value(0.8, -0.3, 0.5);
        let b = g.value(-0.8, 0.3, -0.5);
        assert!((a - b).abs() < 1e-10 * a.abs());
    }

    #[test]
    fn regularized_value_is_finite_and_consistent() {
        let g = PeriodicGreen3d::new(lossy_k(), 5.0);
        // As Δ → 0 the regularized kernel approaches the analytic limit.
        let at_zero = g.regularized(0.0, 0.0, 0.0).value;
        assert!(at_zero.is_finite());
        let small = g.regularized(1e-4, 0.5e-4, -0.3e-4).value;
        assert!(
            (small - at_zero).abs() < 1e-3 * (1.0 + at_zero.abs()),
            "{small} vs {at_zero}"
        );
        // Away from the origin, regularized + free-space == full value.
        let (dx, dy, dz) = (0.6, 0.2, 0.1);
        let r = f64::sqrt(dx * dx + dy * dy + dz * dz);
        let rebuilt = g.regularized(dx, dy, dz).value + scalar_green_3d(g.wavenumber(), r);
        let full = g.value(dx, dy, dz);
        assert!((rebuilt - full).abs() < 1e-10 * full.abs());
    }

    #[test]
    fn regularized_limit_independent_of_splitting() {
        for &k in &[quasi_static_k(), lossy_k()] {
            let a = PeriodicGreen3d::with_splitting(k, 5.0, PI.sqrt() / 5.0)
                .regularized(0.0, 0.0, 0.0)
                .value;
            let b = PeriodicGreen3d::with_splitting(k, 5.0, 1.5 * PI.sqrt() / 5.0)
                .regularized(0.0, 0.0, 0.0)
                .value;
            assert!(
                (a - b).abs() < 1e-8 * (1.0 + a.abs()),
                "k = {k}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn batched_evaluation_matches_scalar_in_every_wavenumber_regime() {
        // Quasi-static dielectric, lossy conductor, and the |k|L ≈ 33
        // high-frequency guard case: the batched path must agree with the
        // scalar oracle to rounding-level accuracy in all of them.
        for &(k, l) in &[
            (quasi_static_k(), 5.0),
            (lossy_k(), 5.0),
            (c64::new(0.5, 0.2), 5.0),
            (c64::new(1.95, 1.95), 12.0),
        ] {
            let g = PeriodicGreen3d::new(k, l);
            let pairs: Vec<SeparationVector> = [
                (0.08, 0.01, 0.02),
                (0.5, 0.0, 0.1),
                (1.0, 2.0, -0.4),
                (0.37 * l, 0.49 * l, 0.11 * l),
                (-1.7, 0.8, 0.6),
                (0.45 * l, -0.28 * l, 0.0),
            ]
            .iter()
            .map(|&(dx, dy, dz)| SeparationVector::new(dx, dy, dz))
            .collect();

            let mut samples = vec![GreenSample::default(); pairs.len()];
            g.eval_batch_samples(&pairs, &mut samples);
            for (pair, sample) in pairs.iter().zip(&samples) {
                let scalar = g.sample(pair.dx, pair.dy, pair.dz);
                let scale = 1.0 + scalar.value.abs();
                assert!(
                    (sample.value - scalar.value).abs() < 1e-13 * scale,
                    "k={k} L={l} Δ=({},{},{}): batch {} vs scalar {}",
                    pair.dx,
                    pair.dy,
                    pair.dz,
                    sample.value,
                    scalar.value
                );
                for axis in 0..3 {
                    let gscale = 1.0 + scalar.gradient[axis].abs();
                    assert!(
                        (sample.gradient[axis] - scalar.gradient[axis]).abs() < 1e-12 * gscale,
                        "k={k} gradient[{axis}]: {} vs {}",
                        sample.gradient[axis],
                        scalar.gradient[axis]
                    );
                }
            }
        }
    }

    #[test]
    fn folded_terms_match_the_erfc_form() {
        // Every spatial term e^{±jkR}·erfc(RE ± jk/2E) and spectral term
        // e^{±cs}·erfc(c/2E ± sE), as the batched sums form it from the
        // tables and the queue, against the erfc_complex form the scalar
        // sums use. The conductor side forces the reflected spatial plus
        // term (RE < Im k/2E), the quasi-static side the reflected spectral
        // minus term (sE > Re c/2E).
        let rel = |got: c64, want: c64| (got - want).abs() / want.abs();
        let mut reflected = [0usize; 2];
        for &(k, l) in &[
            (quasi_static_k(), 5.0),
            (lossy_k(), 5.0),
            (c64::new(1.95, 1.95), 12.0),
        ] {
            let g = PeriodicGreen3d::new(k, l);
            let (e, t) = (g.splitting(), &g.tables);
            let mut queue = FaddeevaQueue::with_capacity(0);

            let distances: Vec<f64> = (1..=60).map(|i| i as f64 * 5.5 / (60.0 * e)).collect();
            for &r in &distances {
                queue.push(c64::from_real(r * e) + t.jk_2e);
                queue.push(c64::from_real(r * e) - t.jk_2e);
            }
            queue.evaluate();
            for (i, &r) in distances.iter().enumerate() {
                let gauss = t.exp_k2_4e2.scale((-(r * e) * (r * e)).exp());
                let plus = queue.term(2 * i, gauss, || (t.jk * r).exp());
                let minus = queue.term(2 * i + 1, gauss, || (-(t.jk * r)).exp());
                let jk_2e = c64::i() * k / (2.0 * e);
                let want_plus =
                    (c64::i() * k * r).exp() * erfc_complex(c64::from_real(r * e) + jk_2e);
                let want_minus =
                    (-(c64::i() * k * r)).exp() * erfc_complex(c64::from_real(r * e) - jk_2e);
                assert!(
                    rel(plus, want_plus) <= 1e-13,
                    "k={k} R={r}: {plus} vs {want_plus}"
                );
                assert!(
                    rel(minus, want_minus) <= 1e-13,
                    "k={k} R={r}: {minus} vs {want_minus}"
                );
                reflected[0] += usize::from(queue.reflected[2 * i]);
            }

            for s in [0.0, 0.003 * l, 0.05 * l, 0.2 * l, 0.6 * l] {
                let se = s * e;
                queue.clear();
                for &c_2e in &t.class_c_2e {
                    queue.push(c_2e + se);
                    queue.push(c_2e - se);
                }
                queue.evaluate();
                for class in 0..t.class_count() {
                    let (c, c_2e) = (t.class_c[class], t.class_c_2e[class]);
                    let f = t.class_f[class].scale((-se * se).exp());
                    let plus = queue.term(2 * class, f, || (c * s).exp());
                    let minus = queue.term(2 * class + 1, f, || (-(c * s)).exp());
                    let want_plus = (c * s).exp() * erfc_complex(c_2e + se);
                    let want_minus = (-(c * s)).exp() * erfc_complex(c_2e - se);
                    assert!(rel(plus, want_plus) <= 1e-13, "k={k} s={s} c={c}: plus");
                    assert!(rel(minus, want_minus) <= 1e-13, "k={k} s={s} c={c}: minus");
                    reflected[1] += usize::from(queue.reflected[2 * class + 1]);
                }
            }
        }
        assert!(
            reflected.iter().all(|&n| n > 0),
            "reflected terms {reflected:?}"
        );
    }

    #[test]
    fn batched_conductor_kernel_tracks_the_direct_lattice_sum() {
        // The paper stackup's conductor at 16 GHz on the 12 µm Fig. 5 tile
        // (|k|L ≈ 33). The direct lattice sum converges there, but both
        // Ewald paths sit up to ~1e-10 relative from it where |G| is small,
        // so the batched path is held to its distance from the scalar path:
        // at most twice the scalar error, plus a few ulps of |G| where the
        // scalar error happens to vanish.
        let l = 12e-6;
        let k = crate::material::Stackup::paper_baseline()
            .k2(crate::units::GigaHertz::new(16.0).into());
        let g = PeriodicGreen3d::new(k, l);
        let mut pairs = Vec::new();
        for i in 1..=24 {
            let f = i as f64 / 24.0;
            pairs.push(SeparationVector::new(0.5 * f * l, 0.3 * f * l, 0.02 * l));
            pairs.push(SeparationVector::new(0.5 * f * l, 0.5 * l, 0.0));
        }
        let mut out = vec![GreenSample::default(); pairs.len()];
        g.eval_batch_samples(&pairs, &mut out);
        for (pair, batched) in pairs.iter().zip(&out) {
            let direct = g.direct_spatial_sum(pair.dx, pair.dy, pair.dz, 4);
            let scalar = g.value(pair.dx, pair.dy, pair.dz);
            let (batched_err, scalar_err) =
                ((batched.value - direct).abs(), (scalar - direct).abs());
            assert!(
                batched_err <= 2.0 * scalar_err + 1e-15 * direct.abs(),
                "Δ = {pair:?}: batched error {batched_err:e}, scalar {scalar_err:e}, |G| {:e}",
                direct.abs()
            );
        }
    }

    #[test]
    fn batched_regularized_matches_scalar_including_the_origin() {
        for &(k, l) in &[(lossy_k(), 5.0), (c64::new(1.95, 1.95), 12.0)] {
            let g = PeriodicGreen3d::new(k, l);
            let pairs = [
                SeparationVector::new(0.0, 0.0, 0.0),
                SeparationVector::new(1e-12 * l, 0.0, 0.0),
                SeparationVector::new(0.04 * l, -0.03 * l, 0.02 * l),
                SeparationVector::new(0.3 * l, 0.2 * l, -0.1 * l),
            ];
            let mut out = vec![GreenSample::default(); pairs.len()];
            g.eval_batch_regularized(&pairs, &mut out);
            for (pair, got) in pairs.iter().zip(&out) {
                let want = g.regularized(pair.dx, pair.dy, pair.dz);
                let scale = 1.0 + want.value.abs();
                assert!(
                    (got.value - want.value).abs() < 1e-13 * scale,
                    "k={k} Δ=({},{},{}): {} vs {}",
                    pair.dx,
                    pair.dy,
                    pair.dz,
                    got.value,
                    want.value
                );
                for axis in 0..3 {
                    let gscale = 1.0 + want.gradient[axis].abs();
                    assert!((got.gradient[axis] - want.gradient[axis]).abs() < 1e-12 * gscale);
                }
            }
        }
    }

    /// Asserts that `eval` over the whole of `pairs` gives exactly the bits
    /// of each separation evaluated as a one-element batch.
    fn assert_matches_one_element_batches<T: Clone>(
        pairs: &[SeparationVector],
        zero: T,
        eval: impl Fn(&[SeparationVector], &mut [T]),
        bits: impl Fn(&T) -> Vec<u64>,
    ) {
        let mut batch = vec![zero.clone(); pairs.len()];
        eval(pairs, &mut batch);
        for (pair, got) in pairs.iter().zip(&batch) {
            let mut alone = [zero.clone()];
            eval(&[*pair], &mut alone);
            assert_eq!(bits(got), bits(&alone[0]), "{pair:?}");
        }
    }

    #[test]
    fn batched_profile_reuse_is_bit_identical_to_one_element_batches() {
        // The spectral profile is reused while |Δz| repeats: a repeat, its
        // negation, zero (and the origin), a new value, then the first again.
        let value_bits = |z: &c64| vec![z.re.to_bits(), z.im.to_bits()];
        let sample_bits = |s: &GreenSample| {
            [s.value, s.gradient[0], s.gradient[1], s.gradient[2]]
                .iter()
                .flat_map(value_bits)
                .collect()
        };
        for &(k, l) in &[
            (quasi_static_k(), 5.0),
            (lossy_k(), 5.0),
            (c64::new(1.95, 1.95), 12.0),
        ] {
            let g = PeriodicGreen3d::new(k, l);
            let (a, b) = (0.07 * l, 0.13 * l);
            let pairs = [
                SeparationVector::new(0.31 * l, 0.12 * l, a),
                SeparationVector::new(-0.22 * l, 0.41 * l, a),
                SeparationVector::new(0.05 * l, -0.17 * l, -a),
                SeparationVector::new(0.26 * l, 0.08 * l, 0.0),
                SeparationVector::new(0.0, 0.0, 0.0),
                SeparationVector::new(-0.36 * l, 0.0, -0.0),
                SeparationVector::new(0.19 * l, -0.44 * l, b),
                SeparationVector::new(0.11 * l, 0.29 * l, a),
            ];
            // The unregularized kernel is singular at the origin.
            let off_origin: Vec<SeparationVector> = pairs
                .iter()
                .copied()
                .filter(|p| p.dx != 0.0 || p.dy != 0.0)
                .collect();
            assert_matches_one_element_batches(
                &off_origin,
                GreenSample::default(),
                |p, o| g.eval_batch_samples(p, o),
                sample_bits,
            );
            assert_matches_one_element_batches(
                &pairs,
                GreenSample::default(),
                |p, o| g.eval_batch_regularized(p, o),
                sample_bits,
            );
        }
    }

    #[test]
    #[should_panic(expected = "output slice must match")]
    fn batch_length_mismatch_panics() {
        let g = PeriodicGreen3d::new(lossy_k(), 5.0);
        let pairs = [SeparationVector::new(0.5, 0.0, 0.1)];
        let mut out = vec![GreenSample::default(); 2];
        g.eval_batch_samples(&pairs, &mut out);
    }

    #[test]
    #[should_panic(expected = "lattice point")]
    fn batched_evaluation_at_lattice_point_panics() {
        let g = PeriodicGreen3d::new(lossy_k(), 5.0);
        let pairs = [SeparationVector::new(5.0, 0.0, 0.0)];
        let mut out = vec![GreenSample::default(); 1];
        g.eval_batch_samples(&pairs, &mut out);
    }

    #[test]
    #[should_panic(expected = "lattice point")]
    fn evaluation_at_lattice_point_panics() {
        let g = PeriodicGreen3d::new(lossy_k(), 5.0);
        let _ = g.value(0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn negative_period_rejected() {
        let _ = PeriodicGreen3d::new(c64::one(), -1.0);
    }
}
