//! Near-field assembly policies: how singular and near-singular MOM matrix
//! entries are integrated.
//!
//! With pulse basis functions and point matching, the accuracy bottleneck of
//! the SWM solver is not the far interactions (one midpoint sample of the
//! periodic kernel is fine there) but the *self* and *near-neighbour* entries,
//! where the `1/R` (3D) or `ln R` (2D) kernel singularity makes low-order
//! sampling systematically biased. Once the skin depth drops below the cell
//! size the bias overwhelms the physical roughness-loss trend.
//!
//! Both dimensions use the locally corrected scheme
//! ([`AssemblyScheme::LocallyCorrected`]): analytic integration of the static
//! singularity over the exact source-cell geometry (Wilton polygon potential
//! and solid angle in 3D, segment log-integral and subtended angle in 2D) plus
//! adaptive tensor Gauss–Legendre quadrature for the smooth remainder, applied
//! to every source cell within [`NearFieldPolicy::radius`] cell sizes of the
//! observation point — with periodic wrap-around, so cells adjacent across the
//! patch seam are corrected too.
//!
//! The policy is the only near-field knob in 2D. The 3D assembly also takes a
//! [`KernelEval`] (how the Ewald-summed kernel is evaluated); the 2D contour
//! assembly has one kernel evaluation and no such knob.

use rough_numerics::quadrature2d::AdaptiveOutcome;

/// Integration diagnostics of one assembly: how hard the adaptive
/// smooth-remainder quadrature worked and — crucially — whether it was ever
/// truncated by its subdivision depth cap instead of reaching the tolerance.
///
/// A depth-capped entry is *not* an error (the returned value is still the
/// best available estimate, with the achieved error recorded), but silently
/// accepting it would hide a resolution problem; campaigns can assert
/// [`AssemblyStats::all_converged`] or log the worst achieved error.
///
/// Every count describes integrations actually performed. In the 3D
/// corrected assembly an entry between two exactly flat cells at the same
/// height depends only on their lattice offset, so it is integrated once per
/// offset and copied to every other such pair; the copies are counted in
/// [`reused_entries`](AssemblyStats::reused_entries), not in
/// `corrected_entries`, and add no panels, depth-cap hits or unconverged
/// entries. `corrected_entries + reused_entries` is the number of locally
/// corrected entries in the assembled operator.
///
/// Stats merge associatively and are accumulated in row order, so they are
/// identical for serial and parallel assemblies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AssemblyStats {
    /// Locally corrected (self + near) entries integrated adaptively.
    pub corrected_entries: usize,
    /// Locally corrected entries copied from an earlier integration of the
    /// same flat-cell lattice offset instead of being integrated again.
    pub reused_entries: usize,
    /// Total adaptive panels evaluated across the integrated entries.
    pub adaptive_panels: usize,
    /// Leaf panels accepted *only* because the depth cap was hit.
    pub depth_cap_hits: usize,
    /// Integrated entries whose adaptive remainder did not meet the
    /// tolerance.
    pub unconverged_entries: usize,
    /// Largest per-entry achieved absolute error estimate (the embedded
    /// `|coarse − fine|` sum over the entry's accepted leaves).
    pub max_entry_error: f64,
    /// Regularized periodic-image kernel evaluations of the 3D near field:
    /// the nodes of its image tables, both media, evaluated once per
    /// assembly and read by every corrected entry.
    pub image_samples: usize,
}

impl AssemblyStats {
    /// Books one adaptive integration outcome.
    pub fn absorb(&mut self, outcome: &AdaptiveOutcome) {
        self.corrected_entries += 1;
        self.adaptive_panels += outcome.panels;
        self.depth_cap_hits += outcome.depth_cap_hits;
        if !outcome.converged {
            self.unconverged_entries += 1;
        }
        self.max_entry_error = self.max_entry_error.max(outcome.error_estimate);
    }

    /// Merges another assembly's statistics into this one.
    pub fn merge(&mut self, other: &Self) {
        self.corrected_entries += other.corrected_entries;
        self.reused_entries += other.reused_entries;
        self.adaptive_panels += other.adaptive_panels;
        self.depth_cap_hits += other.depth_cap_hits;
        self.unconverged_entries += other.unconverged_entries;
        self.max_entry_error = self.max_entry_error.max(other.max_entry_error);
        self.image_samples += other.image_samples;
    }

    /// `true` when every adaptive entry met the tolerance before the depth
    /// cap.
    pub fn all_converged(&self) -> bool {
        self.unconverged_entries == 0
    }
}

/// How the Ewald-summed kernel evaluations of a 3D assembly are executed.
///
/// Orthogonal to [`AssemblyScheme`] (which decides *what* is integrated where,
/// i.e. the numerics), this knob decides *how* the Ewald-summed kernel is
/// evaluated — it changes floating-point results only at the rounding level
/// (≤ 1e-12 relative, pinned by the equivalence tests):
///
/// * [`KernelEval::Scalar`] — one kernel evaluation per matrix entry, exactly
///   the historical code path. Kept as the oracle for equivalence tests and
///   as the baseline of the assembly benchmark.
/// * [`KernelEval::Batched`] (default) — blocked row-panel assembly: all
///   far-field observation–source separations of a matrix row are gathered
///   into a contiguous slice and evaluated through the batched kernel API
///   (`eval_batch_samples`), and so is each height level of the near
///   field's periodic-image tables (`eval_batch_regularized`, one call per
///   level, whose points share `|Δz|` and so one set of spectral profiles).
///   The batch API hoists the Ewald setup out of the inner loop and shares
///   the expensive `erfc`/`exp` factors across Floquet-mode classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelEval {
    /// Per-entry kernel evaluation (reference/oracle path).
    Scalar,
    /// Blocked row-panel gathering with batched kernel evaluation.
    #[default]
    Batched,
}

/// Parameters of the locally corrected near-field integration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearFieldPolicy {
    /// Near-field radius in units of the cell size: source cells whose
    /// (minimum-image) centre distance from the observation point is below
    /// `radius × Δ` get the corrected treatment.
    pub radius: f64,
    /// Base Gauss–Legendre order of the adaptive remainder quadrature (the
    /// embedded error estimate uses `order + 2`).
    pub order: usize,
}

impl NearFieldPolicy {
    /// Relative tolerance of the adaptive remainder quadrature.
    pub(crate) const REMAINDER_TOLERANCE: f64 = 1e-7;
    /// Depth cap of the adaptive subdivision.
    pub(crate) const MAX_DEPTH: usize = 6;
    /// Largest accepted radius, in cell sizes. Every figure runs at ≤ 32
    /// cells per side, so a larger radius corrects no more cells; it would
    /// only grow the `(2⌈r⌉+1)²` offset stencil.
    pub(crate) const MAX_RADIUS: f64 = 64.0;
    /// Largest accepted base order, the largest Gauss–Legendre order the
    /// quadrature rules are tested at.
    pub(crate) const MAX_ORDER: usize = 64;

    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if [`NearFieldPolicy::validate`] rejects it.
    pub fn new(radius: f64, order: usize) -> Self {
        let policy = Self { radius, order };
        if let Err(message) = policy.validate() {
            panic!("{message}");
        }
        policy
    }

    /// Validates the knobs. The fields are public, so a policy built by a
    /// struct literal (e.g. decoded from a scenario) is checked here, where
    /// it enters a solve, instead of panicking deep inside the assembly.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.radius.is_finite() && self.radius > 0.0) {
            return Err(format!(
                "near-field radius must be positive and finite, got {}",
                self.radius
            ));
        }
        if self.radius > Self::MAX_RADIUS {
            return Err(format!(
                "near-field radius must be at most {} cell sizes, got {}",
                Self::MAX_RADIUS,
                self.radius
            ));
        }
        if self.order == 0 {
            return Err("near-field quadrature order must be positive, got 0".into());
        }
        if self.order > Self::MAX_ORDER {
            return Err(format!(
                "near-field quadrature order must be at most {}, got {}",
                Self::MAX_ORDER,
                self.order
            ));
        }
        Ok(())
    }
}

impl Default for NearFieldPolicy {
    /// The default corrects every source cell within 2.5 cell sizes with an
    /// order-4 (embedded order-6) adaptive rule.
    fn default() -> Self {
        Self {
            radius: 2.5,
            order: 4,
        }
    }
}

/// How the MOM matrix entries are integrated.
///
/// The locally corrected scheme is the only one; the enum is kept so the
/// scheme's `Debug` form (part of scenario fingerprints and cache keys) and
/// the callers that match on the variant stay unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssemblyScheme {
    /// Locally corrected near-field assembly: exact analytic static integrals
    /// over the tangent-plane cell geometry plus adaptive quadrature for the
    /// smooth remainder.
    LocallyCorrected(NearFieldPolicy),
}

impl Default for AssemblyScheme {
    /// Locally corrected with the default [`NearFieldPolicy`].
    fn default() -> Self {
        Self::LocallyCorrected(NearFieldPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_corrected_scheme() {
        let AssemblyScheme::LocallyCorrected(policy) = AssemblyScheme::default();
        assert_eq!(policy, NearFieldPolicy::new(2.5, 4));
        assert_eq!(policy.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_non_finite_or_non_positive_radius_and_zero_order() {
        for radius in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            let error = NearFieldPolicy { radius, order: 4 }.validate().unwrap_err();
            assert!(error.contains("radius must be positive"), "{error}");
        }
        let error = NearFieldPolicy {
            radius: 2.5,
            order: 0,
        }
        .validate()
        .unwrap_err();
        assert!(error.contains("order must be positive"), "{error}");
        // Huge values would size the offset stencil or the quadrature rule.
        for radius in [64.5, 1e300] {
            let error = NearFieldPolicy { radius, order: 4 }.validate().unwrap_err();
            assert!(error.contains("radius must be at most 64"), "{error}");
        }
        let error = NearFieldPolicy {
            radius: 2.5,
            order: 65,
        }
        .validate()
        .unwrap_err();
        assert!(error.contains("order must be at most 64"), "{error}");
        assert_eq!(NearFieldPolicy::new(64.0, 64).validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_rejected() {
        NearFieldPolicy::new(0.0, 4);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_rejected() {
        NearFieldPolicy::new(1.5, 0);
    }
}
