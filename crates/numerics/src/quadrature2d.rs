//! Adaptive Gauss–Legendre quadrature on intervals and rectangles.
//!
//! The MOM assembly needs the *smooth remainder* of the Green's-function cell
//! integrals (after the analytic extraction of the static singularity) to a
//! controlled accuracy, on cells whose integrand ranges from polynomial-smooth
//! (far panels) to sharply peaked (panels touching a near singularity). A
//! fixed-order rule wastes points on the former and underresolves the latter;
//! the adaptive rules here spend points only where the embedded error estimate
//! demands it:
//!
//! * each panel is integrated with an order-`n` tensor (or line) rule and
//!   re-integrated with an embedded order-`n + 2` rule;
//! * when the two disagree beyond the tolerance, the panel splits into equal
//!   halves (1D) or quadrants (2D) and the children are refined recursively up
//!   to a depth cap.
//!
//! Integrands are complex-valued pairs `(f, g)` sharing their evaluation
//! points, so the single- and double-layer kernels of one source cell are
//! integrated in a single adaptive pass over one set of kernel evaluations.

use crate::complex::c64;
use crate::quadrature::{gauss_legendre, QuadratureRule};

/// Hard cap on the recursion depth; `max_depth` values above this are clamped.
const DEPTH_CAP: usize = 12;

/// Result of one adaptive integration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOutcome {
    /// The two integral estimates (from the higher-order embedded rule).
    pub values: (c64, c64),
    /// Number of panels the adaptive subdivision evaluated.
    pub panels: usize,
    /// `true` when every leaf panel met the tolerance before the depth cap.
    pub converged: bool,
    /// Leaf panels that were accepted *only* because the depth cap was hit
    /// (their embedded error still exceeded the tolerance).
    pub depth_cap_hits: usize,
    /// Achieved absolute error estimate: the sum of the embedded
    /// `|coarse − fine|` errors over every accepted leaf panel. When
    /// [`AdaptiveOutcome::converged`] is `false` this is the honest accuracy
    /// of the returned values, not the requested tolerance.
    pub error_estimate: f64,
}

impl AdaptiveOutcome {
    fn fresh() -> Self {
        Self {
            values: (c64::zero(), c64::zero()),
            panels: 0,
            converged: true,
            depth_cap_hits: 0,
            error_estimate: 0.0,
        }
    }

    /// Books one accepted leaf panel into the outcome.
    fn accept_leaf(&mut self, values: (c64, c64), error: f64, hit_depth_cap: bool) {
        self.values.0 += values.0;
        self.values.1 += values.1;
        self.error_estimate += error;
        if hit_depth_cap {
            self.converged = false;
            self.depth_cap_hits += 1;
        }
    }
}

/// Adaptive tensor-product Gauss–Legendre rule on axis-aligned rectangles.
#[derive(Debug, Clone)]
pub struct AdaptiveTensorGauss {
    coarse: QuadratureRule,
    fine: QuadratureRule,
    tolerance: f64,
    max_depth: usize,
}

impl AdaptiveTensorGauss {
    /// Creates an adaptive rule with base order `order` (embedded order
    /// `order + 2`), relative tolerance `tolerance` and subdivision depth cap
    /// `max_depth`.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0` or the tolerance is not positive.
    pub fn new(order: usize, tolerance: f64, max_depth: usize) -> Self {
        assert!(order > 0, "rule order must be positive");
        assert!(tolerance > 0.0, "tolerance must be positive");
        Self {
            coarse: gauss_legendre(order),
            fine: gauss_legendre(order + 2),
            tolerance,
            max_depth: max_depth.min(DEPTH_CAP),
        }
    }

    /// Base rule order.
    pub fn order(&self) -> usize {
        self.coarse.len()
    }

    /// Relative tolerance of the embedded error estimate.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Integrates a complex pair over `[ax, bx] × [ay, by]`.
    ///
    /// `floor` is an absolute magnitude the integrals are considered *against*
    /// when testing convergence: a panel converges when the embedded error is
    /// below `tolerance × (panel magnitude + panel share of floor)`. Pass the
    /// magnitude of an already-extracted analytic part so the remainder is not
    /// refined to digits that cannot matter in the sum, or `0.0` for a purely
    /// relative test.
    pub fn integrate_pair(
        &self,
        (ax, bx): (f64, f64),
        (ay, by): (f64, f64),
        floor: f64,
        mut f: impl FnMut(f64, f64) -> (c64, c64),
    ) -> AdaptiveOutcome {
        assert!(bx > ax && by > ay, "integration rectangle must be proper");
        assert!(floor >= 0.0, "floor must be non-negative");
        let mut outcome = AdaptiveOutcome::fresh();
        self.refine((ax, bx), (ay, by), floor, 0, &mut f, &mut outcome);
        outcome
    }

    /// Integrates a complex pair over `[ax, bx] × [ay, by]` with a
    /// *panel-batched* integrand: instead of one `f(x, y)` call per node,
    /// `f(xs, ys, out)` receives every node of one adaptive panel (the
    /// embedded coarse block followed by the fine block) and fills `out` in
    /// node order.
    ///
    /// Batching lets kernel-heavy integrands amortize their per-point call
    /// overhead — gather the whole block, evaluate `exp`/`erfc` over
    /// contiguous slices, scatter once. The subdivision, the per-node
    /// arithmetic and the accumulation order are *identical* to
    /// [`AdaptiveTensorGauss::integrate_pair`]: for an integrand computing the
    /// same per-node values the two paths return bit-identical outcomes
    /// (pinned by tests).
    ///
    /// `scratch` is the reusable node/value arena; one arena per worker
    /// thread eliminates the allocation churn of the adaptive refinement
    /// across matrix entries.
    pub fn integrate_pair_batched(
        &self,
        (ax, bx): (f64, f64),
        (ay, by): (f64, f64),
        floor: f64,
        scratch: &mut QuadScratch,
        mut f: impl FnMut(&[f64], &[f64], &mut [(c64, c64)]),
    ) -> AdaptiveOutcome {
        assert!(bx > ax && by > ay, "integration rectangle must be proper");
        assert!(floor >= 0.0, "floor must be non-negative");
        let mut outcome = AdaptiveOutcome::fresh();
        let coarse_nodes = self.coarse.len() * self.coarse.len();
        scratch.stack.clear();
        scratch.stack.push(PanelTask {
            ax,
            bx,
            ay,
            by,
            floor,
            depth: 0,
        });
        // Depth-first with children pushed in reverse, so leaves accumulate
        // in exactly the recursion order of the per-point path.
        while let Some(panel) = scratch.stack.pop() {
            outcome.panels += 1;
            scratch.xs.clear();
            scratch.ys.clear();
            push_tensor_nodes(
                &self.coarse,
                (panel.ax, panel.bx),
                (panel.ay, panel.by),
                scratch,
            );
            push_tensor_nodes(
                &self.fine,
                (panel.ax, panel.bx),
                (panel.ay, panel.by),
                scratch,
            );
            scratch.values.clear();
            scratch
                .values
                .resize(scratch.xs.len(), (c64::zero(), c64::zero()));
            f(&scratch.xs, &scratch.ys, &mut scratch.values);
            let coarse = reduce_tensor_block(
                &self.coarse,
                (panel.ax, panel.bx),
                (panel.ay, panel.by),
                &scratch.values[..coarse_nodes],
            );
            let fine = reduce_tensor_block(
                &self.fine,
                (panel.ax, panel.bx),
                (panel.ay, panel.by),
                &scratch.values[coarse_nodes..],
            );
            let error = (coarse.0 - fine.0).abs() + (coarse.1 - fine.1).abs();
            let scale = fine.0.abs() + fine.1.abs() + panel.floor;
            let within_tolerance = error <= self.tolerance * scale;
            if within_tolerance || panel.depth >= self.max_depth {
                outcome.accept_leaf(fine, error, !within_tolerance);
                continue;
            }
            let mx = 0.5 * (panel.ax + panel.bx);
            let my = 0.5 * (panel.ay + panel.by);
            let child_floor = 0.25 * panel.floor;
            for &((cax, cbx), (cay, cby)) in [
                ((panel.ax, mx), (panel.ay, my)),
                ((mx, panel.bx), (panel.ay, my)),
                ((panel.ax, mx), (my, panel.by)),
                ((mx, panel.bx), (my, panel.by)),
            ]
            .iter()
            .rev()
            {
                scratch.stack.push(PanelTask {
                    ax: cax,
                    bx: cbx,
                    ay: cay,
                    by: cby,
                    floor: child_floor,
                    depth: panel.depth + 1,
                });
            }
        }
        outcome
    }

    /// Integrates a single complex integrand over `[ax, bx] × [ay, by]`.
    pub fn integrate(
        &self,
        x_bounds: (f64, f64),
        y_bounds: (f64, f64),
        floor: f64,
        mut f: impl FnMut(f64, f64) -> c64,
    ) -> AdaptiveOutcome {
        self.integrate_pair(x_bounds, y_bounds, floor, |x, y| (f(x, y), c64::zero()))
    }

    fn refine(
        &self,
        (ax, bx): (f64, f64),
        (ay, by): (f64, f64),
        floor: f64,
        depth: usize,
        f: &mut impl FnMut(f64, f64) -> (c64, c64),
        outcome: &mut AdaptiveOutcome,
    ) {
        let coarse = panel_pair(&self.coarse, (ax, bx), (ay, by), f);
        let fine = panel_pair(&self.fine, (ax, bx), (ay, by), f);
        outcome.panels += 1;
        let error = (coarse.0 - fine.0).abs() + (coarse.1 - fine.1).abs();
        let scale = fine.0.abs() + fine.1.abs() + floor;
        let within_tolerance = error <= self.tolerance * scale;
        if within_tolerance || depth >= self.max_depth {
            outcome.accept_leaf(fine, error, !within_tolerance);
            return;
        }
        let mx = 0.5 * (ax + bx);
        let my = 0.5 * (ay + by);
        let child_floor = 0.25 * floor;
        for &(xs, ys) in &[
            ((ax, mx), (ay, my)),
            ((mx, bx), (ay, my)),
            ((ax, mx), (my, by)),
            ((mx, bx), (my, by)),
        ] {
            self.refine(xs, ys, child_floor, depth + 1, f, outcome);
        }
    }
}

/// Adaptive Gauss–Legendre rule on intervals (the 1D counterpart used by the
/// 2D SWM contour assembly).
#[derive(Debug, Clone)]
pub struct AdaptiveLineGauss {
    coarse: QuadratureRule,
    fine: QuadratureRule,
    tolerance: f64,
    max_depth: usize,
}

impl AdaptiveLineGauss {
    /// Creates an adaptive line rule with base order `order` (embedded order
    /// `order + 2`), relative tolerance `tolerance` and depth cap `max_depth`.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0` or the tolerance is not positive.
    pub fn new(order: usize, tolerance: f64, max_depth: usize) -> Self {
        assert!(order > 0, "rule order must be positive");
        assert!(tolerance > 0.0, "tolerance must be positive");
        Self {
            coarse: gauss_legendre(order),
            fine: gauss_legendre(order + 2),
            tolerance,
            max_depth: max_depth.min(DEPTH_CAP),
        }
    }

    /// Integrates a complex pair over `[a, b]`; see
    /// [`AdaptiveTensorGauss::integrate_pair`] for the `floor` semantics.
    pub fn integrate_pair(
        &self,
        (a, b): (f64, f64),
        floor: f64,
        mut f: impl FnMut(f64) -> (c64, c64),
    ) -> AdaptiveOutcome {
        assert!(b > a, "integration interval must be proper");
        assert!(floor >= 0.0, "floor must be non-negative");
        let mut outcome = AdaptiveOutcome::fresh();
        self.refine((a, b), floor, 0, &mut f, &mut outcome);
        outcome
    }

    fn refine(
        &self,
        (a, b): (f64, f64),
        floor: f64,
        depth: usize,
        f: &mut impl FnMut(f64) -> (c64, c64),
        outcome: &mut AdaptiveOutcome,
    ) {
        let coarse = line_pair(&self.coarse, (a, b), f);
        let fine = line_pair(&self.fine, (a, b), f);
        outcome.panels += 1;
        let error = (coarse.0 - fine.0).abs() + (coarse.1 - fine.1).abs();
        let scale = fine.0.abs() + fine.1.abs() + floor;
        let within_tolerance = error <= self.tolerance * scale;
        if within_tolerance || depth >= self.max_depth {
            outcome.accept_leaf(fine, error, !within_tolerance);
            return;
        }
        let m = 0.5 * (a + b);
        self.refine((a, m), 0.5 * floor, depth + 1, f, outcome);
        self.refine((m, b), 0.5 * floor, depth + 1, f, outcome);
    }
}

/// One pending panel of a batched adaptive integration.
#[derive(Debug, Clone, Copy)]
struct PanelTask {
    ax: f64,
    bx: f64,
    ay: f64,
    by: f64,
    floor: f64,
    depth: usize,
}

/// Reusable node/value arena of the batched adaptive rules.
///
/// One arena per worker thread amortizes every allocation of the adaptive
/// refinement — node coordinates, integrand values and the panel work stack —
/// across all matrix entries that thread assembles.
#[derive(Debug, Default)]
pub struct QuadScratch {
    xs: Vec<f64>,
    ys: Vec<f64>,
    values: Vec<(c64, c64)>,
    stack: Vec<PanelTask>,
}

impl QuadScratch {
    /// An empty arena (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Appends the tensor nodes of `rule` on a rectangle to the scratch arrays,
/// in the same nested `(xi, yj)` order [`panel_pair`] visits them.
fn push_tensor_nodes(
    rule: &QuadratureRule,
    (ax, bx): (f64, f64),
    (ay, by): (f64, f64),
    scratch: &mut QuadScratch,
) {
    let half_x = 0.5 * (bx - ax);
    let mid_x = 0.5 * (ax + bx);
    let half_y = 0.5 * (by - ay);
    let mid_y = 0.5 * (ay + by);
    for (xi, _) in rule.iter() {
        let x = mid_x + half_x * xi;
        for (yj, _) in rule.iter() {
            scratch.xs.push(x);
            scratch.ys.push(mid_y + half_y * yj);
        }
    }
}

/// Reduces one pre-evaluated tensor block with the weights of `rule`, in the
/// exact accumulation order of [`panel_pair`].
fn reduce_tensor_block(
    rule: &QuadratureRule,
    (ax, bx): (f64, f64),
    (ay, by): (f64, f64),
    values: &[(c64, c64)],
) -> (c64, c64) {
    let half_x = 0.5 * (bx - ax);
    let half_y = 0.5 * (by - ay);
    let mut first = c64::zero();
    let mut second = c64::zero();
    let mut index = 0;
    for (_, wi) in rule.iter() {
        for (_, wj) in rule.iter() {
            let w = wi * wj * half_x * half_y;
            let (a, b) = values[index];
            index += 1;
            first += a * w;
            second += b * w;
        }
    }
    (first, second)
}

/// One fixed-order tensor evaluation of a complex pair on a rectangle.
fn panel_pair(
    rule: &QuadratureRule,
    (ax, bx): (f64, f64),
    (ay, by): (f64, f64),
    f: &mut impl FnMut(f64, f64) -> (c64, c64),
) -> (c64, c64) {
    let half_x = 0.5 * (bx - ax);
    let mid_x = 0.5 * (ax + bx);
    let half_y = 0.5 * (by - ay);
    let mid_y = 0.5 * (ay + by);
    let mut first = c64::zero();
    let mut second = c64::zero();
    for (xi, wi) in rule.iter() {
        let x = mid_x + half_x * xi;
        for (yj, wj) in rule.iter() {
            let y = mid_y + half_y * yj;
            let w = wi * wj * half_x * half_y;
            let (a, b) = f(x, y);
            first += a * w;
            second += b * w;
        }
    }
    (first, second)
}

/// One fixed-order line evaluation of a complex pair on an interval.
fn line_pair(
    rule: &QuadratureRule,
    (a, b): (f64, f64),
    f: &mut impl FnMut(f64) -> (c64, c64),
) -> (c64, c64) {
    let half = 0.5 * (b - a);
    let mid = 0.5 * (a + b);
    let mut first = c64::zero();
    let mut second = c64::zero();
    for (xi, wi) in rule.iter() {
        let (u, v) = f(mid + half * xi);
        first += u * (wi * half);
        second += v * (wi * half);
    }
    (first, second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadrature::TensorRule2d;

    #[test]
    fn smooth_polynomial_needs_one_panel() {
        let rule = AdaptiveTensorGauss::new(4, 1e-10, 8);
        let outcome = rule.integrate((0.0, 1.0), (-1.0, 2.0), 0.0, |x, y| {
            c64::from_real(x * x * y)
        });
        // ∫0^1 x² dx ∫_{-1}^{2} y dy = (1/3)(3/2) = 0.5
        assert!((outcome.values.0 - c64::from_real(0.5)).abs() < 1e-12);
        assert_eq!(outcome.panels, 1);
        assert!(outcome.converged);
    }

    #[test]
    fn near_singular_peak_is_resolved_by_subdivision() {
        // 1/((x−1.02)² + (y−1.02)²) peaks sharply near the corner (1, 1).
        let f = |x: f64, y: f64| {
            let dx = x - 1.02;
            let dy = y - 1.02;
            c64::from_real(1.0 / (dx * dx + dy * dy))
        };
        let adaptive = AdaptiveTensorGauss::new(4, 1e-9, 10);
        let outcome = adaptive.integrate((0.0, 1.0), (0.0, 1.0), 0.0, f);
        assert!(outcome.converged);
        assert!(outcome.panels > 1, "the peak must force refinement");

        // Reference: 48²-point panels on a 4×4 fixed split.
        let mut reference = 0.0;
        for i in 0..4 {
            for j in 0..4 {
                let rule = TensorRule2d::gauss_legendre_on(
                    48,
                    i as f64 * 0.25,
                    (i + 1) as f64 * 0.25,
                    j as f64 * 0.25,
                    (j + 1) as f64 * 0.25,
                );
                reference += rule.integrate(|x, y| f(x, y).re);
            }
        }
        assert!(
            (outcome.values.0.re - reference).abs() < 1e-7 * reference,
            "{} vs {reference}",
            outcome.values.0.re
        );
    }

    #[test]
    fn depth_cap_reports_non_convergence() {
        // A genuinely singular integrand cannot converge at depth 0 with a
        // coarse rule; the outcome must say so instead of pretending.
        let rule = AdaptiveTensorGauss::new(2, 1e-14, 0);
        let outcome = rule.integrate((0.0, 1.0), (0.0, 1.0), 0.0, |x, y| {
            c64::from_real(1.0 / (x * x + y * y + 1e-6).sqrt())
        });
        assert_eq!(outcome.panels, 1);
        assert!(!outcome.converged);
        // The depth-cap hit is surfaced, together with the honest achieved
        // error (which a converged run would have kept below tolerance).
        assert_eq!(outcome.depth_cap_hits, 1);
        assert!(outcome.error_estimate > 0.0);
    }

    #[test]
    fn converged_outcome_reports_no_depth_cap_hits() {
        let rule = AdaptiveTensorGauss::new(4, 1e-10, 8);
        let outcome = rule.integrate((0.0, 1.0), (0.0, 1.0), 0.0, |x, y| c64::from_real(x + y));
        assert!(outcome.converged);
        assert_eq!(outcome.depth_cap_hits, 0);
        assert!(outcome.error_estimate <= 1e-10);
    }

    #[test]
    fn batched_tensor_path_is_bit_identical_to_recursive() {
        // Same per-node values ⇒ same subdivision, same accumulation order,
        // bit-identical outcome — on both a refining and a depth-capped case.
        let f = |x: f64, y: f64| {
            let dx = x - 1.02;
            let dy = y - 1.02;
            (
                c64::from_real(1.0 / (dx * dx + dy * dy)),
                c64::new(0.0, x * y),
            )
        };
        for (tol, depth) in [(1e-9, 10), (1e-14, 2)] {
            let rule = AdaptiveTensorGauss::new(4, tol, depth);
            let recursive = rule.integrate_pair((0.0, 1.0), (0.0, 1.0), 0.0, f);
            let mut scratch = QuadScratch::new();
            let batched = rule.integrate_pair_batched(
                (0.0, 1.0),
                (0.0, 1.0),
                0.0,
                &mut scratch,
                |xs, ys, out| {
                    for ((x, y), slot) in xs.iter().zip(ys).zip(out.iter_mut()) {
                        *slot = f(*x, *y);
                    }
                },
            );
            assert_eq!(batched.panels, recursive.panels);
            assert_eq!(batched.converged, recursive.converged);
            assert_eq!(batched.depth_cap_hits, recursive.depth_cap_hits);
            assert_eq!(
                batched.values.0.re.to_bits(),
                recursive.values.0.re.to_bits()
            );
            assert_eq!(
                batched.values.0.im.to_bits(),
                recursive.values.0.im.to_bits()
            );
            assert_eq!(
                batched.values.1.im.to_bits(),
                recursive.values.1.im.to_bits()
            );
            assert_eq!(
                batched.error_estimate.to_bits(),
                recursive.error_estimate.to_bits()
            );
        }
    }

    #[test]
    fn pair_components_are_integrated_together() {
        let rule = AdaptiveTensorGauss::new(3, 1e-10, 6);
        let outcome = rule.integrate_pair((0.0, 1.0), (0.0, 1.0), 0.0, |x, y| {
            (c64::from_real(x), c64::new(0.0, y))
        });
        assert!((outcome.values.0 - c64::from_real(0.5)).abs() < 1e-12);
        assert!((outcome.values.1 - c64::new(0.0, 0.5)).abs() < 1e-12);
    }

    #[test]
    fn floor_suppresses_irrelevant_refinement() {
        // The peak integral is ~1e-4; against a floor of 1e4 its absolute
        // error is irrelevant and one panel must suffice.
        let f = |x: f64, y: f64| {
            let dx = x - 1.02;
            let dy = y - 1.02;
            c64::from_real(1e-4 / (dx * dx + dy * dy))
        };
        let tight = AdaptiveTensorGauss::new(4, 1e-6, 10);
        let with_floor = tight.integrate((0.0, 1.0), (0.0, 1.0), 1e4, f);
        assert_eq!(with_floor.panels, 1);
        let without = tight.integrate((0.0, 1.0), (0.0, 1.0), 0.0, f);
        assert!(without.panels > with_floor.panels);
    }

    #[test]
    fn line_rule_resolves_near_singular_integrand() {
        // ∫_0^1 dx/(x + a) = ln((1 + a)/a), steep near 0 for small a.
        let a = 1e-2;
        let rule = AdaptiveLineGauss::new(4, 1e-10, 12);
        let outcome = rule.integrate_pair((0.0, 1.0), 0.0, |x| {
            (c64::from_real(1.0 / (x + a)), c64::zero())
        });
        let exact = ((1.0 + a) / a).ln();
        assert!(outcome.converged);
        assert!(
            (outcome.values.0.re - exact).abs() < 1e-8 * exact,
            "{} vs {exact}",
            outcome.values.0.re
        );
    }

    #[test]
    #[should_panic(expected = "rule order must be positive")]
    fn zero_order_rejected() {
        AdaptiveTensorGauss::new(0, 1e-8, 4);
    }

    #[test]
    #[should_panic(expected = "rectangle must be proper")]
    fn empty_rectangle_rejected() {
        let rule = AdaptiveTensorGauss::new(2, 1e-8, 4);
        rule.integrate((1.0, 1.0), (0.0, 1.0), 0.0, |_, _| c64::zero());
    }
}
