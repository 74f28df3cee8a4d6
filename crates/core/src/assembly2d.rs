//! Assembly of the simplified 2D SWM system (surface uniform along y).
//!
//! Fig. 6 of the paper compares the full 3D SWM with a 2D formulation in which
//! the surface height varies along `x` only. The problem then reduces to a
//! periodic contour integral equation in the `(x, z)` plane with the 2D scalar
//! kernel; the block structure is identical to the 3D case:
//!
//! ```text
//! [ ½I − D₁    β·S₁ ] [Ψ]   [Ψ_inc]
//! [ ½I + D₂   −S₂   ] [U] = [  0  ]
//! ```
//!
//! with `S_ij ≈ Δ·G_p(x_i − x_j, z_i − z_j)` and `D_ij ≈ Δ·J_j·n̂_j·∇'G_p`.
//! Like the 3D path, the singular/near-singular entries are locally corrected
//! ([`AssemblyScheme::LocallyCorrected`]): the `−ln R/(2π)` static
//! singularity is integrated analytically along the exact tangent-line
//! segment (log integral for `S`, subtended angle for `D`) plus adaptive
//! Gauss–Legendre quadrature of the smooth remainder, with periodic
//! wrap-around in the near test.
//!
//! The assembly is one serial loop over the rows that writes straight into
//! the two matrices. Every kernel evaluation goes through
//! [`PeriodicGreen2d::sample`], whose Floquet-mode constants are built once
//! per kernel.

use crate::mesh::{ContourMesh, Segment2d};
use crate::nearfield::{AssemblyScheme, AssemblyStats, NearFieldPolicy};
use rough_em::green::free_space::{ln_r_integral_over_segment, subtended_angle_of_segment};
use rough_em::green::PeriodicGreen2d;
use rough_numerics::complex::c64;
use rough_numerics::linalg::CMatrix;
use rough_numerics::quadrature2d::AdaptiveLineGauss;
use std::f64::consts::PI;

/// Assembled single-layer and double-layer blocks for one medium (2D).
struct MediumBlocks2d {
    /// Single-layer matrix `S` (N × N).
    single_layer: CMatrix,
    /// Double-layer matrix `D` (N × N).
    double_layer: CMatrix,
    /// Integration diagnostics of the adaptive near-field remainder.
    stats: AssemblyStats,
}

/// Assembles the locally corrected 2D blocks for one medium: analytic `ln R`
/// extraction plus adaptive quadrature of the smooth remainder on every near
/// (minimum-image) pair, one midpoint kernel sample on every far pair.
fn assemble_medium_2d(
    mesh: &ContourMesh,
    green: &PeriodicGreen2d,
    scheme: AssemblyScheme,
) -> MediumBlocks2d {
    assert!(
        (green.period() - mesh.period()).abs() < 1e-9 * mesh.period(),
        "Green's function period must match the contour period"
    );
    let AssemblyScheme::LocallyCorrected(policy) = scheme;
    let n = mesh.len();
    let segments = mesh.segments();
    let width = mesh.segment_width();
    let length = mesh.period();
    let near_radius_sq = (policy.radius * width) * (policy.radius * width);
    let rule = AdaptiveLineGauss::new(
        policy.order,
        NearFieldPolicy::REMAINDER_TOLERANCE,
        NearFieldPolicy::MAX_DEPTH,
    );

    let mut single = CMatrix::zeros(n, n);
    let mut double = CMatrix::zeros(n, n);
    let mut stats = AssemblyStats::default();
    for (i, si) in segments.iter().enumerate() {
        for (j, sj) in segments.iter().enumerate() {
            let dx = si.x - sj.x;
            let dz = si.z - sj.z;
            let wrap = (dx / length).round() * length;
            let dxw = dx - wrap;
            // The self entry is always corrected. The principal value of its
            // double layer over the straight tangent segment vanishes, so
            // only the smooth remainder is kept.
            let (s, d) = if i == j || dxw * dxw + dz * dz < near_radius_sq {
                corrected_entry_2d(green, si, sj, sj.x + wrap, width, &rule, &mut stats)
            } else {
                let sample = green.sample(dx, dz);
                let d = -(sample.gradient[0] * sj.normal[0] + sample.gradient[1] * sj.normal[1])
                    * (sj.jacobian * width);
                (sample.value * width, d)
            };
            single[(i, j)] = s;
            double[(i, j)] = d;
        }
    }
    MediumBlocks2d {
        single_layer: single,
        double_layer: double,
        stats,
    }
}

/// One locally corrected 2D matrix-entry pair `(S_ij, D_ij)`.
///
/// The source segment is its tangent line at the (possibly periodically
/// shifted) centre `(src_x, source.z)`:
///
/// * the `−ln R/(2π)` static part of `S` is the analytic segment log integral
///   divided by the segment Jacobian (projected measure);
/// * the static part of `D` is the signed subtended angle over `2π`;
/// * the remainders are integrated with the shared adaptive line rule, one
///   [`PeriodicGreen2d::sample`] per node; a node on top of the observation
///   point takes the regularized origin value instead.
fn corrected_entry_2d(
    green: &PeriodicGreen2d,
    observation: &Segment2d,
    source: &Segment2d,
    src_x: f64,
    width: f64,
    rule: &AdaptiveLineGauss,
    stats: &mut AssemblyStats,
) -> (c64, c64) {
    let h = 0.5 * width;
    let a = [src_x - h, source.z - source.fx * h];
    let b = [src_x + h, source.z + source.fx * h];
    let p = [observation.x, observation.z];
    let static_single = -ln_r_integral_over_segment(p, a, b) / (2.0 * PI * source.jacobian);
    let static_double = subtended_angle_of_segment(p, a, b) / (2.0 * PI);

    let normal = source.normal;
    let jacobian = source.jacobian;
    let origin_tiny = 1e-12 * width;
    let outcome = rule.integrate_pair(
        (src_x - h, src_x + h),
        static_single.abs().max(width / (2.0 * PI)),
        |x| {
            let dx = p[0] - x;
            let dz = p[1] - (source.z + source.fx * (x - src_x));
            let r = dx.hypot(dz);
            if r < origin_tiny {
                return (green.regularized_at_origin(), c64::zero());
            }
            let sample = green.sample(dx, dz);
            // The log cancellation is benign (both terms are O(ln R)), so
            // the remainder can be formed directly from the full kernel.
            let s = sample.value + c64::from_real(r.ln() / (2.0 * PI));
            // Remainder gradient: ∇_Δ(G + ln R/(2π)) = ∇_Δ G + Δ̂/(2πR).
            let gx = sample.gradient[0] + c64::from_real(dx / (2.0 * PI * r * r));
            let gz = sample.gradient[1] + c64::from_real(dz / (2.0 * PI * r * r));
            (s, -(gx * normal[0] + gz * normal[1]) * jacobian)
        },
    );
    stats.absorb(&outcome);
    (
        c64::from_real(static_single) + outcome.values.0,
        c64::from_real(static_double) + outcome.values.1,
    )
}

/// The assembled 2D SWM system.
#[derive(Debug, Clone)]
pub struct SwmSystem2d {
    /// System matrix (2N × 2N).
    pub matrix: CMatrix,
    /// Right-hand side.
    pub rhs: Vec<c64>,
    /// Number of surface unknowns N.
    pub surface_unknowns: usize,
    /// Merged integration diagnostics of both media assemblies.
    pub stats: AssemblyStats,
}

/// Assembles the full coupled 2D system.
///
/// # Panics
///
/// Panics if a kernel period does not match the contour period.
pub fn assemble_system_2d(
    mesh: &ContourMesh,
    g1: &PeriodicGreen2d,
    g2: &PeriodicGreen2d,
    beta: c64,
    k1: c64,
    scheme: AssemblyScheme,
) -> SwmSystem2d {
    let n = mesh.len();
    let m1 = assemble_medium_2d(mesh, g1, scheme);
    let m2 = assemble_medium_2d(mesh, g2, scheme);

    let mut matrix = CMatrix::zeros(2 * n, 2 * n);
    let half = c64::from_real(0.5);
    for i in 0..n {
        for j in 0..n {
            let delta_ij = if i == j { c64::one() } else { c64::zero() };
            matrix[(i, j)] = half * delta_ij - m1.double_layer[(i, j)];
            matrix[(i, n + j)] = beta * m1.single_layer[(i, j)];
            matrix[(n + i, j)] = half * delta_ij + m2.double_layer[(i, j)];
            matrix[(n + i, n + j)] = -m2.single_layer[(i, j)];
        }
    }

    let mut rhs = vec![c64::zero(); 2 * n];
    for (i, seg) in mesh.segments().iter().enumerate() {
        rhs[i] = (c64::new(0.0, -1.0) * k1 * seg.z).exp();
    }

    let mut stats = m1.stats;
    stats.merge(&m2.stats);
    SwmSystem2d {
        matrix,
        rhs,
        surface_unknowns: n,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rough_surface::Profile1d;

    #[test]
    fn flat_contour_double_layer_vanishes() {
        let mesh = ContourMesh::from_profile(&Profile1d::flat(8, 5e-6));
        let g = PeriodicGreen2d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let blocks = assemble_medium_2d(&mesh, &g, AssemblyScheme::default());
        // The exact double layer vanishes on a flat contour; the truncated
        // Kummer series leaves a residue far below anything that could
        // compete with the ½ free term of the integral equation.
        let scale = blocks.single_layer[(0, 0)].abs();
        for i in 0..8 {
            for j in 0..8 {
                assert!(
                    blocks.double_layer[(i, j)].abs() < 1e-5 * scale,
                    "D[{i}][{j}] = {}",
                    blocks.double_layer[(i, j)]
                );
            }
        }
    }

    #[test]
    fn single_layer_self_term_dominates_neighbours() {
        let profile = Profile1d::new(
            5e-6,
            (0..8)
                .map(|i| 0.3e-6 * (2.0 * std::f64::consts::PI * i as f64 / 8.0).sin())
                .collect(),
        )
        .unwrap();
        let mesh = ContourMesh::from_profile(&profile);
        let g = PeriodicGreen2d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let blocks = assemble_medium_2d(&mesh, &g, AssemblyScheme::default());
        for i in 0..8 {
            assert!(
                blocks.single_layer[(i, i)].abs() > blocks.single_layer[(i, (i + 1) % 8)].abs(),
                "row {i}"
            );
        }
    }

    #[test]
    fn corrected_scheme_treats_the_seam_like_a_direct_neighbour() {
        let mesh = ContourMesh::from_profile(&Profile1d::flat(8, 5e-6));
        let g = PeriodicGreen2d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let blocks = assemble_medium_2d(&mesh, &g, AssemblyScheme::default());
        // Segment 0's +x neighbour is 1; its seam neighbour is 7.
        let direct = blocks.single_layer[(0, 1)];
        let seam = blocks.single_layer[(0, 7)];
        assert!(
            (direct - seam).abs() < 1e-9 * direct.abs(),
            "direct {direct} vs seam {seam}"
        );
    }

    #[test]
    fn corrected_assembly_reports_adaptive_statistics() {
        let mesh = ContourMesh::from_profile(&Profile1d::flat(8, 5e-6));
        let g = PeriodicGreen2d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let blocks = assemble_medium_2d(&mesh, &g, AssemblyScheme::default());
        assert!(blocks.stats.corrected_entries >= mesh.len());
        assert!(blocks.stats.all_converged(), "{:?}", blocks.stats);
    }

    #[test]
    fn system_shape_and_rhs() {
        let mesh = ContourMesh::from_profile(&Profile1d::flat(6, 5e-6));
        let g1 = PeriodicGreen2d::new(c64::new(200.0, 0.0), 5e-6);
        let g2 = PeriodicGreen2d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let sys = assemble_system_2d(
            &mesh,
            &g1,
            &g2,
            c64::new(0.0, -1e-8),
            c64::new(200.0, 0.0),
            AssemblyScheme::default(),
        );
        assert_eq!(sys.matrix.rows(), 12);
        assert_eq!(sys.rhs.len(), 12);
        assert_eq!(sys.surface_unknowns, 6);
        for i in 0..6 {
            assert!((sys.rhs[i] - c64::one()).abs() < 1e-9);
            assert_eq!(sys.rhs[6 + i], c64::zero());
        }
    }
}
