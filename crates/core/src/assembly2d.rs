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
//! Like the 3D assembly, rows are independent work items:
//! [`AssemblyParallelism`] spreads them over worker threads with per-worker
//! scratch and a serial row-ordered scatter, so parallel and serial
//! assemblies are bit-identical. Under [`KernelEval::Batched`] the adaptive
//! remainder also evaluates its kernel samples in node
//! blocks ([`AdaptiveLineGauss::integrate_pair_batched`] feeding
//! [`PeriodicGreen2d::eval_batch_samples`]) instead of one scalar kernel call
//! per quadrature node.

use crate::mesh::{ContourMesh, Segment2d};
use crate::nearfield::{AssemblyScheme, AssemblyStats, KernelEval, NearFieldPolicy};
use crate::parallel::{map_rows, AssemblyParallelism};
use rough_em::green::free_space::{ln_r_integral_over_segment, subtended_angle_of_segment};
use rough_em::green::{Green2dSample, PeriodicGreen2d, Separation2d};
use rough_numerics::complex::c64;
use rough_numerics::linalg::CMatrix;
use rough_numerics::quadrature2d::{AdaptiveLineGauss, QuadScratch};
use std::f64::consts::PI;

/// Evaluates gathered far-field separations either through the batched 2D
/// kernel API or — the oracle path — one scalar sample call per entry.
fn eval_gathered_2d(
    green: &PeriodicGreen2d,
    eval: KernelEval,
    seps: &[Separation2d],
    out: &mut Vec<Green2dSample>,
) {
    out.clear();
    out.resize(seps.len(), Green2dSample::default());
    match eval {
        KernelEval::Batched => green.eval_batch_samples(seps, out),
        KernelEval::Scalar => {
            for (sep, slot) in seps.iter().zip(out.iter_mut()) {
                *slot = green.sample(sep.dx, sep.dz);
            }
        }
    }
}

/// Assembled single-layer and double-layer blocks for one medium (2D).
#[derive(Debug, Clone)]
pub struct MediumBlocks2d {
    /// Single-layer matrix `S` (N × N).
    pub single_layer: CMatrix,
    /// Double-layer matrix `D` (N × N).
    pub double_layer: CMatrix,
    /// Integration diagnostics of the adaptive near-field remainder.
    pub stats: AssemblyStats,
}

/// Assembles the 2D blocks for one medium.
///
/// # Panics
///
/// Panics if the kernel period does not match the contour period.
pub fn assemble_medium_2d(
    mesh: &ContourMesh,
    green: &PeriodicGreen2d,
    scheme: AssemblyScheme,
) -> MediumBlocks2d {
    assemble_medium_2d_with(
        mesh,
        green,
        scheme,
        KernelEval::default(),
        AssemblyParallelism::default(),
    )
}

/// Assembles the 2D blocks with explicit kernel evaluation and parallelism
/// strategies.
///
/// [`KernelEval::Batched`] (the [`assemble_medium_2d`] default) gathers the
/// far-field separations of every matrix row — and the node blocks of the
/// adaptive near-field remainder — into
/// blocked [`PeriodicGreen2d::eval_batch_samples`] calls;
/// [`KernelEval::Scalar`] evaluates the same points per entry and is the
/// equivalence oracle. `parallelism` spreads the rows over worker threads
/// with a bit-identical-to-serial guarantee.
///
/// # Panics
///
/// Panics if the kernel period does not match the contour period.
pub fn assemble_medium_2d_with(
    mesh: &ContourMesh,
    green: &PeriodicGreen2d,
    scheme: AssemblyScheme,
    eval: KernelEval,
    parallelism: AssemblyParallelism,
) -> MediumBlocks2d {
    assert!(
        (green.period() - mesh.period()).abs() < 1e-9 * mesh.period(),
        "Green's function period must match the contour period"
    );
    let AssemblyScheme::LocallyCorrected(policy) = scheme;
    assemble_medium_2d_corrected(mesh, green, policy, eval, parallelism)
}

/// Row-local buffers of the 2D assembly, one per worker.
#[derive(Default)]
struct Scratch2d {
    far_js: Vec<usize>,
    far_seps: Vec<Separation2d>,
    far_out: Vec<Green2dSample>,
    quad: QuadScratch,
    node_seps: Vec<Separation2d>,
    node_out: Vec<Green2dSample>,
}

/// The computed entries of one 2D row panel (each row owns its matrix row).
struct Row2d {
    /// `(j, S_ij, D_ij)` in classification order.
    entries: Vec<(usize, c64, c64)>,
    stats: AssemblyStats,
}

/// Locally corrected 2D assembly: analytic `ln R` extraction plus adaptive
/// quadrature of the smooth remainder on every near (minimum-image) pair,
/// with the far-field midpoint samples gathered into blocked row panels.
fn assemble_medium_2d_corrected(
    mesh: &ContourMesh,
    green: &PeriodicGreen2d,
    policy: NearFieldPolicy,
    eval: KernelEval,
    parallelism: AssemblyParallelism,
) -> MediumBlocks2d {
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

    let rows = map_rows(
        n,
        parallelism.worker_count(),
        Scratch2d::default,
        |i, scratch| {
            let si = segments[i];
            scratch.far_js.clear();
            scratch.far_seps.clear();
            let mut entries: Vec<(usize, c64, c64)> = Vec::with_capacity(n);
            let mut stats = AssemblyStats::default();
            for (j, sj) in segments.iter().enumerate() {
                if i == j {
                    let (s, d) = corrected_entry_2d(
                        green, &si, sj, sj.x, width, &rule, eval, scratch, &mut stats,
                    );
                    // The principal value of the double layer over the straight
                    // tangent segment vanishes; keep only the smooth remainder.
                    entries.push((i, s, d));
                    continue;
                }
                let dx = si.x - sj.x;
                let dz = si.z - sj.z;
                let wrap = (dx / length).round() * length;
                let dxw = dx - wrap;
                if dxw * dxw + dz * dz < near_radius_sq {
                    let (s, d) = corrected_entry_2d(
                        green,
                        &si,
                        sj,
                        sj.x + wrap,
                        width,
                        &rule,
                        eval,
                        scratch,
                        &mut stats,
                    );
                    entries.push((j, s, d));
                    continue;
                }
                scratch.far_js.push(j);
                scratch.far_seps.push(Separation2d::new(dx, dz));
            }

            eval_gathered_2d(green, eval, &scratch.far_seps, &mut scratch.far_out);
            for (sample, &j) in scratch.far_out.iter().zip(&scratch.far_js) {
                let sj = segments[j];
                let s = sample.value * width;
                let d = -(sample.gradient[0] * sj.normal[0] + sample.gradient[1] * sj.normal[1])
                    * (sj.jacobian * width);
                entries.push((j, s, d));
            }
            Row2d { entries, stats }
        },
    );

    scatter_rows_2d(n, rows)
}

/// Serial, row-ordered scatter of computed row panels into the matrices —
/// deterministic and race-free, so parallel assemblies are bit-identical to
/// serial ones.
fn scatter_rows_2d(n: usize, rows: Vec<Row2d>) -> MediumBlocks2d {
    let mut single = CMatrix::zeros(n, n);
    let mut double = CMatrix::zeros(n, n);
    let mut stats = AssemblyStats::default();
    for (i, row) in rows.iter().enumerate() {
        for &(j, s, d) in &row.entries {
            single[(i, j)] = s;
            double[(i, j)] = d;
        }
        stats.merge(&row.stats);
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
/// * the remainders are integrated with the shared adaptive line rule, node
///   blocks at a time: under [`KernelEval::Batched`] each block's kernel
///   samples come from one [`PeriodicGreen2d::eval_batch_samples`] call
///   (the 2D kernel *is* the expensive part of this integrand), under
///   [`KernelEval::Scalar`] from per-node [`PeriodicGreen2d::sample`] calls —
///   the oracle path, bit-identical to the historical per-point recursion.
#[allow(clippy::too_many_arguments)]
fn corrected_entry_2d(
    green: &PeriodicGreen2d,
    observation: &Segment2d,
    source: &Segment2d,
    src_x: f64,
    width: f64,
    rule: &AdaptiveLineGauss,
    eval: KernelEval,
    scratch: &mut Scratch2d,
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
    // Split borrows: the quadrature arena and the kernel node buffers are
    // disjoint fields of the worker scratch.
    let Scratch2d {
        quad,
        node_seps,
        node_out,
        ..
    } = scratch;
    let outcome = rule.integrate_pair_batched(
        (src_x - h, src_x + h),
        static_single.abs().max(width / (2.0 * PI)),
        quad,
        |xs, out| {
            node_seps.clear();
            for &x in xs {
                let zs = source.z + source.fx * (x - src_x);
                node_seps.push(Separation2d::new(p[0] - x, p[1] - zs));
            }
            node_out.clear();
            node_out.resize(node_seps.len(), Green2dSample::default());
            match eval {
                KernelEval::Batched => {
                    // A node on top of the source centre would be a lattice
                    // point for the batch evaluator; integrate it as the
                    // regularized origin value below instead.
                    let safe = node_seps
                        .iter()
                        .all(|sep| sep.dx.hypot(sep.dz) >= origin_tiny);
                    if safe {
                        green.eval_batch_samples(node_seps, node_out);
                    } else {
                        for (sep, slot) in node_seps.iter().zip(node_out.iter_mut()) {
                            if sep.dx.hypot(sep.dz) >= origin_tiny {
                                *slot = green.sample(sep.dx, sep.dz);
                            }
                        }
                    }
                }
                KernelEval::Scalar => {
                    for (sep, slot) in node_seps.iter().zip(node_out.iter_mut()) {
                        if sep.dx.hypot(sep.dz) >= origin_tiny {
                            *slot = green.sample(sep.dx, sep.dz);
                        }
                    }
                }
            }
            for ((sep, sample), slot) in node_seps.iter().zip(node_out.iter()).zip(out.iter_mut()) {
                let r = sep.dx.hypot(sep.dz);
                if r < origin_tiny {
                    *slot = (green.regularized_at_origin(), c64::zero());
                    continue;
                }
                // The log cancellation is benign (both terms are O(ln R)), so
                // the remainder can be formed directly from the full kernel.
                let s = sample.value + c64::from_real(r.ln() / (2.0 * PI));
                // Remainder gradient: ∇_Δ(G + ln R/(2π)) = ∇_Δ G + Δ̂/(2πR).
                let gx = sample.gradient[0] + c64::from_real(sep.dx / (2.0 * PI * r * r));
                let gz = sample.gradient[1] + c64::from_real(sep.dz / (2.0 * PI * r * r));
                let d = -(gx * normal[0] + gz * normal[1]) * jacobian;
                *slot = (s, d);
            }
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
pub fn assemble_system_2d(
    mesh: &ContourMesh,
    g1: &PeriodicGreen2d,
    g2: &PeriodicGreen2d,
    beta: c64,
    k1: c64,
    scheme: AssemblyScheme,
) -> SwmSystem2d {
    assemble_system_2d_with(
        mesh,
        g1,
        g2,
        beta,
        k1,
        scheme,
        KernelEval::default(),
        AssemblyParallelism::default(),
    )
}

/// Assembles the full coupled 2D system with explicit kernel evaluation and
/// parallelism strategies (see [`assemble_medium_2d_with`]).
#[allow(clippy::too_many_arguments)]
pub fn assemble_system_2d_with(
    mesh: &ContourMesh,
    g1: &PeriodicGreen2d,
    g2: &PeriodicGreen2d,
    beta: c64,
    k1: c64,
    scheme: AssemblyScheme,
    eval: KernelEval,
    parallelism: AssemblyParallelism,
) -> SwmSystem2d {
    let n = mesh.len();
    let m1 = assemble_medium_2d_with(mesh, g1, scheme, eval, parallelism);
    let m2 = assemble_medium_2d_with(mesh, g2, scheme, eval, parallelism);

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
    fn batched_and_scalar_assembly_agree() {
        let profile = Profile1d::new(
            5e-6,
            (0..10)
                .map(|i| 0.3e-6 * (2.0 * std::f64::consts::PI * i as f64 / 10.0).sin())
                .collect(),
        )
        .unwrap();
        let mesh = ContourMesh::from_profile(&profile);
        let scheme = AssemblyScheme::default();
        for &k in &[c64::new(1.0e6, 1.0e6), c64::new(2.0e5, 0.0)] {
            let g = PeriodicGreen2d::new(k, 5e-6);
            let scalar = assemble_medium_2d_with(
                &mesh,
                &g,
                scheme,
                KernelEval::Scalar,
                AssemblyParallelism::Serial,
            );
            let batched = assemble_medium_2d_with(
                &mesh,
                &g,
                scheme,
                KernelEval::Batched,
                AssemblyParallelism::Serial,
            );
            let mut scale = 0.0f64;
            for i in 0..mesh.len() {
                for j in 0..mesh.len() {
                    scale = scale
                        .max(scalar.single_layer[(i, j)].abs())
                        .max(scalar.double_layer[(i, j)].abs());
                }
            }
            for i in 0..mesh.len() {
                for j in 0..mesh.len() {
                    let (a, b) = (scalar.single_layer[(i, j)], batched.single_layer[(i, j)]);
                    assert!(
                        (a - b).abs() <= 1e-12 * (scale + a.abs()),
                        "k = {k}: S[{i}][{j}]: {a} vs {b}"
                    );
                    let (a, b) = (scalar.double_layer[(i, j)], batched.double_layer[(i, j)]);
                    assert!(
                        (a - b).abs() <= 1e-12 * (scale + a.abs()),
                        "k = {k}: D[{i}][{j}]: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_assembly_is_bit_identical_across_thread_counts() {
        let profile = Profile1d::new(
            5e-6,
            (0..10)
                .map(|i| 0.3e-6 * (2.0 * std::f64::consts::PI * i as f64 / 10.0).sin())
                .collect(),
        )
        .unwrap();
        let mesh = ContourMesh::from_profile(&profile);
        let g = PeriodicGreen2d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let scheme = AssemblyScheme::default();
        for eval in [KernelEval::Batched, KernelEval::Scalar] {
            let serial =
                assemble_medium_2d_with(&mesh, &g, scheme, eval, AssemblyParallelism::Serial);
            for threads in [1usize, 2, 4, 8] {
                let parallel = assemble_medium_2d_with(
                    &mesh,
                    &g,
                    scheme,
                    eval,
                    AssemblyParallelism::workers(threads),
                );
                for i in 0..mesh.len() {
                    for j in 0..mesh.len() {
                        let (a, b) = (serial.single_layer[(i, j)], parallel.single_layer[(i, j)]);
                        assert_eq!(
                            (a.re.to_bits(), a.im.to_bits()),
                            (b.re.to_bits(), b.im.to_bits()),
                            "{eval:?} S[{i}][{j}] at {threads} threads"
                        );
                        let (a, b) = (serial.double_layer[(i, j)], parallel.double_layer[(i, j)]);
                        assert_eq!(
                            (a.re.to_bits(), a.im.to_bits()),
                            (b.re.to_bits(), b.im.to_bits()),
                            "{eval:?} D[{i}][{j}] at {threads} threads"
                        );
                    }
                }
                assert_eq!(parallel.stats, serial.stats);
            }
        }
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
