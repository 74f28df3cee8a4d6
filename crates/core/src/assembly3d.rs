//! Assembly of the 3D SWM method-of-moments system.
//!
//! Discretizing the coupled surface integral equations (paper eq. (7)) with
//! pulse basis functions on the projected cells and point matching at the cell
//! centres gives the block system of paper eq. (9):
//!
//! ```text
//! [ ½I − D₁    β·S₁ ] [Ψ]   [Ψ_inc]
//! [ ½I + D₂   −S₂   ] [U] = [  0  ]
//! ```
//!
//! with the single-layer and double-layer interaction blocks
//!
//! ```text
//! S_ij = ∫_cell_j G_p(r_i, r') dx'dy'
//! D_ij = ∫_cell_j ∂G_p/∂n'(r_i, r')·J(r') dx'dy'
//! ```
//!
//! The free terms are `½` (the standard double-layer jump for a smooth
//! surface); the paper absorbs them differently but the flat-patch validation
//! in `swm3d.rs` pins the convention against the analytic Fresnel solution.
//!
//! The singular (self) and near-singular (neighbour) entries are locally
//! corrected ([`AssemblyScheme::LocallyCorrected`]): the `1/(4πR)` static
//! part is integrated *analytically* over the exact tangent-plane cell
//! parallelogram (Wilton polygon potential for `S`, signed solid angle for
//! `D`), and the smooth remainder `G_p − 1/(4πR)` is integrated with adaptive
//! tensor Gauss–Legendre quadrature, for every source cell within
//! [`NearFieldPolicy::radius`] cell sizes (minimum-image distance, so the
//! periodic seam is corrected too). Every other entry is one midpoint sample
//! of the periodic kernel. An entry between two exactly flat cells at the
//! same height depends only on their lattice offset, so the flat-offset table
//! integrates each such offset once and every other flat–flat pair copies it
//! (the matrix-free near precorrections read the same table).
//!
//! Orthogonal to the near-field policy, [`KernelEval`] selects how the
//! Ewald-summed kernel itself is evaluated. The default,
//! [`KernelEval::Batched`], is **blocked row-panel assembly**: for each
//! observation row, every far-field observation–source separation (and every
//! fixed-rule periodic-image quadrature point of the row's near entries) is
//! gathered into a contiguous slice, evaluated in one batched kernel call
//! ([`PeriodicGreen3d::eval_batch_samples`] /
//! [`PeriodicGreen3d::eval_batch_regularized`]), and scattered into the
//! matrix. The near-field analytic statics and the adaptive smooth-remainder
//! quadrature are untouched. [`KernelEval::Scalar`] evaluates the identical
//! points one kernel call at a time and serves as the equivalence oracle
//! (agreement ≤ 1e-12 relative) and the benchmark baseline.
//!
//! Orthogonal to *both*, [`AssemblyParallelism`] spreads the row panels over
//! worker threads: rows are independent work items (each gathers, evaluates
//! and combines only its own kernel samples), computed with per-worker scratch
//! through [`crate::parallel::map_rows`] and scattered serially in row order —
//! so a parallel assembly is **bit-identical** to the serial one at any
//! thread count (pinned by tests at 1/2/4/8 threads for both kernel paths).

use crate::mesh::{Cell3d, PatchMesh};
use crate::nearfield::{AssemblyScheme, AssemblyStats, KernelEval, NearFieldPolicy};
use crate::parallel::{map_rows, AssemblyParallelism};
use rough_em::green::free_space::{
    inverse_r_integral_over_planar_polygon, smooth_kernel_3d_with_derivative,
    solid_angle_of_planar_polygon,
};
use rough_em::green::{GreenSample, PeriodicGreen3d, SeparationVector};
use rough_numerics::complex::c64;
use rough_numerics::linalg::CMatrix;
use rough_numerics::quadrature::{gauss_legendre_on, QuadratureRule};
use rough_numerics::quadrature2d::{AdaptiveTensorGauss, QuadScratch};
use std::f64::consts::PI;

#[cfg(test)]
thread_local! {
    static PER_PAIR: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every [`FlatOffsetTable`] it builds left empty, so each
/// near entry is integrated for its own pair: the oracle the table is tested
/// against.
#[cfg(test)]
pub(crate) fn per_pair<T>(f: impl FnOnce() -> T) -> T {
    PER_PAIR.with(|flag| flag.set(true));
    let out = f();
    PER_PAIR.with(|flag| flag.set(false));
    out
}

/// Evaluates gathered separations either through the batched kernel API or —
/// the oracle path — one scalar [`PeriodicGreen3d::sample`] call per entry.
pub(crate) fn eval_gathered(
    green: &PeriodicGreen3d,
    eval: KernelEval,
    seps: &[SeparationVector],
    out: &mut Vec<GreenSample>,
) {
    out.clear();
    out.resize(seps.len(), GreenSample::default());
    match eval {
        KernelEval::Batched => green.eval_batch_samples(seps, out),
        KernelEval::Scalar => {
            for (sep, slot) in seps.iter().zip(out.iter_mut()) {
                *slot = green.sample(sep.dx, sep.dy, sep.dz);
            }
        }
    }
}

/// Evaluates gathered separations of the regularized kernel (periodic-image
/// part of the corrected near field), batched or per-entry.
pub(crate) fn eval_gathered_regularized(
    green: &PeriodicGreen3d,
    eval: KernelEval,
    seps: &[SeparationVector],
    out: &mut Vec<GreenSample>,
) {
    out.clear();
    out.resize(seps.len(), GreenSample::default());
    match eval {
        KernelEval::Batched => green.eval_batch_regularized(seps, out),
        KernelEval::Scalar => {
            for (sep, slot) in seps.iter().zip(out.iter_mut()) {
                *slot = green.regularized(sep.dx, sep.dy, sep.dz);
            }
        }
    }
}

/// The assembled MOM operator blocks for one medium.
#[derive(Debug, Clone)]
pub struct MediumBlocks {
    /// Single-layer interaction matrix `S` (N × N).
    pub single_layer: CMatrix,
    /// Double-layer interaction matrix `D` (N × N).
    pub double_layer: CMatrix,
    /// Integration diagnostics of this assembly (adaptive-quadrature panel
    /// counts, reused flat-offset entries and depth-cap hits).
    pub stats: AssemblyStats,
}

/// Assembles the single- and double-layer blocks for one medium.
///
/// `green` must be the doubly-periodic kernel of that medium with the same
/// period as the mesh patch.
///
/// # Panics
///
/// Panics if the kernel period does not match the mesh patch length.
pub fn assemble_medium(
    mesh: &PatchMesh,
    green: &PeriodicGreen3d,
    scheme: AssemblyScheme,
) -> MediumBlocks {
    assemble_medium_with(
        mesh,
        green,
        scheme,
        KernelEval::default(),
        AssemblyParallelism::default(),
    )
}

/// Assembles the single- and double-layer blocks with explicit kernel
/// evaluation and parallelism strategies.
///
/// [`KernelEval::Batched`] (what [`assemble_medium`] uses) gathers the
/// far-field separations of every matrix row into one blocked kernel call;
/// [`KernelEval::Scalar`] evaluates the same points one scalar kernel call at
/// a time and is kept as the equivalence oracle and benchmark baseline. The
/// two agree to ≤ 1e-12 relative on every entry.
///
/// `parallelism` spreads the row panels over worker threads; the result is
/// bit-identical at any thread count (rows are independent and the scatter is
/// serial in row order).
///
/// # Panics
///
/// Panics if the kernel period does not match the mesh patch length.
pub fn assemble_medium_with(
    mesh: &PatchMesh,
    green: &PeriodicGreen3d,
    scheme: AssemblyScheme,
    eval: KernelEval,
    parallelism: AssemblyParallelism,
) -> MediumBlocks {
    assert!(
        (green.period() - mesh.patch_length()).abs() < 1e-9 * mesh.patch_length(),
        "Green's function period must match the mesh patch length"
    );
    let AssemblyScheme::LocallyCorrected(policy) = scheme;
    assemble_medium_corrected(mesh, green, policy, eval, parallelism)
}

/// One near entry of a corrected row panel: the source column, the
/// (possibly periodically shifted) source-cell centre, and the entry itself
/// when the flat-offset table already holds it.
struct NearEntry {
    j: usize,
    src_x: f64,
    src_y: f64,
    reused: Option<(c64, c64)>,
}

/// Row-local buffers of the corrected scheme, one per worker: kernel
/// gather/evaluate slices plus the adaptive-quadrature node arena.
#[derive(Default)]
struct CorrectedScratch {
    far_js: Vec<usize>,
    far_seps: Vec<SeparationVector>,
    far_out: Vec<GreenSample>,
    near_entries: Vec<NearEntry>,
    image_seps: Vec<SeparationVector>,
    image_out: Vec<GreenSample>,
    quad: QuadScratch,
}

/// The computed entries of one corrected row panel (`(j, S_ij, D_ij)`; the
/// corrected scheme integrates each direction from its own side, so a row
/// owns exactly its own matrix row).
struct CorrectedRow {
    far: Vec<(usize, c64, c64)>,
    near: Vec<(usize, c64, c64)>,
    stats: AssemblyStats,
}

/// Locally corrected assembly: analytic static extraction plus adaptive
/// quadrature of the smooth remainder on every near (minimum-image) pair.
///
/// Blocked row panels: per observation row, the far-field midpoint
/// separations *and* the fixed-rule periodic-image quadrature points of every
/// near entry are gathered into contiguous slices, evaluated in one batched
/// kernel call each, and scattered back — the analytic statics and the
/// (kernel-free) adaptive remainder quadrature of the near entries are
/// untouched. Near entries between exactly flat cells at the same height are
/// read from the [`FlatOffsetTable`] instead.
fn assemble_medium_corrected(
    mesh: &PatchMesh,
    green: &PeriodicGreen3d,
    policy: NearFieldPolicy,
    eval: KernelEval,
    parallelism: AssemblyParallelism,
) -> MediumBlocks {
    let n = mesh.len();
    let cells = mesh.cells();
    let area = mesh.cell_area();
    let delta = mesh.cell_size();
    let length = mesh.patch_length();
    let near_radius_sq = (policy.radius * delta) * (policy.radius * delta);
    let rule = NearRules::for_policy(policy);
    let image_points = rule.image.len() * rule.image.len();
    let flat = FlatOffsetTable::build(mesh, green, policy, &rule, eval);

    let rows = map_rows(
        n,
        parallelism.worker_count(),
        CorrectedScratch::default,
        |i, scratch| {
            let ci = cells[i];
            let mut stats = AssemblyStats::default();
            scratch.far_js.clear();
            scratch.far_seps.clear();
            scratch.near_entries.clear();
            scratch.image_seps.clear();
            for (j, cj) in cells.iter().enumerate() {
                let dx = ci.x - cj.x;
                let dy = ci.y - cj.y;
                let dz = ci.z - cj.z;
                // Minimum-image separation: cells adjacent across the periodic
                // seam are genuine near neighbours of the kernel's nearest
                // image. The self pair has zero separation and no shift.
                let wrap_x = (dx / length).round() * length;
                let wrap_y = (dy / length).round() * length;
                let dxw = dx - wrap_x;
                let dyw = dy - wrap_y;
                let r2 = dxw * dxw + dyw * dyw + dz * dz;

                if r2 < near_radius_sq {
                    let (src_x, src_y) = (cj.x + wrap_x, cj.y + wrap_y);
                    let reused = flat.lookup(i, j, &ci, cj, [dxw, dyw], &mut stats);
                    if reused.is_none() {
                        gather_image_points(
                            &rule.image,
                            &ci,
                            cj,
                            src_x,
                            src_y,
                            delta,
                            &mut scratch.image_seps,
                        );
                    }
                    scratch.near_entries.push(NearEntry {
                        j,
                        src_x,
                        src_y,
                        reused,
                    });
                } else {
                    scratch.far_js.push(j);
                    scratch.far_seps.push(SeparationVector::new(dx, dy, dz));
                }
            }

            eval_gathered(green, eval, &scratch.far_seps, &mut scratch.far_out);
            eval_gathered_regularized(green, eval, &scratch.image_seps, &mut scratch.image_out);

            let mut far = Vec::with_capacity(scratch.far_js.len());
            for (sample, &j) in scratch.far_out.iter().zip(&scratch.far_js) {
                let cj = cells[j];
                let s = sample.value * area;
                let grad = sample.gradient;
                let d = -(grad[0] * cj.normal[0] + grad[1] * cj.normal[1] + grad[2] * cj.normal[2])
                    * (cj.jacobian * area);
                far.push((j, s, d));
            }
            let mut near = Vec::with_capacity(scratch.near_entries.len());
            let mut image_cursor = 0;
            for entry in &scratch.near_entries {
                let (s, d) = match entry.reused {
                    Some(exact) => exact,
                    None => {
                        let images = &scratch.image_out
                            [image_points * image_cursor..image_points * (image_cursor + 1)];
                        image_cursor += 1;
                        corrected_entry(
                            green,
                            &ci,
                            &cells[entry.j],
                            entry.src_x,
                            entry.src_y,
                            delta,
                            &rule,
                            images,
                            &mut scratch.quad,
                            &mut stats,
                        )
                    }
                };
                near.push((entry.j, s, d));
            }
            CorrectedRow { far, near, stats }
        },
    );

    // Serial scatter in row order; each row owns exactly its own matrix row.
    let mut single = CMatrix::zeros(n, n);
    let mut double = CMatrix::zeros(n, n);
    let mut stats = flat.stats;
    for (i, row) in rows.iter().enumerate() {
        for &(j, s, d) in &row.far {
            single[(i, j)] = s;
            double[(i, j)] = d;
        }
        for &(j, s, d) in &row.near {
            single[(i, j)] = s;
            double[(i, j)] = d;
        }
        stats.merge(&row.stats);
    }

    MediumBlocks {
        single_layer: single,
        double_layer: double,
        stats,
    }
}

/// Quadrature rules shared by every corrected near-field entry of one
/// assembly: the adaptive rule for the rapidly varying (but cheap) free-space
/// remainder, and a fixed 3 × 3 rule (on `[-1/2, 1/2]`, scaled per cell) for
/// the smooth — but Ewald-sum-expensive — periodic-image part.
pub(crate) struct NearRules {
    pub(crate) adaptive: AdaptiveTensorGauss,
    pub(crate) image: rough_numerics::quadrature::QuadratureRule,
}

impl NearRules {
    /// The quadrature rules the corrected scheme uses for `policy` — shared
    /// with the matrix-free near-field precorrection so both paths integrate
    /// near entries identically.
    pub(crate) fn for_policy(policy: NearFieldPolicy) -> Self {
        Self {
            adaptive: AdaptiveTensorGauss::new(
                policy.order,
                NearFieldPolicy::REMAINDER_TOLERANCE,
                NearFieldPolicy::MAX_DEPTH,
            ),
            image: gauss_legendre_on(3, -0.5, 0.5),
        }
    }
}

/// Gathers the fixed-rule periodic-image quadrature separations of one
/// corrected near entry, in the exact nested order
/// [`corrected_entry`] consumes them.
pub(crate) fn gather_image_points(
    rule: &QuadratureRule,
    observation: &Cell3d,
    source: &Cell3d,
    src_x: f64,
    src_y: f64,
    delta: f64,
    out: &mut Vec<SeparationVector>,
) {
    let p = [observation.x, observation.y, observation.z];
    for (qx, _) in rule.iter() {
        for (qy, _) in rule.iter() {
            let xs = src_x + qx * delta;
            let ys = src_y + qy * delta;
            let zs = source.z + source.fx * (xs - src_x) + source.fy * (ys - src_y);
            out.push(SeparationVector::new(p[0] - xs, p[1] - ys, p[2] - zs));
        }
    }
}

/// The flat-offset table of one medium and one mesh: the exact locally
/// corrected `(S, D)` of the near pairs between two exactly flat cells
/// (`fx == fy == 0`) at the same height, one per in-plane minimum-image
/// lattice offset within [`NearFieldPolicy::radius`].
///
/// The periodic kernel is translation invariant and a flat cell is its own
/// tangent plane, so such an entry depends only on the offset. Each offset
/// is integrated once, for the first pair in row-major order that has it,
/// through the same [`gather_image_points`] → regularized kernel (under the
/// configured [`KernelEval`]) → [`corrected_entry`] path as any other near
/// entry; every other pair with that offset copies it. The table is built
/// serially before the row-parallel pass, so the assembly stays
/// bit-identical at any thread count, and finding the representative pairs
/// visits one offset stencil per flat cell, `O(stencil × N)`. The dense
/// corrected assembly and the matrix-free near precorrections both read it.
pub(crate) struct FlatOffsetTable {
    /// Offsets span `-reach..=reach` cells along each axis.
    reach: isize,
    /// Cell size Δ, the unit of the offsets.
    delta: f64,
    /// One slot per offset, `(oy, ox)` row-major; `None` where no flat pair
    /// has that offset.
    slots: Vec<Option<FlatEntry>>,
    /// The integrations that filled the table.
    pub(crate) stats: AssemblyStats,
}

/// One integrated flat-offset entry and the pair it was integrated for.
#[derive(Clone, Copy)]
struct FlatEntry {
    first: (usize, usize),
    exact: (c64, c64),
}

/// Whether a cell is exactly flat (zero slope along both axes).
fn is_flat(cell: &Cell3d) -> bool {
    cell.fx == 0.0 && cell.fy == 0.0
}

impl FlatOffsetTable {
    /// Integrates every flat-cell lattice offset of `mesh` that some near
    /// pair has, with the kernel of one medium.
    pub(crate) fn build(
        mesh: &PatchMesh,
        green: &PeriodicGreen3d,
        policy: NearFieldPolicy,
        rule: &NearRules,
        eval: KernelEval,
    ) -> Self {
        let reach = policy.radius.ceil() as isize;
        let width = (2 * reach + 1) as usize;
        let mut table = Self {
            reach,
            delta: mesh.cell_size(),
            slots: vec![None; width * width],
            stats: AssemblyStats::default(),
        };
        #[cfg(test)]
        if PER_PAIR.with(std::cell::Cell::get) {
            return table;
        }

        // The first pair of each offset: flat observation cells in row-major
        // order, each visiting its offset stencil. Within one row every
        // offset names a distinct source cell, so the first row that reaches
        // an offset holds its first pair.
        let side = mesh.cells_per_side() as isize;
        let cells = mesh.cells();
        let length = mesh.patch_length();
        let delta = table.delta;
        let near_radius_sq = (policy.radius * delta) * (policy.radius * delta);
        let mut firsts: Vec<Option<(usize, usize, f64, f64)>> = vec![None; width * width];
        for (i, ci) in cells.iter().enumerate() {
            if !is_flat(ci) {
                continue;
            }
            let (ix, iy) = (i as isize % side, i as isize / side);
            for oy in -reach..=reach {
                for ox in -reach..=reach {
                    let j =
                        ((iy - oy).rem_euclid(side) * side + (ix - ox).rem_euclid(side)) as usize;
                    let cj = &cells[j];
                    // The same minimum-image classification as the rows.
                    let wrap_x = ((ci.x - cj.x) / length).round() * length;
                    let wrap_y = ((ci.y - cj.y) / length).round() * length;
                    let dxw = ci.x - cj.x - wrap_x;
                    let dyw = ci.y - cj.y - wrap_y;
                    if dxw * dxw + dyw * dyw >= near_radius_sq {
                        continue;
                    }
                    if let Some(slot) = table.slot(ci, cj, [dxw, dyw]) {
                        firsts[slot].get_or_insert((i, j, cj.x + wrap_x, cj.y + wrap_y));
                    }
                }
            }
        }

        let image_points = rule.image.len() * rule.image.len();
        let mut seps = Vec::new();
        for &(i, j, src_x, src_y) in firsts.iter().flatten() {
            gather_image_points(
                &rule.image,
                &cells[i],
                &cells[j],
                src_x,
                src_y,
                delta,
                &mut seps,
            );
        }
        let mut samples = Vec::new();
        eval_gathered_regularized(green, eval, &seps, &mut samples);
        let mut quad = QuadScratch::default();
        let mut images = samples.chunks_exact(image_points);
        for (slot, first) in table.slots.iter_mut().zip(&firsts) {
            if let &Some((i, j, src_x, src_y)) = first {
                let exact = corrected_entry(
                    green,
                    &cells[i],
                    &cells[j],
                    src_x,
                    src_y,
                    delta,
                    rule,
                    images.next().expect("one image block per first pair"),
                    &mut quad,
                    &mut table.stats,
                );
                *slot = Some(FlatEntry {
                    first: (i, j),
                    exact,
                });
            }
        }
        table
    }

    /// The slot of a pair with wrapped in-plane separation `separation`,
    /// when both cells are exactly flat at the same height.
    fn slot(&self, observation: &Cell3d, source: &Cell3d, separation: [f64; 2]) -> Option<usize> {
        if !(is_flat(observation) && is_flat(source) && observation.z == source.z) {
            return None;
        }
        let ox = (separation[0] / self.delta).round() as isize;
        let oy = (separation[1] / self.delta).round() as isize;
        if ox.abs() > self.reach || oy.abs() > self.reach {
            return None;
        }
        Some(((oy + self.reach) * (2 * self.reach + 1) + ox + self.reach) as usize)
    }

    /// The table's `(S, D)` for the near pair `(i, j)` with wrapped in-plane
    /// separation `separation`, or `None` when the pair is not flat–flat at
    /// equal height. A hit on any pair but the one its offset was integrated
    /// for counts in `stats.reused_entries`.
    pub(crate) fn lookup(
        &self,
        i: usize,
        j: usize,
        observation: &Cell3d,
        source: &Cell3d,
        separation: [f64; 2],
        stats: &mut AssemblyStats,
    ) -> Option<(c64, c64)> {
        let entry = self.slots[self.slot(observation, source, separation)?]?;
        if entry.first != (i, j) {
            stats.reused_entries += 1;
        }
        Some(entry.exact)
    }
}

/// One locally corrected matrix-entry pair `(S_ij, D_ij)`.
///
/// The source cell is represented by its tangent plane at the (possibly
/// periodically shifted) centre `(src_x, src_y, source.z)`, and the kernel is
/// split as `G_p = 1/(4πR) + (e^{jkR} − 1)/(4πR) + regularized`:
///
/// * the `1/(4πR)` static part of `S` is the analytic Wilton potential of the
///   cell parallelogram divided by `4π J` (projected measure), and the static
///   part of `D` is the signed solid angle of the parallelogram over `4π`;
/// * the free-space smooth part still varies strongly across near cells once
///   `|k|Δ ≳ 1` (the conductor side below skin depth) but costs one complex
///   exponential per point — it gets the adaptive rule, evaluated over whole
///   node blocks ([`AdaptiveTensorGauss::integrate_pair_batched`]) with the
///   fused value/derivative kernel so the `exp` work is shared;
/// * the periodic-image (`regularized`) part is analytic on the scale of the
///   patch period, so a fixed 3 × 3 rule integrates it to far below the
///   remainder tolerance; its kernel samples arrive pre-evaluated in
///   `image_samples` ([`gather_image_points`] order), so the row panel can
///   batch them together with the far field.
///
/// The adaptive outcome (panel count, depth-cap hits, achieved error) is
/// absorbed into `stats` so callers can see when the depth cap truncated the
/// refinement instead of silently accepting the result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn corrected_entry(
    green: &PeriodicGreen3d,
    observation: &Cell3d,
    source: &Cell3d,
    src_x: f64,
    src_y: f64,
    delta: f64,
    rule: &NearRules,
    image_samples: &[GreenSample],
    quad: &mut QuadScratch,
    stats: &mut AssemblyStats,
) -> (c64, c64) {
    let h = 0.5 * delta;
    let vertices = [
        [
            src_x - h,
            src_y - h,
            source.z - source.fx * h - source.fy * h,
        ],
        [
            src_x + h,
            src_y - h,
            source.z + source.fx * h - source.fy * h,
        ],
        [
            src_x + h,
            src_y + h,
            source.z + source.fx * h + source.fy * h,
        ],
        [
            src_x - h,
            src_y + h,
            source.z - source.fx * h + source.fy * h,
        ],
    ];
    let p = [observation.x, observation.y, observation.z];
    let static_single =
        inverse_r_integral_over_planar_polygon(p, &vertices) / (4.0 * PI * source.jacobian);
    let static_double = solid_angle_of_planar_polygon(p, &vertices) / (4.0 * PI);

    let k = green.wavenumber();
    let normal = source.normal;
    let jacobian = source.jacobian;
    let origin_tiny = 1e-12 * delta;

    // Periodic-image part on the fixed rule (tangent-plane lift), consuming
    // the pre-evaluated regularized samples in gather order.
    let mut image_single = c64::zero();
    let mut image_double = c64::zero();
    let mut image_index = 0;
    for (_, wx) in rule.image.iter() {
        for (_, wy) in rule.image.iter() {
            let regular = &image_samples[image_index];
            image_index += 1;
            let w = wx * wy * delta * delta;
            image_single += regular.value * w;
            image_double += -(regular.gradient[0] * normal[0]
                + regular.gradient[1] * normal[1]
                + regular.gradient[2] * normal[2])
                * (jacobian * w);
        }
    }

    // Free-space smooth part on the adaptive rule, whole node blocks at a
    // time (cheap per-point evaluations, call overhead amortized).
    let outcome = rule.adaptive.integrate_pair_batched(
        (src_x - h, src_x + h),
        (src_y - h, src_y + h),
        static_single,
        quad,
        |xs, ys, out| {
            for ((&x, &y), slot) in xs.iter().zip(ys.iter()).zip(out.iter_mut()) {
                let zs = source.z + source.fx * (x - src_x) + source.fy * (y - src_y);
                let dx = p[0] - x;
                let dy = p[1] - y;
                let dz = p[2] - zs;
                let r = (dx * dx + dy * dy + dz * dz).sqrt();
                if r < origin_tiny {
                    *slot = (smooth_kernel_3d_with_derivative(k, 0.0).0, c64::zero());
                    continue;
                }
                let (s, smooth_radial) = smooth_kernel_3d_with_derivative(k, r);
                let along_normal = (dx * normal[0] + dy * normal[1] + dz * normal[2]) / r;
                let d = -smooth_radial * (along_normal * jacobian);
                *slot = (s, d);
            }
        },
    );
    stats.absorb(&outcome);
    (
        c64::from_real(static_single) + image_single + outcome.values.0,
        c64::from_real(static_double) + image_double + outcome.values.1,
    )
}

/// The full `2N × 2N` SWM system matrix and the incident-field right-hand side.
#[derive(Debug, Clone)]
pub struct SwmSystem {
    /// System matrix of paper eq. (9).
    pub matrix: CMatrix,
    /// Right-hand side (incident field on the upper block, zeros below).
    pub rhs: Vec<c64>,
    /// Number of surface unknowns N (the system order is 2N).
    pub surface_unknowns: usize,
    /// Merged integration diagnostics of both media assemblies.
    pub stats: AssemblyStats,
}

/// Assembles the full coupled system.
///
/// * `g1`, `g2` — periodic kernels of the dielectric (medium 1) and conductor
///   (medium 2);
/// * `beta` — the boundary-condition contrast `β = ε₁/ε₂`;
/// * `k1` — dielectric wavenumber used for the normally incident plane wave
///   `ψ_inc = e^{−j k₁ z}` evaluated on the surface;
/// * `scheme` — how the singular and near-singular entries are integrated.
pub fn assemble_system(
    mesh: &PatchMesh,
    g1: &PeriodicGreen3d,
    g2: &PeriodicGreen3d,
    beta: c64,
    k1: c64,
    scheme: AssemblyScheme,
) -> SwmSystem {
    assemble_system_with(
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

/// Assembles the full coupled system with explicit kernel evaluation and
/// parallelism strategies (see [`assemble_medium_with`]).
#[allow(clippy::too_many_arguments)]
pub fn assemble_system_with(
    mesh: &PatchMesh,
    g1: &PeriodicGreen3d,
    g2: &PeriodicGreen3d,
    beta: c64,
    k1: c64,
    scheme: AssemblyScheme,
    eval: KernelEval,
    parallelism: AssemblyParallelism,
) -> SwmSystem {
    let n = mesh.len();
    let m1 = assemble_medium_with(mesh, g1, scheme, eval, parallelism);
    let m2 = assemble_medium_with(mesh, g2, scheme, eval, parallelism);

    let mut matrix = CMatrix::zeros(2 * n, 2 * n);
    let half = c64::from_real(0.5);
    for i in 0..n {
        for j in 0..n {
            let delta_ij = if i == j { c64::one() } else { c64::zero() };
            // Row block 1: (½I − D₁)Ψ + β S₁ U = Ψ_inc
            matrix[(i, j)] = half * delta_ij - m1.double_layer[(i, j)];
            matrix[(i, n + j)] = beta * m1.single_layer[(i, j)];
            // Row block 2: (½I + D₂)Ψ − S₂ U = 0
            matrix[(n + i, j)] = half * delta_ij + m2.double_layer[(i, j)];
            matrix[(n + i, n + j)] = -m2.single_layer[(i, j)];
        }
    }

    let mut rhs = vec![c64::zero(); 2 * n];
    for (i, cell) in mesh.cells().iter().enumerate() {
        rhs[i] = (c64::new(0.0, -1.0) * k1 * cell.z).exp();
    }

    let mut stats = m1.stats;
    stats.merge(&m2.stats);
    SwmSystem {
        matrix,
        rhs,
        surface_unknowns: n,
        stats,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rough_em::green::free_space::{inverse_r_integral_over_rectangle, smooth_part_at_origin};
    use rough_surface::RoughSurface;

    /// The Fig. 5 half-spheroid (h = 5.8 µm, base radius 4.7 µm on a 12 µm
    /// tile) scaled to a `tile`-long patch: a rough bump on an exactly flat
    /// plane, whose corner cells are flat.
    pub(crate) fn fig5_spheroid_mesh(cells: usize, tile: f64) -> PatchMesh {
        let scale = tile / 12.0e-6;
        let (height, radius) = (5.8e-6 * scale, 4.7e-6 * scale);
        PatchMesh::from_surface(&RoughSurface::from_fn(cells, tile, |x, y| {
            let (dx, dy) = (x - 0.5 * tile, y - 0.5 * tile);
            let r2 = (dx * dx + dy * dy) / (radius * radius);
            if r2 < 1.0 {
                height * (1.0 - r2).sqrt()
            } else {
                0.0
            }
        }))
    }

    /// Kernel wavenumber pairs `(tile, [k₁, k₂])` the flat-offset table is
    /// checked in: the paper stack-up on the Fig. 5 tile at 2 and 16 GHz, and
    /// the high-`|k|L` regime of the matrix-free equivalence tests.
    pub(crate) fn flat_table_regimes() -> [(f64, [c64; 2]); 3] {
        use rough_em::material::Stackup;
        use rough_em::units::{Frequency, GigaHertz};
        let stack = Stackup::paper_baseline();
        let paper = |ghz: f64| {
            let f: Frequency = GigaHertz::new(ghz).into();
            (12.0e-6, [stack.k1(f), stack.k2(f)])
        };
        [
            paper(2.0),
            paper(16.0),
            (5e-6, [c64::new(800.0, 0.0), c64::new(4.0e6, 4.0e6)]),
        ]
    }

    fn small_mesh() -> PatchMesh {
        PatchMesh::from_surface(&RoughSurface::from_fn(4, 5e-6, |x, y| {
            0.2e-6
                * ((2.0 * std::f64::consts::PI * x / 5e-6).sin()
                    + (2.0 * std::f64::consts::PI * y / 5e-6).cos())
        }))
    }

    fn max_abs(m: &CMatrix) -> f64 {
        let mut max = 0.0f64;
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                max = max.max(m[(i, j)].abs());
            }
        }
        max
    }

    #[test]
    fn single_layer_is_symmetric_and_diagonally_dominant_in_magnitude() {
        let mesh = small_mesh();
        let g2 = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let blocks = assemble_medium(&mesh, &g2, AssemblyScheme::default());
        let n = mesh.len();
        for i in 0..n {
            for j in 0..n {
                // Far pairs sample the even kernel at opposite separations and
                // are symmetric; near pairs are integrated from each side over
                // the tangent plane of their own source cell and may differ by
                // a few percent on a curved surface.
                let a = blocks.single_layer[(i, j)];
                let b = blocks.single_layer[(j, i)];
                assert!(
                    (a - b).abs() <= 0.15 * a.abs().max(b.abs()),
                    "S[{i}][{j}] vs S[{j}][{i}]: {a} vs {b}"
                );
            }
            // The singular self integral dominates neighbouring interactions.
            assert!(
                blocks.single_layer[(i, i)].abs() > blocks.single_layer[(i, (i + 1) % n)].abs()
            );
        }
    }

    #[test]
    fn double_layer_vanishes_for_flat_surface() {
        // On a flat patch every separation is horizontal and every normal is
        // vertical; the z-gradient of the periodic kernel at Δz = 0 vanishes
        // by symmetry, so the whole double-layer block must be ~0.
        let mesh = PatchMesh::from_surface(&RoughSurface::flat(4, 5e-6));
        let g = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let blocks = assemble_medium(&mesh, &g, AssemblyScheme::default());
        let scale = blocks.single_layer[(0, 0)].abs();
        for i in 0..mesh.len() {
            for j in 0..mesh.len() {
                assert!(
                    blocks.double_layer[(i, j)].abs() < 1e-10 * scale,
                    "D[{i}][{j}] = {}",
                    blocks.double_layer[(i, j)]
                );
            }
        }
    }

    #[test]
    fn self_term_scales_roughly_linearly_with_cell_size() {
        // The dominant static self integral is proportional to Δ (not Δ²).
        let g = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let self_term = |cells| {
            let mesh = PatchMesh::from_surface(&RoughSurface::flat(cells, 5e-6));
            assemble_medium(&mesh, &g, AssemblyScheme::default()).single_layer[(0, 0)].abs()
        };
        // The smooth remainder, integrated over the cell, shifts the ratio a
        // little below 2 at this lossy wavenumber.
        let ratio = self_term(4) / self_term(8);
        assert!(ratio > 1.55 && ratio < 2.4, "ratio = {ratio}");
    }

    #[test]
    fn corrected_scheme_is_near_symmetric_across_the_periodic_seam() {
        // Cells on opposite edges of the patch are adjacent through the
        // periodic boundary. The corrected scheme integrates them as near
        // neighbours of the wrapped image, so S must stay near-symmetric and
        // close to the direct-neighbour magnitude.
        let mesh = PatchMesh::from_surface(&RoughSurface::flat(6, 5e-6));
        let g = PeriodicGreen3d::new(c64::new(1.5e6, 1.5e6), 5e-6);
        let blocks = assemble_medium(&mesh, &g, AssemblyScheme::default());
        // Row 0: cell (0, 0); its +x neighbour is cell 1, its seam neighbour
        // across x is cell 5.
        let direct = blocks.single_layer[(0, 1)];
        let seam = blocks.single_layer[(0, 5)];
        assert!(
            (direct - seam).abs() < 1e-9 * direct.abs(),
            "direct {direct} vs seam {seam}"
        );
    }

    #[test]
    fn flat_self_term_matches_the_closed_form() {
        // On a flat cell the static part is the closed-form `1/R` integral
        // over the Δ × Δ square; the smooth remainder `(e^{jkR} − 1)/(4πR)`
        // and the periodic images contribute their value at the origin times
        // the cell area. The corrected scheme integrates the remainder instead
        // of sampling it once, a sub-percent difference at this low frequency.
        let mesh = PatchMesh::from_surface(&RoughSurface::flat(4, 5e-6));
        let g = PeriodicGreen3d::new(c64::new(1.0e5, 1.0e5), 5e-6);
        let delta = mesh.cell_size();
        let closed_form =
            c64::from_real(inverse_r_integral_over_rectangle(delta, delta) / (4.0 * PI))
                + (smooth_part_at_origin(g.wavenumber()) + g.regularized(0.0, 0.0, 0.0).value)
                    * (delta * delta);
        let corrected = assemble_medium(&mesh, &g, AssemblyScheme::default()).single_layer[(0, 0)];
        assert!(
            (corrected - closed_form).abs() < 1e-2 * closed_form.abs(),
            "{corrected} vs {closed_form}"
        );
    }

    #[test]
    fn batched_and_scalar_assembly_agree() {
        // The blocked row-panel path may differ from the per-entry oracle only
        // at the rounding level of the batched kernel — also
        // where the flat-offset table fires (the spheroid's flat corners).
        // Conductor-like and dielectric-like kernels, then the paper
        // stackup's own k₁ and k₂ at 16 GHz on the full-size Fig. 5 tile:
        // |k|L ≈ 33, where the conductor-side spectral series is widest.
        let scheme = AssemblyScheme::default();
        let model = [c64::new(1.0e6, 1.0e6), c64::new(2.0e5, 0.0)];
        let stack = rough_em::material::Stackup::paper_baseline();
        let f16 = rough_em::units::GigaHertz::new(16.0).into();
        let paper = [stack.k1(f16), stack.k2(f16)];
        for (mesh, ks) in [
            (small_mesh(), model),
            (fig5_spheroid_mesh(6, 5e-6), model),
            (fig5_spheroid_mesh(8, 12e-6), paper),
        ] {
            for k in ks {
                let g = PeriodicGreen3d::new(k, mesh.patch_length());
                let scalar = assemble_medium_with(
                    &mesh,
                    &g,
                    scheme,
                    KernelEval::Scalar,
                    AssemblyParallelism::Serial,
                );
                let batched = assemble_medium_with(
                    &mesh,
                    &g,
                    scheme,
                    KernelEval::Batched,
                    AssemblyParallelism::Serial,
                );
                // Entries that nearly cancel (e.g. far double-layer entries on
                // almost-coplanar pairs) carry rounding noise proportional to
                // the *largest* entry of their block, so that is the scale the
                // rounding-level agreement is measured against.
                let scale_s = max_abs(&scalar.single_layer);
                let scale_d = max_abs(&scalar.double_layer).max(scale_s);
                for i in 0..mesh.len() {
                    for j in 0..mesh.len() {
                        let (a, b) = (scalar.single_layer[(i, j)], batched.single_layer[(i, j)]);
                        assert!(
                            (a - b).abs() <= 1e-12 * (scale_s + a.abs()),
                            "k = {k}: S[{i}][{j}]: {a} vs {b}"
                        );
                        let (a, b) = (scalar.double_layer[(i, j)], batched.double_layer[(i, j)]);
                        assert!(
                            (a - b).abs() <= 1e-12 * (scale_d + a.abs()),
                            "k = {k}: D[{i}][{j}]: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_assembly_is_bit_identical_across_thread_counts() {
        // Rows are independent work items scattered serially, so the
        // assembled matrices must match the serial result bit for bit at any
        // thread count — for both kernel evaluation paths, on a fully rough
        // mesh and on one whose flat region the flat-offset table serves.
        let g = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let scheme = AssemblyScheme::default();
        for mesh in [small_mesh(), fig5_spheroid_mesh(6, 5e-6)] {
            for eval in [KernelEval::Batched, KernelEval::Scalar] {
                let serial =
                    assemble_medium_with(&mesh, &g, scheme, eval, AssemblyParallelism::Serial);
                let flat_region = mesh.cells().iter().any(is_flat);
                assert_eq!(
                    serial.stats.reused_entries > 0,
                    flat_region,
                    "{eval:?}: {:?}",
                    serial.stats
                );
                for threads in [1usize, 2, 4, 8] {
                    let parallel = assemble_medium_with(
                        &mesh,
                        &g,
                        scheme,
                        eval,
                        AssemblyParallelism::workers(threads),
                    );
                    for i in 0..mesh.len() {
                        for j in 0..mesh.len() {
                            let (a, b) =
                                (serial.single_layer[(i, j)], parallel.single_layer[(i, j)]);
                            assert_eq!(
                                (a.re.to_bits(), a.im.to_bits()),
                                (b.re.to_bits(), b.im.to_bits()),
                                "{eval:?} S[{i}][{j}] at {threads} threads"
                            );
                            let (a, b) =
                                (serial.double_layer[(i, j)], parallel.double_layer[(i, j)]);
                            assert_eq!(
                                (a.re.to_bits(), a.im.to_bits()),
                                (b.re.to_bits(), b.im.to_bits()),
                                "{eval:?} D[{i}][{j}] at {threads} threads"
                            );
                        }
                    }
                    assert_eq!(
                        parallel.stats, serial.stats,
                        "{eval:?} stats at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_offset_table_matches_the_per_pair_oracle() {
        // On a flat mesh and on the Fig. 5 spheroid, in both media: the pair
        // each offset is integrated for must carry the per-pair oracle's bits,
        // and every other entry the table serves must agree with its own
        // per-pair integration to rounding: two translates of one offset see
        // separations that differ in the last bits, and the Ewald kernel is
        // smooth in the separation (its `erfc` has no branch switch), so they
        // agree to a few 1e-15 of the block's largest entry. The corner cells
        // are flat on both meshes, so the x-seam pair (0, n − 1) and its
        // wrapped neighbours are served too.
        let policy = NearFieldPolicy::default();
        for (tile, ks) in flat_table_regimes() {
            for cells in [8, 10] {
                let flat = PatchMesh::from_surface(&RoughSurface::flat(cells, tile));
                for (mesh, k) in [flat, fig5_spheroid_mesh(cells, tile)]
                    .into_iter()
                    .flat_map(|mesh| ks.map(|k| (mesh.clone(), k)))
                {
                    assert!(is_flat(&mesh.cells()[0]) && is_flat(&mesh.cells()[cells - 1]));
                    let g = PeriodicGreen3d::new(k, tile);
                    let table = assemble_medium(&mesh, &g, AssemblyScheme::default());
                    let oracle = per_pair(|| assemble_medium(&mesh, &g, AssemblyScheme::default()));
                    let offsets = FlatOffsetTable::build(
                        &mesh,
                        &g,
                        policy,
                        &NearRules::for_policy(policy),
                        KernelEval::default(),
                    );
                    let bits = |z: c64| (z.re.to_bits(), z.im.to_bits());
                    for entry in offsets.slots.iter().flatten() {
                        let (i, j) = entry.first;
                        assert_eq!(bits(entry.exact.0), bits(oracle.single_layer[(i, j)]));
                        assert_eq!(bits(entry.exact.1), bits(oracle.double_layer[(i, j)]));
                        assert_eq!(bits(table.single_layer[(i, j)]), bits(entry.exact.0));
                    }
                    let scale = max_abs(&oracle.single_layer).max(max_abs(&oracle.double_layer));
                    for i in 0..mesh.len() {
                        for j in 0..mesh.len() {
                            for (name, a, b) in [
                                ("S", table.single_layer[(i, j)], oracle.single_layer[(i, j)]),
                                ("D", table.double_layer[(i, j)], oracle.double_layer[(i, j)]),
                            ] {
                                assert!(
                                    (a - b).abs() <= 1e-13 * scale,
                                    "{cells} cells, k = {k}: {name}[{i}][{j}] {a} vs {b}"
                                );
                            }
                        }
                    }
                    // Each copy replaces one per-pair integration, and the
                    // copies add no adaptive work.
                    let (t, o) = (table.stats, oracle.stats);
                    assert!(t.reused_entries > 0 && o.reused_entries == 0, "{t:?}");
                    assert_eq!(t.corrected_entries + t.reused_entries, o.corrected_entries);
                    assert!(t.adaptive_panels < o.adaptive_panels);
                    assert!(t.depth_cap_hits <= o.depth_cap_hits);
                    assert!(t.unconverged_entries <= o.unconverged_entries);
                }
            }
        }
    }

    #[test]
    fn corrected_assembly_reports_adaptive_statistics() {
        let mesh = small_mesh();
        let g = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let corrected = assemble_medium(&mesh, &g, AssemblyScheme::default());
        // Every row corrects its self cell plus its near neighbours.
        assert!(corrected.stats.corrected_entries >= mesh.len());
        assert!(corrected.stats.adaptive_panels >= corrected.stats.corrected_entries);
        // On this rough conductor-side mesh a handful of entries hit the
        // depth cap with a (tiny, ~1e-10 absolute) residual error — which is
        // exactly what the stats exist to surface instead of silently
        // accepting. The achieved error must still be well below the
        // self-term scale.
        let self_scale = corrected.single_layer[(0, 0)].abs();
        assert!(
            corrected.stats.max_entry_error < 1e-2 * self_scale,
            "{:?} vs self scale {self_scale}",
            corrected.stats
        );
    }

    #[test]
    fn depth_capped_assembly_surfaces_the_truncation() {
        // An order-1 embedded rule cannot meet the default tolerance within
        // the depth budget on a lossy kernel; the stats must say so instead
        // of pretending convergence.
        let mesh = small_mesh();
        let g = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let starved = AssemblyScheme::LocallyCorrected(NearFieldPolicy::new(2.5, 1));
        let blocks = assemble_medium(&mesh, &g, starved);
        assert!(
            !blocks.stats.all_converged(),
            "an order-1 rule at the default tolerance must hit the depth cap: {:?}",
            blocks.stats
        );
        assert!(blocks.stats.depth_cap_hits > 0);
        assert!(blocks.stats.max_entry_error > 0.0);
        // A starved rule must report *more* truncation than the default one.
        let healthy = assemble_medium(&mesh, &g, AssemblyScheme::default());
        assert!(blocks.stats.unconverged_entries >= healthy.stats.unconverged_entries);
    }

    #[test]
    fn system_dimensions_and_rhs() {
        let mesh = small_mesh();
        let g1 = PeriodicGreen3d::new(c64::new(200.0, 0.0), 5e-6);
        let g2 = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let system = assemble_system(
            &mesh,
            &g1,
            &g2,
            c64::new(0.0, -1e-8),
            c64::new(200.0, 0.0),
            AssemblyScheme::default(),
        );
        assert_eq!(system.surface_unknowns, 16);
        assert_eq!(system.matrix.rows(), 32);
        assert_eq!(system.matrix.cols(), 32);
        assert_eq!(system.rhs.len(), 32);
        // Incident field is ~1 on the (sub-wavelength-height) surface cells.
        for i in 0..16 {
            assert!((system.rhs[i].abs() - 1.0).abs() < 1e-3);
        }
        for i in 16..32 {
            assert_eq!(system.rhs[i], c64::zero());
        }
    }

    #[test]
    #[should_panic(expected = "period must match")]
    fn mismatched_period_panics() {
        let mesh = small_mesh();
        let g = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 7e-6);
        let _ = assemble_medium(&mesh, &g, AssemblyScheme::default());
    }
}
