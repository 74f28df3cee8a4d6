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
//! **One exact entry per pair.** Every entry of both media comes from one
//! row pass, `ExactEntries`: given an observation row and a set of source
//! columns it returns each column's `(S, D)` of media 1 and 2 under one rule.
//! The singular (self) and near-singular entries — every source cell within
//! [`NearFieldPolicy::radius`] cell sizes (3-D minimum-image distance, so the
//! periodic seam is corrected too) — are locally corrected
//! ([`AssemblyScheme::LocallyCorrected`]): the `1/(4πR)` static part is
//! integrated *analytically* over the exact tangent-plane cell parallelogram
//! (Wilton polygon potential for `S`, signed solid angle for `D`), and the
//! smooth remainder `G_p − 1/(4πR)` with adaptive tensor Gauss–Legendre
//! quadrature. Every other entry is one midpoint sample of the periodic
//! kernel. An entry between two exactly flat cells at the same height
//! depends only on their lattice offset, so the flat-offset table integrates
//! each such offset once, for both media, and every other flat–flat pair
//! copies it. The dense system runs the pass over all columns and writes
//! each pair's 2 × 2 block of paper eq. (9) straight into the matrix; the
//! matrix-free operator ([`crate::matrixfree`]) runs the same pass over its
//! near pattern, so the two representations share every exact entry.
//!
//! The periodic-image part `G_p − e^{jkR}/(4πR)` of a corrected entry is
//! smooth on the cell scale and integrated on a fixed 3 × 3 rule, whose
//! points fall on a finite set of lateral separations (the near lattice
//! offsets minus the rule's nodes) at heights bounded by the mesh. Each
//! assembly therefore tabulates it once per medium: the image tables hold
//! the regularized kernel at those separations on equispaced height levels,
//! and every corrected entry reads its nine points by Lagrange interpolation
//! in the height (see `ImageTables`).
//!
//! Orthogonal to the near-field policy, [`KernelEval`] selects how the
//! Ewald-summed kernel itself is evaluated. The default,
//! [`KernelEval::Batched`], is **blocked row-panel assembly**: for each
//! observation row, every far-field observation–source separation is
//! gathered into a contiguous slice, evaluated in one batched kernel call per
//! medium ([`PeriodicGreen3d::eval_batch_samples`]), and scattered into the
//! matrix; each image-table level is one batched call too
//! ([`PeriodicGreen3d::eval_batch_regularized`]). The near-field analytic
//! statics and the adaptive smooth-remainder quadrature are untouched.
//! [`KernelEval::Scalar`] evaluates the identical points one kernel call at
//! a time and serves as the equivalence oracle (agreement ≤ 1e-12 relative)
//! and the benchmark baseline.
//!
//! Orthogonal to *both*, [`AssemblyParallelism`] spreads the image-table
//! levels and then the row panels over worker threads: levels and rows are
//! independent work items (each evaluates and combines only its own kernel
//! samples), computed with per-worker scratch through
//! [`crate::parallel::map_rows`] and collected in order — so a parallel
//! assembly is **bit-identical** to the serial one at any thread count
//! (pinned by tests at 1/2/4/8 threads for both kernel paths).

use crate::mesh::{Cell3d, PatchMesh};
use crate::nearfield::{AssemblyScheme, AssemblyStats, KernelEval, NearFieldPolicy};
use crate::parallel::{map_rows, AssemblyParallelism};
use crate::tabulate::{lagrange_weights, level_spacing};
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
    static PER_POINT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
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

/// Runs `f` with every exact-entry pass it builds evaluating each
/// periodic-image quadrature point of a corrected entry directly, instead of
/// reading it from the [`ImageTables`]: the oracle the tables are tested
/// against.
#[cfg(test)]
pub(crate) fn per_point<T>(f: impl FnOnce() -> T) -> T {
    PER_POINT.with(|flag| flag.set(true));
    let out = f();
    PER_POINT.with(|flag| flag.set(false));
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
fn eval_gathered_regularized(
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

/// `(S, D)` of one observation–source pair in media 1 and 2.
pub(crate) type MediaEntry = [(c64, c64); 2];

/// A 2 × 2 complex block, row-major `[a, b, c, d]`: how the unknowns
/// `(Ψⱼ, Uⱼ)` of cell `j` enter the two rows of paper eq. (9) at cell `i`.
pub(crate) type Block = [c64; 4];

/// The block of paper eq. (9) for one pair with entries `entry`:
/// `[[½δᵢⱼ − D₁, β·S₁], [½δᵢⱼ + D₂, −S₂]]`, `δᵢⱼ = 1` on the self pair.
pub(crate) fn system_block([(s1, d1), (s2, d2)]: MediaEntry, beta: c64, self_pair: bool) -> Block {
    let free = if self_pair {
        c64::from_real(0.5)
    } else {
        c64::zero()
    };
    [free - d1, beta * s1, free + d2, -s2]
}

/// The incident plane wave `ψ_inc = e^{−j k₁ z}` on the upper block of paper
/// eq. (9), zeros on the lower one.
pub(crate) fn incident_rhs(mesh: &PatchMesh, k1: c64) -> Vec<c64> {
    let mut rhs = vec![c64::zero(); 2 * mesh.len()];
    for (slot, cell) in rhs.iter_mut().zip(mesh.cells()) {
        *slot = (c64::new(0.0, -1.0) * k1 * cell.z).exp();
    }
    rhs
}

/// The minimum-image geometry of an observation–source pair on a periodic
/// patch: the source cell's nearest periodic image seen from the observation
/// point.
#[derive(Debug, Clone, Copy)]
struct MinImage {
    /// In-plane separation observation − nearest source image.
    offset: [f64; 2],
    /// In-plane centre of the nearest source image (the source centre
    /// itself on the self pair).
    at: [f64; 2],
    /// Vertical separation observation − source.
    dz: f64,
}

impl MinImage {
    /// The pair `(observation, source)` on a patch of period `length`.
    fn new(observation: &Cell3d, source: &Cell3d, length: f64) -> Self {
        let dx = observation.x - source.x;
        let dy = observation.y - source.y;
        let shift = [
            (dx / length).round() * length,
            (dy / length).round() * length,
        ];
        Self {
            offset: [dx - shift[0], dy - shift[1]],
            at: [source.x + shift[0], source.y + shift[1]],
            dz: observation.z - source.z,
        }
    }

    /// The in-plane separation in whole cells of size `delta`.
    fn lattice_offset(&self, delta: f64) -> [isize; 2] {
        self.offset.map(|o| (o / delta).round() as isize)
    }

    /// Squared in-plane distance to the nearest image.
    fn lateral_sq(&self) -> f64 {
        self.offset[0] * self.offset[0] + self.offset[1] * self.offset[1]
    }

    /// Squared 3-D distance to the nearest image.
    fn distance_sq(&self) -> f64 {
        self.lateral_sq() + self.dz * self.dz
    }
}

/// The exact-entry pass of paper eq. (9): per observation row, the `(S, D)`
/// of both media for any set of source columns, under one rule —
///
/// * the self pair, or a 3-D minimum-image distance below
///   [`NearFieldPolicy::radius`] cell sizes: the locally corrected integral
///   ([`corrected_entry`], its periodic-image part read from the
///   [`ImageTables`]), or its copy from the [`FlatOffsetTable`] when both
///   cells are exactly flat at the same height;
/// * every other pair: one midpoint sample of the periodic kernel.
///
/// Both the dense system ([`assemble_system_with`], all columns) and the
/// matrix-free near field ([`crate::matrixfree`], its in-plane near pattern)
/// read their exact entries here, so the two agree bit for bit on every pair
/// they share. Rows are independent: each borrows its own [`RowScratch`].
pub(crate) struct ExactEntries<'a> {
    cells: &'a [Cell3d],
    greens: [&'a PeriodicGreen3d; 2],
    eval: KernelEval,
    rule: NearRules,
    images: ImageTables,
    flat: FlatOffsetTable,
    area: f64,
    delta: f64,
    length: f64,
    near_radius_sq: f64,
    /// Evaluate every image point directly (the [`per_point`] oracle).
    #[cfg(test)]
    per_point: bool,
}

/// How the exact-entry pass obtains one column's entries.
enum Source {
    /// Integrated, or copied from the flat-offset table.
    Exact(MediaEntry),
    /// The far midpoint sample of column `j`.
    Far(usize),
}

/// Row-local buffers of the exact-entry pass, one per worker: the column
/// classification, the far-field gather/evaluate slices and the image
/// samples of both media, the adaptive-quadrature node arena and the row's
/// output.
#[derive(Default)]
pub(crate) struct RowScratch {
    sources: Vec<Source>,
    far_seps: Vec<SeparationVector>,
    far_out: [Vec<GreenSample>; 2],
    images: [Vec<GreenSample>; 2],
    quad: QuadScratch,
    entries: Vec<MediaEntry>,
}

impl<'a> ExactEntries<'a> {
    /// Prepares the pass for `mesh` with the media kernels `g1`, `g2`: the
    /// quadrature rules of `policy`, the image tables of both media (their
    /// height levels spread over `parallelism`) and the flat-offset table of
    /// both media (built serially). Every row reads the same tables at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if a kernel period does not match the mesh patch length, or if
    /// [`NearFieldPolicy::validate`] rejects `policy`.
    pub(crate) fn new(
        mesh: &'a PatchMesh,
        g1: &'a PeriodicGreen3d,
        g2: &'a PeriodicGreen3d,
        policy: NearFieldPolicy,
        eval: KernelEval,
        parallelism: AssemblyParallelism,
    ) -> Self {
        policy.validate().expect("near-field policy must be valid");
        let length = mesh.patch_length();
        for green in [g1, g2] {
            assert!(
                (green.period() - length).abs() < 1e-9 * length,
                "Green's function period must match the mesh patch length"
            );
        }
        let delta = mesh.cell_size();
        let rule = NearRules::for_policy(policy);
        let images = ImageTables::build(mesh, [g1, g2], policy, &rule.image, eval, parallelism);
        let mut pass = Self {
            cells: mesh.cells(),
            greens: [g1, g2],
            eval,
            rule,
            images,
            flat: FlatOffsetTable::empty(policy),
            area: mesh.cell_area(),
            delta,
            length,
            near_radius_sq: (policy.radius * delta) * (policy.radius * delta),
            #[cfg(test)]
            per_point: PER_POINT.with(std::cell::Cell::get),
        };
        let mut scratch = RowScratch::default();
        let flat = FlatOffsetTable::build(mesh, policy, |i, j, pair, stats| {
            pass.corrected(i, j, pair, &mut scratch, stats)
        });
        pass.flat = flat;
        pass
    }

    /// What the pass evaluated before its rows: the integrations that filled
    /// the flat-offset table and the image-table samples (both media).
    pub(crate) fn table_stats(&self) -> AssemblyStats {
        AssemblyStats {
            image_samples: self.images.samples(),
            ..self.flat.stats
        }
    }

    /// Whether source `j` lies within the near radius of observation `i` in
    /// the plane (minimum image): the matrix-free near pattern, a superset of
    /// the pairs the pass integrates.
    pub(crate) fn laterally_near(&self, i: usize, j: usize) -> bool {
        MinImage::new(&self.cells[i], &self.cells[j], self.length).lateral_sq()
            < self.near_radius_sq
    }

    /// The entries of observation row `i` at the source columns `cols`, in
    /// that order. Near entries are integrated as they come, far ones
    /// sampled, each far kernel evaluated once per medium over the whole row;
    /// integration diagnostics go to `stats`.
    pub(crate) fn row<'s>(
        &self,
        i: usize,
        cols: impl IntoIterator<Item = usize>,
        scratch: &'s mut RowScratch,
        stats: &mut AssemblyStats,
    ) -> &'s [MediaEntry] {
        let ci = &self.cells[i];
        scratch.sources.clear();
        scratch.far_seps.clear();
        for j in cols {
            let cj = &self.cells[j];
            let pair = MinImage::new(ci, cj, self.length);
            let source = if i == j || pair.distance_sq() < self.near_radius_sq {
                let offset = pair.lattice_offset(self.delta);
                Source::Exact(match self.flat.lookup(i, j, ci, cj, offset, stats) {
                    Some(entry) => entry,
                    None => self.corrected(i, j, pair, scratch, stats),
                })
            } else {
                scratch
                    .far_seps
                    .push(SeparationVector::new(ci.x - cj.x, ci.y - cj.y, ci.z - cj.z));
                Source::Far(j)
            };
            scratch.sources.push(source);
        }

        for (m, green) in self.greens.iter().enumerate() {
            eval_gathered(green, self.eval, &scratch.far_seps, &mut scratch.far_out[m]);
        }

        let mut far = 0;
        scratch.entries.clear();
        for source in &scratch.sources {
            let entry = match *source {
                Source::Exact(entry) => entry,
                Source::Far(j) => {
                    let entry = [0, 1]
                        .map(|m| far_entry(&scratch.far_out[m][far], &self.cells[j], self.area));
                    far += 1;
                    entry
                }
            };
            scratch.entries.push(entry);
        }
        &scratch.entries
    }

    /// The locally corrected entries of both media for observation `i` and
    /// source `j` with minimum-image geometry `pair`.
    fn corrected(
        &self,
        i: usize,
        j: usize,
        pair: MinImage,
        scratch: &mut RowScratch,
        stats: &mut AssemblyStats,
    ) -> MediaEntry {
        let (ci, cj) = (&self.cells[i], &self.cells[j]);
        self.image_samples(pair, ci, cj, &mut scratch.images);
        [0, 1].map(|m| {
            corrected_entry(
                self.greens[m],
                ci,
                cj,
                pair.at,
                self.delta,
                &self.rule,
                &scratch.images[m],
                &mut scratch.quad,
                stats,
            )
        })
    }

    /// The periodic-image samples of both media for the corrected entry of
    /// `observation` and `source` with minimum-image geometry `pair`, read
    /// from the image tables.
    fn image_samples(
        &self,
        pair: MinImage,
        observation: &Cell3d,
        source: &Cell3d,
        out: &mut [Vec<GreenSample>; 2],
    ) {
        #[cfg(test)]
        if self.per_point {
            let mut seps = Vec::new();
            gather_image_points(
                &self.rule.image,
                observation,
                source,
                pair.at,
                self.delta,
                &mut seps,
            );
            for (green, out) in self.greens.iter().zip(out) {
                eval_gathered_regularized(green, self.eval, &seps, out);
            }
            return;
        }
        let offset = pair.lattice_offset(self.delta);
        self.images.read(offset, observation, source, out);
    }
}

/// The far-field midpoint entry `(S, D)` of `source` from its kernel sample.
fn far_entry(sample: &GreenSample, source: &Cell3d, area: f64) -> (c64, c64) {
    let grad = sample.gradient;
    let normal = source.normal;
    let d = -(grad[0] * normal[0] + grad[1] * normal[1] + grad[2] * normal[2])
        * (source.jacobian * area);
    (sample.value * area, d)
}

/// Quadrature rules shared by every corrected near-field entry of one
/// assembly: the adaptive rule for the rapidly varying (but cheap) free-space
/// remainder, and a fixed 3 × 3 rule (on `[-1/2, 1/2]`, scaled per cell) for
/// the smooth — but Ewald-sum-expensive — periodic-image part.
struct NearRules {
    adaptive: AdaptiveTensorGauss,
    image: QuadratureRule,
}

impl NearRules {
    /// The quadrature rules the corrected scheme uses for `policy`.
    fn for_policy(policy: NearFieldPolicy) -> Self {
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
/// corrected near entry, the source cell centred at `at`, in the exact
/// nested order [`corrected_entry`] consumes them: the per-point oracle the
/// [`ImageTables`] are tested against.
#[cfg(test)]
fn gather_image_points(
    rule: &QuadratureRule,
    observation: &Cell3d,
    source: &Cell3d,
    at: [f64; 2],
    delta: f64,
    out: &mut Vec<SeparationVector>,
) {
    let p = [observation.x, observation.y, observation.z];
    for (qx, _) in rule.iter() {
        for (qy, _) in rule.iter() {
            let xs = at[0] + qx * delta;
            let ys = at[1] + qy * delta;
            let zs = source.z + source.fx * (xs - at[0]) + source.fy * (ys - at[1]);
            out.push(SeparationVector::new(p[0] - xs, p[1] - ys, p[2] - zs));
        }
    }
}

/// Stencil width of the image tables' height interpolation.
const IMAGE_ORDER: usize = 16;
/// Safety factor on the image tables' level spacing: half the error-model
/// spacing, the matrix-free slab's default.
const IMAGE_SAFETY: f64 = 0.5;

/// The image tables of one assembly: the regularized kernel
/// `G_p − e^{jkR}/(4πR)` (value and gradient) of both media at every point
/// the fixed periodic-image rule of a corrected entry can reach.
///
/// A corrected entry of lattice offset `o` samples the kernel at the lateral
/// separations `((o_x − q_a)Δ, (o_y − q_b)Δ)`, `q` the rule's nodes, a finite
/// set fixed by the near radius. At normal incidence on the square lattice
/// the kernel is even in x and in y and symmetric under x ↔ y, so each
/// separation is folded onto a canonical column (30 at the default radius
/// 2.5: 5 offset classes × the node pairs), the gradient's x and y
/// components taking the mirror signs and swapping with the axes. Each
/// column is tabulated on equispaced height levels `t·h` that cover the
/// largest `|Δz|` any gathered point reaches (the mesh's height spread
/// capped at the near radius, plus the tangent-plane lift of its steepest
/// cell) with the ghost levels a centred stencil needs; the kernel is even
/// in `Δz` and its z-gradient odd, so the levels below zero are mirrors.
/// The spacing follows [`level_spacing`] per medium, with `ρ` the distance
/// from the columns to the nearest non-primary lattice image, the closest
/// singularity of the regularized kernel. A row reads each image point by
/// [`IMAGE_ORDER`]-point Lagrange interpolation in `Δz`. An exactly flat
/// mesh has one level at `Δz = 0`, read as it is.
///
/// Each level is one batched kernel call over the columns under the
/// configured [`KernelEval`] (its positions share `|Δz|`, so the Ewald
/// spectral profiles are computed once per level), the levels of both media
/// spread over the assembly's workers and collected in order, so the tables
/// are bit-identical at any thread count.
struct ImageTables {
    /// Per-axis class of lattice offset `o ∈ [−reach, reach]` and rule node
    /// `n`, at `(o + reach)·nodes + n` (`nodes` per axis): the folded 1-D
    /// position index and whether the axis was mirrored.
    axis: Vec<(usize, bool)>,
    /// Lattice offsets span `-reach..=reach` cells along each axis.
    reach: isize,
    /// Number of distinct folded 1-D positions.
    positions: usize,
    /// Column of each folded position pair `(lo, hi)`, `lo ≤ hi`, at
    /// `lo·positions + hi`; `usize::MAX` where no near entry reaches it.
    column_of: Vec<usize>,
    /// The rule's nodes `q·Δ` along one axis.
    node_offsets: Vec<f64>,
    /// The tables of media 1 and 2.
    media: [ImageTable; 2],
}

/// One medium's image table: height levels of spacing `h`, level `t` at
/// height `t·h` holding one sample per column.
struct ImageTable {
    spacing: f64,
    levels: Vec<Vec<GreenSample>>,
}

impl ImageTables {
    /// Tabulates the regularized kernels `greens` at every image point of
    /// the corrected entries of `mesh` under `policy` and the image `rule`.
    fn build(
        mesh: &PatchMesh,
        greens: [&PeriodicGreen3d; 2],
        policy: NearFieldPolicy,
        rule: &QuadratureRule,
        eval: KernelEval,
        parallelism: AssemblyParallelism,
    ) -> Self {
        let delta = mesh.cell_size();
        let nodes = rule.nodes();
        // The minimum-image offsets of a near pair: within the radius (a hair
        // beyond it, so no pair the rows call near by its rounded distance is
        // left out), and within half the period along each axis.
        let reach = (policy.radius.ceil() as isize).min(mesh.cells_per_side() as isize / 2);
        let radius_sq = policy.radius * policy.radius * (1.0 + 1e-9);

        // Fold each axis position `o − q_n` to its magnitude: one index per
        // distinct magnitude, in ascending order.
        let offsets = || (-reach..=reach).flat_map(|o| nodes.iter().map(move |&q| o as f64 - q));
        let mut values: Vec<f64> = offsets().map(f64::abs).collect();
        values.sort_by(f64::total_cmp);
        values.dedup_by(|a, b| *a - *b < 1e-9);
        let axis: Vec<(usize, bool)> = offsets()
            .map(|v| (values.partition_point(|&w| w < v.abs() - 1e-9), v < 0.0))
            .collect();
        let positions = values.len();
        let mut column_of = vec![usize::MAX; positions * positions];
        let mut lateral: Vec<[f64; 2]> = Vec::new();
        for oy in -reach..=reach {
            for ox in -reach..=reach {
                if (ox * ox + oy * oy) as f64 > radius_sq {
                    continue;
                }
                for nx in 0..nodes.len() {
                    for ny in 0..nodes.len() {
                        let kx = axis[(ox + reach) as usize * nodes.len() + nx].0;
                        let ky = axis[(oy + reach) as usize * nodes.len() + ny].0;
                        let slot = &mut column_of[kx.min(ky) * positions + kx.max(ky)];
                        if *slot == usize::MAX {
                            *slot = lateral.len();
                            lateral.push([values[kx.min(ky)], values[kx.max(ky)]]);
                        }
                    }
                }
            }
        }

        // Heights: the largest |Δz| of a gathered point, and the distance
        // from the columns to the nearest non-primary image.
        let cells = mesh.cells();
        let (mut z_min, mut z_max, mut slope) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
        for cell in cells {
            z_min = z_min.min(cell.z);
            z_max = z_max.max(cell.z);
            slope = slope.max(cell.fx.abs() + cell.fy.abs());
        }
        let q_max = nodes.iter().fold(0.0f64, |q, n| q.max(n.abs()));
        let span = (z_max - z_min).min(policy.radius * delta) + slope * q_max * delta;
        let widest = lateral.iter().fold(0.0f64, |x, c| x.max(c[1]));
        let rho = mesh.patch_length() - widest * delta;
        assert!(rho > 0.0, "image table columns must stay inside one period");

        let shape = greens.map(|green| {
            if span == 0.0 {
                return (1, 0.0);
            }
            let h = level_spacing(IMAGE_ORDER, green.wavenumber().abs(), rho, IMAGE_SAFETY);
            ((span / h).ceil() as usize + IMAGE_ORDER / 2 + 1, h)
        });
        let rows: Vec<(usize, usize)> = (0..2)
            .flat_map(|m| (0..shape[m].0).map(move |t| (m, t)))
            .collect();
        let levels = map_rows(
            rows.len(),
            parallelism.worker_count(),
            Vec::new,
            |r, seps| {
                let (m, t) = rows[r];
                let dz = t as f64 * shape[m].1;
                seps.clear();
                seps.extend(
                    lateral
                        .iter()
                        .map(|c| SeparationVector::new(c[0] * delta, c[1] * delta, dz)),
                );
                let mut out = Vec::new();
                eval_gathered_regularized(greens[m], eval, seps, &mut out);
                out
            },
        );
        let mut levels = levels.into_iter();
        let media = shape.map(|(count, spacing)| ImageTable {
            spacing,
            levels: levels.by_ref().take(count).collect(),
        });

        Self {
            axis,
            reach,
            positions,
            column_of,
            node_offsets: nodes.iter().map(|q| q * delta).collect(),
            media,
        }
    }

    /// Kernel samples in the tables, both media.
    fn samples(&self) -> usize {
        self.media
            .iter()
            .flat_map(|t| &t.levels)
            .map(Vec::len)
            .sum()
    }

    /// The image samples of the corrected entry of `observation` and
    /// `source` at lattice offset `offset`, both media, in rule order (x
    /// node outer, y node inner) as [`corrected_entry`] consumes them.
    ///
    /// # Panics
    ///
    /// Panics if the offset or a point's height lies outside the tables: the
    /// tables cover every corrected entry of the mesh they were built for.
    fn read(
        &self,
        offset: [isize; 2],
        observation: &Cell3d,
        source: &Cell3d,
        out: &mut [Vec<GreenSample>; 2],
    ) {
        out.iter_mut().for_each(Vec::clear);
        let nodes = self.node_offsets.len();
        let class = |o: isize, n: usize| {
            assert!(
                o.abs() <= self.reach,
                "near offset {o} outside the image tables"
            );
            self.axis[(o + self.reach) as usize * nodes + n]
        };
        for nx in 0..nodes {
            let (kx, flip_x) = class(offset[0], nx);
            for ny in 0..nodes {
                let (ky, flip_y) = class(offset[1], ny);
                let column = self.column_of[kx.min(ky) * self.positions + kx.max(ky)];
                assert!(
                    column != usize::MAX,
                    "near offset {offset:?} outside the image tables"
                );
                let dz = observation.z
                    - (source.z
                        + source.fx * self.node_offsets[nx]
                        + source.fy * self.node_offsets[ny]);
                for (table, out) in self.media.iter().zip(out.iter_mut()) {
                    let mut sample = table.interpolate(column, dz);
                    let [gx, gy, _] = &mut sample.gradient;
                    if kx > ky {
                        std::mem::swap(gx, gy);
                    }
                    if flip_x {
                        *gx = -*gx;
                    }
                    if flip_y {
                        *gy = -*gy;
                    }
                    out.push(sample);
                }
            }
        }
    }
}

impl ImageTable {
    /// The kernel at `column` and height `dz`, by Lagrange interpolation
    /// over the centred stencil of levels around `|dz|`; on a one-level
    /// table, the level itself at `dz = 0`.
    fn interpolate(&self, column: usize, dz: f64) -> GreenSample {
        let levels = &self.levels;
        let s = dz.abs();
        if levels.len() == 1 {
            assert!(
                s == 0.0,
                "image point at |dz| = {s:e} m on a one-level image table"
            );
            return levels[0][column];
        }
        let p = IMAGE_ORDER as isize;
        let u = s / self.spacing;
        let start = u.floor() as isize + 1 - p / 2;
        assert!(
            start + p <= levels.len() as isize,
            "image point at |dz| = {s:e} m above the image table's {} levels",
            levels.len()
        );
        let mut weights = [0.0; IMAGE_ORDER];
        lagrange_weights(u - start as f64, &mut weights);

        let mut value = c64::zero();
        let mut gradient = [c64::zero(); 3];
        for (l, &w) in weights.iter().enumerate() {
            // Levels below zero mirror those above: the value and the
            // lateral gradient are even in Δz, the z-gradient odd.
            let t = start + l as isize;
            let sample = &levels[t.unsigned_abs()][column];
            let wz = if t < 0 { -w } else { w };
            value += sample.value.scale(w);
            gradient[0] += sample.gradient[0].scale(w);
            gradient[1] += sample.gradient[1].scale(w);
            gradient[2] += sample.gradient[2].scale(wz);
        }
        if dz < 0.0 {
            gradient[2] = -gradient[2];
        }
        GreenSample { value, gradient }
    }
}

/// The flat-offset table of one mesh: the exact locally corrected `(S, D)`
/// of both media for the near pairs between two exactly flat cells
/// (`fx == fy == 0`) at the same height, one per in-plane minimum-image
/// lattice offset within [`NearFieldPolicy::radius`].
///
/// The periodic kernel is translation invariant and a flat cell is its own
/// tangent plane, so such an entry depends only on the offset. Each offset
/// is integrated once, for the first pair in row-major order that has it,
/// through the same path as any other corrected entry; every other pair
/// with that offset copies it. The table is built serially before the
/// row-parallel pass, so the assembly stays bit-identical at any thread
/// count, and finding the representative pairs visits one offset stencil
/// per flat cell, `O(stencil × N)`.
struct FlatOffsetTable {
    /// Offsets span `-reach..=reach` cells along each axis.
    reach: isize,
    /// One slot per offset, `(oy, ox)` row-major; `None` where no flat pair
    /// has that offset.
    slots: Vec<Option<FlatEntry>>,
    /// The integrations that filled the table.
    stats: AssemblyStats,
}

/// One integrated flat-offset entry and the pair it was integrated for.
#[derive(Clone, Copy)]
struct FlatEntry {
    first: (usize, usize),
    exact: MediaEntry,
}

/// Whether a cell is exactly flat (zero slope along both axes).
fn is_flat(cell: &Cell3d) -> bool {
    cell.fx == 0.0 && cell.fy == 0.0
}

impl FlatOffsetTable {
    /// A table with no offsets for the stencil of `policy`.
    fn empty(policy: NearFieldPolicy) -> Self {
        let reach = policy.radius.ceil() as isize;
        let width = (2 * reach + 1) as usize;
        Self {
            reach,
            slots: vec![None; width * width],
            stats: AssemblyStats::default(),
        }
    }

    /// Integrates every flat-cell lattice offset of `mesh` that some near
    /// pair has, each with `integrate(i, j, pair, stats)` for its first pair.
    fn build(
        mesh: &PatchMesh,
        policy: NearFieldPolicy,
        mut integrate: impl FnMut(usize, usize, MinImage, &mut AssemblyStats) -> MediaEntry,
    ) -> Self {
        let mut table = Self::empty(policy);
        #[cfg(test)]
        if PER_PAIR.with(std::cell::Cell::get) {
            return table;
        }

        // The first pair of each offset: flat observation cells in row-major
        // order, each visiting its offset stencil. Within one row every
        // offset names a distinct source cell, so the first row that reaches
        // an offset holds its first pair.
        let reach = table.reach;
        let side = mesh.cells_per_side() as isize;
        let cells = mesh.cells();
        let length = mesh.patch_length();
        let delta = mesh.cell_size();
        let near_radius_sq = (policy.radius * delta) * (policy.radius * delta);
        let mut firsts: Vec<Option<(usize, usize, MinImage)>> = vec![None; table.slots.len()];
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
                    let pair = MinImage::new(ci, cj, length);
                    if pair.lateral_sq() >= near_radius_sq {
                        continue;
                    }
                    if let Some(slot) = table.slot(ci, cj, pair.lattice_offset(delta)) {
                        firsts[slot].get_or_insert((i, j, pair));
                    }
                }
            }
        }

        for (slot, first) in table.slots.iter_mut().zip(&firsts) {
            if let &Some((i, j, pair)) = first {
                *slot = Some(FlatEntry {
                    first: (i, j),
                    exact: integrate(i, j, pair, &mut table.stats),
                });
            }
        }
        table
    }

    /// The slot of a pair at in-plane lattice offset `offset`, when both
    /// cells are exactly flat at the same height.
    fn slot(&self, observation: &Cell3d, source: &Cell3d, [ox, oy]: [isize; 2]) -> Option<usize> {
        if !(is_flat(observation) && is_flat(source) && observation.z == source.z) {
            return None;
        }
        if ox.abs() > self.reach || oy.abs() > self.reach {
            return None;
        }
        Some(((oy + self.reach) * (2 * self.reach + 1) + ox + self.reach) as usize)
    }

    /// The table's entries for the near pair `(i, j)` at in-plane lattice
    /// offset `offset`, or `None` when the pair is not flat–flat at equal
    /// height. A hit on any pair but the one its offset was integrated for
    /// counts one copy per medium in `stats.reused_entries`.
    fn lookup(
        &self,
        i: usize,
        j: usize,
        observation: &Cell3d,
        source: &Cell3d,
        offset: [isize; 2],
        stats: &mut AssemblyStats,
    ) -> Option<MediaEntry> {
        let entry = self.slots[self.slot(observation, source, offset)?]?;
        if entry.first != (i, j) {
            stats.reused_entries += 2;
        }
        Some(entry.exact)
    }
}

/// One locally corrected matrix-entry pair `(S_ij, D_ij)`.
///
/// The source cell is represented by its tangent plane at the (possibly
/// periodically shifted) centre `(at[0], at[1], source.z)`, and the kernel is
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
///   remainder tolerance; its kernel samples arrive in `image_samples`, x
///   node outer and y node inner, read from the assembly's image tables
///   ([`ImageTables::read`]).
///
/// The adaptive outcome (panel count, depth-cap hits, achieved error) is
/// absorbed into `stats` so callers can see when the depth cap truncated the
/// refinement instead of silently accepting the result.
#[allow(clippy::too_many_arguments)]
fn corrected_entry(
    green: &PeriodicGreen3d,
    observation: &Cell3d,
    source: &Cell3d,
    [src_x, src_y]: [f64; 2],
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
    /// Integration diagnostics of both media (adaptive-quadrature panel
    /// counts, reused flat-offset entries and depth-cap hits).
    pub stats: AssemblyStats,
}

/// Assembles the full coupled system.
///
/// * `g1`, `g2` — periodic kernels of the dielectric (medium 1) and conductor
///   (medium 2), with the same period as the mesh patch;
/// * `beta` — the boundary-condition contrast `β = ε₁/ε₂`;
/// * `k1` — dielectric wavenumber used for the normally incident plane wave
///   `ψ_inc = e^{−j k₁ z}` evaluated on the surface;
/// * `scheme` — how the singular and near-singular entries are integrated.
///
/// # Panics
///
/// As [`assemble_system_with`].
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
/// parallelism strategies.
///
/// [`KernelEval::Batched`] (what [`assemble_system`] uses) gathers the
/// far-field separations of every matrix row into one blocked kernel call
/// per medium; [`KernelEval::Scalar`] evaluates the same points one scalar
/// kernel call at a time and is kept as the equivalence oracle and benchmark
/// baseline. The two agree to ≤ 1e-12 relative on every entry.
///
/// `parallelism` spreads the row panels over worker threads; the result is
/// bit-identical at any thread count (rows are independent and the scatter is
/// serial in row order).
///
/// # Panics
///
/// Panics if a kernel period does not match the mesh patch length, or if
/// [`NearFieldPolicy::validate`] rejects the scheme's policy.
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
    let (rows, stats) = dense_rows(mesh, g1, g2, scheme, eval, parallelism);
    let mut matrix = CMatrix::zeros(2 * n, 2 * n);
    for (i, row) in rows.into_iter().enumerate() {
        for (j, entry) in row.into_iter().enumerate() {
            // Row block 1: (½I − D₁)Ψ + β S₁ U = Ψ_inc
            // Row block 2: (½I + D₂)Ψ − S₂ U = 0
            let [a, b, c, d] = system_block(entry, beta, i == j);
            matrix[(i, j)] = a;
            matrix[(i, n + j)] = b;
            matrix[(n + i, j)] = c;
            matrix[(n + i, n + j)] = d;
        }
    }
    SwmSystem {
        matrix,
        rhs: incident_rhs(mesh, k1),
        surface_unknowns: n,
        stats,
    }
}

/// The exact-entry pass over every column of every row, rows spread over
/// `parallelism` and collected in row order, with the merged diagnostics.
fn dense_rows(
    mesh: &PatchMesh,
    g1: &PeriodicGreen3d,
    g2: &PeriodicGreen3d,
    scheme: AssemblyScheme,
    eval: KernelEval,
    parallelism: AssemblyParallelism,
) -> (Vec<Vec<MediaEntry>>, AssemblyStats) {
    let n = mesh.len();
    let AssemblyScheme::LocallyCorrected(policy) = scheme;
    let pass = ExactEntries::new(mesh, g1, g2, policy, eval, parallelism);
    let rows = map_rows(
        n,
        parallelism.worker_count(),
        RowScratch::default,
        |i, scratch| {
            let mut stats = AssemblyStats::default();
            let row = pass.row(i, 0..n, scratch, &mut stats).to_vec();
            (row, stats)
        },
    );
    let mut stats = pass.table_stats();
    let rows = rows
        .into_iter()
        .map(|(row, row_stats)| {
            stats.merge(&row_stats);
            row
        })
        .collect();
    (rows, stats)
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

    /// Each medium's dense single- and double-layer matrices `[S, D]` from the
    /// exact-entry pass, and the merged diagnostics: the per-medium view the
    /// tests check.
    fn medium_matrices(
        mesh: &PatchMesh,
        g1: &PeriodicGreen3d,
        g2: &PeriodicGreen3d,
        scheme: AssemblyScheme,
        eval: KernelEval,
        parallelism: AssemblyParallelism,
    ) -> ([[CMatrix; 2]; 2], AssemblyStats) {
        let n = mesh.len();
        let (rows, stats) = dense_rows(mesh, g1, g2, scheme, eval, parallelism);
        let mut media = [0, 1].map(|_| [CMatrix::zeros(n, n), CMatrix::zeros(n, n)]);
        for (i, row) in rows.iter().enumerate() {
            for (j, entry) in row.iter().enumerate() {
                for ([single, double], &(s, d)) in media.iter_mut().zip(entry) {
                    single[(i, j)] = s;
                    double[(i, j)] = d;
                }
            }
        }
        (media, stats)
    }

    /// Both media's `[S, D]` of `mesh` with kernels `g1`, `g2` under
    /// `scheme`, the default kernel evaluation and parallelism.
    fn media(
        mesh: &PatchMesh,
        g1: &PeriodicGreen3d,
        g2: &PeriodicGreen3d,
        scheme: AssemblyScheme,
    ) -> ([[CMatrix; 2]; 2], AssemblyStats) {
        medium_matrices(
            mesh,
            g1,
            g2,
            scheme,
            KernelEval::default(),
            AssemblyParallelism::default(),
        )
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

    fn bits(z: c64) -> (u64, u64) {
        (z.re.to_bits(), z.im.to_bits())
    }

    #[test]
    fn single_layer_is_symmetric_and_diagonally_dominant_in_magnitude() {
        let mesh = small_mesh();
        let g1 = PeriodicGreen3d::new(c64::new(2.0e5, 0.0), 5e-6);
        let g2 = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let ([_, [single, _]], _) = media(&mesh, &g1, &g2, AssemblyScheme::default());
        let n = mesh.len();
        for i in 0..n {
            for j in 0..n {
                // Far pairs sample the even kernel at opposite separations and
                // are symmetric; near pairs are integrated from each side over
                // the tangent plane of their own source cell and may differ by
                // a few percent on a curved surface.
                let a = single[(i, j)];
                let b = single[(j, i)];
                assert!(
                    (a - b).abs() <= 0.15 * a.abs().max(b.abs()),
                    "S[{i}][{j}] vs S[{j}][{i}]: {a} vs {b}"
                );
            }
            // The singular self integral dominates neighbouring interactions.
            assert!(single[(i, i)].abs() > single[(i, (i + 1) % n)].abs());
        }
    }

    #[test]
    fn double_layer_vanishes_for_flat_surface() {
        // On a flat patch every separation is horizontal and every normal is
        // vertical; the z-gradient of the periodic kernel at Δz = 0 vanishes
        // by symmetry, so the whole double-layer block must be ~0 in both
        // media.
        let mesh = PatchMesh::from_surface(&RoughSurface::flat(4, 5e-6));
        let g1 = PeriodicGreen3d::new(c64::new(2.0e5, 0.0), 5e-6);
        let g2 = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let (media, _) = media(&mesh, &g1, &g2, AssemblyScheme::default());
        for (m, [single, double]) in media.iter().enumerate() {
            let scale = single[(0, 0)].abs();
            for i in 0..mesh.len() {
                for j in 0..mesh.len() {
                    assert!(
                        double[(i, j)].abs() < 1e-10 * scale,
                        "medium {m}: D[{i}][{j}] = {}",
                        double[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn self_term_scales_roughly_linearly_with_cell_size() {
        // The dominant static self integral is proportional to Δ (not Δ²).
        let g = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let self_term = |cells| {
            let mesh = PatchMesh::from_surface(&RoughSurface::flat(cells, 5e-6));
            media(&mesh, &g, &g, AssemblyScheme::default()).0[1][0][(0, 0)].abs()
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
        // close to the direct-neighbour magnitude, in both media.
        let mesh = PatchMesh::from_surface(&RoughSurface::flat(6, 5e-6));
        let g1 = PeriodicGreen3d::new(c64::new(2.0e5, 0.0), 5e-6);
        let g2 = PeriodicGreen3d::new(c64::new(1.5e6, 1.5e6), 5e-6);
        let (media, _) = media(&mesh, &g1, &g2, AssemblyScheme::default());
        for [single, _] in &media {
            // Row 0: cell (0, 0); its +x neighbour is cell 1, its seam
            // neighbour across x is cell 5.
            let direct = single[(0, 1)];
            let seam = single[(0, 5)];
            assert!(
                (direct - seam).abs() < 1e-9 * direct.abs(),
                "direct {direct} vs seam {seam}"
            );
        }
    }

    #[test]
    fn flat_self_term_matches_the_closed_form() {
        // On a flat cell the static part is the closed-form `1/R` integral
        // over the Δ × Δ square; the smooth remainder `(e^{jkR} − 1)/(4πR)`
        // and the periodic images contribute their value at the origin times
        // the cell area. The corrected scheme integrates the remainder instead
        // of sampling it once, a sub-percent difference at this low frequency.
        let mesh = PatchMesh::from_surface(&RoughSurface::flat(4, 5e-6));
        let g1 = PeriodicGreen3d::new(c64::new(1.0e5, 0.0), 5e-6);
        let g2 = PeriodicGreen3d::new(c64::new(1.0e5, 1.0e5), 5e-6);
        let delta = mesh.cell_size();
        let (media, _) = media(&mesh, &g1, &g2, AssemblyScheme::default());
        for ([single, _], g) in media.iter().zip([&g1, &g2]) {
            let closed_form =
                c64::from_real(inverse_r_integral_over_rectangle(delta, delta) / (4.0 * PI))
                    + (smooth_part_at_origin(g.wavenumber()) + g.regularized(0.0, 0.0, 0.0).value)
                        * (delta * delta);
            let corrected = single[(0, 0)];
            assert!(
                (corrected - closed_form).abs() < 1e-2 * closed_form.abs(),
                "{corrected} vs {closed_form}"
            );
        }
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
        let model = [c64::new(2.0e5, 0.0), c64::new(1.0e6, 1.0e6)];
        let stack = rough_em::material::Stackup::paper_baseline();
        let f16 = rough_em::units::GigaHertz::new(16.0).into();
        let paper = [stack.k1(f16), stack.k2(f16)];
        for (mesh, [k1, k2]) in [
            (small_mesh(), model),
            (fig5_spheroid_mesh(6, 5e-6), model),
            (fig5_spheroid_mesh(8, 12e-6), paper),
        ] {
            let g1 = PeriodicGreen3d::new(k1, mesh.patch_length());
            let g2 = PeriodicGreen3d::new(k2, mesh.patch_length());
            let assemble = |eval| {
                medium_matrices(&mesh, &g1, &g2, scheme, eval, AssemblyParallelism::Serial).0
            };
            let scalar = assemble(KernelEval::Scalar);
            let batched = assemble(KernelEval::Batched);
            for (m, ([s_scalar, d_scalar], [s_batched, d_batched])) in
                scalar.iter().zip(&batched).enumerate()
            {
                // Entries that nearly cancel (e.g. far double-layer entries on
                // almost-coplanar pairs) carry rounding noise proportional to
                // the *largest* entry of their block, so that is the scale the
                // rounding-level agreement is measured against.
                let scale_s = max_abs(s_scalar);
                let scale_d = max_abs(d_scalar).max(scale_s);
                for i in 0..mesh.len() {
                    for j in 0..mesh.len() {
                        let (a, b) = (s_scalar[(i, j)], s_batched[(i, j)]);
                        assert!(
                            (a - b).abs() <= 1e-12 * (scale_s + a.abs()),
                            "medium {m}: S[{i}][{j}]: {a} vs {b}"
                        );
                        let (a, b) = (d_scalar[(i, j)], d_batched[(i, j)]);
                        assert!(
                            (a - b).abs() <= 1e-12 * (scale_d + a.abs()),
                            "medium {m}: D[{i}][{j}]: {a} vs {b}"
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
        let g1 = PeriodicGreen3d::new(c64::new(2.0e5, 0.0), 5e-6);
        let g2 = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let scheme = AssemblyScheme::default();
        for mesh in [small_mesh(), fig5_spheroid_mesh(6, 5e-6)] {
            for eval in [KernelEval::Batched, KernelEval::Scalar] {
                let assemble =
                    |parallelism| medium_matrices(&mesh, &g1, &g2, scheme, eval, parallelism);
                let (serial, serial_stats) = assemble(AssemblyParallelism::Serial);
                let flat_region = mesh.cells().iter().any(is_flat);
                assert_eq!(
                    serial_stats.reused_entries > 0,
                    flat_region,
                    "{eval:?}: {serial_stats:?}"
                );
                for threads in [1usize, 2, 4, 8] {
                    let (parallel, parallel_stats) =
                        assemble(AssemblyParallelism::workers(threads));
                    for (m, (a, b)) in serial.iter().zip(&parallel).enumerate() {
                        for (name, a, b) in [("S", &a[0], &b[0]), ("D", &a[1], &b[1])] {
                            for i in 0..mesh.len() {
                                for j in 0..mesh.len() {
                                    assert_eq!(
                                        bits(a[(i, j)]),
                                        bits(b[(i, j)]),
                                        "{eval:?} medium {m} {name}[{i}][{j}] at {threads} threads"
                                    );
                                }
                            }
                        }
                    }
                    assert_eq!(
                        parallel_stats, serial_stats,
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
        let scheme = AssemblyScheme::LocallyCorrected(policy);
        for (tile, [k1, k2]) in flat_table_regimes() {
            let g1 = PeriodicGreen3d::new(k1, tile);
            let g2 = PeriodicGreen3d::new(k2, tile);
            for cells in [8, 10] {
                let flat = PatchMesh::from_surface(&RoughSurface::flat(cells, tile));
                for mesh in [flat, fig5_spheroid_mesh(cells, tile)] {
                    assert!(is_flat(&mesh.cells()[0]) && is_flat(&mesh.cells()[cells - 1]));
                    let (table, t) = media(&mesh, &g1, &g2, scheme);
                    let (oracle, o) = per_pair(|| media(&mesh, &g1, &g2, scheme));
                    let pass = ExactEntries::new(
                        &mesh,
                        &g1,
                        &g2,
                        policy,
                        KernelEval::default(),
                        AssemblyParallelism::default(),
                    );
                    for entry in pass.flat.slots.iter().flatten() {
                        let (i, j) = entry.first;
                        for (m, &(s, d)) in entry.exact.iter().enumerate() {
                            assert_eq!(bits(s), bits(oracle[m][0][(i, j)]));
                            assert_eq!(bits(d), bits(oracle[m][1][(i, j)]));
                            assert_eq!(bits(table[m][0][(i, j)]), bits(s));
                        }
                    }
                    for (m, (table, oracle)) in table.iter().zip(&oracle).enumerate() {
                        let scale = max_abs(&oracle[0]).max(max_abs(&oracle[1]));
                        for i in 0..mesh.len() {
                            for j in 0..mesh.len() {
                                for (name, a, b) in [
                                    ("S", table[0][(i, j)], oracle[0][(i, j)]),
                                    ("D", table[1][(i, j)], oracle[1][(i, j)]),
                                ] {
                                    assert!(
                                        (a - b).abs() <= 1e-13 * scale,
                                        "{cells} cells, medium {m}: {name}[{i}][{j}] {a} vs {b}"
                                    );
                                }
                            }
                        }
                    }
                    // Each copy replaces one per-pair integration, and the
                    // copies add no adaptive work.
                    assert!(t.reused_entries > 0 && o.reused_entries == 0, "{t:?}");
                    assert_eq!(t.corrected_entries + t.reused_entries, o.corrected_entries);
                    assert!(t.adaptive_panels < o.adaptive_panels);
                    assert!(t.depth_cap_hits <= o.depth_cap_hits);
                    assert!(t.unconverged_entries <= o.unconverged_entries);
                }
            }
        }
    }

    /// A `cells`-cell Gaussian-roughness realization with σ = η = `tile`/5:
    /// on the 5 µm tile, the σ = η = 1 µm surface of the SSCM scenarios.
    fn gaussian_mesh(cells: usize, tile: f64, seed: u64) -> PatchMesh {
        use rand::SeedableRng;
        use rough_surface::generation::SpectralSurfaceGenerator;
        use rough_surface::CorrelationFunction;
        let cf = CorrelationFunction::gaussian(tile / 5.0, tile / 5.0);
        let generator = SpectralSurfaceGenerator::new(cf, cells, tile).expect("valid grid");
        PatchMesh::from_surface(&generator.generate(&mut rand::rngs::StdRng::seed_from_u64(seed)))
    }

    /// The largest surface slope of `mesh` along either axis.
    fn steepest(mesh: &PatchMesh) -> f64 {
        mesh.cells()
            .iter()
            .fold(0.0f64, |s, c| s.max(c.fx.abs()).max(c.fy.abs()))
    }

    #[test]
    fn image_table_matches_direct_regularized_samples() {
        // Every corrected entry reads its periodic-image points from the
        // image tables; the oracle evaluates each point directly. In every
        // kernel regime, on the spheroid, a steep Gaussian mesh, a near-flat
        // one (heights ~1e-12 m, like the KL germ at the origin) and an
        // exactly flat one (one level), in both media: every near S within
        // 1e-12 of the medium's largest near |S|, every near D within 1e-12
        // of its largest near |D| or the ½ free term it joins in paper
        // eq. (9), whichever is larger (D is dimensionless and S a length,
        // and on the near-flat mesh the conductor's D differs between two
        // direct evaluations, batched and scalar, by more than 1e-12 of its
        // |S|), every far entry bit-equal, and the same adaptive work.
        let scheme = AssemblyScheme::default();
        for (tile, [k1, k2]) in flat_table_regimes() {
            let g1 = PeriodicGreen3d::new(k1, tile);
            let g2 = PeriodicGreen3d::new(k2, tile);
            let steep = gaussian_mesh(8, tile, 0);
            assert!(steepest(&steep) >= 2.5, "{}", steepest(&steep));
            let near_flat = PatchMesh::from_surface(&RoughSurface::from_fn(8, tile, |x, y| {
                1e-12 * ((2.0 * PI * x / tile).sin() + (2.0 * PI * y / tile).cos())
            }));
            let flat = PatchMesh::from_surface(&RoughSurface::flat(8, tile));
            for (name, mesh) in [
                ("spheroid", fig5_spheroid_mesh(8, tile)),
                ("steep", steep),
                ("near-flat", near_flat),
                ("flat", flat),
            ] {
                let (table, t) = media(&mesh, &g1, &g2, scheme);
                let (oracle, o) = per_point(|| media(&mesh, &g1, &g2, scheme));
                assert_eq!(t, o, "{name}, tile {tile:e}");
                let n = mesh.len();
                let radius = NearFieldPolicy::default().radius * mesh.cell_size();
                let near = |i: usize, j: usize| {
                    let pair = MinImage::new(&mesh.cells()[i], &mesh.cells()[j], tile);
                    i == j || pair.distance_sq() < radius * radius
                };
                for (m, (table, oracle)) in table.iter().zip(&oracle).enumerate() {
                    let mut scale = [0.0f64, 0.5];
                    for i in 0..n {
                        for j in (0..n).filter(|&j| near(i, j)) {
                            for (s, block) in scale.iter_mut().zip(oracle) {
                                *s = s.max(block[(i, j)].abs());
                            }
                        }
                    }
                    for i in 0..n {
                        for j in 0..n {
                            for (q, a, b, scale) in [
                                ("S", table[0][(i, j)], oracle[0][(i, j)], scale[0]),
                                ("D", table[1][(i, j)], oracle[1][(i, j)], scale[1]),
                            ] {
                                if near(i, j) {
                                    assert!(
                                        (a - b).abs() <= 1e-12 * scale,
                                        "{name}, tile {tile:e}, medium {m}: {q}[{i}][{j}] {a} vs {b}"
                                    );
                                } else {
                                    assert_eq!(bits(a), bits(b), "{name}: far {q}[{i}][{j}]");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn image_tables_evaluate_a_pinned_few_kernel_samples() {
        // The near field's regularized kernel evaluations are the image
        // tables' nodes: a count fixed by the mesh and the kernels, the same
        // at any worker count, and far below the 9 points × 2 media of every
        // integrated corrected pair that the per-point rule evaluated. On
        // the 8-cell Fig. 5 spheroid and an 8-cell σ = η = 1 µm Gaussian
        // tile, at the SSCM benchmark's 2 and 8 GHz. (At 16 GHz the
        // spheroid's 1.5 µm cells need more conductor levels: 3,450 nodes
        // against 15,174 per-point samples.)
        let stack = rough_em::material::Stackup::paper_baseline();
        for (mesh, ghz, pinned) in [
            (fig5_spheroid_mesh(8, 12e-6), 2.0, 2010),
            (fig5_spheroid_mesh(8, 12e-6), 8.0, 2790),
            (gaussian_mesh(8, 5e-6, 1), 2.0, 2040),
            (gaussian_mesh(8, 5e-6, 1), 8.0, 2070),
        ] {
            let f: rough_em::units::Frequency = rough_em::units::GigaHertz::new(ghz).into();
            let g1 = PeriodicGreen3d::new(stack.k1(f), mesh.patch_length());
            let g2 = PeriodicGreen3d::new(stack.k2(f), mesh.patch_length());
            for workers in [1, 2] {
                let (_, stats) = dense_rows(
                    &mesh,
                    &g1,
                    &g2,
                    AssemblyScheme::default(),
                    KernelEval::default(),
                    AssemblyParallelism::workers(workers),
                );
                let per_point = 18 * (stats.corrected_entries / 2);
                assert_eq!(stats.image_samples, pinned, "{ghz} GHz, {workers} workers");
                assert!(5 * stats.image_samples < per_point, "{stats:?}");
            }
        }
    }

    #[test]
    fn corrected_assembly_reports_adaptive_statistics() {
        let mesh = small_mesh();
        let g1 = PeriodicGreen3d::new(c64::new(2.0e5, 0.0), 5e-6);
        let g2 = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let ([_, [single, _]], stats) = media(&mesh, &g1, &g2, AssemblyScheme::default());
        // Every row corrects its self cell plus its near neighbours, in each
        // medium.
        assert!(stats.corrected_entries >= 2 * mesh.len());
        assert!(stats.adaptive_panels >= stats.corrected_entries);
        // On this rough conductor-side mesh a handful of entries hit the
        // depth cap with a (tiny, ~1e-10 absolute) residual error — which is
        // exactly what the stats exist to surface instead of silently
        // accepting. The achieved error must still be well below the
        // self-term scale.
        let self_scale = single[(0, 0)].abs();
        assert!(
            stats.max_entry_error < 1e-2 * self_scale,
            "{stats:?} vs self scale {self_scale}"
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
        let (_, stats) = media(&mesh, &g, &g, starved);
        assert!(
            !stats.all_converged(),
            "an order-1 rule at the default tolerance must hit the depth cap: {stats:?}"
        );
        assert!(stats.depth_cap_hits > 0);
        assert!(stats.max_entry_error > 0.0);
        // A starved rule must report *more* truncation than the default one.
        let (_, healthy) = media(&mesh, &g, &g, AssemblyScheme::default());
        assert!(stats.unconverged_entries >= healthy.unconverged_entries);
    }

    #[test]
    fn system_blocks_are_the_media_entries() {
        // The dense system is the 2 × 2 block of paper eq. (9) per pair, read
        // from the same pass as the per-medium matrices.
        let mesh = fig5_spheroid_mesh(6, 5e-6);
        let g1 = PeriodicGreen3d::new(c64::new(2.0e5, 0.0), 5e-6);
        let g2 = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let beta = c64::new(0.0, -1e-7);
        let scheme = AssemblyScheme::default();
        let system = assemble_system(&mesh, &g1, &g2, beta, c64::new(2.0e5, 0.0), scheme);
        let ([[s1, d1], [s2, d2]], stats) = media(&mesh, &g1, &g2, scheme);
        assert_eq!(system.stats, stats);
        let n = mesh.len();
        let half = c64::from_real(0.5);
        for i in 0..n {
            for j in 0..n {
                let free = if i == j { half } else { c64::zero() };
                for (got, want) in [
                    (system.matrix[(i, j)], free - d1[(i, j)]),
                    (system.matrix[(i, n + j)], beta * s1[(i, j)]),
                    (system.matrix[(n + i, j)], free + d2[(i, j)]),
                    (system.matrix[(n + i, n + j)], -s2[(i, j)]),
                ] {
                    assert_eq!(bits(got), bits(want), "({i}, {j})");
                }
            }
        }
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
        let g1 = PeriodicGreen3d::new(c64::new(2.0e5, 0.0), 5e-6);
        let g2 = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 7e-6);
        let _ = assemble_system(
            &mesh,
            &g1,
            &g2,
            c64::one(),
            c64::new(2.0e5, 0.0),
            AssemblyScheme::default(),
        );
    }

    #[test]
    #[should_panic(expected = "near-field policy must be valid")]
    fn invalid_near_field_policy_panics_before_assembly() {
        // A NaN radius classifies no pair as near; without the check the
        // self pair reached the far midpoint sample at zero separation.
        let mesh = small_mesh();
        let g = PeriodicGreen3d::new(c64::new(1.0e6, 1.0e6), 5e-6);
        let policy = NearFieldPolicy {
            radius: f64::NAN,
            order: 4,
        };
        let _ = assemble_system(
            &mesh,
            &g,
            &g,
            c64::one(),
            c64::new(2.0e5, 0.0),
            AssemblyScheme::LocallyCorrected(policy),
        );
    }
}
