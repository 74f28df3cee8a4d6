//! Matrix-free (precorrected-FFT) representation of the MOM operator.
//!
//! The dense path assembles every `O(N²)` interaction entry explicitly; this
//! module evaluates the same operator as
//!
//! ```text
//! A·x = (grid part: block-Toeplitz convolution via 3-D FFT)
//!     + (near part: sparse precorrections)  + (½ I free terms)
//! ```
//!
//! exploiting that the mesh is a *uniform periodic grid* and the Ewald kernel
//! is translation invariant: `G_p(r, r') = G_p(Δx, Δy, Δz)`.
//!
//! **Layout.** The one obstacle to a pure convolution is the height
//! `z = f(x, y)`, which is not gridded. The operator therefore interpolates
//! the kernel's z-dependence on an equispaced *slab* of `m` levels spacing
//! `h` (two-sided Lagrange interpolation of order `p`,
//! [`MatrixFreePolicy::order`]):
//!
//! ```text
//! G(Δρ, z_i − z_j) ≈ Σ_{u,v} ℓ_u(z_i) ℓ_v(z_j) · C_{u−v}(Δρ),
//! C_t(Δρ) = G(Δρ, t·h)
//! ```
//!
//! so only `2m−1` distinct *generator planes* `C_t` exist (and only `m` are
//! evaluated — the kernel is even in the separation, its gradient odd).
//! Within a plane the same symmetry holds laterally: at normal incidence on
//! the square lattice the kernel is even in x and in y and symmetric under
//! x ↔ y, so each plane evaluates only the canonical offsets
//! `0 ≤ c_x ≤ c_y ≤ ⌊n/2⌋` (66 of 400 at n = 20) and copies every other
//! offset from its canonical image, the gradient's x and y components
//! taking the mirror signs and swapping with the axes. In
//! x and y the kernel is doubly periodic with the patch period, so the lateral
//! convolution is **exactly circulant at n × n — no padding**. The z axis is
//! Toeplitz and is circulant-embedded into `M ≥ 2m−1` planes, `M` the
//! smallest 2/3/5-smooth such length (any `M ≥ 2m−1` embeds the linear
//! convolution exactly; smooth lengths keep the FFT on its fast path). One
//! matvec is then: spread the four source sets `{Ψ, −f_x Ψ, −f_y Ψ, U}` onto
//! the `M × n × n` cube with the Lagrange weights, four forward 3-D FFTs,
//! eight pointwise transfer products (value + three gradient components × two
//! media) summed into the two rows of paper eq. (9), `G₁ + β·S₁` and
//! `−(G₂ + S₂)`, two inverse FFTs, and a weighted gather.
//!
//! **Pruned transforms.** The spread writes only the `m` slab levels and
//! the gather reads only those back, so the transforms
//! ([`rough_numerics::fft::fft3_in_place_live`]) run x and y on those `m`
//! of the `M ≥ 2m−1` planes: before z on the way in, after it on the way
//! out.
//!
//! **Workers.** The operator keeps the worker count of the
//! [`AssemblyParallelism`] it was assembled under. The table FFTs of the
//! setup and, in every matvec, the four forward FFTs, the chunked products
//! and the two inverse FFTs run on that many scoped threads. Every cube and
//! every product index is computed by exactly one thread, so the matvec is
//! bit-identical at any worker count. A flat operator (one plane) stays on
//! the calling thread.
//!
//! **Precorrection.** Every pair within the corrected scheme's near radius
//! in the plane (2-D minimum image, a superset of the dense scheme's 3-D
//! near set) reads its exact entries of both media from the dense path's
//! own exact-entry pass ([`crate::assembly3d`]): the locally corrected
//! integral for 3-D near pairs (analytic statics + adaptive remainder +
//! periodic images read from the pass's image table, or its copy from the
//! flat-offset table for pairs of exactly flat cells at equal height), the
//! far midpoint sample for 2-D-near/3-D-far pairs (read from the pass's far
//! table where the dense system reads it there too; the pass builds only
//! the far columns inside the near pattern). Near entries therefore equal
//! the dense system's bit for bit. Each pair is one
//! 2 × 2 block of paper eq. (9) over one block-sparse pattern, which holds
//! two block arrays: the exact blocks, and the precorrections — the same
//! block formula applied to `exact − grid`, `grid` being the
//! slab-interpolated value read directly from the generator tables, with
//! the `½` free terms on the diagonal. A matvec adds the grid convolution
//! and one block-sparse product with the precorrections, so near entries
//! match the dense operator up to FFT roundoff; far entries carry only the
//! slab interpolation error, which the spacing rule keeps near machine
//! precision (see [`MatrixFreePolicy::safety`]).
//!
//! **Preconditioner.** [`MatrixFreeOperator::preconditioner`] factors the
//! exact blocks of that pattern by block ILU(0): no fill beyond the near
//! pattern, rows in natural cell order. Applied as a right preconditioner,
//! one forward and one back substitution per Krylov step.
//!
//! The equivalence is pinned the way `KernelEval::Scalar` pins `Batched`:
//! matvec agreement on random vectors ≤ 1e-10 relative across quasi-static,
//! lossy and high-`|k|L` regimes, and end-to-end Pr/Ps agreement with
//! DirectLu on a reduced Fig. 5 case
//! (`crates/core/tests/krylov_equivalence.rs`).

use crate::assembly3d::{
    eval_gathered, incident_rhs, system_block, Block, Columns, ExactEntries, MediaEntry, RowScratch,
};
use crate::mesh::PatchMesh;
use crate::nearfield::{AssemblyStats, KernelEval, NearFieldPolicy};
use crate::parallel::{for_each_split, map_rows, AssemblyParallelism};
use crate::tabulate::{lagrange_weights, level_spacing};
use rough_em::green::{GreenSample, PeriodicGreen3d, SeparationVector};
use rough_numerics::complex::c64;
use rough_numerics::fft::{fft3_in_place, fft3_in_place_live, next_smooth_len, Direction};
use rough_numerics::iterative::LinearOperator;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning knobs of the matrix-free operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixFreePolicy {
    /// Lagrange interpolation order `p` of the z slab (number of stencil
    /// nodes). Even, at least 4; the default 16 keeps the level count low
    /// while hitting ~1e-12 per-entry accuracy.
    pub order: usize,
    /// Multiplier `∈ (0, 1]` on the error-model level spacing; smaller is
    /// safer and costs more levels. The default 0.5 adds ≥ 4 digits of
    /// margin over the 1e-12 target.
    pub safety: f64,
}

impl Default for MatrixFreePolicy {
    fn default() -> Self {
        Self {
            order: 16,
            safety: 0.5,
        }
    }
}

impl MatrixFreePolicy {
    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.order < 4 || !self.order.is_multiple_of(2) {
            return Err(format!(
                "matrix-free interpolation order must be even and at least 4, got {}",
                self.order
            ));
        }
        if self.order > 32 {
            return Err(format!(
                "matrix-free interpolation order above 32 only adds rounding noise, got {}",
                self.order
            ));
        }
        if !(self.safety > 0.0 && self.safety <= 1.0) {
            return Err(format!(
                "matrix-free safety factor must be in (0, 1], got {}",
                self.safety
            ));
        }
        Ok(())
    }
}

/// How the MOM operator is represented during a solve — orthogonal to
/// [`crate::AssemblyScheme`] (how near entries are integrated) and
/// [`KernelEval`] (how kernel samples are evaluated).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum OperatorRepr {
    /// Explicit dense `2N × 2N` matrix (default): every entry assembled,
    /// solvable directly (LU) or iteratively.
    #[default]
    Dense,
    /// FFT-accelerated block-Toeplitz operator with sparse near-field
    /// precorrections: `O(N log N)` per matvec, Krylov solvers only.
    /// Requires the locally corrected assembly scheme.
    MatrixFree(MatrixFreePolicy),
}

impl OperatorRepr {
    /// Whether this is the matrix-free representation.
    pub fn is_matrix_free(&self) -> bool {
        matches!(self, OperatorRepr::MatrixFree(_))
    }
}

/// The equispaced z-slab shared by both media: node geometry plus the
/// per-cell Lagrange stencil (start level and `order` weights).
#[derive(Debug, Clone)]
struct SlabGrid {
    /// Number of interpolation levels `m`.
    levels: usize,
    /// Level spacing `h` (0 for a flat surface).
    spacing: f64,
    /// FFT planes `M`: the smallest 2/3/5-smooth length `≥ 2m−1` (1 for a
    /// flat surface).
    planes: usize,
    /// Active stencil width (equals the policy order, or 1 when flat).
    order: usize,
    /// Per-cell stencil start level.
    starts: Vec<usize>,
    /// Per-cell Lagrange weights, `order` consecutive entries per cell.
    weights: Vec<f64>,
}

/// Builds the slab for a mesh: levels cover `[z_min, z_max]` with `p/2` ghost
/// levels on each side so every cell gets a *centered* stencil (no
/// end-of-interval Runge degradation), `m = ceil(H/h) + p + 1`.
fn build_slab(mesh: &PatchMesh, k_max: f64, rho_min: f64, policy: &MatrixFreePolicy) -> SlabGrid {
    let cells = mesh.cells();
    let mut z_min = f64::INFINITY;
    let mut z_max = f64::NEG_INFINITY;
    for cell in cells {
        z_min = z_min.min(cell.z);
        z_max = z_max.max(cell.z);
    }
    let height = z_max - z_min;

    // A flat surface needs no interpolation at all: one level, weight one.
    if height <= 1e-9 * mesh.cell_size() {
        return SlabGrid {
            levels: 1,
            spacing: 0.0,
            planes: 1,
            order: 1,
            starts: vec![0; cells.len()],
            weights: vec![1.0; cells.len()],
        };
    }

    let p = policy.order;
    let h = level_spacing(p, k_max, rho_min, policy.safety);
    let levels = (height / h).ceil() as usize + p + 1;
    let z0 = z_min - (p as f64 / 2.0) * h;
    let planes = next_smooth_len(2 * levels - 1);

    let mut starts = Vec::with_capacity(cells.len());
    let mut weights = Vec::with_capacity(cells.len() * p);
    for cell in cells {
        let g = ((cell.z - z0) / h).floor() as isize;
        let s = (g - p as isize / 2 + 1).clamp(0, (levels - p) as isize) as usize;
        starts.push(s);
        let at = weights.len();
        weights.resize(at + p, 0.0);
        lagrange_weights((cell.z - z0) / h - s as f64, &mut weights[at..]);
    }
    SlabGrid {
        levels,
        spacing: h,
        planes,
        order: p,
        starts,
        weights,
    }
}

/// The four generator cubes of one medium (`M × n × n`, plane-major): kernel
/// value and the three gradient components. Spatial while the near
/// precorrections are computed, then forward-FFT'd in place for the matvec.
#[derive(Debug, Clone)]
struct MediumTables {
    val: Vec<c64>,
    gx: Vec<c64>,
    gy: Vec<c64>,
    gz: Vec<c64>,
}

impl MediumTables {
    fn zeroed(len: usize) -> Self {
        let zeros = vec![c64::zero(); len];
        Self {
            val: zeros.clone(),
            gx: zeros.clone(),
            gy: zeros.clone(),
            gz: zeros,
        }
    }
}

/// Everything `build_tables` reads, as a hashable value: the generator
/// tables depend only on kernel × grid × slab, not on the surface heights.
/// Floats enter as IEEE-754 bit patterns so equality is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TableKey {
    k_re_bits: u64,
    k_im_bits: u64,
    period_bits: u64,
    eval: KernelEval,
    side: usize,
    delta_bits: u64,
    spacing_bits: u64,
    levels: usize,
    planes: usize,
}

impl TableKey {
    fn new(
        green: &PeriodicGreen3d,
        eval: KernelEval,
        side: usize,
        delta: f64,
        slab: &SlabGrid,
    ) -> Self {
        let k = green.wavenumber();
        Self {
            k_re_bits: k.re.to_bits(),
            k_im_bits: k.im.to_bits(),
            period_bits: green.period().to_bits(),
            eval,
            side,
            delta_bits: delta.to_bits(),
            spacing_bits: slab.spacing.to_bits(),
            levels: slab.levels,
            planes: slab.planes,
        }
    }
}

/// Shared cache of the *spatial* generator tables of the matrix-free
/// operator, keyed by exactly the inputs `build_tables` reads (kernel ×
/// grid × slab — never the surface heights). Dominant reuse patterns: the
/// realizations of one ensemble case share a key pair, and so do the rough
/// solve and its flat reference whenever the rough slab collapses (or two
/// realizations land on the same level count, which the deterministic
/// spacing rule makes common).
///
/// A hit returns the stored planes untouched — byte-identical to a fresh
/// `build_tables` call — so results are bit-identical with and without the
/// cache. The batch engine owns one instance per `KernelCache` and threads it
/// through [`crate::SwmOperator::with_table_cache`]; hit/miss counters feed
/// campaign cache statistics.
#[derive(Debug, Default)]
pub struct MfTableCache {
    map: Mutex<HashMap<TableKey, Arc<MediumTables>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl MfTableCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generator-table builds served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Generator-table builds that had to evaluate the kernel.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Distinct table sets currently stored.
    pub fn entries(&self) -> usize {
        self.map.lock().expect("mf table cache poisoned").len()
    }

    /// Drops all stored tables (counters are preserved).
    pub fn clear(&self) {
        self.map.lock().expect("mf table cache poisoned").clear();
    }

    /// Returns the cached spatial tables for `key`, building and storing them
    /// on a miss. Concurrent misses may build twice; the first insert wins so
    /// every caller sees one canonical value.
    fn get_or_build(
        &self,
        key: TableKey,
        build: impl FnOnce() -> MediumTables,
    ) -> Arc<MediumTables> {
        if let Some(hit) = self.map.lock().expect("mf table cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        let built = Arc::new(build());
        self.misses.fetch_add(1, Ordering::Relaxed);
        Arc::clone(
            self.map
                .lock()
                .expect("mf table cache poisoned")
                .entry(key)
                .or_insert(built),
        )
    }
}

/// Block-sparse rows: row `i` holds the blocks `start[i]..start[i + 1]` of
/// `cols`/`blocks`, columns ascending.
#[derive(Debug, Clone, Default)]
struct BlockRows {
    start: Vec<usize>,
    cols: Vec<usize>,
    blocks: Vec<Block>,
}

/// The matrix-free MOM operator of paper eq. (9): grid convolution plus one
/// block-sparse near-field precorrection that also carries the `½ I` free
/// terms. Implements [`LinearOperator`], so it plugs straight into
/// [`crate::solver::solve_operator`].
#[derive(Debug, Clone)]
pub struct MatrixFreeOperator {
    /// Cells per side `n`.
    side: usize,
    /// Surface unknowns `N = n²` (operator dimension is `2N`).
    ncells: usize,
    area: f64,
    beta: c64,
    slab: SlabGrid,
    /// Spectral generator tables, media 1 and 2.
    tables: [MediumTables; 2],
    /// The exact operator on the near pattern, one block per near pair:
    /// `[[½δᵢⱼ − D₁ᵢⱼ, β·S₁ᵢⱼ], [½δᵢⱼ + D₂ᵢⱼ, −S₂ᵢⱼ]]`, the raw material of
    /// the near-field preconditioner.
    exact: BlockRows,
    /// The precorrection of each block of `exact`, in the same pattern: the
    /// same block formula applied to `exact − grid` of both media, so the
    /// grid part plus it gives the exact block, free terms included.
    corrections: Vec<Block>,
    /// Per-cell surface slopes (source-side weights of the double layer).
    fx: Vec<f64>,
    fy: Vec<f64>,
    rhs: Vec<c64>,
    stats: AssemblyStats,
    /// Threads of the setup's table FFTs and of every [`LinearOperator::apply`]:
    /// the assembly's worker count, or 1 for a flat (one-plane) operator,
    /// whose transforms cost less than spawning a thread.
    workers: usize,
}

impl MatrixFreeOperator {
    /// Assembles the matrix-free operator for one surface realization: slab
    /// geometry, generator tables (one batched kernel evaluation per z
    /// level over the canonical lateral offsets, the levels spread over
    /// `parallelism`), the exact near blocks and their precorrections (the
    /// dense path's exact-entry pass over the near pattern, its kernel-table
    /// levels and rows spread over `parallelism`), and the incident-field
    /// right-hand side. The matvec runs on the same number of workers. The
    /// operator and its matvec are bit-identical at any worker count.
    ///
    /// Mirrors [`crate::assembly3d::assemble_system_with`]: `g1`/`g2` are the
    /// periodic kernels of the two media, `beta` the boundary contrast, `k1`
    /// the incident wavenumber, `policy` the near-field radius/order of the
    /// locally corrected scheme.
    ///
    /// # Panics
    ///
    /// Panics if a kernel period does not match the mesh patch length, or if
    /// the near-field or matrix-free policy is invalid (callers validate via
    /// [`NearFieldPolicy::validate`] and [`MatrixFreePolicy::validate`]
    /// first).
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        mesh: &PatchMesh,
        g1: &PeriodicGreen3d,
        g2: &PeriodicGreen3d,
        beta: c64,
        k1: c64,
        policy: NearFieldPolicy,
        mf: MatrixFreePolicy,
        eval: KernelEval,
        parallelism: AssemblyParallelism,
    ) -> Self {
        Self::assemble_with_cache(mesh, g1, g2, beta, k1, policy, mf, eval, parallelism, None)
    }

    /// [`MatrixFreeOperator::assemble`] with the generator-table builds routed
    /// through a shared [`MfTableCache`]. The cache stores spatial tables
    /// byte-identical to a fresh build, so the assembled operator (and every
    /// downstream solve) is bit-identical with and without it; what a hit
    /// saves is the batched kernel evaluation over the `m` levels' canonical
    /// generator samples. Folded by the lattice's symmetry, that is a small
    /// share of the setup: the exact near entries (analytic statics,
    /// adaptive remainder and the kernel tables) take most of it.
    ///
    /// # Panics
    ///
    /// As [`MatrixFreeOperator::assemble`].
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_with_cache(
        mesh: &PatchMesh,
        g1: &PeriodicGreen3d,
        g2: &PeriodicGreen3d,
        beta: c64,
        k1: c64,
        policy: NearFieldPolicy,
        mf: MatrixFreePolicy,
        eval: KernelEval,
        parallelism: AssemblyParallelism,
        table_cache: Option<&MfTableCache>,
    ) -> Self {
        // Both policies are checked before the slab is sized from the near
        // radius: the pass checks the near-field one and the kernels.
        mf.validate().expect("matrix-free policy must be valid");
        let pass = ExactEntries::new(
            mesh,
            g1,
            g2,
            policy,
            eval,
            parallelism,
            Columns::LaterallyNear,
        );

        let side = mesh.cells_per_side();
        let ncells = mesh.len();
        let cells = mesh.cells();
        let area = mesh.cell_area();
        let delta = mesh.cell_size();

        let k_max = g1.wavenumber().abs().max(g2.wavenumber().abs());
        let slab = build_slab(mesh, k_max, policy.radius * delta, &mf);

        // Generator tables (spatial), one batched kernel call per z level
        // over the canonical lateral offsets, the levels spread over
        // `parallelism`.
        let fetch = |green: &PeriodicGreen3d| -> Arc<MediumTables> {
            let build = || build_tables(green, eval, side, delta, &slab, parallelism);
            match table_cache {
                Some(cache) => {
                    cache.get_or_build(TableKey::new(green, eval, side, delta, &slab), build)
                }
                None => Arc::new(build()),
            }
        };
        let tables = [fetch(g1), fetch(g2)];

        // Near field: every 2-D minimum-image near pair (a superset of the
        // dense 3-D near set) gets its exact block from the dense path's
        // pass and the precorrection `exact − grid`.
        let rows = map_rows(ncells, parallelism.worker_count(), RowScratch::default, {
            let (pass, slab, tables) = (&pass, &slab, &tables);
            move |i, scratch| {
                let cols: Vec<usize> = (0..ncells).filter(|&j| pass.laterally_near(i, j)).collect();
                let mut stats = AssemblyStats::default();
                let entries = pass.row(i, cols.iter().copied(), scratch, &mut stats);
                let blocks: Vec<[Block; 2]> = cols
                    .iter()
                    .zip(entries)
                    .map(|(&j, &exact)| {
                        let cj = &cells[j];
                        let grid = grid_entry(tables, slab, side, area, i, j, cj.fx, cj.fy);
                        let correction: MediaEntry =
                            [0, 1].map(|m| (exact[m].0 - grid[m].0, exact[m].1 - grid[m].1));
                        [
                            system_block(exact, beta, i == j),
                            system_block(correction, beta, i == j),
                        ]
                    })
                    .collect();
                (cols, blocks, stats)
            }
        });

        let mut exact = BlockRows::default();
        let mut corrections = Vec::new();
        let mut stats = pass.table_stats();
        for (cols, blocks, row_stats) in rows {
            exact.start.push(exact.cols.len());
            exact.cols.extend(cols);
            for [block, correction] in blocks {
                exact.blocks.push(block);
                corrections.push(correction);
            }
            stats.merge(&row_stats);
        }
        exact.start.push(exact.cols.len());

        // The precorrections are settled; switch the generator tables to the
        // spectral domain for the matvec, the eight cubes split over the
        // workers. Tables built for this operator alone are moved; a cached
        // entry stays spatial, so the FFT acts on a private clone of it.
        let workers = match slab.planes {
            1 => 1,
            _ => parallelism.worker_count(),
        };
        let mut tables = tables.map(Arc::unwrap_or_clone);
        let mut cubes: Vec<&mut Vec<c64>> = tables
            .iter_mut()
            .flat_map(|t| [&mut t.val, &mut t.gx, &mut t.gy, &mut t.gz])
            .collect();
        for_each_split(&mut cubes, workers, |cube| {
            let Ok(()) = fft3_in_place(cube, slab.planes, side, side, Direction::Forward);
        });

        Self {
            side,
            ncells,
            area,
            beta,
            slab,
            tables,
            exact,
            corrections,
            fx: cells.iter().map(|c| c.fx).collect(),
            fy: cells.iter().map(|c| c.fy).collect(),
            rhs: incident_rhs(mesh, k1),
            stats,
            workers,
        }
    }

    /// The incident-field right-hand side of paper eq. (9) (plane wave on the
    /// upper block, zeros below).
    pub fn rhs(&self) -> &[c64] {
        &self.rhs
    }

    /// Number of surface unknowns `N` (the operator dimension is `2N`).
    pub fn surface_unknowns(&self) -> usize {
        self.ncells
    }

    /// Merged integration diagnostics of the near-field precorrections (both
    /// media), matching the dense assembly's reporting: the counts cover
    /// integrations actually performed, and exact entries copied from the
    /// flat-offset table count in [`AssemblyStats::reused_entries`].
    pub fn stats(&self) -> &AssemblyStats {
        &self.stats
    }

    /// Number of z-interpolation levels `m` (diagnostics; 1 for a flat
    /// surface).
    pub fn slab_levels(&self) -> usize {
        self.slab.levels
    }

    /// Number of FFT planes `M` of the circulant embedding: the smallest
    /// 2/3/5-smooth length `≥ 2m−1` (diagnostics).
    pub fn fft_planes(&self) -> usize {
        self.slab.planes
    }

    /// Number of near-field corrections (both media, two per near pair;
    /// diagnostics — `O(N)`, against the dense representation's `O(N²)`
    /// entries).
    pub fn near_corrections(&self) -> usize {
        2 * self.exact.cols.len()
    }

    /// Builds the near-field preconditioner: the block ILU(0) factors of the
    /// operator restricted to its near pattern, from the exact near blocks
    /// the setup stored. Each near pair `(i, j)` is
    /// the 2 × 2 block `[[½δᵢⱼ − D₁ᵢⱼ, β·S₁ᵢⱼ], [½δᵢⱼ + D₂ᵢⱼ, −S₂ᵢⱼ]]`. The
    /// factorization runs serially in natural cell order, so it is
    /// bit-identical at any worker count; applying it is `O(N)`.
    pub fn preconditioner(&self) -> NearFieldPreconditioner {
        NearFieldPreconditioner::factor(self.exact.clone())
    }

    /// Spreads per-cell source values onto the empty `cube` with the slab
    /// weights: `cube[v][iy][ix] += ℓ_v(z_j) · value_j` (each cell owns one
    /// lateral position, so there are no write conflicts). The cube is
    /// zero-filled first; only the slab's `levels` leading planes get values.
    fn spread(&self, values: &[c64], cube: &mut Vec<c64>) {
        let nn = self.ncells;
        let p = self.slab.order;
        debug_assert!(cube.is_empty(), "spread needs an empty cube");
        cube.resize(self.slab.planes * nn, c64::zero());
        for (j, &v) in values.iter().enumerate() {
            let s = self.slab.starts[j];
            for l in 0..p {
                cube[(s + l) * nn + j] += v.scale(self.slab.weights[j * p + l]);
            }
        }
    }

    /// Gathers the convolution output back to the cells with the same slab
    /// weights, scaled by the cell area (the quadrature measure of the
    /// midpoint far-field rule). Reads only the slab's `levels` leading
    /// planes.
    fn gather(&self, cube: &[c64], out: &mut [c64]) {
        let nn = self.ncells;
        let p = self.slab.order;
        for (i, slot) in out.iter_mut().enumerate() {
            let s = self.slab.starts[i];
            let mut acc = c64::zero();
            for l in 0..p {
                acc += cube[(s + l) * nn + i].scale(self.slab.weights[i * p + l]);
            }
            *slot = acc.scale(self.area);
        }
    }
}

impl LinearOperator for MatrixFreeOperator {
    fn dim(&self) -> usize {
        2 * self.ncells
    }

    fn apply(&self, x: &[c64]) -> Vec<c64> {
        let n = self.ncells;
        let (side, planes, live) = (self.side, self.slab.planes, self.slab.levels);
        let (x1, x2) = x.split_at(n);

        // The four shared source sets `{U, Ψ, −f_x Ψ, −f_y Ψ}`, each spread
        // onto its cube and transformed on a worker. Every cube is allocated
        // on this thread, so the freed memory returns to one heap; the
        // workers fill it. Only the `live` slab levels are non-zero.
        let sloped =
            |f: &[f64]| -> Vec<c64> { x1.iter().zip(f).map(|(v, &f)| v.scale(-f)).collect() };
        let (src_fx, src_fy) = (sloped(&self.fx), sloped(&self.fy));
        let mut cubes = [x2, x1, &src_fx, &src_fy].map(|v| (v, Vec::with_capacity(planes * n)));
        for_each_split(&mut cubes, self.workers, |(values, cube)| {
            self.spread(values, cube);
            let Ok(()) = fft3_in_place_live(cube, planes, side, side, live, Direction::Forward);
        });
        let [(_, mut top), (_, mut bottom), (_, cube_fx), (_, cube_fy)] = cubes;

        // Pointwise transfer products, the two media combined per paper
        // eq. (9) and written over the `U` and `Ψ` cubes:
        //
        //   top ← G₁ + β·S₁,   bottom ← −(G₂ + S₂),
        //
        // with `S_m = val_m·U` and `G_m = gx_m·F_x + gy_m·F_y + gz_m·Ψ`. The
        // double-layer spread sets carry `(−f_x, −f_y, 1)`, the source normal
        // times its Jacobian, so `G_m` gathers to `Σ_j (∇G·n̂_j J_j) Ψ_j`, the
        // negative of `D_m·Ψ`. Each index is independent, so the chunks run
        // on the workers.
        let [t1, t2] = &self.tables;
        let beta = self.beta;
        let chunk = (planes * n).div_ceil(self.workers);
        let mut ranges: Vec<_> = top
            .chunks_mut(chunk)
            .zip(bottom.chunks_mut(chunk))
            .enumerate()
            .map(|(c, (u, psi))| (c * chunk, u, psi))
            .collect();
        for_each_split(&mut ranges, self.workers, |(start, u, psi)| {
            let r = *start..*start + u.len();
            let (fx, fy) = (&cube_fx[r.clone()], &cube_fy[r.clone()]);
            let [v1, gx1, gy1, gz1] = [&t1.val, &t1.gx, &t1.gy, &t1.gz].map(|c| &c[r.clone()]);
            let [v2, gx2, gy2, gz2] = [&t2.val, &t2.gx, &t2.gy, &t2.gz].map(|c| &c[r.clone()]);
            for k in 0..u.len() {
                let (uk, pk) = (u[k], psi[k]);
                let g1 = gx1[k] * fx[k] + gy1[k] * fy[k] + gz1[k] * pk;
                let g2 = gx2[k] * fx[k] + gy2[k] * fy[k] + gz2[k] * pk;
                u[k] = g1 + beta * (v1[k] * uk);
                psi[k] = -(g2 + v2[k] * uk);
            }
        });

        // Two inverse transforms, needed on the live levels only.
        let mut rows = [top, bottom];
        for_each_split(&mut rows, self.workers, |cube| {
            let Ok(()) = fft3_in_place_live(cube, planes, side, side, live, Direction::Inverse);
        });

        // Gather, then one block-sparse product with the near-field
        // precorrections, which carry the `½ I` free terms on the diagonal.
        let mut y = vec![c64::zero(); 2 * n];
        let (y_top, y_bottom) = y.split_at_mut(n);
        self.gather(&rows[0], y_top);
        self.gather(&rows[1], y_bottom);
        let BlockRows { start, cols, .. } = &self.exact;
        for i in 0..n {
            let mut acc = [y_top[i], y_bottom[i]];
            let row = start[i]..start[i + 1];
            for (&j, correction) in cols[row.clone()].iter().zip(&self.corrections[row]) {
                let [a, b] = block_apply(correction, [x1[j], x2[j]]);
                acc = [acc[0] + a, acc[1] + b];
            }
            [y_top[i], y_bottom[i]] = acc;
        }
        y
    }
}

/// Block ILU(0) (right) preconditioner over the near pattern of the
/// matrix-free operator; see [`MatrixFreeOperator::preconditioner`]. Itself
/// a [`LinearOperator`] (`y = (LU)⁻¹ x`), composed with the system operator
/// by [`crate::solver::solve_operator`].
#[derive(Debug, Clone)]
pub struct NearFieldPreconditioner {
    /// The factors in the near pattern: `L` (unit block diagonal implied)
    /// left of each row's diagonal, `U` on and right of it.
    factors: BlockRows,
    /// Position of each row's diagonal block in `factors`.
    diagonal: Vec<usize>,
    /// Inverted diagonal blocks of `U`.
    inverse_diagonal: Vec<Block>,
}

impl NearFieldPreconditioner {
    /// Factors `rows` in place (IKJ order): row `i` eliminates its blocks
    /// left of the diagonal against the finished rows above, and updates
    /// only the blocks its pattern already holds.
    fn factor(mut rows: BlockRows) -> Self {
        let n = rows.start.len() - 1;
        let diagonal: Vec<usize> = (0..n)
            .map(|i| {
                let first = rows.start[i];
                let offset = rows.cols[first..rows.start[i + 1]].binary_search(&i);
                first + offset.expect("every near row holds its self pair")
            })
            .collect();
        let mut inverse_diagonal: Vec<Block> = Vec::with_capacity(n);
        for i in 0..n {
            let end = rows.start[i + 1];
            for p in rows.start[i]..diagonal[i] {
                let k = rows.cols[p];
                let l = block_mul(&rows.blocks[p], &inverse_diagonal[k]);
                rows.blocks[p] = l;
                // Both rows are sorted by column: merge row k's U part into
                // row i's remaining pattern.
                let mut q = p + 1;
                for r in diagonal[k] + 1..rows.start[k + 1] {
                    let j = rows.cols[r];
                    while q < end && rows.cols[q] < j {
                        q += 1;
                    }
                    if q == end {
                        break;
                    }
                    if rows.cols[q] == j {
                        let lu = block_mul(&l, &rows.blocks[r]);
                        for (a, b) in rows.blocks[q].iter_mut().zip(lu) {
                            *a -= b;
                        }
                    }
                }
            }
            inverse_diagonal.push(block_inverse(&rows.blocks[diagonal[i]]));
        }
        Self {
            factors: rows,
            diagonal,
            inverse_diagonal,
        }
    }
}

impl LinearOperator for NearFieldPreconditioner {
    fn dim(&self) -> usize {
        2 * self.diagonal.len()
    }

    fn apply(&self, x: &[c64]) -> Vec<c64> {
        let n = self.diagonal.len();
        let BlockRows {
            start,
            cols,
            blocks,
        } = &self.factors;
        // Forward substitution `L·w = x`, then back substitution `U·v = w`
        // over the same buffer.
        let mut w: Vec<[c64; 2]> = Vec::with_capacity(n);
        for i in 0..n {
            let mut acc = [x[i], x[n + i]];
            for p in start[i]..self.diagonal[i] {
                let [a, b] = block_apply(&blocks[p], w[cols[p]]);
                acc = [acc[0] - a, acc[1] - b];
            }
            w.push(acc);
        }
        for i in (0..n).rev() {
            let mut acc = w[i];
            for p in self.diagonal[i] + 1..start[i + 1] {
                let [a, b] = block_apply(&blocks[p], w[cols[p]]);
                acc = [acc[0] - a, acc[1] - b];
            }
            w[i] = block_apply(&self.inverse_diagonal[i], acc);
        }
        let mut y = vec![c64::zero(); 2 * n];
        for (i, [a, b]) in w.into_iter().enumerate() {
            y[i] = a;
            y[n + i] = b;
        }
        y
    }
}

fn block_mul(x: &Block, y: &Block) -> Block {
    [
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    ]
}

fn block_inverse(&[a, b, c, d]: &Block) -> Block {
    let det = a * d - b * c;
    [d / det, -b / det, -c / det, a / det]
}

fn block_apply(m: &Block, [u, v]: [c64; 2]) -> [c64; 2] {
    [m[0] * u + m[1] * v, m[2] * u + m[3] * v]
}

/// Evaluates the generator planes of one medium: for `t ∈ [0, m)` the kernel
/// (and gradient) at the canonical lateral offsets `0 ≤ c_x ≤ c_y ≤ ⌊n/2⌋`
/// and height `t·h`, and scatters each sample to every offset `(b, a)` it
/// stands for (see [`fold`]): value and `∂_z` as they are, `∂_x`/`∂_y` with
/// the fold signs, swapped where the folded x exceeds the folded y. The
/// planes are spread over `parallelism` and scattered in level order, so the
/// tables are bit-identical at any worker count. Negative planes follow by
/// parity ([`fill_negative_planes`]). The singular `(0, 0, 0)` sample is
/// pinned to zero: only self pairs read that column and their precorrection
/// subtracts the grid part exactly, so any *finite* placeholder cancels.
fn build_tables(
    green: &PeriodicGreen3d,
    eval: KernelEval,
    side: usize,
    delta: f64,
    slab: &SlabGrid,
    parallelism: AssemblyParallelism,
) -> MediumTables {
    let canonical: Vec<(usize, usize)> = (0..=side / 2)
        .flat_map(|cy| (0..=cy).map(move |cx| (cx, cy)))
        .collect();
    let levels = eval_levels(green, eval, delta, slab, parallelism, &canonical);
    let mut tables = MediumTables::zeroed(slab.planes * side * side);
    for (t, out) in levels.iter().enumerate() {
        let base = t * side * side;
        for a in 0..side {
            let (fy, flip_y) = fold(a, side);
            for b in 0..side {
                let (fx, flip_x) = fold(b, side);
                let (lo, hi) = (fx.min(fy), fx.max(fy));
                let sample = &out[hi * (hi + 1) / 2 + lo];
                let [gx, gy, gz] = sample.gradient;
                let (gx, gy) = if fx <= fy { (gx, gy) } else { (gy, gx) };
                let k = base + a * side + b;
                tables.val[k] = sample.value;
                tables.gx[k] = if flip_x { -gx } else { gx };
                tables.gy[k] = if flip_y { -gy } else { gy };
                tables.gz[k] = gz;
            }
        }
    }
    fill_negative_planes(&mut tables, side, slab);
    tables
}

/// Folds lattice index `i` of an `n`-periodic axis onto `[0, ⌊n/2⌋]`: the
/// offset `i·Δ` is `−(n − i)·Δ` modulo the period, so past the half period
/// the kernel reads its mirror image and the gradient component along the
/// axis flips sign. Returns the folded index and whether it was mirrored.
fn fold(i: usize, n: usize) -> (usize, bool) {
    if i <= n / 2 {
        (i, false)
    } else {
        (n - i, true)
    }
}

/// One batched kernel evaluation per level `t ∈ [0, m)` at the lateral
/// `offsets` `(c_x, c_y)` (in cells) and height `t·h`, the levels spread over
/// `parallelism`. The first offset must be `(0, 0)`; its `t = 0` sample is
/// the singular one and comes back zero.
fn eval_levels(
    green: &PeriodicGreen3d,
    eval: KernelEval,
    delta: f64,
    slab: &SlabGrid,
    parallelism: AssemblyParallelism,
    offsets: &[(usize, usize)],
) -> Vec<Vec<GreenSample>> {
    debug_assert_eq!(offsets.first(), Some(&(0, 0)));
    map_rows(
        slab.levels,
        parallelism.worker_count(),
        || Vec::with_capacity(offsets.len()),
        |t, seps: &mut Vec<SeparationVector>| {
            seps.clear();
            for &(cx, cy) in offsets {
                seps.push(SeparationVector::new(
                    cx as f64 * delta,
                    cy as f64 * delta,
                    t as f64 * slab.spacing,
                ));
            }
            if t == 0 {
                // Singular sample: evaluate a benign stand-in, zero it below.
                seps[0] = SeparationVector::new(delta, 0.0, 0.0);
            }
            let mut out = Vec::new();
            eval_gathered(green, eval, seps, &mut out);
            if t == 0 {
                out[0] = GreenSample::default();
            }
            out
        },
    )
}

/// Fills the negative planes by parity: `C₋ₜ[a][b] = Cₜ[(−a) mod n][(−b) mod n]`,
/// gradient negated.
fn fill_negative_planes(tables: &mut MediumTables, side: usize, slab: &SlabGrid) {
    let nn = side * side;
    let MediumTables { val, gx, gy, gz } = tables;
    for t in 1..slab.levels {
        let dst_base = (slab.planes - t) * nn;
        let src_base = t * nn;
        for a in 0..side {
            for b in 0..side {
                let src = src_base + ((side - a) % side) * side + ((side - b) % side);
                let dst = dst_base + a * side + b;
                val[dst] = val[src];
                gx[dst] = -gx[src];
                gy[dst] = -gy[src];
                gz[dst] = -gz[src];
            }
        }
    }
}

/// The slab-interpolated (grid) entries of one matrix-entry pair in both
/// media, read straight from the spatial generator tables — exactly what the
/// FFT convolution will produce for this pair (up to FFT roundoff), and
/// therefore what the precorrection must subtract. The table index and
/// stencil weight of each term are shared by the media; each medium sums
/// its terms in stencil order.
#[allow(clippy::too_many_arguments)]
fn grid_entry(
    tables: &[Arc<MediumTables>; 2],
    slab: &SlabGrid,
    side: usize,
    area: f64,
    i: usize,
    j: usize,
    fx_j: f64,
    fy_j: f64,
) -> MediaEntry {
    let nn = side * side;
    let (iy_i, ix_i) = (i / side, i % side);
    let (iy_j, ix_j) = (j / side, j % side);
    let pos = ((iy_i + side - iy_j) % side) * side + (ix_i + side - ix_j) % side;
    let p = slab.order;
    let si = slab.starts[i] as isize;
    let sj = slab.starts[j] as isize;
    let wi = &slab.weights[i * p..(i + 1) * p];
    let wj = &slab.weights[j * p..(j + 1) * p];
    let planes = slab.planes as isize;

    let mut entry = [(c64::zero(), c64::zero()); 2];
    for (u, &wu) in wi.iter().enumerate() {
        for (v, &wv) in wj.iter().enumerate() {
            let t = si + u as isize - sj - v as isize;
            let idx = t.rem_euclid(planes) as usize * nn + pos;
            let w = wu * wv;
            for ((s, d), tables) in entry.iter_mut().zip(tables) {
                *s += tables.val[idx].scale(w);
                *d += (tables.gx[idx].scale(fx_j) + tables.gy[idx].scale(fy_j) - tables.gz[idx])
                    .scale(w);
            }
        }
    }
    entry.map(|(s, d)| (s.scale(area), d.scale(area)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly3d::tests::{fig5_spheroid_mesh, flat_table_regimes};
    use crate::assembly3d::{assemble_system_with, per_pair};
    use crate::nearfield::AssemblyScheme;
    use rough_surface::RoughSurface;

    fn rough_mesh(n: usize, length: f64, amplitude: f64) -> PatchMesh {
        PatchMesh::from_surface(&RoughSurface::from_fn(n, length, |x, y| {
            amplitude
                * ((2.0 * std::f64::consts::PI * x / length).sin()
                    + (2.0 * std::f64::consts::PI * y / length).cos())
        }))
    }

    /// Deterministic pseudo-random complex vectors without a RNG dependency.
    fn random_vector(dim: usize, seed: u64) -> Vec<c64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..dim).map(|_| c64::new(next(), next())).collect()
    }

    fn matvec_rel_diff(dense: &rough_numerics::linalg::CMatrix, mf: &MatrixFreeOperator) -> f64 {
        let mut worst = 0.0f64;
        for seed in 1..=3u64 {
            let x = random_vector(mf.dim(), seed);
            let reference = dense.matvec(&x);
            let fast = mf.apply(&x);
            let mut num = 0.0;
            let mut den = 0.0;
            for (a, b) in reference.iter().zip(&fast) {
                num += (*a - *b).norm_sqr();
                den += a.norm_sqr();
            }
            worst = worst.max((num / den).sqrt());
        }
        worst
    }

    fn assemble_pair(
        mesh: &PatchMesh,
        k1: c64,
        k2: c64,
        beta: c64,
    ) -> (rough_numerics::linalg::CMatrix, MatrixFreeOperator) {
        let length = mesh.patch_length();
        let g1 = PeriodicGreen3d::new(k1, length);
        let g2 = PeriodicGreen3d::new(k2, length);
        let policy = NearFieldPolicy::default();
        let dense = assemble_system_with(
            mesh,
            &g1,
            &g2,
            beta,
            k1,
            AssemblyScheme::LocallyCorrected(policy),
            KernelEval::default(),
            AssemblyParallelism::Serial,
        );
        let mf = MatrixFreeOperator::assemble(
            mesh,
            &g1,
            &g2,
            beta,
            k1,
            policy,
            MatrixFreePolicy::default(),
            KernelEval::default(),
            AssemblyParallelism::Serial,
        );
        (dense.matrix, mf)
    }

    #[test]
    fn matvec_matches_dense_in_quasi_static_regime() {
        let mesh = rough_mesh(6, 5e-6, 0.25e-6);
        let (dense, mf) = assemble_pair(
            &mesh,
            c64::new(150.0, 0.0),
            c64::new(2.0e4, 2.0e4),
            c64::new(0.0, -1e-6),
        );
        let diff = matvec_rel_diff(&dense, &mf);
        assert!(diff <= 1e-10, "quasi-static rel diff {diff:e}");
    }

    #[test]
    fn matvec_matches_dense_in_lossy_regime() {
        // Side 6 runs the lateral FFTs through radix 2 and 3, side 10 through
        // radix 2 and 5, and side 7 through the Bluestein fallback.
        for side in [6, 10, 7] {
            let mesh = rough_mesh(side, 5e-6, 0.3e-6);
            let (dense, mf) = assemble_pair(
                &mesh,
                c64::new(500.0, 0.0),
                c64::new(1.5e6, 1.5e6),
                c64::new(0.0, -1e-7),
            );
            // The z embedding is the smallest 2/3/5-smooth length that holds
            // the linear convolution of the slab.
            let smooth = |mut m: usize| {
                for p in [2, 3, 5] {
                    while m.is_multiple_of(p) {
                        m /= p;
                    }
                }
                m == 1
            };
            let min_planes = 2 * mf.slab_levels() - 1;
            assert!(mf.fft_planes() >= min_planes && smooth(mf.fft_planes()));
            assert!(!(min_planes..mf.fft_planes()).any(smooth), "side {side}");
            let diff = matvec_rel_diff(&dense, &mf);
            assert!(diff <= 1e-10, "side {side}: lossy rel diff {diff:e}");
        }
    }

    #[test]
    fn matvec_matches_dense_at_high_k_times_length() {
        // |k₂|·L ≈ 28: many oscillations across the patch, the regime the
        // oscillatory term of the slab spacing rule exists for.
        let mesh = rough_mesh(6, 5e-6, 0.2e-6);
        let (dense, mf) = assemble_pair(
            &mesh,
            c64::new(800.0, 0.0),
            c64::new(4.0e6, 4.0e6),
            c64::new(0.0, -1e-7),
        );
        let diff = matvec_rel_diff(&dense, &mf);
        assert!(diff <= 1e-10, "high-|k|L rel diff {diff:e}");
    }

    #[test]
    fn flat_surface_collapses_to_a_single_level() {
        let mesh = PatchMesh::from_surface(&RoughSurface::flat(6, 5e-6));
        let (dense, mf) = assemble_pair(
            &mesh,
            c64::new(500.0, 0.0),
            c64::new(1.5e6, 1.5e6),
            c64::new(0.0, -1e-7),
        );
        assert_eq!(mf.slab_levels(), 1);
        assert_eq!(mf.fft_planes(), 1);
        let diff = matvec_rel_diff(&dense, &mf);
        assert!(diff <= 1e-10, "flat rel diff {diff:e}");
    }

    #[test]
    fn rhs_matches_dense_assembly() {
        let mesh = rough_mesh(5, 5e-6, 0.3e-6);
        let length = mesh.patch_length();
        let k1 = c64::new(500.0, 0.0);
        let g1 = PeriodicGreen3d::new(k1, length);
        let g2 = PeriodicGreen3d::new(c64::new(1.5e6, 1.5e6), length);
        let policy = NearFieldPolicy::default();
        let dense = assemble_system_with(
            &mesh,
            &g1,
            &g2,
            c64::new(0.0, -1e-7),
            k1,
            AssemblyScheme::LocallyCorrected(policy),
            KernelEval::default(),
            AssemblyParallelism::Serial,
        );
        let mf = MatrixFreeOperator::assemble(
            &mesh,
            &g1,
            &g2,
            c64::new(0.0, -1e-7),
            k1,
            policy,
            MatrixFreePolicy::default(),
            KernelEval::default(),
            AssemblyParallelism::Serial,
        );
        assert_eq!(mf.rhs().len(), dense.rhs.len());
        for (a, b) in mf.rhs().iter().zip(&dense.rhs) {
            assert!((*a - *b).abs() < 1e-14);
        }
        assert_eq!(mf.surface_unknowns(), dense.surface_unknowns);
    }

    #[test]
    fn preconditioned_krylov_solves_the_matrix_free_system() {
        use crate::solver::{solve_operator, solve_system, SolverKind};
        let mesh = rough_mesh(6, 5e-6, 0.3e-6);
        let (dense, mf) = assemble_pair(
            &mesh,
            c64::new(500.0, 0.0),
            c64::new(1.5e6, 1.5e6),
            c64::new(0.0, -1e-7),
        );
        let (x_lu, _) = solve_system(&dense, mf.rhs(), SolverKind::DirectLu).unwrap();
        let precond = mf.preconditioner();
        let (x_mf, stats) = solve_operator(
            &mf,
            mf.rhs(),
            SolverKind::Bicgstab { tolerance: 1e-12 },
            Some(&precond),
        )
        .unwrap();
        assert!(stats.iterations > 0);
        assert!(stats.relative_residual < 1e-10);
        // Unpreconditioned BiCGSTAB stalls on this system, so the iteration
        // counts are compared under full GMRES (restart = dimension), which
        // converges with or without the preconditioner.
        let full = SolverKind::Gmres {
            tolerance: 1e-12,
            restart: mf.dim(),
        };
        let (_, with) = solve_operator(&mf, mf.rhs(), full, Some(&precond)).unwrap();
        let (_, plain) = solve_operator(&mf, mf.rhs(), full, None).unwrap();
        assert!(
            with.iterations < plain.iterations,
            "near-field preconditioner: {} iterations, none: {}",
            with.iterations,
            plain.iterations
        );
        let scale = x_lu.iter().map(|z| z.abs()).fold(0.0, f64::max);
        for (a, b) in x_lu.iter().zip(&x_mf) {
            assert!((*a - *b).abs() < 1e-8 * scale);
        }
    }

    #[test]
    fn parallel_setup_is_bit_identical() {
        // A fully rough mesh, and the Fig. 5 spheroid whose flat corners the
        // flat-offset tables serve.
        let g1 = PeriodicGreen3d::new(c64::new(500.0, 0.0), 5e-6);
        let g2 = PeriodicGreen3d::new(c64::new(1.5e6, 1.5e6), 5e-6);
        for (mesh, flat_region) in [
            (rough_mesh(6, 5e-6, 0.3e-6), false),
            (fig5_spheroid_mesh(6, 5e-6), true),
        ] {
            let build = |parallelism| {
                MatrixFreeOperator::assemble(
                    &mesh,
                    &g1,
                    &g2,
                    c64::new(0.0, -1e-7),
                    c64::new(500.0, 0.0),
                    NearFieldPolicy::default(),
                    MatrixFreePolicy::default(),
                    KernelEval::default(),
                    parallelism,
                )
            };
            let bits = |z: &c64| (z.re.to_bits(), z.im.to_bits());
            let serial = build(AssemblyParallelism::Serial);
            assert_eq!(serial.stats().reused_entries > 0, flat_region);
            // Three workers do not divide the level count, so the generator
            // planes split unevenly.
            assert_ne!(serial.slab_levels() % 3, 0);
            let x = random_vector(serial.dim(), 7);
            let reference = serial.apply(&x);
            for workers in [1, 2, 3, 4, 8] {
                let threaded = build(AssemblyParallelism::workers(workers));
                for (u, v) in reference.iter().zip(&threaded.apply(&x)) {
                    assert_eq!(bits(u), bits(v), "{workers} workers");
                }
                for (a, b) in serial.corrections.iter().zip(&threaded.corrections) {
                    assert_eq!(
                        a.map(|z| bits(&z)),
                        b.map(|z| bits(&z)),
                        "{workers} workers"
                    );
                }
                assert_eq!(serial.stats(), threaded.stats());
                for (u, v) in serial.rhs().iter().zip(threaded.rhs()) {
                    assert_eq!(bits(u), bits(v));
                }
                assert_eq!(serial.exact.cols, threaded.exact.cols);
                for (a, b) in serial.exact.blocks.iter().zip(&threaded.exact.blocks) {
                    assert_eq!(a.map(|z| bits(&z)), b.map(|z| bits(&z)));
                }
                let precond = threaded.preconditioner().apply(&x);
                for (u, v) in serial.preconditioner().apply(&x).iter().zip(&precond) {
                    assert_eq!(bits(u), bits(v), "{workers} workers: preconditioner");
                }
            }
        }
    }

    #[test]
    fn parallel_matvec_is_bit_identical() {
        // The Fig. 5 spheroid in the paper stack-up (its pruned transforms
        // run on the workers), and a flat operator (one plane, which stays
        // on the calling thread).
        let (tile, [k1, k2]) = flat_table_regimes()[0];
        let g1 = PeriodicGreen3d::new(k1, tile);
        let g2 = PeriodicGreen3d::new(k2, tile);
        for (mesh, planes_above_one) in [
            (fig5_spheroid_mesh(8, tile), true),
            (PatchMesh::from_surface(&RoughSurface::flat(6, tile)), false),
        ] {
            let build = |parallelism| {
                MatrixFreeOperator::assemble(
                    &mesh,
                    &g1,
                    &g2,
                    c64::new(0.0, -1e-7),
                    k1,
                    NearFieldPolicy::default(),
                    MatrixFreePolicy::default(),
                    KernelEval::default(),
                    parallelism,
                )
            };
            let bits = |y: &[c64]| -> Vec<(u64, u64)> {
                y.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
            };
            let serial = build(AssemblyParallelism::Serial);
            // A rough slab has dead planes for the pruned transforms to skip.
            assert_eq!(serial.slab_levels() < serial.fft_planes(), planes_above_one);
            let x = random_vector(serial.dim(), 11);
            let reference = bits(&serial.apply(&x));
            assert_eq!(bits(&serial.apply(&x)), reference, "repeated serial apply");
            for workers in [2, 4] {
                let threaded = build(AssemblyParallelism::Threads(workers));
                assert_eq!(threaded.workers, if planes_above_one { workers } else { 1 });
                for _ in 0..2 {
                    assert_eq!(bits(&threaded.apply(&x)), reference, "{workers} workers");
                }
            }
        }
    }

    #[test]
    fn matrixfree_flat_offset_corrections_match_the_per_pair_oracle() {
        // The near precorrections read the same flat-offset table as the
        // dense assembly: every correction must agree with the per-pair
        // integration to rounding (see the dense
        // `flat_offset_table_matches_the_per_pair_oracle`), in both media, on
        // a flat mesh and on the Fig. 5 spheroid, seam pairs included. A
        // block holds `[½δ − ΔD₁, β·ΔS₁, ½δ + ΔD₂, −ΔS₂]`; each medium is
        // held to 1e-13 of its largest `|ΔS|` or `|ΔD|`, the β-scaled entry
        // to `|β|` times that.
        let beta = c64::new(0.0, -1e-7);
        for (tile, [k1, k2]) in flat_table_regimes() {
            for cells in [8, 10] {
                let flat = PatchMesh::from_surface(&RoughSurface::flat(cells, tile));
                for mesh in [flat, fig5_spheroid_mesh(cells, tile)] {
                    let g1 = PeriodicGreen3d::new(k1, tile);
                    let g2 = PeriodicGreen3d::new(k2, tile);
                    let build = || {
                        MatrixFreeOperator::assemble(
                            &mesh,
                            &g1,
                            &g2,
                            beta,
                            k1,
                            NearFieldPolicy::default(),
                            MatrixFreePolicy::default(),
                            KernelEval::default(),
                            AssemblyParallelism::Serial,
                        )
                    };
                    let table = build();
                    let oracle = per_pair(build);
                    assert_eq!(table.exact.start, oracle.exact.start);
                    assert_eq!(table.exact.cols, oracle.exact.cols);
                    let free = |p: usize| {
                        let i = oracle.exact.start.partition_point(|&s| s <= p) - 1;
                        c64::from_real(if oracle.exact.cols[p] == i { 0.5 } else { 0.0 })
                    };
                    let mut scale = [0.0f64; 2];
                    for (p, c) in oracle.corrections.iter().enumerate() {
                        let f = free(p);
                        scale[0] = scale[0].max((c[0] - f).abs()).max(c[1].abs() / beta.abs());
                        scale[1] = scale[1].max((c[2] - f).abs()).max(c[3].abs());
                    }
                    let bound =
                        [scale[0], beta.abs() * scale[0], scale[1], scale[1]].map(|s| 1e-13 * s);
                    for (p, (a, b)) in table
                        .corrections
                        .iter()
                        .zip(&oracle.corrections)
                        .enumerate()
                    {
                        for c in 0..4 {
                            assert!(
                                (a[c] - b[c]).abs() <= bound[c],
                                "{cells} cells, pair {p}, entry {c}: {} vs {}",
                                a[c],
                                b[c]
                            );
                        }
                    }
                    let (t, o) = (table.stats(), oracle.stats());
                    assert!(t.reused_entries > 0 && o.reused_entries == 0, "{t:?}");
                    assert_eq!(t.corrected_entries + t.reused_entries, o.corrected_entries);
                    assert!(t.adaptive_panels < o.adaptive_panels);
                    assert!(t.depth_cap_hits <= o.depth_cap_hits);
                    assert!(t.unconverged_entries <= o.unconverged_entries);
                    assert_eq!(table.near_corrections(), oracle.near_corrections());
                }
            }
        }
    }

    #[test]
    fn exact_near_blocks_equal_the_dense_system_bit_for_bit() {
        // Both representations read their exact entries from one pass, so
        // on every pair of the near pattern — 3-D near pairs integrated or
        // copied from the flat-offset table, and 2-D-near/3-D-far pairs
        // sampled — the matrix-free block is the dense system's 2 × 2 block
        // to the bit. A flat mesh and the Fig. 5 spheroid, whose flat plane
        // the table serves and whose cap puts vertically far pairs in the
        // near pattern.
        let beta = c64::new(0.0, -1e-7);
        let bits = |z: c64| (z.re.to_bits(), z.im.to_bits());
        for (tile, [k1, k2]) in flat_table_regimes() {
            let g1 = PeriodicGreen3d::new(k1, tile);
            let g2 = PeriodicGreen3d::new(k2, tile);
            let flat = PatchMesh::from_surface(&RoughSurface::flat(8, tile));
            for mesh in [flat, fig5_spheroid_mesh(8, tile)] {
                let policy = NearFieldPolicy::default();
                let dense = assemble_system_with(
                    &mesh,
                    &g1,
                    &g2,
                    beta,
                    k1,
                    AssemblyScheme::LocallyCorrected(policy),
                    KernelEval::default(),
                    AssemblyParallelism::Serial,
                );
                let mf = MatrixFreeOperator::assemble(
                    &mesh,
                    &g1,
                    &g2,
                    beta,
                    k1,
                    policy,
                    MatrixFreePolicy::default(),
                    KernelEval::default(),
                    AssemblyParallelism::workers(2),
                );
                let n = mf.ncells;
                let mut vertically_far = 0;
                for i in 0..n {
                    for p in mf.exact.start[i]..mf.exact.start[i + 1] {
                        let j = mf.exact.cols[p];
                        let want = [(i, j), (i, n + j), (n + i, j), (n + i, n + j)]
                            .map(|at| bits(dense.matrix[at]));
                        assert_eq!(mf.exact.blocks[p].map(bits), want, "({i}, {j})");
                        let (ci, cj) = (mesh.cells()[i], mesh.cells()[j]);
                        let r = mesh.cell_size() * policy.radius;
                        vertically_far += usize::from((ci.z - cj.z).abs() >= r);
                    }
                }
                let flat_mesh = mesh.cells().iter().all(|c| c.z == 0.0);
                assert_eq!(vertically_far == 0, flat_mesh);
            }
        }
    }

    #[test]
    #[should_panic(expected = "near-field policy must be valid")]
    fn invalid_near_field_policy_panics_before_the_slab_is_sized() {
        // A NaN near radius would size the slab from a NaN distance.
        let mesh = rough_mesh(4, 5e-6, 0.3e-6);
        let g = PeriodicGreen3d::new(c64::new(500.0, 0.0), 5e-6);
        let policy = NearFieldPolicy {
            radius: f64::NAN,
            order: 4,
        };
        let _ = MatrixFreeOperator::assemble(
            &mesh,
            &g,
            &g,
            c64::one(),
            c64::new(500.0, 0.0),
            policy,
            MatrixFreePolicy::default(),
            KernelEval::default(),
            AssemblyParallelism::Serial,
        );
    }

    #[test]
    fn table_cache_hits_and_preserves_bit_identity() {
        let mesh = rough_mesh(6, 5e-6, 0.3e-6);
        let length = mesh.patch_length();
        let g1 = PeriodicGreen3d::new(c64::new(500.0, 0.0), length);
        let g2 = PeriodicGreen3d::new(c64::new(1.5e6, 1.5e6), length);
        let cache = MfTableCache::new();
        let build = |cache: Option<&MfTableCache>| {
            MatrixFreeOperator::assemble_with_cache(
                &mesh,
                &g1,
                &g2,
                c64::new(0.0, -1e-7),
                c64::new(500.0, 0.0),
                NearFieldPolicy::default(),
                MatrixFreePolicy::default(),
                KernelEval::default(),
                AssemblyParallelism::Serial,
                cache,
            )
        };
        let cold = build(None);
        let first = build(Some(&cache));
        // The two media have distinct wavenumbers: one miss each, no hits.
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        let second = build(Some(&cache));
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        assert_eq!(cache.entries(), 2);
        let x = random_vector(cold.dim(), 5);
        let reference = cold.apply(&x);
        for op in [&first, &second] {
            for (a, b) in reference.iter().zip(op.apply(&x)) {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits())
                );
            }
        }
        cache.clear();
        assert_eq!(cache.entries(), 0);
    }

    /// The per-offset table build the fold replaced: every lateral offset
    /// `(b, a)` of every level evaluated directly.
    fn per_offset_tables(
        green: &PeriodicGreen3d,
        side: usize,
        delta: f64,
        slab: &SlabGrid,
    ) -> MediumTables {
        let offsets: Vec<(usize, usize)> = (0..side)
            .flat_map(|a| (0..side).map(move |b| (b, a)))
            .collect();
        let levels = eval_levels(
            green,
            KernelEval::default(),
            delta,
            slab,
            AssemblyParallelism::Serial,
            &offsets,
        );
        let mut tables = MediumTables::zeroed(slab.planes * side * side);
        for (t, out) in levels.iter().enumerate() {
            for (offset, sample) in out.iter().enumerate() {
                let k = t * side * side + offset;
                tables.val[k] = sample.value;
                tables.gx[k] = sample.gradient[0];
                tables.gy[k] = sample.gradient[1];
                tables.gz[k] = sample.gradient[2];
            }
        }
        fill_negative_planes(&mut tables, side, slab);
        tables
    }

    /// Quasi-static, lossy and high-`|k|L` kernels on a 5 µm tile, with a
    /// rough mesh of `side` cells and its slab.
    fn fold_cases(side: usize) -> Vec<(PeriodicGreen3d, SlabGrid, f64)> {
        let length = 5e-6;
        let mesh = rough_mesh(side, length, 0.3e-6);
        let policy = NearFieldPolicy::default();
        let mut cases = Vec::new();
        for [k1, k2] in [
            [c64::new(150.0, 0.0), c64::new(2.0e4, 2.0e4)],
            [c64::new(500.0, 0.0), c64::new(1.5e6, 1.5e6)],
            [c64::new(800.0, 0.0), c64::new(4.0e6, 4.0e6)],
        ] {
            let slab = build_slab(
                &mesh,
                k2.abs(),
                policy.radius * mesh.cell_size(),
                &MatrixFreePolicy::default(),
            );
            for k in [k1, k2] {
                cases.push((
                    PeriodicGreen3d::new(k, length),
                    slab.clone(),
                    mesh.cell_size(),
                ));
            }
        }
        cases
    }

    #[test]
    fn folded_tables_match_the_per_offset_oracle() {
        // Odd and even sides: at even n the half-period offset is its own
        // mirror image.
        for side in [5, 6, 7] {
            for (green, slab, delta) in fold_cases(side) {
                let folded = build_tables(
                    &green,
                    KernelEval::default(),
                    side,
                    delta,
                    &slab,
                    AssemblyParallelism::Serial,
                );
                let oracle = per_offset_tables(&green, side, delta, &slab);
                let k = green.wavenumber();
                let components =
                    |t: &MediumTables| [t.val.clone(), t.gx.clone(), t.gy.clone(), t.gz.clone()];
                for (c, (fast, slow)) in components(&folded)
                    .iter()
                    .zip(&components(&oracle))
                    .enumerate()
                {
                    let scale = slow.iter().map(|z| z.abs()).fold(0.0, f64::max);
                    for (idx, (a, b)) in fast.iter().zip(slow).enumerate() {
                        // Entries that vanish by symmetry (the x gradient on
                        // the mirror lines) hold only the kernel's rounding,
                        // so they are held to the component's scale instead.
                        let tol = 1e-13 * b.abs().max(1e-3 * scale);
                        assert!(
                            (*a - *b).abs() <= tol,
                            "side {side}, k {k}, component {c}, entry {idx}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn folded_tables_are_exactly_symmetric() {
        for side in [5, 6, 7] {
            let mirror = |i: usize| (side - i) % side;
            for (green, slab, delta) in fold_cases(side) {
                let t = build_tables(
                    &green,
                    KernelEval::default(),
                    side,
                    delta,
                    &slab,
                    AssemblyParallelism::Serial,
                );
                let bits = |z: c64| (z.re.to_bits(), z.im.to_bits());
                for level in 0..slab.levels {
                    let at = |a: usize, b: usize| level * side * side + a * side + b;
                    for a in 0..side {
                        for b in 0..side {
                            let k = at(a, b);
                            // Value and z gradient: even in x and y, and
                            // symmetric under x ↔ y.
                            for image in [at(a, mirror(b)), at(mirror(a), b), at(b, a)] {
                                assert_eq!(bits(t.val[k]), bits(t.val[image]));
                                assert_eq!(bits(t.gz[k]), bits(t.gz[image]));
                            }
                            // x and y gradients: odd along their own axis,
                            // even along the other, exchanged by x ↔ y.
                            // Offsets on a mirror line, and the swap of a
                            // folded diagonal offset, map onto themselves.
                            if mirror(b) != b {
                                assert_eq!(bits(t.gx[k]), bits(-t.gx[at(a, mirror(b))]));
                                assert_eq!(bits(t.gy[k]), bits(t.gy[at(a, mirror(b))]));
                            }
                            if mirror(a) != a {
                                assert_eq!(bits(t.gy[k]), bits(-t.gy[at(mirror(a), b)]));
                                assert_eq!(bits(t.gx[k]), bits(t.gx[at(mirror(a), b)]));
                            }
                            if fold(a, side).0 != fold(b, side).0 {
                                assert_eq!(bits(t.gx[k]), bits(t.gy[at(b, a)]));
                            }
                        }
                    }
                }
            }
        }
    }

    /// The block of `rows` at `(i, j)`, if the pattern holds it.
    fn block_at(rows: &BlockRows, i: usize, j: usize) -> Option<Block> {
        let range = rows.start[i]..rows.start[i + 1];
        let offset = rows.cols[range.clone()].binary_search(&j).ok()?;
        Some(rows.blocks[range.start + offset])
    }

    #[test]
    fn near_field_factors_reproduce_the_near_operator_on_its_pattern() {
        // ILU(0): `L·U` equals the factored matrix on every position of its
        // pattern (fill outside the pattern is dropped).
        let mesh = rough_mesh(6, 5e-6, 0.3e-6);
        let (_, mf) = assemble_pair(
            &mesh,
            c64::new(500.0, 0.0),
            c64::new(1.5e6, 1.5e6),
            c64::new(0.0, -1e-7),
        );
        let exact = &mf.exact;
        assert!(
            exact.cols.len() < mf.ncells * mf.ncells,
            "the pattern must drop fill"
        );
        let precond = mf.preconditioner();
        let factors = &precond.factors;
        let scale = exact
            .blocks
            .iter()
            .flatten()
            .map(|z| z.abs())
            .fold(0.0, f64::max);
        for i in 0..mf.ncells {
            for p in exact.start[i]..exact.start[i + 1] {
                let j = exact.cols[p];
                // (L·U)ᵢⱼ = Σ_{k<i} Lᵢₖ·Uₖⱼ + Uᵢⱼ (unit diagonal of L).
                let mut lu = if i <= j {
                    block_at(factors, i, j).unwrap()
                } else {
                    [c64::zero(); 4]
                };
                for q in factors.start[i]..precond.diagonal[i] {
                    let k = factors.cols[q];
                    if let Some(u) = block_at(factors, k, j).filter(|_| k <= j) {
                        let term = block_mul(&factors.blocks[q], &u);
                        for (a, b) in lu.iter_mut().zip(term) {
                            *a += b;
                        }
                    }
                }
                for (a, b) in lu.iter().zip(&exact.blocks[p]) {
                    assert!((*a - *b).abs() <= 1e-12 * scale, "({i}, {j}): {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn near_field_preconditioner_inverts_an_all_near_operator() {
        // At radius 3 every pair of a 4 × 4 patch is near: ILU(0) keeps all
        // fill and is the exact LU, and the operator is its exact near
        // entries plus FFT roundoff, so M⁻¹·A is the identity up to the
        // system's conditioning (a pivoted dense LU recovers this `x` to
        // 8e-9 as well; a wrong block is off by O(1)).
        let mesh = rough_mesh(4, 5e-6, 0.3e-6);
        let length = mesh.patch_length();
        let mf = MatrixFreeOperator::assemble(
            &mesh,
            &PeriodicGreen3d::new(c64::new(500.0, 0.0), length),
            &PeriodicGreen3d::new(c64::new(1.5e6, 1.5e6), length),
            c64::new(0.0, -1e-7),
            c64::new(500.0, 0.0),
            NearFieldPolicy::new(3.0, NearFieldPolicy::default().order),
            MatrixFreePolicy::default(),
            KernelEval::default(),
            AssemblyParallelism::Serial,
        );
        assert_eq!(mf.exact.cols.len(), mf.ncells * mf.ncells);
        let x = random_vector(mf.dim(), 3);
        let y = mf.preconditioner().apply(&mf.apply(&x));
        let num: f64 = x.iter().zip(&y).map(|(a, b)| (*a - *b).norm_sqr()).sum();
        let den: f64 = x.iter().map(|a| a.norm_sqr()).sum();
        let rel = (num / den).sqrt();
        assert!(rel <= 1e-7, "M⁻¹·A·x differs from x by {rel:e}");
    }

    #[test]
    fn policy_validation() {
        assert!(MatrixFreePolicy::default().validate().is_ok());
        assert!(MatrixFreePolicy {
            order: 7,
            safety: 0.5
        }
        .validate()
        .is_err());
        assert!(MatrixFreePolicy {
            order: 2,
            safety: 0.5
        }
        .validate()
        .is_err());
        assert!(MatrixFreePolicy {
            order: 16,
            safety: 0.0
        }
        .validate()
        .is_err());
        assert!(MatrixFreePolicy {
            order: 16,
            safety: 1.5
        }
        .validate()
        .is_err());
        assert_eq!(OperatorRepr::default(), OperatorRepr::Dense);
        assert!(!OperatorRepr::Dense.is_matrix_free());
        assert!(OperatorRepr::MatrixFree(MatrixFreePolicy::default()).is_matrix_free());
    }

    #[test]
    fn near_corrections_are_sparse() {
        let mesh = rough_mesh(8, 5e-6, 0.3e-6);
        let (_, mf) = assemble_pair(
            &mesh,
            c64::new(500.0, 0.0),
            c64::new(1.5e6, 1.5e6),
            c64::new(0.0, -1e-7),
        );
        let n = mf.surface_unknowns();
        // Each cell corrects only the pairs within the near radius: far fewer
        // than the dense N² per medium.
        assert!(mf.near_corrections() < 2 * n * n / 2);
        assert!(mf.near_corrections() >= 2 * n); // at least every self pair
        assert!(mf.stats().corrected_entries >= n);
    }
}
