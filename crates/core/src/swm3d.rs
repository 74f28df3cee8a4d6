//! High-level 3D SWM problem: configuration, surface sampling and solution.
//!
//! [`SwmProblem`] bundles the material stack, the roughness specification, the
//! frequency and the discretization, and produces the loss-enhancement factor
//! `Pr/Ps` for individual surface realizations. The stochastic drivers
//! (Monte-Carlo, SSCM) call [`SwmProblem::solve_with_reference`] repeatedly
//! with surfaces synthesized from the same specification.

use crate::assembly3d::assemble_system_with;
use crate::error::SwmError;
use crate::loss::LossResult;
use crate::matrixfree::{MatrixFreeOperator, MfTableCache, OperatorRepr};
use crate::mesh::PatchMesh;
use crate::nearfield::{AssemblyScheme, KernelEval};
use crate::parallel::AssemblyParallelism;
use crate::power::{absorbed_power_3d, smooth_surface_power};
use crate::solver::{
    krylov_config, solve_operator_configured, solve_system, strategy_label, SolveDiagnostics,
    SolveStats, SolverKind,
};
use crate::spec::RoughnessSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rough_em::fresnel::flat_interface;
use rough_em::green::PeriodicGreen3d;
use rough_em::material::Stackup;
use rough_em::units::Frequency;
use rough_numerics::complex::c64;
use rough_surface::generation::kl::KarhunenLoeve;
use rough_surface::generation::spectral::SpectralSurfaceGenerator;
use rough_surface::RoughSurface;

/// A fully configured 3D scalar-wave-modeling problem.
///
/// # Example
///
/// ```
/// use rough_core::{RoughnessSpec, SwmProblem};
/// use rough_em::material::Stackup;
/// use rough_em::units::{GigaHertz, Micrometers};
///
/// # fn main() -> Result<(), rough_core::SwmError> {
/// let problem = SwmProblem::builder(
///     Stackup::paper_baseline(),
///     RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0)),
/// )
/// .frequency(GigaHertz::new(5.0).into())
/// .cells_per_side(6)
/// .build()?;
/// let surface = problem.sample_surface(1);
/// let result = problem.solve(&surface)?;
/// // The coarse 6×6 demo grid carries a small low bias, so individual
/// // realizations are only guaranteed to clear 0.9.
/// assert!(result.enhancement_factor() > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SwmProblem {
    stack: Stackup,
    roughness: RoughnessSpec,
    frequency: Frequency,
    cells_per_side: usize,
    solver: SolverKind,
    assembly: AssemblyScheme,
    kernel_eval: KernelEval,
    operator_repr: OperatorRepr,
    assembly_parallelism: AssemblyParallelism,
}

/// Frequency-level operator state of a [`SwmProblem`]: the two Ewald-summed
/// doubly-periodic Green's functions and the boundary-condition contrast.
///
/// Building it is cheap, but sharing one instance across a batch keeps every
/// realization of a campaign on identical kernel tables and makes the sharing
/// explicit — batch drivers key their kernel caches on the
/// (stackup, frequency, grid) triple that determines this value.
#[derive(Debug, Clone)]
pub struct SwmOperator {
    g1: PeriodicGreen3d,
    g2: PeriodicGreen3d,
    beta: c64,
    k1: c64,
    assembly: AssemblyScheme,
    kernel_eval: KernelEval,
    operator_repr: OperatorRepr,
    table_cache: Option<std::sync::Arc<MfTableCache>>,
}

impl SwmOperator {
    /// Kernel of the dielectric half-space (wavenumber `k₁`).
    pub fn green_dielectric(&self) -> &PeriodicGreen3d {
        &self.g1
    }

    /// Kernel of the conductor half-space (wavenumber `k₂`).
    pub fn green_conductor(&self) -> &PeriodicGreen3d {
        &self.g2
    }

    /// The assembly scheme every solve through this operator uses.
    pub fn assembly(&self) -> AssemblyScheme {
        self.assembly
    }

    /// The kernel evaluation strategy every solve through this operator uses.
    pub fn kernel_eval(&self) -> KernelEval {
        self.kernel_eval
    }

    /// The operator representation (dense or matrix-free) every solve through
    /// this operator uses.
    pub fn operator_repr(&self) -> OperatorRepr {
        self.operator_repr
    }

    /// Boundary-condition contrast `β` of eq. (9).
    pub fn beta(&self) -> c64 {
        self.beta
    }

    /// Incident (dielectric) wavenumber `k₁`.
    pub fn k1(&self) -> c64 {
        self.k1
    }

    /// Returns this operator with matrix-free generator-table builds routed
    /// through a shared [`MfTableCache`]. A no-op for dense solves; for
    /// matrix-free solves results stay bit-identical (hits return tables
    /// byte-identical to a fresh build). The batch engine installs its
    /// kernel cache's instance here so sweeps and repeated runs amortize the
    /// tables.
    pub fn with_table_cache(mut self, cache: std::sync::Arc<MfTableCache>) -> Self {
        self.table_cache = Some(cache);
        self
    }

    /// The shared generator-table cache, when one is installed.
    pub fn table_cache(&self) -> Option<&std::sync::Arc<MfTableCache>> {
        self.table_cache.as_ref()
    }
}

/// Builder for [`SwmProblem`].
#[derive(Debug, Clone)]
pub struct SwmProblemBuilder {
    stack: Stackup,
    roughness: RoughnessSpec,
    frequency: Option<Frequency>,
    cells_per_side: usize,
    solver: SolverKind,
    assembly: AssemblyScheme,
    kernel_eval: KernelEval,
    operator_repr: OperatorRepr,
    assembly_parallelism: AssemblyParallelism,
}

impl SwmProblem {
    /// Starts building a problem for a material stack and roughness
    /// specification.
    pub fn builder(stack: Stackup, roughness: RoughnessSpec) -> SwmProblemBuilder {
        SwmProblemBuilder {
            stack,
            roughness,
            frequency: None,
            cells_per_side: 16,
            solver: SolverKind::DirectLu,
            assembly: AssemblyScheme::default(),
            kernel_eval: KernelEval::default(),
            operator_repr: OperatorRepr::default(),
            assembly_parallelism: AssemblyParallelism::default(),
        }
    }

    /// Material stack (dielectric over conductor).
    pub fn stack(&self) -> &Stackup {
        &self.stack
    }

    /// Roughness specification.
    pub fn roughness(&self) -> &RoughnessSpec {
        &self.roughness
    }

    /// Simulation frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Cells per side of the periodic patch.
    pub fn cells_per_side(&self) -> usize {
        self.cells_per_side
    }

    /// Near-field assembly scheme.
    pub fn assembly(&self) -> AssemblyScheme {
        self.assembly
    }

    /// Kernel evaluation strategy (batched row panels by default).
    pub fn kernel_eval(&self) -> KernelEval {
        self.kernel_eval
    }

    /// Operator representation used for the solve (dense by default).
    pub fn operator_repr(&self) -> OperatorRepr {
        self.operator_repr
    }

    /// Intra-solve assembly parallelism (serial by default).
    pub fn assembly_parallelism(&self) -> AssemblyParallelism {
        self.assembly_parallelism
    }

    /// Returns a problem identical to this one with a different intra-solve
    /// assembly parallelism. Results are bit-identical at any worker count;
    /// the batch engine uses this to fit each solve into its core budget
    /// without invalidating cached operators.
    pub fn with_assembly_parallelism(&self, parallelism: AssemblyParallelism) -> Self {
        let mut p = self.clone();
        p.assembly_parallelism = parallelism;
        p
    }

    /// Side length of the periodic patch (m).
    pub fn patch_length(&self) -> f64 {
        self.roughness.patch_length()
    }

    /// Returns a problem identical to this one at a different frequency
    /// (used by frequency sweeps).
    pub fn at_frequency(&self, frequency: Frequency) -> Self {
        let mut p = self.clone();
        p.frequency = frequency;
        p
    }

    /// Samples one surface realization from the stochastic specification.
    ///
    /// Power-of-two grids use the FFT spectral synthesis; other grid sizes fall
    /// back to the (slower to set up) Karhunen–Loève expansion.
    ///
    /// # Panics
    ///
    /// Panics if the roughness specification is deterministic (supply your own
    /// [`RoughSurface`] to [`SwmProblem::solve`] in that case).
    pub fn sample_surface(&self, seed: u64) -> RoughSurface {
        let cf = *self
            .roughness
            .correlation()
            .expect("sample_surface requires a stochastic roughness specification");
        let n = self.cells_per_side;
        let length = self.patch_length();
        let mut rng = StdRng::seed_from_u64(seed);
        if n.is_power_of_two() && n >= 4 {
            let generator =
                SpectralSurfaceGenerator::new(cf, n, length).expect("validated power-of-two grid");
            generator.generate(&mut rng)
        } else {
            let kl = KarhunenLoeve::new(cf, n, length, 0.995).expect("validated grid");
            kl.sample(&mut rng).1
        }
    }

    /// Samples a ridged (y-uniform) surface realization with the same 1D
    /// statistics — the "2D roughness" comparison case of Fig. 6.
    ///
    /// # Panics
    ///
    /// Panics if the specification is deterministic or the grid is not a power
    /// of two.
    pub fn sample_ridged_surface(&self, seed: u64) -> RoughSurface {
        let cf = *self
            .roughness
            .correlation()
            .expect("sample_ridged_surface requires a stochastic roughness specification");
        let generator = SpectralSurfaceGenerator::new(cf, self.cells_per_side, self.patch_length())
            .expect("ridged sampling requires a power-of-two grid");
        let mut rng = StdRng::seed_from_u64(seed);
        generator.generate_ridged(&mut rng)
    }

    /// Builds the frequency-level operator state — the two Ewald-summed
    /// periodic kernels and the boundary contrast — shared by every
    /// realization of this problem.
    ///
    /// Batch drivers (`rough-engine`) build this once per
    /// (stackup, frequency, patch) and reuse it across all realizations; the
    /// single-solve convenience methods build it on the fly.
    pub fn operator(&self) -> SwmOperator {
        SwmOperator {
            g1: PeriodicGreen3d::new(self.stack.k1(self.frequency), self.patch_length()),
            g2: PeriodicGreen3d::new(self.stack.k2(self.frequency), self.patch_length()),
            beta: self.stack.beta(self.frequency),
            k1: self.stack.k1(self.frequency),
            assembly: self.assembly,
            kernel_eval: self.kernel_eval,
            operator_repr: self.operator_repr,
            table_cache: None,
        }
    }

    /// Absorbed power `Pr` of one surface realization (paper eq. (10)) together
    /// with the linear-solve diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`SwmError::SurfaceMismatch`] if the surface grid does not match
    /// the problem configuration, or a solver error.
    pub fn absorbed_power(&self, surface: &RoughSurface) -> Result<(f64, SolveStats), SwmError> {
        self.absorbed_power_with(surface, &self.operator())
    }

    /// Absorbed power of one realization, reusing a pre-built
    /// [`SwmOperator`].
    ///
    /// # Errors
    ///
    /// Returns [`SwmError::SurfaceMismatch`] if the surface grid does not match
    /// the problem configuration, or a solver error.
    pub fn absorbed_power_with(
        &self,
        surface: &RoughSurface,
        operator: &SwmOperator,
    ) -> Result<(f64, SolveStats), SwmError> {
        let (power, stats, _) = self.absorbed_power_diagnosed(surface, operator)?;
        Ok((power, stats))
    }

    /// Assembles the dense system for `mesh` and solves it with `kind` — the
    /// dense solve path, shared between the `Dense` operator representation
    /// and the matrix-free ladder's final fallback so both produce bit-identical
    /// solutions.
    fn dense_solve(
        &self,
        mesh: &PatchMesh,
        operator: &SwmOperator,
        kind: SolverKind,
    ) -> Result<(Vec<c64>, SolveStats, usize), SwmError> {
        let system = assemble_system_with(
            mesh,
            &operator.g1,
            &operator.g2,
            operator.beta,
            operator.k1,
            operator.assembly,
            operator.kernel_eval,
            self.assembly_parallelism,
        );
        let (solution, stats) = solve_system(&system.matrix, &system.rhs, kind)?;
        Ok((solution, stats, system.surface_unknowns))
    }

    /// [`SwmProblem::absorbed_power_with`] plus the structured
    /// [`SolveDiagnostics`] of how the solution was obtained.
    ///
    /// For a matrix-free operator with a Krylov solver this is the graceful
    /// degradation ladder: when the configured iteration breaks down or fails
    /// to converge, the solve escalates to a tightened restarted GMRES
    /// (doubled restart length and iteration budget), and finally to the
    /// dense `DirectLu` path — bit-identical to a dense-representation solve
    /// of the same problem — rather than failing the unit. Every rung is
    /// recorded in the diagnostics, and any fallback marks the solve
    /// `degraded`.
    ///
    /// # Errors
    ///
    /// Returns [`SwmError::SurfaceMismatch`] on a mismatched surface grid,
    /// configuration errors, or a solver error when even the final dense
    /// fallback fails.
    pub fn absorbed_power_diagnosed(
        &self,
        surface: &RoughSurface,
        operator: &SwmOperator,
    ) -> Result<(f64, SolveStats, SolveDiagnostics), SwmError> {
        self.check_surface(surface)?;
        let mesh = PatchMesh::from_surface(surface);
        let mut diagnostics = SolveDiagnostics::default();
        let (solution, stats, n) = match operator.operator_repr {
            OperatorRepr::Dense => {
                let (solution, stats, n) = self.dense_solve(&mesh, operator, self.solver)?;
                diagnostics.push_ok(strategy_label(self.solver), stats);
                (solution, stats, n)
            }
            OperatorRepr::MatrixFree(mf_policy) => {
                let AssemblyScheme::LocallyCorrected(policy) = operator.assembly;
                let mf = MatrixFreeOperator::assemble_with_cache(
                    &mesh,
                    &operator.g1,
                    &operator.g2,
                    operator.beta,
                    operator.k1,
                    policy,
                    mf_policy,
                    operator.kernel_eval,
                    self.assembly_parallelism,
                    operator.table_cache.as_deref(),
                );
                let precond = mf.preconditioner();
                let base = krylov_config(self.solver)?;
                match solve_operator_configured(&mf, mf.rhs(), self.solver, Some(&precond), &base) {
                    Ok((solution, stats)) => {
                        diagnostics.push_ok(strategy_label(self.solver), stats);
                        (solution, stats, mf.surface_unknowns())
                    }
                    Err(first) => {
                        diagnostics.push_failed(strategy_label(self.solver), &first);
                        // Rung 2: a longer GMRES recurrence with a doubled
                        // iteration budget — same tolerance, so a success
                        // here is as accurate as the configured solve.
                        let tight = base.tightened();
                        let retry = SolverKind::Gmres {
                            tolerance: tight.tolerance,
                            restart: tight.restart,
                        };
                        let label = format!(
                            "gmres-tightened(restart={},max_iter={})",
                            tight.restart, tight.max_iterations
                        );
                        match solve_operator_configured(
                            &mf,
                            mf.rhs(),
                            retry,
                            Some(&precond),
                            &tight,
                        ) {
                            Ok((solution, stats)) => {
                                diagnostics.push_ok(label, stats);
                                (solution, stats, mf.surface_unknowns())
                            }
                            Err(second) => {
                                diagnostics.push_failed(label, &second);
                                // Rung 3: the slower-but-sure dense direct
                                // path — exactly the Dense-representation
                                // code, so the recovered result is
                                // bit-identical to a clean dense solve.
                                let (solution, stats, n) =
                                    self.dense_solve(&mesh, operator, SolverKind::DirectLu)?;
                                diagnostics.push_ok("direct-lu-fallback", stats);
                                (solution, stats, n)
                            }
                        }
                    }
                }
            }
        };
        let power = absorbed_power_3d(&mesh, &solution[..n], &solution[n..]);
        Ok((power, stats, diagnostics))
    }

    /// Absorbed power of the flat (smooth) patch solved with the same grid and
    /// solver — the `Ps` reference of the enhancement factor.
    ///
    /// It is a full solve through the configured operator representation,
    /// but every near entry of a flat patch is a flat–flat pair, so the
    /// assembly integrates only one entry per lattice offset (21 inside the
    /// default near radius) and copies the rest; the dense and matrix-free
    /// references agree to ≤ 1e-10.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn flat_reference_power(&self) -> Result<f64, SwmError> {
        let flat = RoughSurface::flat(self.cells_per_side, self.patch_length());
        let (power, _) = self.absorbed_power(&flat)?;
        Ok(power)
    }

    /// Analytic smooth-surface power `|T|²·L²/(2δ)` for cross-checking the
    /// numerical flat reference.
    pub fn analytic_smooth_power(&self) -> f64 {
        let sol = flat_interface(&self.stack, self.frequency);
        smooth_surface_power(
            self.patch_length() * self.patch_length(),
            self.stack.skin_depth(self.frequency).value(),
            sol.transmission.abs(),
        )
    }

    /// Solves the problem for one surface realization, computing the flat
    /// reference on the fly.
    ///
    /// When evaluating many realizations (Monte-Carlo, SSCM) compute the flat
    /// reference once with [`SwmProblem::flat_reference_power`] and use
    /// [`SwmProblem::solve_with_reference`] instead.
    ///
    /// # Errors
    ///
    /// Propagates surface-mismatch and solver errors.
    pub fn solve(&self, surface: &RoughSurface) -> Result<LossResult, SwmError> {
        let reference = self.flat_reference_power()?;
        self.solve_with_reference(surface, reference)
    }

    /// Solves the problem for one surface realization against a pre-computed
    /// flat reference power.
    ///
    /// # Errors
    ///
    /// Propagates surface-mismatch and solver errors.
    pub fn solve_with_reference(
        &self,
        surface: &RoughSurface,
        flat_reference: f64,
    ) -> Result<LossResult, SwmError> {
        self.solve_with_reference_using(surface, flat_reference, &self.operator())
    }

    /// Solves one realization against a pre-computed flat reference, reusing a
    /// pre-built [`SwmOperator`] — the hot path of batch campaigns.
    ///
    /// # Errors
    ///
    /// Propagates surface-mismatch and solver errors.
    pub fn solve_with_reference_using(
        &self,
        surface: &RoughSurface,
        flat_reference: f64,
        operator: &SwmOperator,
    ) -> Result<LossResult, SwmError> {
        let (loss, _) = self.solve_with_reference_diagnosed(surface, flat_reference, operator)?;
        Ok(loss)
    }

    /// [`SwmProblem::solve_with_reference_using`] plus the structured
    /// [`SolveDiagnostics`] of the escalation ladder. The returned
    /// [`LossResult`] carries [`LossResult::degraded`] when a fallback rung
    /// produced it.
    ///
    /// # Errors
    ///
    /// Propagates surface-mismatch and solver errors.
    pub fn solve_with_reference_diagnosed(
        &self,
        surface: &RoughSurface,
        flat_reference: f64,
        operator: &SwmOperator,
    ) -> Result<(LossResult, SolveDiagnostics), SwmError> {
        let (power, stats, diagnostics) = self.absorbed_power_diagnosed(surface, operator)?;
        let loss = LossResult::new(
            self.frequency,
            power,
            flat_reference,
            self.analytic_smooth_power(),
            stats.relative_residual,
            self.cells_per_side * self.cells_per_side,
        )
        .with_degraded(diagnostics.degraded);
        Ok((loss, diagnostics))
    }

    fn check_surface(&self, surface: &RoughSurface) -> Result<(), SwmError> {
        if surface.samples_per_side() != self.cells_per_side {
            return Err(SwmError::SurfaceMismatch {
                expected: format!("{} samples per side", self.cells_per_side),
                found: format!("{} samples per side", surface.samples_per_side()),
            });
        }
        let expected_l = self.patch_length();
        if (surface.patch_length() - expected_l).abs() > 1e-9 * expected_l {
            return Err(SwmError::SurfaceMismatch {
                expected: format!("patch length {expected_l:.3e} m"),
                found: format!("patch length {:.3e} m", surface.patch_length()),
            });
        }
        Ok(())
    }
}

impl SwmProblemBuilder {
    /// Sets the simulation frequency (required).
    pub fn frequency(mut self, frequency: Frequency) -> Self {
        self.frequency = Some(frequency);
        self
    }

    /// Sets the number of cells per side of the patch directly.
    pub fn cells_per_side(mut self, n: usize) -> Self {
        self.cells_per_side = n;
        self
    }

    /// Sets the resolution as cells per correlation length (the paper uses 8,
    /// i.e. a grid interval of η/8). Only meaningful for stochastic
    /// specifications; the resulting cell count is `patch length / η × cells`.
    pub fn cells_per_correlation_length(mut self, cells: usize) -> Self {
        if let Some(cf) = self.roughness.correlation() {
            let eta = cf.correlation_length();
            let l = self.roughness.patch_length();
            self.cells_per_side = ((l / eta) * cells as f64).round().max(4.0) as usize;
        }
        self
    }

    /// Selects the linear-solver strategy.
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Selects the near-field assembly scheme (defaults to the locally
    /// corrected scheme with [`crate::NearFieldPolicy::default`]).
    pub fn assembly(mut self, assembly: AssemblyScheme) -> Self {
        self.assembly = assembly;
        self
    }

    /// Selects the kernel evaluation strategy (defaults to
    /// [`KernelEval::Batched`], the blocked row-panel fast path;
    /// [`KernelEval::Scalar`] is the per-entry oracle used by equivalence
    /// tests and benchmarks).
    pub fn kernel_eval(mut self, kernel_eval: KernelEval) -> Self {
        self.kernel_eval = kernel_eval;
        self
    }

    /// Selects the operator representation (defaults to
    /// [`OperatorRepr::Dense`]). The matrix-free representation evaluates the
    /// far field as an FFT convolution with sparse near-field precorrections
    /// and requires a Krylov [`SolverKind`].
    pub fn operator_repr(mut self, operator_repr: OperatorRepr) -> Self {
        self.operator_repr = operator_repr;
        self
    }

    /// Selects the intra-solve assembly parallelism (defaults to
    /// [`AssemblyParallelism::Serial`]). Row panels are independent work
    /// items, so any worker count produces bit-identical matrices; the
    /// `ROUGHSIM_ASSEMBLY_THREADS` environment variable overrides this in
    /// the engine and the figure drivers.
    pub fn assembly_parallelism(mut self, parallelism: AssemblyParallelism) -> Self {
        self.assembly_parallelism = parallelism;
        self
    }

    /// Finalizes the problem.
    ///
    /// # Errors
    ///
    /// Returns [`SwmError::InvalidConfiguration`] if the frequency is missing
    /// or not positive, the grid is too coarse or too fine, or the
    /// near-field or matrix-free policy is invalid.
    pub fn build(self) -> Result<SwmProblem, SwmError> {
        let frequency = self.frequency.ok_or_else(|| {
            SwmError::InvalidConfiguration("a simulation frequency must be specified".into())
        })?;
        if frequency.value() <= 0.0 {
            return Err(SwmError::InvalidConfiguration(
                "the simulation frequency must be positive".into(),
            ));
        }
        if self.cells_per_side < 4 {
            return Err(SwmError::InvalidConfiguration(format!(
                "at least 4 cells per side are required, got {}",
                self.cells_per_side
            )));
        }
        let AssemblyScheme::LocallyCorrected(policy) = self.assembly;
        policy.validate().map_err(SwmError::InvalidConfiguration)?;
        if let OperatorRepr::MatrixFree(mf) = self.operator_repr {
            mf.validate().map_err(SwmError::InvalidConfiguration)?;
            if self.solver == SolverKind::DirectLu {
                return Err(SwmError::InvalidConfiguration(
                    "the matrix-free operator never forms the dense matrix DirectLu needs; \
                     select a Krylov solver (Bicgstab or Gmres)"
                        .into(),
                ));
            }
        }
        if self.cells_per_side > 128 {
            return Err(SwmError::InvalidConfiguration(format!(
                "{} cells per side would create a dense system of order {}; keep the patch below 128 cells per side",
                self.cells_per_side,
                2 * self.cells_per_side * self.cells_per_side
            )));
        }
        Ok(SwmProblem {
            stack: self.stack,
            roughness: self.roughness,
            frequency,
            cells_per_side: self.cells_per_side,
            solver: self.solver,
            assembly: self.assembly,
            kernel_eval: self.kernel_eval,
            operator_repr: self.operator_repr,
            assembly_parallelism: self.assembly_parallelism,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rough_em::units::{GigaHertz, Micrometers};

    fn paper_problem(cells: usize, ghz: f64) -> SwmProblem {
        SwmProblem::builder(
            Stackup::paper_baseline(),
            RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0)),
        )
        .frequency(GigaHertz::new(ghz).into())
        .cells_per_side(cells)
        .build()
        .expect("valid configuration")
    }

    #[test]
    fn flat_patch_reproduces_the_analytic_smooth_power() {
        // The normalization anchor: the numerically solved flat patch must
        // match |T|^2 L^2/(2 delta) to within the discretization error.
        for ghz in [1.0, 5.0] {
            let problem = paper_problem(8, ghz);
            let numeric = problem.flat_reference_power().unwrap();
            let analytic = problem.analytic_smooth_power();
            let rel = (numeric - analytic).abs() / analytic;
            assert!(
                rel < 0.08,
                "f = {ghz} GHz: numeric {numeric:.4e} vs analytic {analytic:.4e} (rel {rel:.3})"
            );
        }
    }

    /// [`paper_problem`] solved through the matrix-free operator.
    fn paper_problem_matrix_free(cells: usize, ghz: f64) -> SwmProblem {
        SwmProblem::builder(
            Stackup::paper_baseline(),
            RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0)),
        )
        .frequency(GigaHertz::new(ghz).into())
        .cells_per_side(cells)
        .solver(SolverKind::Bicgstab { tolerance: 1e-12 })
        .operator_repr(OperatorRepr::MatrixFree(Default::default()))
        .build()
        .expect("valid configuration")
    }

    #[test]
    fn flat_surface_enhancement_is_unity() {
        for problem in [paper_problem(6, 5.0), paper_problem_matrix_free(6, 5.0)] {
            let flat = RoughSurface::flat(6, problem.patch_length());
            let result = problem.solve(&flat).unwrap();
            assert!((result.enhancement_factor() - 1.0).abs() < 1e-10);
            assert!(result.relative_residual() < 1e-8);
        }
    }

    #[test]
    fn flat_reference_agrees_between_dense_and_matrixfree() {
        // The Ps anchor does not depend on the operator representation, and
        // the matrix-free one meets the analytic band of the dense one.
        for cells in [6, 10, 16] {
            let dense = paper_problem(cells, 5.0).flat_reference_power().unwrap();
            let problem = paper_problem_matrix_free(cells, 5.0);
            let matrix_free = problem.flat_reference_power().unwrap();
            let rel = (dense - matrix_free).abs() / dense;
            assert!(
                rel <= 1e-10,
                "{cells} cells: dense {dense:e} vs matrix-free {matrix_free:e}"
            );
            let analytic = problem.analytic_smooth_power();
            let rel = (matrix_free - analytic).abs() / analytic;
            assert!(
                rel < 0.08,
                "{cells} cells: {matrix_free:e} vs analytic {analytic:e}"
            );
        }
    }

    #[test]
    fn rough_surface_increases_the_loss_and_scales_with_roughness() {
        let problem = paper_problem(8, 5.0);
        let l = problem.patch_length();
        let bumpy = |amp: f64| {
            RoughSurface::from_fn(8, l, |x, y| {
                amp * ((2.0 * std::f64::consts::PI * x / l).cos()
                    + (2.0 * std::f64::consts::PI * y / l).sin())
            })
        };
        let reference = problem.flat_reference_power().unwrap();
        let small = problem
            .solve_with_reference(&bumpy(0.2e-6), reference)
            .unwrap();
        let large = problem
            .solve_with_reference(&bumpy(0.6e-6), reference)
            .unwrap();
        assert!(small.enhancement_factor() > 1.0);
        assert!(large.enhancement_factor() > small.enhancement_factor());
        assert!(large.enhancement_factor() < 4.0, "implausibly large factor");
    }

    #[test]
    fn enhancement_grows_with_frequency() {
        let l = 5e-6;
        let surface = RoughSurface::from_fn(8, l, |x, y| {
            0.5e-6
                * ((2.0 * std::f64::consts::PI * x / l).cos()
                    + (2.0 * std::f64::consts::PI * y / l).sin())
        });
        let low = paper_problem(8, 2.0).solve(&surface).unwrap();
        let high = paper_problem(8, 8.0).solve(&surface).unwrap();
        assert!(high.enhancement_factor() > low.enhancement_factor());
        // At this coarse 8×8 validation grid the enhancement carries a small
        // (documented) low bias; the physical trend is what is asserted here,
        // finer grids are exercised by the experiment harness.
        assert!(low.enhancement_factor() > 0.95);
        assert!(high.enhancement_factor() > 1.0);
    }

    #[test]
    fn sampled_surfaces_are_reproducible_and_match_the_grid() {
        let problem = paper_problem(8, 5.0);
        let a = problem.sample_surface(3);
        let b = problem.sample_surface(3);
        let c = problem.sample_surface(4);
        assert_eq!(a.heights(), b.heights());
        assert_ne!(a.heights(), c.heights());
        assert_eq!(a.samples_per_side(), 8);
        assert!((a.patch_length() - problem.patch_length()).abs() < 1e-18);
        // Non-power-of-two grids fall back to the KL sampler.
        let kl_problem = paper_problem(6, 5.0);
        let s = kl_problem.sample_surface(1);
        assert_eq!(s.samples_per_side(), 6);
        assert!(s.rms_height() > 0.1e-6);
    }

    #[test]
    fn surface_mismatch_is_detected() {
        let problem = paper_problem(8, 5.0);
        let wrong_n = RoughSurface::flat(6, problem.patch_length());
        assert!(matches!(
            problem.solve(&wrong_n),
            Err(SwmError::SurfaceMismatch { .. })
        ));
        let wrong_l = RoughSurface::flat(8, 2.0 * problem.patch_length());
        assert!(matches!(
            problem.solve(&wrong_l),
            Err(SwmError::SurfaceMismatch { .. })
        ));
    }

    #[test]
    fn builder_validation() {
        let stack = Stackup::paper_baseline();
        let spec = RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0));
        assert!(matches!(
            SwmProblem::builder(stack, spec.clone()).build(),
            Err(SwmError::InvalidConfiguration(_))
        ));
        assert!(matches!(
            SwmProblem::builder(stack, spec.clone())
                .frequency(GigaHertz::new(5.0).into())
                .cells_per_side(2)
                .build(),
            Err(SwmError::InvalidConfiguration(_))
        ));
        assert!(matches!(
            SwmProblem::builder(stack, spec.clone())
                .frequency(GigaHertz::new(5.0).into())
                .cells_per_side(500)
                .build(),
            Err(SwmError::InvalidConfiguration(_))
        ));
        let p = SwmProblem::builder(stack, spec)
            .frequency(GigaHertz::new(5.0).into())
            .cells_per_correlation_length(2)
            .build()
            .unwrap();
        assert_eq!(p.cells_per_side(), 10);
    }

    #[test]
    fn matrix_free_problem_matches_dense_end_to_end() {
        let stack = Stackup::paper_baseline();
        let spec = RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0));
        let dense = SwmProblem::builder(stack, spec.clone())
            .frequency(GigaHertz::new(5.0).into())
            .cells_per_side(8)
            .build()
            .unwrap();
        let mf = SwmProblem::builder(stack, spec)
            .frequency(GigaHertz::new(5.0).into())
            .cells_per_side(8)
            .solver(SolverKind::Bicgstab { tolerance: 1e-12 })
            .operator_repr(OperatorRepr::MatrixFree(Default::default()))
            .build()
            .unwrap();
        let surface = dense.sample_surface(11);
        let a = dense.solve(&surface).unwrap();
        let b = mf.solve(&surface).unwrap();
        let rel = (a.enhancement_factor() - b.enhancement_factor()).abs() / a.enhancement_factor();
        assert!(rel <= 1e-8, "dense vs matrix-free Pr/Ps rel diff {rel:e}");
    }

    #[test]
    fn matrix_free_builder_validation() {
        let stack = Stackup::paper_baseline();
        let spec = RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0));
        // DirectLu cannot act on a matrix-free operator.
        assert!(matches!(
            SwmProblem::builder(stack, spec.clone())
                .frequency(GigaHertz::new(5.0).into())
                .operator_repr(OperatorRepr::MatrixFree(Default::default()))
                .build(),
            Err(SwmError::InvalidConfiguration(_))
        ));
        // An invalid matrix-free policy is caught at build time.
        assert!(matches!(
            SwmProblem::builder(stack, spec)
                .frequency(GigaHertz::new(5.0).into())
                .solver(SolverKind::Bicgstab { tolerance: 1e-10 })
                .operator_repr(OperatorRepr::MatrixFree(
                    crate::matrixfree::MatrixFreePolicy {
                        order: 3,
                        safety: 0.5,
                    },
                ))
                .build(),
            Err(SwmError::InvalidConfiguration(_))
        ));
    }

    #[test]
    fn at_frequency_preserves_everything_else() {
        let p = paper_problem(8, 5.0);
        let q = p.at_frequency(GigaHertz::new(9.0).into());
        assert_eq!(q.cells_per_side(), 8);
        assert!((q.frequency().as_gigahertz() - 9.0).abs() < 1e-12);
        assert!((q.patch_length() - p.patch_length()).abs() < 1e-18);
    }
}
