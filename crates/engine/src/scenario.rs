//! Declarative campaign definitions.
//!
//! A [`Scenario`] states *what* to simulate — material stack, a grid of
//! roughness specifications, a frequency sweep, and an ensemble budget — and
//! says nothing about threads, caches or execution order. The cross product
//! `roughness × frequency` is the scenario's **case grid**; expanding a case
//! into concrete work units is the job of [`crate::plan::Plan`], and running
//! them is the job of [`crate::executor::Engine`].

use crate::error::EngineError;
use rough_core::{AssemblyScheme, OperatorRepr, RoughnessSpec, SolverKind};
use rough_em::material::Stackup;
use rough_em::units::Frequency;
use rough_surface::RoughSurface;

/// How the ensemble of each case is generated.
#[derive(Debug, Clone, PartialEq)]
pub enum EnsembleMode {
    /// Independent Karhunen–Loève realizations; the paper's reference method.
    MonteCarlo {
        /// Number of realizations per case.
        realizations: usize,
    },
    /// Sparse-grid stochastic collocation (SSCM) of the given chaos order; the
    /// paper's fast method (Table I).
    Sscm {
        /// Chaos / sparse-grid order (1 or 2 in the paper).
        order: usize,
    },
    /// One explicit surface per case (e.g. the Fig. 5 half-spheroid); the
    /// campaign sweeps it over the frequency grid.
    Deterministic,
}

/// Position of a case in the scenario's `roughness × frequency` grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CaseId {
    /// Index into [`Scenario::roughness_grid`].
    pub roughness: usize,
    /// Index into [`Scenario::frequencies`].
    pub frequency: usize,
}

/// A declarative batch campaign: the full experiment stated up front.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub(crate) name: String,
    pub(crate) stack: Stackup,
    pub(crate) roughness: Vec<RoughnessSpec>,
    pub(crate) frequencies: Vec<Frequency>,
    pub(crate) cells_per_side: usize,
    pub(crate) solver: SolverKind,
    pub(crate) assembly: AssemblyScheme,
    pub(crate) operator_repr: OperatorRepr,
    pub(crate) mode: EnsembleMode,
    pub(crate) master_seed: u64,
    pub(crate) max_kl_modes: usize,
    pub(crate) energy_fraction: f64,
    pub(crate) surrogate_samples: usize,
    pub(crate) surface: Option<RoughSurface>,
}

impl Scenario {
    /// Starts building a scenario for a material stack.
    pub fn builder(stack: Stackup) -> ScenarioBuilder {
        ScenarioBuilder {
            name: "campaign".to_string(),
            stack,
            roughness: Vec::new(),
            frequencies: Vec::new(),
            cells_per_side: 8,
            solver: SolverKind::default(),
            assembly: AssemblyScheme::default(),
            operator_repr: OperatorRepr::default(),
            mode: None,
            master_seed: 0x2009,
            max_kl_modes: 8,
            energy_fraction: 0.95,
            surrogate_samples: 20_000,
            surface: None,
        }
    }

    /// Expands the scenario into its deduplicated execution plan without
    /// running anything (useful for inspecting solve budgets, e.g. Table I).
    ///
    /// # Errors
    ///
    /// Propagates planning failures (invalid KL grids, inconsistent
    /// deterministic surfaces).
    pub fn plan(&self) -> Result<crate::plan::Plan, EngineError> {
        crate::plan::Plan::new(self)
    }

    /// Campaign name (used in reports and sink file names).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Material stack shared by every case.
    pub fn stack(&self) -> &Stackup {
        &self.stack
    }

    /// The roughness axis of the case grid.
    pub fn roughness_grid(&self) -> &[RoughnessSpec] {
        &self.roughness
    }

    /// The frequency axis of the case grid.
    pub fn frequencies(&self) -> &[Frequency] {
        &self.frequencies
    }

    /// MOM cells per patch side.
    pub fn cells_per_side(&self) -> usize {
        self.cells_per_side
    }

    /// Near-field assembly scheme every work unit uses.
    pub fn assembly(&self) -> AssemblyScheme {
        self.assembly
    }

    /// Operator representation (dense or matrix-free) every work unit uses.
    pub fn operator_repr(&self) -> OperatorRepr {
        self.operator_repr
    }

    /// Ensemble mode of every case.
    pub fn mode(&self) -> &EnsembleMode {
        &self.mode
    }

    /// Master seed all random streams derive from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Number of cases in the grid.
    pub fn case_count(&self) -> usize {
        self.roughness.len() * self.frequencies.len()
    }

    /// Iterates the case grid in deterministic (roughness-major) order.
    pub fn case_ids(&self) -> impl Iterator<Item = CaseId> + '_ {
        let frequencies = self.frequencies.len();
        (0..self.case_count()).map(move |index| CaseId {
            roughness: index / frequencies,
            frequency: index % frequencies,
        })
    }
}

/// Builder for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: String,
    stack: Stackup,
    roughness: Vec<RoughnessSpec>,
    frequencies: Vec<Frequency>,
    cells_per_side: usize,
    solver: SolverKind,
    assembly: AssemblyScheme,
    operator_repr: OperatorRepr,
    mode: Option<EnsembleMode>,
    master_seed: u64,
    max_kl_modes: usize,
    energy_fraction: f64,
    surrogate_samples: usize,
    surface: Option<RoughSurface>,
}

impl ScenarioBuilder {
    /// Names the campaign (report and sink labels).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Adds one roughness specification to the case grid.
    pub fn roughness(mut self, spec: RoughnessSpec) -> Self {
        self.roughness.push(spec);
        self
    }

    /// Adds several roughness specifications to the case grid.
    pub fn roughness_grid(mut self, specs: impl IntoIterator<Item = RoughnessSpec>) -> Self {
        self.roughness.extend(specs);
        self
    }

    /// Adds frequency points to the sweep.
    pub fn frequencies(mut self, points: impl IntoIterator<Item = Frequency>) -> Self {
        self.frequencies.extend(points);
        self
    }

    /// Sets the MOM cells per patch side.
    pub fn cells_per_side(mut self, cells: usize) -> Self {
        self.cells_per_side = cells;
        self
    }

    /// Selects the linear solver used by every work unit.
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Selects the near-field assembly scheme used by every work unit
    /// (defaults to the locally corrected scheme).
    pub fn assembly(mut self, assembly: AssemblyScheme) -> Self {
        self.assembly = assembly;
        self
    }

    /// Selects the operator representation used by every work unit (defaults
    /// to [`OperatorRepr::Dense`]). The matrix-free representation requires a
    /// Krylov solver.
    pub fn operator_repr(mut self, operator_repr: OperatorRepr) -> Self {
        self.operator_repr = operator_repr;
        self
    }

    /// Uses Monte-Carlo ensembles of `realizations` samples per case.
    pub fn monte_carlo(mut self, realizations: usize) -> Self {
        self.mode = Some(EnsembleMode::MonteCarlo { realizations });
        self
    }

    /// Uses sparse-grid stochastic collocation of the given chaos order.
    pub fn sscm(mut self, order: usize) -> Self {
        self.mode = Some(EnsembleMode::Sscm { order });
        self
    }

    /// Sweeps one explicit deterministic surface over the frequency grid.
    pub fn deterministic(mut self, surface: RoughSurface) -> Self {
        self.mode = Some(EnsembleMode::Deterministic);
        self.surface = Some(surface);
        self
    }

    /// Sets the master seed every random stream derives from.
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Caps the Karhunen–Loève modes (the stochastic dimension).
    pub fn max_kl_modes(mut self, modes: usize) -> Self {
        self.max_kl_modes = modes;
        self
    }

    /// Sets the KL energy fraction retained before the mode cap applies.
    pub fn energy_fraction(mut self, fraction: f64) -> Self {
        self.energy_fraction = fraction;
        self
    }

    /// Sets the surrogate sample count used for SSCM output CDFs.
    pub fn surrogate_samples(mut self, samples: usize) -> Self {
        self.surrogate_samples = samples;
        self
    }

    /// Finalizes the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidScenario`] when the case grid is empty,
    /// no ensemble mode was chosen, budgets are zero, the mode is
    /// inconsistent with the roughness specifications, or the near-field or
    /// matrix-free policy is invalid.
    pub fn build(self) -> Result<Scenario, EngineError> {
        let mode = self.mode.ok_or_else(|| {
            EngineError::InvalidScenario(
                "an ensemble mode (monte_carlo / sscm / deterministic) is required".into(),
            )
        })?;
        if self.roughness.is_empty() {
            return Err(EngineError::InvalidScenario(
                "at least one roughness specification is required".into(),
            ));
        }
        if self.frequencies.is_empty() {
            return Err(EngineError::InvalidScenario(
                "at least one frequency point is required".into(),
            ));
        }
        // NaN fails the `> 0.0` comparison too, so non-finite values cannot
        // sneak into kernel construction (where they would surface as panics
        // deep inside the Ewald machinery at plan or solve time).
        if self
            .frequencies
            .iter()
            .any(|f| !(f.value() > 0.0 && f.value().is_finite()))
        {
            return Err(EngineError::InvalidScenario(
                "frequencies must be finite and positive".into(),
            ));
        }
        if self.cells_per_side == 0 {
            return Err(EngineError::InvalidScenario(
                "the MOM grid needs at least one cell per side (cells_per_side = 0)".into(),
            ));
        }
        match mode {
            EnsembleMode::MonteCarlo { realizations: 0 } => {
                return Err(EngineError::InvalidScenario(
                    "a Monte-Carlo campaign needs at least one realization".into(),
                ));
            }
            EnsembleMode::Sscm { order: 0 } => {
                return Err(EngineError::InvalidScenario(
                    "the SSCM chaos order must be positive".into(),
                ));
            }
            EnsembleMode::Deterministic if self.surface.is_none() => {
                return Err(EngineError::InvalidScenario(
                    "deterministic mode requires an explicit surface".into(),
                ));
            }
            _ => {}
        }
        if !matches!(mode, EnsembleMode::Deterministic)
            && self.roughness.iter().any(|spec| !spec.is_stochastic())
        {
            return Err(EngineError::InvalidScenario(
                "stochastic ensemble modes require stochastic roughness specifications".into(),
            ));
        }
        let AssemblyScheme::LocallyCorrected(policy) = self.assembly;
        policy.validate().map_err(EngineError::InvalidScenario)?;
        if let OperatorRepr::MatrixFree(mf) = self.operator_repr {
            mf.validate().map_err(EngineError::InvalidScenario)?;
            if self.solver == SolverKind::DirectLu {
                return Err(EngineError::InvalidScenario(
                    "the matrix-free operator requires a Krylov solver (bicgstab or gmres), \
                     not DirectLu"
                        .into(),
                ));
            }
        }
        if self.max_kl_modes == 0 {
            return Err(EngineError::InvalidScenario(
                "at least one KL mode is required".into(),
            ));
        }
        // Must match the domain KarhunenLoeve::new accepts — (0, 1] — so an
        // invalid fraction surfaces here as an error, not as a panic at plan
        // time. NaN fails both comparisons and is rejected.
        if !(self.energy_fraction > 0.0 && self.energy_fraction <= 1.0) {
            return Err(EngineError::InvalidScenario(
                "the KL energy fraction must lie in (0, 1]".into(),
            ));
        }
        Ok(Scenario {
            name: self.name,
            stack: self.stack,
            roughness: self.roughness,
            frequencies: self.frequencies,
            cells_per_side: self.cells_per_side,
            solver: self.solver,
            assembly: self.assembly,
            operator_repr: self.operator_repr,
            mode,
            master_seed: self.master_seed,
            max_kl_modes: self.max_kl_modes,
            energy_fraction: self.energy_fraction,
            surrogate_samples: self.surrogate_samples,
            surface: self.surface,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rough_em::units::{GigaHertz, Micrometers};

    fn spec() -> RoughnessSpec {
        RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0))
    }

    #[test]
    fn builder_produces_the_case_grid() {
        let scenario = Scenario::builder(Stackup::paper_baseline())
            .roughness(spec())
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(2.0),
            ))
            .frequencies([GigaHertz::new(1.0).into(), GigaHertz::new(5.0).into()])
            .monte_carlo(3)
            .build()
            .unwrap();
        assert_eq!(scenario.case_count(), 4);
        let ids: Vec<CaseId> = scenario.case_ids().collect();
        assert_eq!(
            ids[0],
            CaseId {
                roughness: 0,
                frequency: 0
            }
        );
        assert_eq!(
            ids[3],
            CaseId {
                roughness: 1,
                frequency: 1
            }
        );
    }

    #[test]
    fn missing_mode_is_rejected() {
        let err = Scenario::builder(Stackup::paper_baseline())
            .roughness(spec())
            .frequencies([GigaHertz::new(1.0).into()])
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidScenario(_)));
    }

    #[test]
    fn deterministic_mode_requires_a_surface() {
        let mut builder = Scenario::builder(Stackup::paper_baseline())
            .roughness(RoughnessSpec::deterministic(Micrometers::new(10.0)))
            .frequencies([GigaHertz::new(1.0).into()]);
        builder.mode = Some(EnsembleMode::Deterministic);
        assert!(builder.build().is_err());
    }

    #[test]
    fn deterministic_roughness_cannot_run_stochastic_modes() {
        let err = Scenario::builder(Stackup::paper_baseline())
            .roughness(RoughnessSpec::deterministic(Micrometers::new(10.0)))
            .frequencies([GigaHertz::new(1.0).into()])
            .monte_carlo(4)
            .build()
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidScenario(_)));
    }

    #[test]
    fn non_finite_or_non_positive_frequencies_are_rejected_at_build_time() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -3.0e9] {
            let err = Scenario::builder(Stackup::paper_baseline())
                .roughness(spec())
                .frequencies([Frequency::new(bad)])
                .monte_carlo(2)
                .build()
                .unwrap_err();
            match err {
                EngineError::InvalidScenario(reason) => assert!(
                    reason.contains("finite and positive"),
                    "frequency {bad}: reason = {reason}"
                ),
                other => panic!("frequency {bad}: expected InvalidScenario, got {other:?}"),
            }
        }
    }

    #[test]
    fn zero_cells_are_rejected_at_build_time() {
        let err = Scenario::builder(Stackup::paper_baseline())
            .roughness(spec())
            .frequencies([GigaHertz::new(1.0).into()])
            .cells_per_side(0)
            .monte_carlo(2)
            .build()
            .unwrap_err();
        match err {
            EngineError::InvalidScenario(reason) => {
                assert!(reason.contains("cells_per_side"), "reason = {reason}")
            }
            other => panic!("expected InvalidScenario, got {other:?}"),
        }
    }

    #[test]
    fn empty_axes_are_rejected() {
        assert!(Scenario::builder(Stackup::paper_baseline())
            .frequencies([GigaHertz::new(1.0).into()])
            .monte_carlo(1)
            .build()
            .is_err());
        assert!(Scenario::builder(Stackup::paper_baseline())
            .roughness(spec())
            .monte_carlo(1)
            .build()
            .is_err());
    }
}
