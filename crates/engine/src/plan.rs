//! Scenario expansion: from a declarative [`Scenario`] to a deduplicated,
//! fully deterministic execution plan.
//!
//! Planning happens once, serially, and fixes everything random: Monte-Carlo
//! germ matrices are drawn here from per-case seeds derived from the master
//! seed, and sparse grids are constructed here. Execution is then a pure
//! parallel map over [`WorkUnit`]s — whatever the thread count, the same
//! realizations are solved and the same statistics come out.
//!
//! The plan is a two-stage DAG:
//!
//! * stage 0 — one **context** per distinct [`ContextKey`] (grid × patch
//!   length × frequency × stackup × solver): Ewald kernels, smooth-surface
//!   reference solve. Cases that share a key share the context; the dedup is
//!   what makes wide roughness grids cheap. KL bases are deduplicated
//!   separately (they are frequency-independent).
//! * stage 1 — the evaluation [`WorkUnit`]s, each depending only on its case's
//!   context.

use crate::error::EngineError;
use crate::rng::derive_stream;
use crate::scenario::{CaseId, EnsembleMode, Scenario};
use rough_stochastic::monte_carlo::draw_germ_matrix;
use rough_stochastic::sparse_grid::SparseGrid;
use rough_surface::generation::kl::KarhunenLoeve;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Identity of the shared solver context a work unit needs.
///
/// Two cases share a context exactly when they agree on the discretization
/// (cells per side), the patch length, the frequency, the material stack, the
/// solver and the near-field assembly scheme. The last three matter because
/// the engine's kernel cache outlives a single scenario: campaigns over
/// different stacks — or over different near-field policies — must never
/// share contexts (the cached flat-reference solve bakes the assembly
/// scheme in). Frequencies and lengths are compared by bit pattern, and the
/// stack/solver/assembly by a fingerprint of their exact parameter values:
/// scenario axes are finite lists of exact values, not computed quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContextKey {
    /// MOM cells per patch side.
    pub cells_per_side: usize,
    /// Bit pattern of the patch side length (m).
    pub patch_length_bits: u64,
    /// Bit pattern of the frequency (Hz).
    pub frequency_bits: u64,
    /// Fingerprint of the material stack's exact parameters.
    pub stack_fingerprint: u64,
    /// Fingerprint of the solver selection (kind and exact parameters).
    pub solver_fingerprint: u64,
    /// Fingerprint of the near-field assembly scheme (kind and exact policy).
    pub assembly_fingerprint: u64,
    /// Fingerprint of the operator representation (dense or matrix-free with
    /// its exact policy) — dense and matrix-free contexts never share cached
    /// solves.
    pub operator_fingerprint: u64,
}

/// FNV-1a fingerprint of a value's exact debug representation. Rust's `f64`
/// debug formatting is shortest-round-trip, so equal values produce equal
/// strings and distinct values distinct strings — an exact identity for the
/// parameter structs (`Stackup`, `SolverKind`, `CorrelationFunction`) that
/// carry floats and therefore cannot derive `Hash` themselves.
pub(crate) fn debug_fingerprint(value: &impl std::fmt::Debug) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in format!("{value:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// What one evaluation unit computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitTask {
    /// Solve the KL realization synthesized from one germ vector.
    Realization {
        /// Row of the case's germ matrix.
        germ_index: usize,
    },
    /// Solve the KL realization at one sparse-grid collocation node.
    CollocationNode {
        /// Index into the case's sparse-grid nodes.
        node_index: usize,
    },
    /// Solve the scenario's explicit deterministic surface.
    ExplicitSurface,
}

/// One schedulable solve: the atom of the execution layer.
#[derive(Debug, Clone, Copy)]
pub struct WorkUnit {
    /// Position in the plan (also the unit's deterministic stream index).
    pub id: usize,
    /// Index into [`Plan::cases`].
    pub case_index: usize,
    /// What to compute.
    pub task: UnitTask,
}

/// One case of the grid, with everything its units share.
#[derive(Debug, Clone)]
pub struct PlannedCase {
    /// Grid position.
    pub id: CaseId,
    /// Context this case's units depend on.
    pub context_key: ContextKey,
    /// Truncated KL basis (stochastic cases; shared across frequencies).
    pub kl: Option<Arc<KarhunenLoeve>>,
    /// Height rescaling compensating the truncated KL variance.
    pub variance_restore: f64,
    /// Germ vectors: Monte-Carlo draws or sparse-grid node coordinates.
    pub germs: Vec<Vec<f64>>,
    /// The sparse grid (SSCM cases).
    pub sparse_grid: Option<SparseGrid>,
    /// This case's slice of [`Plan::units`].
    pub unit_range: Range<usize>,
}

impl PlannedCase {
    /// Number of KL modes (the stochastic dimension) of this case.
    pub fn kl_modes(&self) -> usize {
        self.kl.as_ref().map(|kl| kl.modes()).unwrap_or(0)
    }

    /// Number of deterministic solves this case schedules.
    pub fn solves(&self) -> usize {
        self.unit_range.len()
    }
}

/// A fully expanded campaign: deduplicated contexts plus the flat unit list.
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) scenario: Scenario,
    pub(crate) cases: Vec<PlannedCase>,
    pub(crate) units: Vec<WorkUnit>,
    pub(crate) distinct_contexts: usize,
}

impl Plan {
    /// Expands a scenario.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidScenario`] when a KL basis cannot be
    /// built for a stochastic case or the explicit surface does not match the
    /// scenario grid.
    pub fn new(scenario: &Scenario) -> Result<Self, EngineError> {
        Self::new_with_cache(scenario, None)
    }

    /// Expands a scenario, sourcing KL bases from `cache` when given (the
    /// engine passes its kernel cache so the eigendecomposition is shared
    /// across campaigns; bare [`Plan::new`] builds them fresh).
    pub(crate) fn new_with_cache(
        scenario: &Scenario,
        cache: Option<&crate::cache::KernelCache>,
    ) -> Result<Self, EngineError> {
        let scenario = scenario.clone();
        // One KL basis per roughness axis entry, shared across frequencies.
        let mut kl_bases: Vec<Option<Arc<KarhunenLoeve>>> = Vec::new();
        for spec in &scenario.roughness {
            kl_bases.push(match spec.correlation() {
                Some(cf) if !matches!(scenario.mode, EnsembleMode::Deterministic) => {
                    let build = || -> Result<Arc<KarhunenLoeve>, EngineError> {
                        let kl = KarhunenLoeve::new(
                            *cf,
                            scenario.cells_per_side,
                            spec.patch_length(),
                            scenario.energy_fraction,
                        )
                        .map_err(|error| {
                            EngineError::InvalidScenario(format!(
                                "KL basis for roughness case failed: {error}"
                            ))
                        })?;
                        let capped = kl.modes().min(scenario.max_kl_modes);
                        Ok(Arc::new(kl.with_modes(capped)))
                    };
                    let kl = match cache {
                        Some(cache) => {
                            // Keyed by everything the truncated basis depends on.
                            let key = format!(
                                "{cf:?}|{}|{:x}|{:x}|{}",
                                scenario.cells_per_side,
                                spec.patch_length().to_bits(),
                                scenario.energy_fraction.to_bits(),
                                scenario.max_kl_modes,
                            );
                            cache.kl_basis(key, build)?
                        }
                        None => build()?,
                    };
                    Some(kl)
                }
                _ => None,
            });
        }

        if matches!(scenario.mode, EnsembleMode::Deterministic) {
            if let Some(surface) = &scenario.surface {
                if surface.samples_per_side() != scenario.cells_per_side {
                    return Err(EngineError::InvalidScenario(format!(
                        "explicit surface has {} samples per side but the scenario grid has {}",
                        surface.samples_per_side(),
                        scenario.cells_per_side
                    )));
                }
            }
        }

        let stack_fingerprint = debug_fingerprint(&scenario.stack);
        let solver_fingerprint = debug_fingerprint(&scenario.solver);
        let assembly_fingerprint = debug_fingerprint(&scenario.assembly);
        let operator_fingerprint = debug_fingerprint(&scenario.operator_repr);
        let mut cases = Vec::with_capacity(scenario.case_count());
        let mut units = Vec::new();
        let mut context_keys: HashMap<ContextKey, ()> = HashMap::new();
        for (case_index, id) in scenario.case_ids().enumerate() {
            let spec = &scenario.roughness[id.roughness];
            let frequency = scenario.frequencies[id.frequency];
            let context_key = ContextKey {
                cells_per_side: scenario.cells_per_side,
                patch_length_bits: spec.patch_length().to_bits(),
                frequency_bits: frequency.value().to_bits(),
                stack_fingerprint,
                solver_fingerprint,
                assembly_fingerprint,
                operator_fingerprint,
            };
            context_keys.insert(context_key, ());

            let kl = kl_bases[id.roughness].clone();
            let variance_restore = kl
                .as_ref()
                .map(|kl| (1.0 / kl.captured_energy().max(1e-12)).sqrt())
                .unwrap_or(1.0);

            let (germs, sparse_grid) = match scenario.mode {
                EnsembleMode::MonteCarlo { realizations } => {
                    let modes = kl.as_ref().expect("stochastic case has a KL basis").modes();
                    let case_seed = derive_stream(scenario.master_seed, case_index as u64);
                    (draw_germ_matrix(modes, realizations, case_seed), None)
                }
                EnsembleMode::Sscm { order } => {
                    let modes = kl.as_ref().expect("stochastic case has a KL basis").modes();
                    let grid = SparseGrid::new(modes, order);
                    let germs = grid.nodes().iter().map(|n| n.point.clone()).collect();
                    (germs, Some(grid))
                }
                EnsembleMode::Deterministic => (Vec::new(), None),
            };

            let first_unit = units.len();
            match scenario.mode {
                EnsembleMode::MonteCarlo { .. } => {
                    for germ_index in 0..germs.len() {
                        units.push(WorkUnit {
                            id: units.len(),
                            case_index,
                            task: UnitTask::Realization { germ_index },
                        });
                    }
                }
                EnsembleMode::Sscm { .. } => {
                    for node_index in 0..germs.len() {
                        units.push(WorkUnit {
                            id: units.len(),
                            case_index,
                            task: UnitTask::CollocationNode { node_index },
                        });
                    }
                }
                EnsembleMode::Deterministic => {
                    units.push(WorkUnit {
                        id: units.len(),
                        case_index,
                        task: UnitTask::ExplicitSurface,
                    });
                }
            }
            cases.push(PlannedCase {
                id,
                context_key,
                kl,
                variance_restore,
                germs,
                sparse_grid,
                unit_range: first_unit..units.len(),
            });
        }

        Ok(Self {
            scenario,
            cases,
            units,
            distinct_contexts: context_keys.len(),
        })
    }

    /// The scenario this plan expands.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The planned cases, in deterministic grid order.
    pub fn cases(&self) -> &[PlannedCase] {
        &self.cases
    }

    /// The flat evaluation-unit list (stage 1 of the DAG).
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// Number of distinct shared contexts (stage 0 of the DAG). Always at most
    /// the case count; smaller when cases share (grid, patch, frequency).
    pub fn distinct_contexts(&self) -> usize {
        self.distinct_contexts
    }

    /// Total number of deterministic SWM solves the plan schedules, including
    /// the one smooth-surface reference solve per distinct context.
    pub fn total_solves(&self) -> usize {
        self.units.len() + self.distinct_contexts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rough_core::RoughnessSpec;
    use rough_em::material::Stackup;
    use rough_em::units::{GigaHertz, Micrometers};

    fn spec(eta_um: f64) -> RoughnessSpec {
        RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(eta_um))
    }

    #[test]
    fn monte_carlo_plans_one_unit_per_realization() {
        let scenario = Scenario::builder(Stackup::paper_baseline())
            .roughness(spec(1.0))
            .frequencies([GigaHertz::new(1.0).into(), GigaHertz::new(5.0).into()])
            .cells_per_side(8)
            .monte_carlo(6)
            .build()
            .unwrap();
        let plan = Plan::new(&scenario).unwrap();
        assert_eq!(plan.cases().len(), 2);
        assert_eq!(plan.units().len(), 12);
        assert_eq!(plan.distinct_contexts(), 2);
        assert_eq!(plan.total_solves(), 14);
        for case in plan.cases() {
            assert_eq!(case.germs.len(), 6);
            assert!(case.kl_modes() > 0);
            assert_eq!(case.solves(), 6);
        }
    }

    #[test]
    fn germ_draws_are_deterministic_and_case_distinct() {
        let build = || {
            let scenario = Scenario::builder(Stackup::paper_baseline())
                .roughness(spec(1.0))
                .frequencies([GigaHertz::new(1.0).into(), GigaHertz::new(5.0).into()])
                .cells_per_side(8)
                .monte_carlo(4)
                .master_seed(77)
                .build()
                .unwrap();
            Plan::new(&scenario).unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a.cases()[0].germs, b.cases()[0].germs);
        assert_ne!(a.cases()[0].germs, a.cases()[1].germs);
    }

    #[test]
    fn sscm_plans_the_sparse_grid_nodes() {
        let scenario = Scenario::builder(Stackup::paper_baseline())
            .roughness(spec(1.0))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(8)
            .max_kl_modes(4)
            .sscm(1)
            .build()
            .unwrap();
        let plan = Plan::new(&scenario).unwrap();
        let case = &plan.cases()[0];
        assert_eq!(case.kl_modes(), 4);
        // Level-1 Smolyak grids have 2M + 1 nodes (M = 4 ⇒ 9).
        assert_eq!(case.germs.len(), 9);
        assert_eq!(plan.units().len(), 9);
    }

    #[test]
    fn shared_frequencies_share_contexts() {
        // Two distinct correlation shapes over the *same* patch length and
        // frequency: one context serves both cases.
        let cf_a = RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0));
        let cf_b = RoughnessSpec::gaussian(Micrometers::new(0.5), Micrometers::new(1.0));
        let scenario = Scenario::builder(Stackup::paper_baseline())
            .roughness(cf_a)
            .roughness(cf_b)
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(8)
            .monte_carlo(2)
            .build()
            .unwrap();
        let plan = Plan::new(&scenario).unwrap();
        assert_eq!(plan.cases().len(), 2);
        assert_eq!(plan.distinct_contexts(), 1);
    }
}
