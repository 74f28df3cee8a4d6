//! Work-unit scheduling policies.
//!
//! A [`Scheduler`] decides the order in which a plan's [`WorkUnit`]s are
//! handed to the executor. Because every unit's randomness is fixed at plan
//! time and records are reassembled by unit id, scheduling affects only
//! wall-clock behaviour (load balance, time-to-first-result), never the
//! statistics: any order produces a bit-identical [`crate::CampaignReport`].
//!
//! Two policies ship with the engine:
//!
//! * [`PlanOrder`] — the deduplicated grid order the planner emitted; cheapest
//!   and cache-friendliest for uniform-cost campaigns.
//! * [`CostOrdered`] — longest-first by estimated unit cost. Out of the box
//!   the estimate is the static model `cells⁴ · frequency`: a dense MOM solve
//!   factors an `N²×N²` matrix (`N = cells²`, so the factorization is
//!   `O(cells⁶)` with an `O(cells⁴)`-dominated assembly at practical sizes),
//!   and higher frequencies need wider Ewald spectral sums. A [`CostTable`]
//!   of **measured** per-class wall times — fed from
//!   [`crate::CampaignReport::unit_times`], persisted as JSON — closes the
//!   calibration loop: [`CostOrdered::calibrated`] orders by real seconds
//!   whenever every class in the plan has measurements, falling back to the
//!   static model otherwise (mixing measured seconds with the static model's
//!   abstract scale inside one sort would be meaningless).

use crate::checkpoint::{extract_str, extract_u64};
use crate::error::EngineError;
use crate::plan::{Plan, WorkUnit};
use crate::report::CampaignReport;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Decides the execution order of a plan's work units.
///
/// Implementations must be deterministic: the same plan must always produce
/// the same order, so that checkpointed runs resume into the same schedule.
pub trait Scheduler: Send + Sync + fmt::Debug {
    /// Short policy label (reports, logs).
    fn name(&self) -> &'static str;

    /// Returns the unit ids of `plan` in execution order (a permutation of
    /// `0..plan.units().len()`).
    fn schedule(&self, plan: &Plan) -> Vec<usize>;
}

/// Executes units exactly in the order the planner emitted them.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanOrder;

impl Scheduler for PlanOrder {
    fn name(&self) -> &'static str {
        "plan-order"
    }

    fn schedule(&self, plan: &Plan) -> Vec<usize> {
        (0..plan.units().len()).collect()
    }
}

/// The cost class of one work unit: all units sharing a grid resolution and
/// frequency have statistically identical cost, so measurements pool by this
/// key. The float is formatted with Rust's shortest-roundtrip `Display`, so
/// the key is exact.
pub fn unit_class(plan: &Plan, unit: &WorkUnit) -> String {
    let scenario = plan.scenario();
    let case = &plan.cases()[unit.case_index];
    let ghz = scenario.frequencies()[case.id.frequency].as_gigahertz();
    // Matrix-free units live on a different cost curve than dense units of
    // the same grid (Krylov + FFT vs LU), so they pool separately.
    let repr = if scenario.operator_repr().is_matrix_free() {
        "#mf"
    } else {
        ""
    };
    format!("c{}@{}GHz{}", scenario.cells_per_side(), ghz, repr)
}

/// One class's accumulated measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CostEntry {
    mean_seconds: f64,
    samples: u64,
}

/// Measured per-class unit costs: a running mean of solve wall seconds,
/// keyed by [`unit_class`], persisted as JSON.
///
/// Feed it from finished runs with [`CostTable::absorb`] (every executor now
/// reports per-unit wall times, workers included), persist with
/// [`CostTable::save`] / [`CostTable::load`], and hand it to
/// [`CostOrdered::calibrated`] to schedule future campaigns by real data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostTable {
    entries: BTreeMap<String, CostEntry>,
}

impl CostTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classes with at least one measurement.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no measurements at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds one measured solve into a class's running mean.
    pub fn record(&mut self, class: impl Into<String>, seconds: f64) {
        if !seconds.is_finite() || seconds < 0.0 {
            return;
        }
        let entry = self.entries.entry(class.into()).or_insert(CostEntry {
            mean_seconds: 0.0,
            samples: 0,
        });
        entry.samples += 1;
        entry.mean_seconds += (seconds - entry.mean_seconds) / entry.samples as f64;
    }

    /// The measured mean seconds of a class, when any sample exists.
    pub fn lookup(&self, class: &str) -> Option<f64> {
        self.entries.get(class).map(|entry| entry.mean_seconds)
    }

    /// Absorbs every timed unit of a finished run into the table — the
    /// calibration feedback edge from [`CampaignReport::unit_times`] back
    /// into scheduling. Returns how many measurements were folded in.
    pub fn absorb(&mut self, plan: &Plan, report: &CampaignReport) -> usize {
        let mut folded = 0;
        for (record, wall) in report.records.iter().zip(&report.unit_times) {
            let Some(wall) = wall else { continue };
            let Some(unit) = plan.units().get(record.unit) else {
                continue;
            };
            self.record(unit_class(plan, unit), wall.as_secs_f64());
            folded += 1;
        }
        folded
    }

    /// Serializes the table as JSON. Means are stored twice — readable and
    /// as exact bits — matching the float discipline of the checkpoint
    /// format, so save/load round-trips bit-exactly.
    pub fn to_json(&self) -> String {
        let classes: Vec<String> = self
            .entries
            .iter()
            .map(|(class, entry)| {
                format!(
                    "{{\"class\":\"{}\",\"mean_seconds\":{},\"mean_bits\":\"{:016x}\",\"samples\":{}}}",
                    class, entry.mean_seconds, entry.mean_seconds.to_bits(), entry.samples
                )
            })
            .collect();
        format!(
            "{{\"kind\":\"cost-table\",\"format\":1,\"classes\":[{}]}}\n",
            classes.join(",")
        )
    }

    /// Parses a table previously produced by [`CostTable::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] on malformed input.
    pub fn from_json(text: &str) -> Result<Self, EngineError> {
        if !text.contains("\"kind\":\"cost-table\"") {
            return Err(EngineError::Checkpoint(
                "not a cost table (missing kind marker)".into(),
            ));
        }
        let mut entries = BTreeMap::new();
        // Each class object is self-contained and our writer never emits
        // nested braces, so splitting on '}' walks the objects.
        for chunk in text.split('}') {
            let Some(class) = extract_str(chunk, "class") else {
                continue;
            };
            let bits = extract_str(chunk, "mean_bits")
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| {
                    EngineError::Checkpoint(format!("class {class} is missing mean_bits"))
                })?;
            let samples = extract_u64(chunk, "samples").ok_or_else(|| {
                EngineError::Checkpoint(format!("class {class} is missing samples"))
            })?;
            entries.insert(
                class.to_string(),
                CostEntry {
                    mean_seconds: f64::from_bits(bits),
                    samples,
                },
            );
        }
        Ok(Self { entries })
    }

    /// Writes the table to `path` (creating parent directories).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    EngineError::Checkpoint(format!("cannot create {}: {e}", parent.display()))
                })?;
            }
        }
        std::fs::write(path, self.to_json())
            .map_err(|e| EngineError::Checkpoint(format!("cannot write {}: {e}", path.display())))
    }

    /// Reads a table from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Checkpoint`] when the file cannot be read or
    /// parsed.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, EngineError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| EngineError::Checkpoint(format!("cannot read {}: {e}", path.display())))?;
        Self::from_json(&text)
    }
}

/// Executes the most expensive units first, ties broken by plan order.
///
/// Uncalibrated ([`CostOrdered::new`]), cost is the static model
/// `cells⁴ · frequency`. Calibrated with a [`CostTable`], cost is the
/// measured mean wall seconds of the unit's class — engaged only when every
/// class in the plan has measurements; a partially covered plan falls back to
/// the static model wholesale, because seconds and the static model's
/// abstract units do not share a scale.
#[derive(Debug, Clone, Default)]
pub struct CostOrdered {
    table: Option<CostTable>,
}

impl CostOrdered {
    /// The static-model policy (no measurements).
    pub fn new() -> Self {
        Self::default()
    }

    /// A policy calibrated by measured per-class costs.
    pub fn calibrated(table: CostTable) -> Self {
        Self { table: Some(table) }
    }

    /// The cost this policy assigns each unit of `plan`, in unit order.
    fn costs(&self, plan: &Plan) -> Vec<f64> {
        if let Some(table) = &self.table {
            let measured: Option<Vec<f64>> = plan
                .units()
                .iter()
                .map(|unit| table.lookup(&unit_class(plan, unit)))
                .collect();
            if let Some(measured) = measured {
                return measured;
            }
        }
        plan.units()
            .iter()
            .map(|unit| estimated_unit_cost(plan, unit))
            .collect()
    }
}

/// Grid size at which a matrix-free solve costs about the same as a dense
/// solve. It pins the two static cost curves to one shared scale:
/// `dense(cells) = mf(cells)` exactly at the crossover. The timing test
/// `tests/perf_gates.rs` prints the measured crossover of its serial
/// solves: on 2 cores it now sits between 12 and 16 cells, since the
/// pruned, spectrally combined matvec made matrix-free solves cheaper
/// (three runs: dense 0.47–0.52 s against matrix-free 0.48–0.57 s at 12
/// cells, 1.18–1.23 s against 0.94–1.04 s at 16). The constant stays at 14:
/// moving it would reorder scheduled units.
const MF_CROSSOVER_CELLS: f64 = 14.0;

/// Estimated relative cost of one work unit, aware of the operator
/// representation:
///
/// * dense — `cells⁴ · frequency` (an `O(cells⁶)` factorization behind an
///   `O(cells⁴)`-dominated assembly at practical sizes);
/// * matrix-free — `14² · cells² · frequency`: per-iteration work is
///   `O(N log N)` in `N = cells²` and setup is `O(cells²)` kernel samples per
///   slab level, two powers of `cells` shallower than dense. The `14²`
///   prefactor anchors both curves to equality at the measured dense/MF
///   crossover, so a mixed dense + matrix-free batch sorts on one scale.
///
/// The absolute scale is meaningless; only the ordering matters. Within one
/// scenario every unit shares `cells_per_side` and the operator, so the
/// policy orders by frequency — the grid and operator terms exist so that
/// mixed plans (multi-scenario batches, broadband sweeps mixing dense
/// anchors with matrix-free refinement points) order correctly too.
pub fn estimated_unit_cost(plan: &Plan, unit: &WorkUnit) -> f64 {
    let scenario = plan.scenario();
    let cells = scenario.cells_per_side() as f64;
    let case = &plan.cases()[unit.case_index];
    let frequency = scenario.frequencies()[case.id.frequency].value();
    if scenario.operator_repr().is_matrix_free() {
        MF_CROSSOVER_CELLS * MF_CROSSOVER_CELLS * cells * cells * frequency
    } else {
        cells.powi(4) * frequency
    }
}

impl Scheduler for CostOrdered {
    fn name(&self) -> &'static str {
        "cost-ordered"
    }

    fn schedule(&self, plan: &Plan) -> Vec<usize> {
        let costs = self.costs(plan);
        let mut order: Vec<usize> = (0..plan.units().len()).collect();
        // Stable sort: equal-cost units keep plan order, so the schedule is a
        // deterministic function of the plan (and the table, when set).
        order.sort_by(|&a, &b| costs[b].partial_cmp(&costs[a]).expect("costs are finite"));
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Run, RunConfig};
    use crate::scenario::Scenario;
    use crate::SerialExecutor;
    use rough_core::RoughnessSpec;
    use rough_em::material::Stackup;
    use rough_em::units::{GigaHertz, Micrometers};

    fn two_frequency_scenario() -> Scenario {
        Scenario::builder(Stackup::paper_baseline())
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(8.0).into()])
            .cells_per_side(6)
            .max_kl_modes(2)
            .monte_carlo(3)
            .build()
            .unwrap()
    }

    fn two_frequency_plan() -> Plan {
        Plan::new(&two_frequency_scenario()).unwrap()
    }

    #[test]
    fn plan_order_is_the_identity() {
        let plan = two_frequency_plan();
        assert_eq!(PlanOrder.schedule(&plan), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn cost_ordered_runs_high_frequencies_first() {
        let plan = two_frequency_plan();
        let order = CostOrdered::new().schedule(&plan);
        assert_eq!(order.len(), 6);
        // Case 1 (8 GHz) units 3..6 come first, each group in plan order.
        assert_eq!(order, vec![3, 4, 5, 0, 1, 2]);
    }

    #[test]
    fn calibrated_schedule_reorders_a_heterogeneous_plan() {
        // Synthetic heterogeneity: measurements say the 2 GHz class is the
        // slow one (cache pathology, say), inverting the static model.
        let plan = two_frequency_plan();
        let mut table = CostTable::new();
        table.record("c6@2GHz", 2.0);
        table.record("c6@8GHz", 0.5);
        let order = CostOrdered::calibrated(table).schedule(&plan);
        assert_eq!(
            order,
            vec![0, 1, 2, 3, 4, 5],
            "measured costs must override the static frequency ordering"
        );
    }

    #[test]
    fn partially_covered_plans_fall_back_to_the_static_model() {
        let plan = two_frequency_plan();
        let mut table = CostTable::new();
        table.record("c6@2GHz", 2.0); // no 8 GHz measurement
        let order = CostOrdered::calibrated(table).schedule(&plan);
        assert_eq!(order, CostOrdered::new().schedule(&plan));
    }

    #[test]
    fn cost_table_roundtrips_bit_exactly_through_json() {
        let mut table = CostTable::new();
        table.record("c6@2GHz", 0.1 + 0.2);
        table.record("c6@2GHz", 0.7);
        table.record("c8@10GHz", 4.9e-3);
        let parsed = CostTable::from_json(&table.to_json()).unwrap();
        assert_eq!(parsed, table);
        assert_eq!(
            parsed.lookup("c6@2GHz").unwrap().to_bits(),
            table.lookup("c6@2GHz").unwrap().to_bits()
        );
        assert!(CostTable::from_json("{\"kind\":\"other\"}").is_err());
    }

    #[test]
    fn cost_table_save_load_roundtrips() {
        let dir = std::env::temp_dir().join("rough_engine_cost_table");
        let path = dir.join("costs.json");
        let mut table = CostTable::new();
        table.record("c6@5GHz", 1.5);
        table.save(&path).unwrap();
        assert_eq!(CostTable::load(&path).unwrap(), table);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn absorb_folds_measured_unit_times_from_a_real_run() {
        let scenario = two_frequency_scenario();
        let run = Run::new(&scenario, RunConfig::new().executor(SerialExecutor)).unwrap();
        let plan = run.plan().clone();
        let report = run.execute().unwrap();
        let mut table = CostTable::new();
        let folded = table.absorb(&plan, &report);
        assert_eq!(folded, report.records.len());
        assert_eq!(table.len(), 2, "one class per frequency");
        assert!(table.lookup("c6@2GHz").unwrap() > 0.0);
        assert!(table.lookup("c6@8GHz").unwrap() > 0.0);
        // A calibrated policy built from this table schedules the plan.
        let order = CostOrdered::calibrated(table).schedule(&plan);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..plan.units().len()).collect::<Vec<_>>());
    }

    #[test]
    fn static_cost_is_operator_aware_across_a_mixed_batch() {
        use rough_core::{OperatorRepr, SolverKind};
        use rough_surface::RoughSurface;
        let plan_for = |cells: usize, matrix_free: bool| {
            let mut builder = Scenario::builder(Stackup::paper_baseline())
                .roughness(RoughnessSpec::deterministic(Micrometers::new(5.0)))
                .deterministic(RoughSurface::flat(cells, 5.0e-6))
                .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(8.0).into()])
                .cells_per_side(cells);
            if matrix_free {
                builder = builder
                    .solver(SolverKind::Bicgstab { tolerance: 1e-10 })
                    .operator_repr(OperatorRepr::MatrixFree(Default::default()));
            }
            Plan::new(&builder.build().unwrap()).unwrap()
        };
        let cost = |plan: &Plan| estimated_unit_cost(plan, &plan.units()[0]);

        // Below the measured crossover dense is the cheaper solve, above it
        // matrix-free is; at the crossover the two scales agree exactly.
        assert!(cost(&plan_for(8, false)) < cost(&plan_for(8, true)));
        assert!(cost(&plan_for(24, false)) > cost(&plan_for(24, true)));
        assert_eq!(cost(&plan_for(14, false)), cost(&plan_for(14, true)));

        // A longest-first merge of a mixed dense + matrix-free batch: the
        // dense cells=24 units must lead, the dense cells=8 units trail, and
        // the matrix-free units sit between — the ordering a shared-scale
        // static model exists to produce.
        let batch = [
            ("dense24", plan_for(24, false)),
            ("mf24", plan_for(24, true)),
            ("mf8", plan_for(8, true)),
            ("dense8", plan_for(8, false)),
        ];
        let mut merged: Vec<(&str, f64)> = batch
            .iter()
            .map(|(label, plan)| (*label, cost(plan)))
            .collect();
        merged.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let order: Vec<&str> = merged.iter().map(|(label, _)| *label).collect();
        assert_eq!(order, vec!["dense24", "mf24", "mf8", "dense8"]);

        // Measured costs pool per representation: the matrix-free class is
        // distinct from the dense class of the same grid and frequency.
        let dense = plan_for(8, false);
        let mf = plan_for(8, true);
        assert_eq!(unit_class(&dense, &dense.units()[0]), "c8@2GHz");
        assert_eq!(unit_class(&mf, &mf.units()[0]), "c8@2GHz#mf");
    }

    #[test]
    fn schedules_are_permutations() {
        let plan = two_frequency_plan();
        let cost_ordered = CostOrdered::new();
        for scheduler in [&PlanOrder as &dyn Scheduler, &cost_ordered] {
            let mut order = scheduler.schedule(&plan);
            order.sort_unstable();
            assert_eq!(order, (0..plan.units().len()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn invalid_measurements_are_ignored() {
        let mut table = CostTable::new();
        table.record("x", f64::NAN);
        table.record("x", -1.0);
        table.record("x", f64::INFINITY);
        assert!(table.is_empty());
    }
}
