//! Results layer: structured per-unit records, per-case aggregates, and
//! CSV/JSON sinks.

use crate::cache::CacheStats;
use crate::scenario::CaseId;
use rough_numerics::stats::EmpiricalCdf;
use rough_stochastic::collocation::SscmResult;
use rough_stochastic::monte_carlo::MonteCarloResult;
use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

/// The outcome of one evaluation unit (one deterministic SWM solve).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitRecord {
    /// Unit id (position in the plan).
    pub unit: usize,
    /// Index of the owning case.
    pub case_index: usize,
    /// Loss-enhancement factor `Pr/Ps` of the realization.
    pub value: f64,
    /// Relative residual of the linear solve.
    pub relative_residual: f64,
    /// Whether the solve completed through a degraded fallback path (see
    /// [`rough_core::SolveDiagnostics`]). Degraded units are still valid
    /// results — the flag makes the degradation visible in reports.
    pub degraded: bool,
}

/// Mode-specific aggregate of one case.
#[derive(Debug, Clone)]
pub enum CaseOutcome {
    /// Monte-Carlo sample statistics.
    MonteCarlo(MonteCarloResult),
    /// SSCM surrogate (chaos coefficients, surrogate-sampled CDF).
    Sscm(SscmResult),
    /// Single deterministic value.
    Deterministic(f64),
}

impl CaseOutcome {
    /// The output CDF, when the mode produces one.
    pub fn cdf(&self) -> Option<&EmpiricalCdf> {
        match self {
            CaseOutcome::MonteCarlo(mc) => Some(mc.cdf()),
            CaseOutcome::Sscm(sscm) => Some(sscm.cdf()),
            CaseOutcome::Deterministic(_) => None,
        }
    }
}

/// Aggregated result of one case of the scenario grid.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Grid position.
    pub id: CaseId,
    /// Case frequency (GHz).
    pub frequency_ghz: f64,
    /// RMS height σ of the roughness (m), for stochastic cases.
    pub sigma: Option<f64>,
    /// Correlation length η (m), for stochastic cases.
    pub correlation_length: Option<f64>,
    /// Stochastic dimension (KL modes); 0 for deterministic cases.
    pub kl_modes: usize,
    /// Deterministic solves spent on this case (excluding the shared
    /// reference solve).
    pub solves: usize,
    /// Mean loss-enhancement factor `E[Pr/Ps]`.
    pub mean: f64,
    /// Standard deviation of the enhancement factor.
    pub std_dev: f64,
    /// Mode-specific detail.
    pub outcome: CaseOutcome,
}

/// Result of one engine run: every case aggregate plus execution metadata.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Scenario name.
    pub scenario: String,
    /// Per-case aggregates, in grid order.
    pub cases: Vec<CaseReport>,
    /// Per-unit records, in plan order.
    pub records: Vec<UnitRecord>,
    /// Kernel-cache activity attributable to this run.
    pub cache: CacheStats,
    /// Distinct shared contexts the plan deduplicated to.
    pub distinct_contexts: usize,
    /// Total deterministic solves (units + reference solves).
    pub total_solves: usize,
    /// Wall-clock execution time.
    pub wall_time: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Measured per-unit wall times in plan order (`None` for units restored
    /// from a checkpoint, whose solves this run did not time). Recorded so
    /// cost models — [`crate::schedule::CostOrdered`] today, calibrated
    /// schedulers tomorrow — can be fitted from real data.
    pub unit_times: Vec<Option<Duration>>,
}

impl CampaignReport {
    /// The case at a grid position.
    pub fn case(&self, roughness: usize, frequency: usize) -> Option<&CaseReport> {
        self.cases
            .iter()
            .find(|c| c.id.roughness == roughness && c.id.frequency == frequency)
    }

    /// Mean measured unit wall time of one case (by case index), when at
    /// least one of its units was timed this run — the calibration input for
    /// cost-ordered scheduling.
    pub fn measured_mean_unit_seconds(&self, case_index: usize) -> Option<f64> {
        let timed: Vec<f64> = self
            .records
            .iter()
            .zip(&self.unit_times)
            .filter(|(record, _)| record.case_index == case_index)
            .filter_map(|(_, time)| time.map(|t| t.as_secs_f64()))
            .collect();
        if timed.is_empty() {
            None
        } else {
            Some(timed.iter().sum::<f64>() / timed.len() as f64)
        }
    }

    /// CSV header matching [`CampaignReport::csv_rows`].
    pub fn csv_header() -> &'static str {
        "scenario,roughness_case,frequency_case,f_ghz,sigma_um,eta_um,kl_modes,solves,mean_pr_ps,std_pr_ps"
    }

    /// One CSV row per case. Free-form fields (the scenario name) are quoted
    /// per RFC 4180, so names containing commas, quotes or newlines survive
    /// a round trip through any conforming CSV reader.
    pub fn csv_rows(&self) -> Vec<String> {
        self.cases
            .iter()
            .map(|case| {
                format!(
                    "{},{},{},{:.6},{},{},{},{},{:.6},{:.6}",
                    csv_escape(&self.scenario),
                    case.id.roughness,
                    case.id.frequency,
                    case.frequency_ghz,
                    case.sigma
                        .map(|s| format!("{:.4}", s * 1e6))
                        .unwrap_or_default(),
                    case.correlation_length
                        .map(|l| format!("{:.4}", l * 1e6))
                        .unwrap_or_default(),
                    case.kl_modes,
                    case.solves,
                    case.mean,
                    case.std_dev
                )
            })
            .collect()
    }

    /// Writes the per-case table as CSV.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        writeln!(file, "{}", Self::csv_header())?;
        for row in self.csv_rows() {
            writeln!(file, "{row}")?;
        }
        Ok(())
    }

    /// Serializes the campaign summary (cases + execution metadata, without
    /// raw CDF samples) as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"scenario\": \"{}\",\n",
            escape_json(&self.scenario)
        ));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!(
            "  \"wall_time_ms\": {:.3},\n",
            self.wall_time.as_secs_f64() * 1e3
        ));
        out.push_str(&format!(
            "  \"distinct_contexts\": {},\n",
            self.distinct_contexts
        ));
        out.push_str(&format!("  \"total_solves\": {},\n", self.total_solves));
        out.push_str(&format!(
            "  \"degraded_units\": {},\n",
            self.records.iter().filter(|r| r.degraded).count()
        ));
        out.push_str(&format!(
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}, \
             \"kl_hits\": {}, \"kl_misses\": {}, \
             \"table_hits\": {}, \"table_misses\": {}}},\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.entries,
            self.cache.kl_hits,
            self.cache.kl_misses,
            self.cache.table_hits,
            self.cache.table_misses
        ));
        out.push_str("  \"cases\": [\n");
        for (index, case) in self.cases.iter().enumerate() {
            let quantiles = case
                .outcome
                .cdf()
                .map(|cdf| {
                    format!(
                        ", \"p05\": {:.6}, \"median\": {:.6}, \"p95\": {:.6}",
                        cdf.quantile(0.05),
                        cdf.quantile(0.5),
                        cdf.quantile(0.95)
                    )
                })
                .unwrap_or_default();
            let unit_cost = self
                .measured_mean_unit_seconds(index)
                .map(|mean| format!(", \"measured_mean_unit_s\": {mean:.6}"))
                .unwrap_or_default();
            out.push_str(&format!(
                "    {{\"roughness_case\": {}, \"frequency_case\": {}, \"f_ghz\": {:.6}, \
                 \"kl_modes\": {}, \"solves\": {}, \"mean\": {:.6}, \"std_dev\": {:.6}{}{}}}{}\n",
                case.id.roughness,
                case.id.frequency,
                case.frequency_ghz,
                case.kl_modes,
                case.solves,
                case.mean,
                case.std_dev,
                quantiles,
                unit_cost,
                if index + 1 < self.cases.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON summary to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Quotes one CSV field per RFC 4180: fields containing the separator, a
/// double quote or a line break are wrapped in double quotes with embedded
/// quotes doubled; everything else passes through unchanged.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> CampaignReport {
        let mc = MonteCarloResult::from_samples(&[1.0, 1.1, 1.2, 1.3]);
        CampaignReport {
            scenario: "unit \"quoted\"".into(),
            cases: vec![CaseReport {
                id: CaseId {
                    roughness: 0,
                    frequency: 0,
                },
                frequency_ghz: 5.0,
                sigma: Some(1e-6),
                correlation_length: Some(1e-6),
                kl_modes: 4,
                solves: 4,
                mean: mc.mean(),
                std_dev: mc.std_dev(),
                outcome: CaseOutcome::MonteCarlo(mc),
            }],
            records: vec![],
            cache: CacheStats {
                hits: 3,
                misses: 1,
                entries: 1,
                kl_hits: 0,
                kl_misses: 1,
                table_hits: 0,
                table_misses: 0,
            },
            distinct_contexts: 1,
            total_solves: 5,
            wall_time: Duration::from_millis(12),
            threads: 2,
            unit_times: vec![],
        }
    }

    #[test]
    fn csv_has_one_row_per_case() {
        let report = sample_report();
        let rows = report.csv_rows();
        assert_eq!(rows.len(), 1);
        // The quoted scenario name leads, then the grid indices.
        assert!(
            rows[0].starts_with("\"unit \"\"quoted\"\"\",0,0,5.0"),
            "row = {}",
            rows[0]
        );
        assert!(rows[0].contains("1.0000"), "sigma in um: {}", rows[0]);
    }

    #[test]
    fn csv_fields_are_rfc4180_escaped() {
        assert_eq!(csv_escape("plain-name"), "plain-name");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");

        // Regression: a scenario name with commas and quotes must not change
        // the parsed column count or corrupt neighbouring fields.
        let mut report = sample_report();
        report.scenario = "sweep, \"fast\" preset".into();
        let row = &report.csv_rows()[0];
        let parsed = parse_rfc4180(row);
        assert_eq!(
            parsed.len(),
            CampaignReport::csv_header().split(',').count(),
            "row = {row}"
        );
        assert_eq!(parsed[0], "sweep, \"fast\" preset");
        assert_eq!(parsed[1], "0");
    }

    /// Minimal RFC 4180 single-line parser (tests only).
    fn parse_rfc4180(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' => quoted = true,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    #[test]
    fn json_is_wellformed_enough() {
        let report = sample_report();
        let json = report.to_json();
        assert!(json.contains("\"scenario\": \"unit \\\"quoted\\\"\""));
        assert!(json.contains(
            "\"cache\": {\"hits\": 3, \"misses\": 1, \"entries\": 1, \"kl_hits\": 0, \
             \"kl_misses\": 1, \"table_hits\": 0, \"table_misses\": 0}"
        ));
        assert!(json.contains("\"median\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn case_lookup_by_grid_position() {
        let report = sample_report();
        assert!(report.case(0, 0).is_some());
        assert!(report.case(1, 0).is_none());
    }

    #[test]
    fn deterministic_outcome_has_no_cdf() {
        let outcome = CaseOutcome::Deterministic(1.5);
        assert!(outcome.cdf().is_none());
    }
}
