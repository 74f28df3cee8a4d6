//! Circuit-compatible export of the swept curve.
//!
//! The paper's deliverable for circuit tools is not the loss factor itself
//! but the *effective* surface properties it implies: a rough conductor
//! dissipating `K` times the smooth-wall power behaves, to a field solver or
//! a transmission-line model, like a smooth conductor with surface
//! resistance `Rs_eff = K · Rs_smooth` — equivalently an effective
//! conductivity `σ_eff = σ / K²` (skin-effect resistance scales as
//! `1/√σ`). Three sinks cover the common consumers:
//!
//! * [`zf_csv`] — the full `Z(f)` table with exact IEEE-754 bit columns, the
//!   golden-diffable form used by CI;
//! * [`touchstone`] — a Touchstone-style one-port impedance file
//!   (`# HZ Z RI R 1`) carrying `Zs_eff = (1 + j) · Rs_eff`, the
//!   surface-impedance boundary condition of the skin-effect regime;
//! * [`spice_table`] — a SPICE-friendly frequency/effective-conductivity
//!   table for behavioral conductor models.

use crate::adaptive::SweepOutcome;
use rough_em::material::Stackup;
use rough_em::units::Frequency;
use std::path::{Path, PathBuf};

/// Effective surface quantities at one solved point.
fn surface_row(stack: &Stackup, frequency_hz: f64, k: f64) -> (f64, f64, f64) {
    let rs_smooth = stack
        .conductor()
        .surface_resistance(Frequency::new(frequency_hz));
    let rs_eff = k * rs_smooth;
    let sigma_eff = stack.conductor().conductivity() / (k * k);
    (rs_smooth, rs_eff, sigma_eff)
}

/// The `Z(f)` table as CSV.
///
/// Columns: frequency, loss factor `K`, smooth and effective surface
/// resistance (Ω/sq), effective conductivity (S/m), then the exact bits of
/// `f` and `K` — two runs that solved the same physics produce
/// byte-identical tables, which is what the service-smoke golden diff
/// checks.
pub fn zf_csv(outcome: &SweepOutcome, stack: &Stackup) -> String {
    let mut out = String::from(
        "f_hz,k_factor,rs_smooth_ohm_sq,rs_eff_ohm_sq,sigma_eff_s_per_m,f_bits,k_bits\n",
    );
    for p in &outcome.points {
        let (rs_smooth, rs_eff, sigma_eff) = surface_row(stack, p.frequency_hz, p.value);
        out.push_str(&format!(
            "{:e},{:e},{:e},{:e},{:e},{:016x},{:016x}\n",
            p.frequency_hz,
            p.value,
            rs_smooth,
            rs_eff,
            sigma_eff,
            p.frequency_hz.to_bits(),
            p.value.to_bits(),
        ));
    }
    out
}

/// A Touchstone-style one-port file carrying the effective surface impedance
/// `Zs_eff(f) = (1 + j) · K(f) · Rs_smooth(f)` in real/imaginary form.
///
/// In the skin-effect regime the smooth-wall surface impedance is
/// `(1 + j) · Rs`; roughness scales the dissipative part by `K`, and the SWM
/// model's reactance scales with it (the stored and dissipated energy of the
/// evanescent field share one field solution), so both parts carry the
/// factor.
pub fn touchstone(outcome: &SweepOutcome, stack: &Stackup, name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "! {name}: effective surface impedance Zs_eff(f)\n"
    ));
    out.push_str(&format!(
        "! piecewise-linear table: estimated max rel err {:e} (tolerance {:e})\n",
        outcome.table_error, outcome.tolerance,
    ));
    out.push_str(&format!(
        "! adaptive sweep: {} points, {} rounds, converged {}\n",
        outcome.points.len(),
        outcome.rounds,
        outcome.converged,
    ));
    out.push_str("# HZ Z RI R 1\n");
    for p in &outcome.points {
        let (_, rs_eff, _) = surface_row(stack, p.frequency_hz, p.value);
        out.push_str(&format!("{:e} {:e} {:e}\n", p.frequency_hz, rs_eff, rs_eff));
    }
    out
}

/// A SPICE-friendly frequency/effective-conductivity table.
///
/// Emitted as comment-documented `+ (f, σ_eff)` continuation pairs, the form
/// behavioral conductor models and table-driven `G`/`E` elements consume.
pub fn spice_table(outcome: &SweepOutcome, stack: &Stackup, name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "* {name}: effective conductivity sigma_eff(f) = sigma / K(f)^2\n"
    ));
    out.push_str(&format!(
        "* bulk sigma = {:e} S/m; {} solved points; estimated table max rel err {:e}\n",
        stack.conductor().conductivity(),
        outcome.points.len(),
        outcome.table_error,
    ));
    out.push_str(".param roughsim_sigma_eff_table =\n");
    for p in &outcome.points {
        let (_, _, sigma_eff) = surface_row(stack, p.frequency_hz, p.value);
        out.push_str(&format!("+ ({:e}, {:e})\n", p.frequency_hz, sigma_eff));
    }
    out
}

/// Writes all three export forms next to each other:
/// `<base>.csv`, `<base>.s1p` and `<base>.sp` under `dir`.
///
/// # Errors
///
/// Propagates filesystem failures (the directory is created if missing).
pub fn write_exports(
    outcome: &SweepOutcome,
    stack: &Stackup,
    dir: impl AsRef<Path>,
    base: &str,
) -> std::io::Result<Vec<PathBuf>> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let paths = vec![
        dir.join(format!("{base}.csv")),
        dir.join(format!("{base}.s1p")),
        dir.join(format!("{base}.sp")),
    ];
    std::fs::write(&paths[0], zf_csv(outcome, stack))?;
    std::fs::write(&paths[1], touchstone(outcome, stack, base))?;
    std::fs::write(&paths[2], spice_table(outcome, stack, base))?;
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::SweepPoint;
    use rough_engine::CacheStats;

    fn outcome() -> SweepOutcome {
        let fs = [1.0e9, 2.0e9, 4.0e9, 8.0e9, 16.0e9];
        let ys = [1.1, 1.3, 1.6, 1.8, 1.9];
        SweepOutcome {
            points: fs
                .iter()
                .zip(ys)
                .map(|(&frequency_hz, value)| SweepPoint {
                    frequency_hz,
                    value,
                })
                .collect(),
            rounds: 1,
            converged: true,
            cache: CacheStats::default(),
            tolerance: 1e-3,
            table_error: 5e-4,
        }
    }

    #[test]
    fn csv_rows_carry_consistent_physics_and_exact_bits() {
        let stack = Stackup::paper_baseline();
        let text = zf_csv(&outcome(), &stack);
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "f_hz,k_factor,rs_smooth_ohm_sq,rs_eff_ohm_sq,sigma_eff_s_per_m,f_bits,k_bits"
        );
        let sigma = stack.conductor().conductivity();
        for line in lines {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 7);
            let f: f64 = cols[0].parse().unwrap();
            let k: f64 = cols[1].parse().unwrap();
            let rs_smooth: f64 = cols[2].parse().unwrap();
            let rs_eff: f64 = cols[3].parse().unwrap();
            let sigma_eff: f64 = cols[4].parse().unwrap();
            assert!((rs_eff - k * rs_smooth).abs() < 1e-12 * rs_eff);
            assert!((sigma_eff - sigma / (k * k)).abs() < 1e-6 * sigma_eff);
            // Bits columns decode to the decimal columns exactly.
            assert_eq!(f64::from_bits(u64::from_str_radix(cols[5], 16).unwrap()), f);
            assert_eq!(f64::from_bits(u64::from_str_radix(cols[6], 16).unwrap()), k);
        }
    }

    #[test]
    fn touchstone_has_header_and_equal_real_imaginary_parts() {
        let stack = Stackup::paper_baseline();
        let text = touchstone(&outcome(), &stack, "unit-test");
        assert!(text.contains("# HZ Z RI R 1"));
        let data: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('!') && !l.starts_with('#'))
            .collect();
        assert_eq!(data.len(), 5);
        for line in data {
            let cols: Vec<f64> = line
                .split_whitespace()
                .map(|t| t.parse().unwrap())
                .collect();
            assert_eq!(cols.len(), 3);
            assert_eq!(cols[1].to_bits(), cols[2].to_bits()); // (1 + j) Rs_eff
            assert!(cols[1] > 0.0);
        }
    }

    #[test]
    fn spice_table_lists_every_point_with_reduced_conductivity() {
        let stack = Stackup::paper_baseline();
        let text = spice_table(&outcome(), &stack, "unit-test");
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("+ (")).collect();
        assert_eq!(rows.len(), 5);
        let sigma = stack.conductor().conductivity();
        for row in rows {
            let inner = row.trim_start_matches("+ (").trim_end_matches(')');
            let (_, sigma_eff) = inner.split_once(", ").unwrap();
            let sigma_eff: f64 = sigma_eff.parse().unwrap();
            assert!(sigma_eff < sigma); // K > 1 always reduces conductivity
        }
    }

    #[test]
    fn write_exports_creates_all_three_files() {
        let stack = Stackup::paper_baseline();
        let dir = std::env::temp_dir().join(format!("rough-sweep-export-{}", std::process::id()));
        let paths = write_exports(&outcome(), &stack, &dir, "unit").unwrap();
        assert_eq!(paths.len(), 3);
        for path in &paths {
            assert!(path.exists());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
