//! End-to-end sweeps through the real engine.
//!
//! Four properties the broadband subsystem promises are checked against
//! actual MOM solves (reduced grids keep the suite fast):
//!
//! * **Warm-state reuse** — the frequency-independent Karhunen–Loève basis
//!   built during the coarse scan is served from the shared kernel cache in
//!   every refinement round, so point *i + 1* is measurably cheaper than
//!   point *i* (zero KL rebuilds after round 0).
//! * **Checkpointed resume** — re-running a checkpointed sweep over the same
//!   directory restores every round from its file and reproduces the
//!   exported `Z(f)` table byte for byte without building a single context.
//! * **Golden regression** — a reduced-band adaptive sweep over the Fig. 5
//!   half-spheroid pins its refinement points and exported table against a
//!   snapshot (regenerate with `REGEN_GOLDEN=1`).
//! * **Sampling advantage** — over 0.05–100 GHz the adaptive sweep needs at
//!   least 2× fewer solved points than linear-uniform sampling at equal
//!   piecewise-linear curve error, and once it reports convergence its
//!   exported table meets the tolerance.

use rough_core::RoughnessSpec;
use rough_em::material::{Conductor, Dielectric, Stackup};
use rough_em::units::{GigaHertz, Micrometers};
use rough_engine::{CacheStats, EngineError, Scenario, SweepScenario};
use rough_numerics::rational::BarycentricRational;
use rough_surface::RoughSurface;
use rough_sweep::{zf_csv, EngineEvaluator, FrequencySweep, RoundOutcome, SweepEvaluator};
use std::path::PathBuf;

fn paper_stack() -> Stackup {
    Stackup::new(Conductor::copper_foil(), Dielectric::silicon_dioxide())
}

/// The reduced Fig. 5 half-spheroid protrusion (deterministic, bit-stable).
fn spheroid_template(cells: usize) -> Scenario {
    let tile = 12.0e-6;
    let (height, base_radius) = (5.8e-6, 4.7e-6);
    let surface = RoughSurface::from_fn(cells, tile, |x, y| {
        let dx = x - 0.5 * tile;
        let dy = y - 0.5 * tile;
        let r2 = (dx * dx + dy * dy) / (base_radius * base_radius);
        if r2 < 1.0 {
            height * (1.0 - r2).sqrt()
        } else {
            0.0
        }
    });
    Scenario::builder(paper_stack())
        .name("sweep-spheroid")
        .roughness(RoughnessSpec::deterministic(Micrometers::new(12.0)))
        .frequencies([GigaHertz::new(2.0).into()])
        .cells_per_side(cells)
        .deterministic(surface)
        .build()
        .expect("valid deterministic template")
}

/// A tiny stochastic template whose KL basis is the reusable warm state.
fn stochastic_template() -> Scenario {
    Scenario::builder(paper_stack())
        .name("sweep-ensemble")
        .roughness(RoughnessSpec::gaussian(
            Micrometers::new(1.0),
            Micrometers::new(1.0),
        ))
        .frequencies([GigaHertz::new(2.0).into()])
        .cells_per_side(6)
        .max_kl_modes(2)
        .monte_carlo(2)
        .master_seed(0x2009)
        .build()
        .expect("valid stochastic template")
}

fn reduced_sweep(template: Scenario) -> SweepScenario {
    SweepScenario::builder(
        template,
        GigaHertz::new(2.0).into(),
        GigaHertz::new(10.0).into(),
    )
    .coarse_points(3)
    .max_points(5)
    .tolerance(1e-6) // far below curve smoothness: forces refinement to budget
    .build()
    .expect("valid reduced sweep")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rough-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Records each round's cache delta so per-round warmth is observable.
struct Recording {
    inner: EngineEvaluator,
    rounds: Vec<CacheStats>,
}

impl SweepEvaluator for Recording {
    fn solve_round(
        &mut self,
        sweep: &SweepScenario,
        points: &[f64],
    ) -> Result<RoundOutcome, EngineError> {
        let outcome = self.inner.solve_round(sweep, points)?;
        self.rounds.push(outcome.cache);
        Ok(outcome)
    }
}

#[test]
fn kl_basis_warms_up_in_round_zero_and_is_reused_after() {
    let mut evaluator = Recording {
        inner: EngineEvaluator::new(),
        rounds: Vec::new(),
    };
    let outcome = FrequencySweep::new(reduced_sweep(stochastic_template()))
        .run(&mut evaluator)
        .unwrap();
    assert_eq!(outcome.points.len(), 5, "budget should be exhausted");
    assert!(evaluator.rounds.len() >= 2, "no refinement rounds ran");
    // The eigendecomposition runs exactly once, in the coarse scan; every
    // later round (new frequencies, same covariance) hits the shared cache.
    assert_eq!(evaluator.rounds[0].kl_misses, 1);
    for (i, round) in evaluator.rounds.iter().enumerate().skip(1) {
        assert_eq!(round.kl_misses, 0, "round {i} rebuilt the KL basis");
        assert!(round.kl_hits > 0, "round {i} did not reuse the KL basis");
    }
    assert!(outcome.cache.kl_hits > 0);
    assert_eq!(outcome.cache.kl_misses, 1);
}

#[test]
fn checkpointed_sweep_resumes_bit_identically() {
    let dir = temp_dir("resume");
    let stack = paper_stack();
    let sweep = || reduced_sweep(spheroid_template(6));

    let mut first = EngineEvaluator::new().checkpoint_dir(&dir);
    let original = FrequencySweep::new(sweep()).run(&mut first).unwrap();
    assert!(
        dir.join("round000.jsonl").exists(),
        "rounds not checkpointed"
    );

    // Fresh evaluator, cold cache, same directory: every round restores
    // from its checkpoint file instead of solving.
    let mut second = EngineEvaluator::new().checkpoint_dir(&dir);
    let resumed = FrequencySweep::new(sweep()).run(&mut second).unwrap();

    // The exported curve is byte-identical; only the cache accounting in the
    // JSON summary may differ (a resumed run builds nothing).
    assert_eq!(zf_csv(&original, &stack), zf_csv(&resumed, &stack));
    for (a, b) in original.points.iter().zip(&resumed.points) {
        assert_eq!(a.frequency_hz.to_bits(), b.frequency_hz.to_bits());
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }
    // Nothing was rebuilt on resume: restored units never touch the cache.
    assert_eq!(resumed.cache.misses, 0, "resume re-built solver contexts");
    assert_eq!(original.rounds, resumed.rounds);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Column-aware comparison: decimal and bit columns both decode to floats
/// compared at 1e-6 relative so last-ulp libm differences across platforms
/// do not flake the golden.
fn assert_zf_rows_match(want: &str, got: &str) {
    let want_lines: Vec<&str> = want.lines().collect();
    let got_lines: Vec<&str> = got.lines().collect();
    assert_eq!(
        want_lines.len(),
        got_lines.len(),
        "row count changed (golden {} vs actual {}): the refinement path moved",
        want_lines.len(),
        got_lines.len()
    );
    assert_eq!(want_lines[0], got_lines[0], "header changed");
    for (row, (w, g)) in want_lines.iter().zip(&got_lines).enumerate().skip(1) {
        let wf: Vec<&str> = w.split(',').collect();
        let gf: Vec<&str> = g.split(',').collect();
        assert_eq!(wf.len(), gf.len(), "row {row}: column count changed");
        for (col, (wc, gc)) in wf.iter().zip(&gf).enumerate() {
            let decode = |t: &str| -> f64 {
                if col >= 5 {
                    f64::from_bits(u64::from_str_radix(t, 16).expect("bits column"))
                } else {
                    t.parse().expect("numeric column")
                }
            };
            let (wv, gv) = (decode(wc), decode(gc));
            let tol = 1e-6 * wv.abs().max(1e-9);
            assert!(
                (wv - gv).abs() <= tol,
                "row {row} col {col}: golden {wv} vs actual {gv}"
            );
        }
    }
}

#[test]
fn reduced_band_adaptive_sweep_matches_golden_zf_table() {
    let stack = paper_stack();
    let mut evaluator = EngineEvaluator::new();
    let outcome = FrequencySweep::new(reduced_sweep(spheroid_template(8)))
        .run(&mut evaluator)
        .unwrap();
    assert_eq!(
        outcome.points.len(),
        5,
        "refinement points moved: expected the full 5-point budget"
    );
    let actual = zf_csv(&outcome, &stack);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join("reduced_band_zf.csv");
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {} (run with REGEN_GOLDEN=1)",
            path.display()
        )
    });
    assert_zf_rows_match(&expected, &actual);
}

/// Max relative error of the piecewise-linear-in-frequency curve through
/// `(fs, ys)` — what a SPICE table lookup computes — against `truth` over
/// `eval_fs`; errors are relative to `|truth|`, floored at `1e-3 · scale`.
fn pwl_error(
    fs: &[f64],
    ys: &[f64],
    eval_fs: &[f64],
    truth: &dyn Fn(f64) -> f64,
    scale: f64,
) -> f64 {
    eval_fs
        .iter()
        .map(|&f| {
            let y = truth(f);
            let k = fs.partition_point(|&g| g < f).clamp(1, fs.len() - 1);
            let t = ((f - fs[k - 1]) / (fs[k] - fs[k - 1])).clamp(0.0, 1.0);
            let p = ys[k - 1] * (1.0 - t) + ys[k] * t;
            (p - y).abs() / y.abs().max(1e-3 * scale)
        })
        .fold(0.0, f64::max)
}

#[test]
fn adaptive_sweep_beats_linear_uniform_sampling() {
    // The band spans the spheroid's whole skin-depth story: low-frequency
    // dip, knee and saturated plateau. Linear-uniform sampling spends nearly
    // all its points on the plateau, so it needs far more of them to resolve
    // the dip. The exact counts are not pinned; the 2× margin is.
    let (f_lo, f_hi) = (GigaHertz::new(0.05).into(), GigaHertz::new(100.0).into());
    let (truth_points, tolerance) = (33, 3e-3);
    let sweep = |coarse| {
        SweepScenario::builder(spheroid_template(5), f_lo, f_hi)
            .coarse_points(coarse)
            .max_points(truth_points)
            .tolerance(tolerance)
            .build()
            .expect("valid sweep")
    };

    // Truth: a dense log grid solved as one round, interpolated in log f.
    let reference = sweep(truth_points);
    let grid = reference.coarse_grid();
    let truth_round = EngineEvaluator::new()
        .solve_round(&reference, &grid)
        .expect("truth grid solve");
    let log_fs: Vec<f64> = grid.iter().map(|f| f.ln()).collect();
    let values: Vec<f64> = truth_round.points.iter().map(|p| p.value).collect();
    let scale = values.iter().fold(0.0f64, |a, &y| a.max(y.abs()));
    let model = BarycentricRational::new(&log_fs, &values, 3).expect("valid truth samples");
    let truth = move |f: f64| model.evaluate(f.ln());

    let outcome = FrequencySweep::new(sweep(5))
        .run(&mut EngineEvaluator::new())
        .expect("adaptive sweep");
    let (lo, hi) = (grid[0], grid[truth_points - 1]);
    let eval_fs: Vec<f64> = (0..257)
        .map(|i| lo * (hi / lo).powf(f64::from(i) / 256.0))
        .collect();
    let fs: Vec<f64> = outcome.points.iter().map(|p| p.frequency_hz).collect();
    let ys: Vec<f64> = outcome.points.iter().map(|p| p.value).collect();
    let adaptive_error = pwl_error(&fs, &ys, &eval_fs, &truth, scale);

    // Smallest linear-uniform grid, valued from the truth model, whose
    // curve error matches the adaptive sweep's.
    let linear_points = (2..=65536usize)
        .find(|&n| {
            let fs: Vec<f64> = (0..n)
                .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
                .collect();
            let ys: Vec<f64> = fs.iter().map(|&f| truth(f)).collect();
            pwl_error(&fs, &ys, &eval_fs, &truth, scale) <= adaptive_error
        })
        .unwrap_or(65536);
    let advantage = linear_points as f64 / outcome.points.len() as f64;
    println!(
        "adaptive: {} points (converged {}, table error {:.2e}), curve error \
         {adaptive_error:.2e}; linear-uniform needs {linear_points} ({advantage:.1}x)",
        outcome.points.len(),
        outcome.converged,
        outcome.table_error
    );
    assert!(
        !outcome.converged || adaptive_error <= tolerance,
        "converged sweep exports a table erring by {adaptive_error:.2e} > {tolerance:e}"
    );
    assert!(
        advantage >= 2.0,
        "adaptive sweep must need at least 2x fewer solved points than \
         linear-uniform sampling at equal curve error: {} adaptive vs \
         {linear_points} uniform ({advantage:.2}x)",
        outcome.points.len()
    );
}
