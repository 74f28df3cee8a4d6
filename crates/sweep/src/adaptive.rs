//! The adaptive refinement loop.
//!
//! [`FrequencySweep`] spends its solve budget where the curve needs it, and
//! judges the curve by the one representation every export writes: the
//! piecewise-linear table through the solved points, linear in frequency as
//! a SPICE or Touchstone lookup interpolates. On each interval a local
//! Floater–Hormann barycentric rational through the neighbouring points (in
//! log-frequency, matching the log-spaced scan) predicts the curve at the
//! geometric midpoint; where the table misses that prediction by more than
//! the sweep tolerance, the interval is flagged for geometric bisection.
//! Flags are scored by their midpoint error, so a tight remaining budget goes
//! to the worst intervals first, and every tie is broken by frequency — the
//! refinement path is a pure function of the sweep definition and the solved
//! values, which is what makes resumed sweeps bit-identical.

use crate::evaluate::{accumulate, RoundOutcome, SweepEvaluator, SweepPoint};
use rough_engine::{CacheStats, EngineError, RunEvent, RunObserver, SweepScenario};
use rough_numerics::rational::BarycentricRational;
use std::sync::Arc;

/// The completed sweep: solved points, the exported table's measured error
/// and the run's accounting.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Solved points, sorted by frequency.
    pub points: Vec<SweepPoint>,
    /// Refinement rounds executed (the coarse scan is round 0).
    pub rounds: usize,
    /// Whether the exported table met the tolerance on every interval
    /// (`false` means the point budget ran out first).
    pub converged: bool,
    /// Kernel-cache activity accumulated over every round — the visible
    /// evidence of warm-state reuse across frequency points.
    pub cache: CacheStats,
    /// The relative tolerance the sweep refined toward.
    pub tolerance: f64,
    /// Largest estimated relative error of the exported piecewise-linear
    /// table over its intervals, measured after the last round.
    pub table_error: f64,
}

impl SweepOutcome {
    /// Structured JSON summary (points carry exact IEEE-754 bits so goldens
    /// can diff byte-for-byte).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"solved_points\": {},\n", self.points.len()));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!("  \"converged\": {},\n", self.converged));
        out.push_str(&format!("  \"tolerance\": {:e},\n", self.tolerance));
        out.push_str(&format!("  \"table_error\": {:e},\n", self.table_error));
        out.push_str(&format!(
            "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"kl_hits\": {}, \"kl_misses\": {}, \"table_hits\": {}, \"table_misses\": {}}},\n",
            self.cache.hits,
            self.cache.misses,
            self.cache.kl_hits,
            self.cache.kl_misses,
            self.cache.table_hits,
            self.cache.table_misses,
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let comma = if i + 1 == self.points.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"f_hz\": {:e}, \"k\": {:e}, \"f_bits\": \"{:016x}\", \"k_bits\": \"{:016x}\"}}{comma}\n",
                p.frequency_hz,
                p.value,
                p.frequency_hz.to_bits(),
                p.value.to_bits(),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Adaptive broadband sweep driver.
///
/// Owns the sweep definition and the refinement policy; the actual solves go
/// through a [`SweepEvaluator`]. Emits
/// [`RunEvent::SweepPointSolved`] to an optional observer as each point
/// lands.
pub struct FrequencySweep {
    sweep: SweepScenario,
    observer: Option<Arc<dyn RunObserver>>,
}

impl FrequencySweep {
    /// Wraps a sweep definition.
    pub fn new(sweep: SweepScenario) -> Self {
        Self {
            sweep,
            observer: None,
        }
    }

    /// Streams per-point progress events to `observer`.
    pub fn observer(mut self, observer: Arc<dyn RunObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The wrapped sweep definition.
    pub fn sweep(&self) -> &SweepScenario {
        &self.sweep
    }

    /// Runs the sweep until the exported table meets the tolerance or the
    /// point budget is spent.
    ///
    /// # Errors
    ///
    /// Propagates evaluator failures.
    pub fn run(&self, evaluator: &mut dyn SweepEvaluator) -> Result<SweepOutcome, EngineError> {
        let budget = self.sweep.max_points();
        let tolerance = self.sweep.tolerance();
        let mut freqs: Vec<f64> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut cache = CacheStats::default();
        let mut solved = 0usize;
        let mut rounds = 0usize;

        let coarse = self.sweep.coarse_grid();
        self.solve_round(
            evaluator,
            &coarse,
            &mut freqs,
            &mut values,
            &mut cache,
            &mut solved,
        )?;
        rounds += 1;

        let mut errors = table_errors(&freqs, &values);
        while solved < budget {
            let flagged: Vec<(usize, f64)> = errors
                .iter()
                .enumerate()
                .filter(|(_, &err)| err > tolerance)
                .map(|(i, &err)| (i, err))
                .collect();
            if flagged.is_empty() {
                break;
            }
            let candidates = refinement_candidates(&freqs, &flagged, budget - solved);
            if candidates.is_empty() {
                break;
            }
            let before = solved;
            self.solve_round(
                evaluator,
                &candidates,
                &mut freqs,
                &mut values,
                &mut cache,
                &mut solved,
            )?;
            rounds += 1;
            if solved == before {
                break;
            }
            errors = table_errors(&freqs, &values);
        }

        let table_error = errors.iter().copied().fold(0.0, f64::max);
        let points = freqs
            .into_iter()
            .zip(values)
            .map(|(frequency_hz, value)| SweepPoint {
                frequency_hz,
                value,
            })
            .collect();
        Ok(SweepOutcome {
            points,
            rounds,
            converged: table_error <= tolerance,
            cache,
            tolerance,
            table_error,
        })
    }

    /// Solves one batch of points and merges them into the sorted curve.
    fn solve_round(
        &self,
        evaluator: &mut dyn SweepEvaluator,
        points: &[f64],
        freqs: &mut Vec<f64>,
        values: &mut Vec<f64>,
        cache: &mut CacheStats,
        solved: &mut usize,
    ) -> Result<(), EngineError> {
        let RoundOutcome {
            points: outcome,
            cache: round_cache,
        } = evaluator.solve_round(&self.sweep, points)?;
        accumulate(cache, &round_cache);
        for p in &outcome {
            let pos = freqs.partition_point(|&f| f < p.frequency_hz);
            if freqs.get(pos).is_some_and(|&f| f == p.frequency_hz) {
                continue; // defensively skip exact duplicates
            }
            freqs.insert(pos, p.frequency_hz);
            values.insert(pos, p.value);
            *solved += 1;
            if let Some(observer) = &self.observer {
                observer.on_event(&RunEvent::SweepPointSolved {
                    frequency_hz: p.frequency_hz,
                    value: p.value,
                    solved: *solved,
                    budget: self.sweep.max_points(),
                });
            }
        }
        Ok(())
    }
}

/// Estimated relative error of the exported table on every interval.
///
/// Entry `i` covers `freqs[i]..freqs[i + 1]`. A Floater–Hormann interpolant
/// in `ln f` through nodes `i − 2..=i + 3` (clipped to the curve) predicts
/// the curve at the geometric midpoint `√(f_i·f_{i+1})`; the table's value
/// there is linear in `f`, as a SPICE or Touchstone lookup interpolates.
/// Errors are relative to the prediction, floored at `1e-3 · max|K|`. The
/// window is local on purpose: a global interpolant would bleed the error of
/// a sharp feature into smooth regions far away, flagging the whole band and
/// degenerating refinement into uniform bisection — locality is what lets
/// points concentrate.
fn table_errors(freqs: &[f64], values: &[f64]) -> Vec<f64> {
    let n = freqs.len();
    let y_scale = values
        .iter()
        .fold(0.0f64, |acc, &v| acc.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    (0..n.saturating_sub(1))
        .map(|i| {
            let window = i.saturating_sub(2)..=(i + 3).min(n - 1);
            let xs: Vec<f64> = freqs[window.clone()].iter().map(|f| f.ln()).collect();
            let Ok(model) = BarycentricRational::new(&xs, &values[window], 3) else {
                return f64::INFINITY; // non-finite values: nothing vouches for the table
            };
            let (fa, fb) = (freqs[i], freqs[i + 1]);
            let mid = (fa * fb).sqrt();
            let predicted = model.evaluate(mid.ln());
            let t = (mid - fa) / (fb - fa);
            let table = values[i] + t * (values[i + 1] - values[i]);
            (table - predicted).abs() / predicted.abs().max(1e-3 * y_scale)
        })
        .collect()
}

/// Geometric midpoints of the worst flagged intervals, at most `budget` of
/// them, sorted ascending. Deterministic: ranked by score (descending) with
/// frequency as the tie-break.
fn refinement_candidates(freqs: &[f64], flagged: &[(usize, f64)], budget: usize) -> Vec<f64> {
    let mut ranked: Vec<(f64, f64)> = Vec::new();
    for &(i, score) in flagged {
        let (fa, fb) = (freqs[i], freqs[i + 1]);
        if fb - fa <= 1e-9 * fa {
            continue; // interval too tight to bisect in f64
        }
        let mid = (fa * fb).sqrt();
        if mid <= fa || mid >= fb {
            continue;
        }
        ranked.push((score, mid));
    }
    ranked.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("scores are finite")
            .then(a.1.partial_cmp(&b.1).expect("frequencies are finite"))
    });
    ranked.truncate(budget);
    let mut mids: Vec<f64> = ranked.into_iter().map(|(_, mid)| mid).collect();
    mids.sort_by(|a, b| a.partial_cmp(b).expect("frequencies are finite"));
    mids.dedup();
    mids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rough_core::RoughnessSpec;
    use rough_em::material::Stackup;
    use rough_em::units::{GigaHertz, Micrometers};
    use rough_engine::Scenario;

    /// Evaluator over an analytic curve — no MOM solves, so the refinement
    /// policy itself can be exercised densely.
    struct Analytic {
        calls: usize,
        f: fn(f64) -> f64,
    }

    impl SweepEvaluator for Analytic {
        fn solve_round(
            &mut self,
            _sweep: &SweepScenario,
            points: &[f64],
        ) -> Result<RoundOutcome, EngineError> {
            self.calls += 1;
            Ok(RoundOutcome {
                points: points
                    .iter()
                    .map(|&frequency_hz| SweepPoint {
                        frequency_hz,
                        value: (self.f)(frequency_hz),
                    })
                    .collect(),
                cache: CacheStats::default(),
            })
        }
    }

    fn template() -> Scenario {
        Scenario::builder(Stackup::paper_baseline())
            .name("adaptive-test")
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(1.0).into()])
            .cells_per_side(6)
            .max_kl_modes(2)
            .monte_carlo(2)
            .build()
            .unwrap()
    }

    fn sweep(coarse: usize, max: usize, tol: f64) -> SweepScenario {
        SweepScenario::builder(
            template(),
            GigaHertz::new(1.0).into(),
            GigaHertz::new(50.0).into(),
        )
        .coarse_points(coarse)
        .max_points(max)
        .tolerance(tol)
        .build()
        .unwrap()
    }

    /// A smooth saturating curve shaped like the paper's K(f): flat at both
    /// band edges with a knee in between.
    fn knee(f: f64) -> f64 {
        let x = (f / 10.0e9).ln();
        1.75 + 0.75 * (x / (1.0 + x * x).sqrt())
    }

    #[test]
    fn smooth_curve_converges_without_exhausting_the_budget() {
        let mut evaluator = Analytic { calls: 0, f: knee };
        let outcome = FrequencySweep::new(sweep(7, 33, 5e-3))
            .run(&mut evaluator)
            .unwrap();
        assert!(outcome.converged, "sweep did not self-validate");
        assert!(
            outcome.points.len() < 33,
            "adaptive sweep used its whole budget ({} points)",
            outcome.points.len()
        );
        assert!(outcome.rounds >= 1);
        // Points stay sorted and inside the band.
        assert!(outcome
            .points
            .windows(2)
            .all(|w| w[0].frequency_hz < w[1].frequency_hz));
        assert!(outcome.points.first().unwrap().frequency_hz >= 1.0e9);
        assert!(outcome.points.last().unwrap().frequency_hz <= 50.0e9);
    }

    #[test]
    fn refinement_concentrates_points_at_the_knee() {
        let mut evaluator = Analytic { calls: 0, f: knee };
        let outcome = FrequencySweep::new(sweep(5, 25, 2e-3))
            .run(&mut evaluator)
            .unwrap();
        assert!(outcome.points.len() > 5, "no refinement happened");
        // More refined points should land near the knee (around 10 GHz,
        // log-centered) than in the flat tails.
        let near_knee = outcome
            .points
            .iter()
            .filter(|p| p.frequency_hz > 3.0e9 && p.frequency_hz < 30.0e9)
            .count();
        let tails = outcome.points.len() - near_knee;
        assert!(
            near_knee >= tails,
            "refinement ignored the knee: {near_knee} near vs {tails} in tails"
        );
    }

    #[test]
    fn refinement_path_is_deterministic() {
        let run = || {
            let mut evaluator = Analytic { calls: 0, f: knee };
            FrequencySweep::new(sweep(5, 21, 2e-3))
                .run(&mut evaluator)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.frequency_hz.to_bits(), pb.frequency_hz.to_bits());
            assert_eq!(pa.value.to_bits(), pb.value.to_bits());
        }
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn budget_exhaustion_is_reported_as_non_convergence() {
        // A kinked curve the interpolant cannot predict at a loose budget.
        fn kinked(f: f64) -> f64 {
            if f < 8.0e9 {
                1.0
            } else {
                1.0 + ((f - 8.0e9) / 10.0e9).powi(2)
            }
        }
        let mut evaluator = Analytic {
            calls: 0,
            f: kinked,
        };
        let outcome = FrequencySweep::new(sweep(5, 7, 1e-6))
            .run(&mut evaluator)
            .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.points.len(), 7);
    }

    #[test]
    fn events_stream_once_per_solved_point() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        struct Counter {
            count: AtomicUsize,
            last: Mutex<Option<(usize, usize)>>,
        }
        impl RunObserver for Counter {
            fn on_event(&self, event: &RunEvent) {
                if let RunEvent::SweepPointSolved { solved, budget, .. } = event {
                    self.count.fetch_add(1, Ordering::Relaxed);
                    *self.last.lock().unwrap() = Some((*solved, *budget));
                }
            }
        }
        let counter = Arc::new(Counter {
            count: AtomicUsize::new(0),
            last: Mutex::new(None),
        });
        let mut evaluator = Analytic { calls: 0, f: knee };
        let outcome = FrequencySweep::new(sweep(5, 21, 2e-3))
            .observer(Arc::clone(&counter) as Arc<dyn RunObserver>)
            .run(&mut evaluator)
            .unwrap();
        assert_eq!(counter.count.load(Ordering::Relaxed), outcome.points.len());
        let (solved, budget) = counter.last.lock().unwrap().unwrap();
        assert_eq!(solved, outcome.points.len());
        assert_eq!(budget, 21);
    }

    #[test]
    fn converged_sweep_exports_a_table_within_tolerance() {
        // The exported table is judged directly: once the sweep reports
        // convergence, piecewise-linear interpolation in f through its points
        // (what a SPICE or Touchstone lookup does) meets the tolerance on a
        // dense log grid, and the reported bound does too.
        for tol in [5e-3, 2e-3, 1e-3] {
            let mut evaluator = Analytic { calls: 0, f: knee };
            let outcome = FrequencySweep::new(sweep(5, 65, tol))
                .run(&mut evaluator)
                .unwrap();
            assert!(outcome.converged, "tolerance {tol:e}: budget ran out");
            let fs: Vec<f64> = outcome.points.iter().map(|p| p.frequency_hz).collect();
            let ys: Vec<f64> = outcome.points.iter().map(|p| p.value).collect();
            let scale = ys.iter().fold(0.0f64, |a, &y| a.max(y.abs()));
            let (lo, hi) = (fs[0], fs[fs.len() - 1]);
            let dense_error = (0..=2048)
                .map(|i| {
                    let f = lo * (hi / lo).powf(f64::from(i) / 2048.0);
                    let k = fs.partition_point(|&g| g < f).clamp(1, fs.len() - 1);
                    let t = (f - fs[k - 1]) / (fs[k] - fs[k - 1]);
                    let table = ys[k - 1] + t * (ys[k] - ys[k - 1]);
                    (table - knee(f)).abs() / knee(f).abs().max(1e-3 * scale)
                })
                .fold(0.0, f64::max);
            assert!(
                dense_error <= tol,
                "tolerance {tol:e}: {} points, table errs by {dense_error:e}",
                outcome.points.len()
            );
            assert!(outcome.table_error <= tol);
        }
    }
}
