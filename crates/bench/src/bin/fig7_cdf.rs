//! Fig. 7 — CDF of Pr/Ps at 5 GHz for σ = η = 1 µm: Monte-Carlo versus the
//! 1st- and 2nd-order SSCM surrogates.
//!
//! All three ensembles are thin [`Scenario`] definitions executed as
//! [`rough_engine::Run`] sessions over one shared [`KernelCache`], so the
//! Ewald kernels, the KL basis and the flat reference solve are computed once
//! and shared across every realization and every collocation node of all
//! three campaigns — under whichever executor `ROUGHSIM_EXECUTOR` selects.

use rough_bench::{write_csv, Fidelity};
use rough_core::RoughnessSpec;
use rough_em::material::Stackup;
use rough_em::units::GigaHertz;
use rough_engine::{CampaignReport, KernelCache, Run, RunConfig, Scenario, ScenarioBuilder};
use rough_surface::correlation::CorrelationFunction;
use std::sync::Arc;

fn main() {
    // Worker mode for ROUGHSIM_EXECUTOR=socket runs (no-op otherwise).
    rough_engine::subprocess::maybe_serve_worker();
    let fidelity = Fidelity::from_args();
    let cf = CorrelationFunction::gaussian(1.0e-6, 1.0e-6);
    let cells = fidelity.cells_per_side();
    let base = |name: &str| -> ScenarioBuilder {
        Scenario::builder(Stackup::paper_baseline())
            .name(name)
            .roughness(RoughnessSpec::from_correlation(cf))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(cells)
            .max_kl_modes(fidelity.max_kl_modes())
            .master_seed(42)
    };
    let mc_scenario = base("fig7-monte-carlo")
        .monte_carlo(fidelity.monte_carlo_samples())
        .build()
        .expect("valid Monte-Carlo scenario");
    let sscm1_scenario = base("fig7-sscm-order1")
        .sscm(1)
        .build()
        .expect("valid SSCM-1 scenario");
    let sscm2_scenario = base("fig7-sscm-order2")
        .sscm(2)
        .build()
        .expect("valid SSCM-2 scenario");

    let executor = rough_bench::executor_from_env();
    let cache = Arc::new(KernelCache::new());
    let run = |scenario: &Scenario, label: &str| -> CampaignReport {
        let config = RunConfig::new()
            .executor_arc(Arc::clone(&executor))
            .cache(Arc::clone(&cache));
        Run::new(scenario, config)
            .and_then(Run::execute)
            .unwrap_or_else(|e| panic!("{label} campaign failed: {e}"))
    };
    let mc = run(&mc_scenario, "Monte-Carlo");
    let sscm1 = run(&sscm1_scenario, "SSCM-1");
    let sscm2 = run(&sscm2_scenario, "SSCM-2");

    let modes = mc.cases[0].kl_modes;
    println!(
        "Fig. 7 — CDF of Pr/Ps at 5 GHz, sigma = eta = 1 um ({fidelity:?}, {modes} KL modes, {} workers)",
        mc.threads
    );
    let describe = |label: &str, report: &CampaignReport| {
        let case = &report.cases[0];
        println!(
            "  {label:<5}: mean {:.4}  std {:.4}  ({} solves, {:.1} ms, cache {}h/{}m)",
            case.mean,
            case.std_dev,
            case.solves,
            report.wall_time.as_secs_f64() * 1e3,
            report.cache.hits,
            report.cache.misses,
        );
    };
    describe("MC", &mc);
    describe("SSCM1", &sscm1);
    describe("SSCM2", &sscm2);

    let mc_cdf = mc.cases[0].outcome.cdf().expect("MC ensembles have a CDF");
    let sscm1_cdf = sscm1.cases[0].outcome.cdf().expect("SSCM has a CDF");
    let sscm2_cdf = sscm2.cases[0].outcome.cdf().expect("SSCM has a CDF");
    println!(
        "  KS distance SSCM2 vs MC: {:.4}",
        sscm2_cdf.ks_distance(mc_cdf)
    );

    let mut rows = Vec::new();
    let lo = mc_cdf.quantile(0.0) - 0.05;
    let hi = mc_cdf.quantile(1.0) + 0.05;
    let points = 60;
    for i in 0..=points {
        let x = lo + (hi - lo) * i as f64 / points as f64;
        rows.push(format!(
            "{x:.5},{:.5},{:.5},{:.5}",
            mc_cdf.evaluate(x),
            sscm1_cdf.evaluate(x),
            sscm2_cdf.evaluate(x)
        ));
    }
    let path = write_csv("fig7_cdf.csv", "pr_ps,cdf_mc,cdf_sscm1,cdf_sscm2", &rows);
    println!("CDF series written to {}", path.display());
}
