//! Integration tests of the batch engine: thread-count invariance of the
//! statistics, kernel-cache effectiveness, plan/solve budgets, and the
//! validation of near-field policies at every entry point.

use rough_core::swm2d::Swm2dProblem;
use rough_core::{AssemblyScheme, NearFieldPolicy, RoughnessSpec, SwmError, SwmProblem};
use rough_em::material::Stackup;
use rough_em::units::{GigaHertz, Micrometers};
use rough_engine::wire::{decode_scenario, encode_scenario};
use rough_engine::{CaseOutcome, Engine, EngineError, Scenario};
use rough_stochastic::sparse_grid::SparseGrid;
use rough_surface::Profile1d;

fn monte_carlo_scenario(realizations: usize, master_seed: u64) -> Scenario {
    Scenario::builder(Stackup::paper_baseline())
        .name("determinism")
        .roughness(RoughnessSpec::gaussian(
            Micrometers::new(1.0),
            Micrometers::new(1.0),
        ))
        .frequencies([GigaHertz::new(5.0).into()])
        .cells_per_side(8)
        .max_kl_modes(4)
        .monte_carlo(realizations)
        .master_seed(master_seed)
        .build()
        .expect("valid scenario")
}

#[test]
fn statistics_are_bit_identical_across_thread_counts() {
    // The acceptance bar of the engine: for a fixed master seed the campaign
    // statistics must not depend on how many workers execute the plan.
    let scenario = monte_carlo_scenario(12, 0xD5EED);
    let mut outputs: Vec<(f64, f64, Vec<f64>)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::builder().threads(threads).build();
        let report = engine.run(&scenario).expect("campaign");
        assert_eq!(report.threads, threads);
        let values: Vec<f64> = report.records.iter().map(|r| r.value).collect();
        outputs.push((report.cases[0].mean, report.cases[0].std_dev, values));
    }
    let (mean1, std1, values1) = &outputs[0];
    for (mean, std, values) in &outputs[1..] {
        assert_eq!(mean1.to_bits(), mean.to_bits(), "mean drifted with threads");
        assert_eq!(std1.to_bits(), std.to_bits(), "std drifted with threads");
        assert_eq!(values1, values, "per-unit values drifted with threads");
    }
}

#[test]
fn master_seed_changes_the_ensemble() {
    let engine = Engine::builder().threads(2).build();
    let a = engine.run(&monte_carlo_scenario(6, 1)).expect("campaign");
    let b = engine.run(&monte_carlo_scenario(6, 2)).expect("campaign");
    assert_ne!(a.cases[0].mean.to_bits(), b.cases[0].mean.to_bits());
}

#[test]
fn kernel_cache_hits_on_multi_realization_single_frequency_plans() {
    // One (grid, frequency, stackup) context, many realizations: every unit
    // after the prepared context must hit the cache.
    let realizations = 9;
    let scenario = monte_carlo_scenario(realizations, 7);
    let engine = Engine::builder().threads(2).build();
    let report = engine.run(&scenario).expect("campaign");
    assert_eq!(report.distinct_contexts, 1);
    assert_eq!(report.cache.misses, 1, "exactly one context build");
    assert!(
        report.cache.hits >= realizations,
        "every realization shares the context: hits = {}",
        report.cache.hits
    );

    // A second run of the same scenario is served entirely from the cache.
    let again = engine.run(&scenario).expect("campaign");
    assert_eq!(again.cache.misses, 0);
    assert_eq!(
        again.cases[0].mean.to_bits(),
        report.cases[0].mean.to_bits(),
        "cached contexts must not change results"
    );
}

#[test]
fn different_stackups_never_share_cached_contexts() {
    // The engine's cache outlives a scenario; a campaign over a different
    // material stack (or solver) must rebuild its physics, not reuse the
    // previous stack's kernels and flat reference.
    use rough_em::material::{Conductor, Dielectric, Stackup};
    let scenario_for = |stack: Stackup| {
        Scenario::builder(stack)
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(6)
            .max_kl_modes(3)
            .monte_carlo(3)
            .master_seed(5)
            .build()
            .expect("valid scenario")
    };
    let engine = Engine::builder().threads(1).build();
    let copper = engine
        .run(&scenario_for(Stackup::paper_baseline()))
        .expect("copper campaign");
    let annealed = engine
        .run(&scenario_for(Stackup::new(
            Conductor::annealed_copper(),
            Dielectric::silicon_dioxide(),
        )))
        .expect("annealed campaign");
    assert_eq!(
        annealed.cache.misses, 1,
        "a different stack must build its own context"
    );
    assert_ne!(
        copper.cases[0].mean.to_bits(),
        annealed.cases[0].mean.to_bits(),
        "different conductors must produce different physics"
    );
    // The KL basis is stack-independent and is reused across the campaigns.
    assert_eq!(annealed.cache.kl_misses, 0);
    assert!(annealed.cache.kl_hits >= 1);
}

#[test]
fn different_near_field_policies_never_share_cached_contexts() {
    // Same stack, grid and frequency, different near-field radius: the cached
    // flat-reference solve bakes the assembly in, so sharing a context across
    // policies would silently corrupt one of the campaigns.
    let scenario_for = |radius: f64| {
        Scenario::builder(Stackup::paper_baseline())
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(6)
            .max_kl_modes(3)
            .assembly(AssemblyScheme::LocallyCorrected(NearFieldPolicy::new(
                radius, 4,
            )))
            .monte_carlo(3)
            .master_seed(5)
            .build()
            .expect("valid scenario")
    };
    let engine = Engine::builder().threads(1).build();
    let default = engine
        .run(&scenario_for(2.5))
        .expect("default-radius campaign");
    let wider = engine
        .run(&scenario_for(3.5))
        .expect("wider-radius campaign");
    assert_eq!(
        wider.cache.misses, 1,
        "a different near-field policy must build its own context"
    );
    assert_ne!(
        default.cases[0].mean.to_bits(),
        wider.cases[0].mean.to_bits(),
        "the two policies correct different neighbourhoods"
    );
    // The KL basis does not depend on the assembly and is reused.
    assert_eq!(wider.cache.kl_misses, 0);
    assert!(wider.cache.kl_hits >= 1);
    // Re-running a scenario hits its own cached context.
    let again = engine
        .run(&scenario_for(2.5))
        .expect("default-radius rerun");
    assert_eq!(again.cache.misses, 0);
    assert_eq!(
        again.cases[0].mean.to_bits(),
        default.cases[0].mean.to_bits()
    );
}

#[test]
fn invalid_near_field_policies_are_typed_errors_on_every_path() {
    // The policy fields are public, so a struct literal (or a decoded wire
    // block) bypasses `NearFieldPolicy::new`; each entry point must refuse
    // the policy before any kernel or quadrature sees it.
    let stack = Stackup::paper_baseline();
    let spec = RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0));
    let frequency = GigaHertz::new(5.0).into();
    let scenario_with = |assembly| {
        Scenario::builder(stack)
            .roughness(spec.clone())
            .frequencies([frequency])
            .cells_per_side(4)
            .assembly(assembly)
            .monte_carlo(2)
            .build()
    };
    let valid_wire = encode_scenario(&scenario_with(AssemblyScheme::default()).expect("valid"));
    for policy in [
        NearFieldPolicy {
            radius: f64::NAN,
            order: 4,
        },
        NearFieldPolicy {
            radius: -1.0,
            order: 4,
        },
        NearFieldPolicy {
            radius: 2.5,
            order: 0,
        },
        NearFieldPolicy {
            radius: 1e300,
            order: 4,
        },
        NearFieldPolicy {
            radius: 2.5,
            order: 1 << 20,
        },
    ] {
        let assembly = AssemblyScheme::LocallyCorrected(policy);
        let wire = valid_wire.replace(
            "assembly corrected 4004000000000000 4",
            &format!(
                "assembly corrected {:016x} {}",
                policy.radius.to_bits(),
                policy.order
            ),
        );
        assert!(
            matches!(decode_scenario(&wire), Err(EngineError::InvalidScenario(_))),
            "{policy:?}: wire"
        );
        assert!(
            matches!(
                scenario_with(assembly),
                Err(EngineError::InvalidScenario(_))
            ),
            "{policy:?}: scenario builder"
        );
        assert!(
            matches!(
                SwmProblem::builder(stack, spec.clone())
                    .frequency(frequency)
                    .cells_per_side(4)
                    .assembly(assembly)
                    .build(),
                Err(SwmError::InvalidConfiguration(_))
            ),
            "{policy:?}: 3D builder"
        );
        let problem_2d = Swm2dProblem::new(stack, frequency)
            .expect("valid 2D problem")
            .with_assembly(assembly);
        assert!(
            matches!(
                problem_2d.absorbed_power(&Profile1d::flat(4, 5e-6)),
                Err(SwmError::InvalidConfiguration(_))
            ),
            "{policy:?}: 2D solve"
        );
    }
}

#[test]
fn sscm_plans_match_sparse_grid_node_counts() {
    // Table-I budget check: the engine schedules exactly the Smolyak node
    // count of `sparse_grid.rs` for every case, plus one reference solve per
    // distinct context.
    for (max_modes, order) in [(3usize, 1usize), (4, 1), (3, 2), (5, 2)] {
        let scenario = Scenario::builder(Stackup::paper_baseline())
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(2.0).into(), GigaHertz::new(6.0).into()])
            .cells_per_side(8)
            .max_kl_modes(max_modes)
            .sscm(order)
            .build()
            .expect("valid scenario");
        let plan = scenario.plan().expect("plan");
        let expected_nodes = SparseGrid::new(max_modes, order).len();
        assert_eq!(plan.cases().len(), 2);
        for case in plan.cases() {
            assert_eq!(case.kl_modes(), max_modes);
            assert_eq!(
                case.solves(),
                expected_nodes,
                "M = {max_modes}, order = {order}"
            );
        }
        assert_eq!(plan.units().len(), 2 * expected_nodes);
        assert_eq!(plan.total_solves(), 2 * expected_nodes + 2);
    }
}

#[test]
fn sscm_campaign_agrees_with_monte_carlo_on_the_mean() {
    // The paper's central claim in miniature, end to end through the engine:
    // SSCM reproduces the Monte-Carlo mean with far fewer solves.
    let base = |name: &str| {
        Scenario::builder(Stackup::paper_baseline())
            .name(name)
            .roughness(RoughnessSpec::gaussian(
                Micrometers::new(1.0),
                Micrometers::new(1.0),
            ))
            .frequencies([GigaHertz::new(5.0).into()])
            .cells_per_side(8)
            .max_kl_modes(4)
            .master_seed(99)
    };
    let engine = Engine::builder().threads(2).build();
    let mc = engine
        .run(&base("mc").monte_carlo(40).build().expect("valid"))
        .expect("MC campaign");
    let sscm = engine
        .run(&base("sscm").sscm(2).build().expect("valid"))
        .expect("SSCM campaign");
    let (mc_case, sscm_case) = (&mc.cases[0], &sscm.cases[0]);
    assert!(
        (mc_case.mean - sscm_case.mean).abs() < 0.1,
        "MC {} vs SSCM {}",
        mc_case.mean,
        sscm_case.mean
    );
    assert!(sscm_case.mean > 1.0, "physical enhancement");
    match (&mc_case.outcome, &sscm_case.outcome) {
        (CaseOutcome::MonteCarlo(mc), CaseOutcome::Sscm(sscm)) => {
            assert!(mc.cdf().ks_distance(sscm.cdf()) < 0.35);
        }
        other => panic!("unexpected outcomes: {other:?}"),
    }
    // The second campaign reused the first campaign's context.
    assert_eq!(sscm.cache.misses, 0);
}
