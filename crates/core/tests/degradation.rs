//! Graceful solver degradation on the reduced Fig. 5 matrix-free scenario.
//!
//! Pins the resilience acceptance bar: with the fault plan injecting a
//! Krylov breakdown, a matrix-free solve completes through the escalation
//! ladder instead of erroring, the final dense fallback is bit-identical to a
//! clean dense `DirectLu` solve, and the whole chain is recorded in
//! [`rough_core::SolveDiagnostics`].
//!
//! Every test here installs an in-process fault plan via
//! [`rough_faults::ScopedPlan`], which serializes them against each other —
//! keep any test that performs Krylov solves in this file plan-guarded, since
//! an armed `solver.krylov.breakdown:*` is process-global.

use rough_core::{MatrixFreePolicy, OperatorRepr, RoughnessSpec, SolverKind, SwmProblem};
use rough_em::material::Stackup;
use rough_em::units::{GigaHertz, Micrometers};
use rough_faults::ScopedPlan;

/// Reduced Fig. 5 configuration (same as `krylov_equivalence.rs`).
fn reduced_fig5(solver: SolverKind, repr: OperatorRepr) -> SwmProblem {
    SwmProblem::builder(
        Stackup::paper_baseline(),
        RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0)),
    )
    .frequency(GigaHertz::new(5.0).into())
    .cells_per_side(8)
    .solver(solver)
    .operator_repr(repr)
    .build()
    .expect("valid configuration")
}

fn gmres_mf() -> SwmProblem {
    reduced_fig5(
        SolverKind::Gmres {
            tolerance: 1e-12,
            restart: 60,
        },
        OperatorRepr::MatrixFree(MatrixFreePolicy::default()),
    )
}

#[test]
fn persistent_breakdown_falls_back_to_dense_bit_identically() {
    let dense = reduced_fig5(SolverKind::DirectLu, OperatorRepr::Dense);
    let surface = dense.sample_surface(5);
    let reference = dense.solve(&surface).unwrap();

    let _plan = ScopedPlan::parse("solver.krylov.breakdown:*");
    let krylov = gmres_mf();
    let operator = krylov.operator();
    // The flat reference itself degrades through the same ladder.
    let flat_reference = krylov.flat_reference_power().unwrap();
    let (loss, diagnostics) = krylov
        .solve_with_reference_diagnosed(&surface, flat_reference, &operator)
        .unwrap();

    assert!(loss.degraded(), "fallback result must be marked degraded");
    assert!(diagnostics.degraded);
    assert_eq!(diagnostics.attempts.len(), 3, "{}", diagnostics.summary());
    assert!(!diagnostics.attempts[0].succeeded());
    assert!(diagnostics.attempts[0].outcome.contains("injected"));
    assert!(diagnostics.attempts[1].strategy.contains("gmres-tightened"));
    assert!(!diagnostics.attempts[1].succeeded());
    assert_eq!(diagnostics.attempts[2].strategy, "direct-lu-fallback");
    assert!(diagnostics.attempts[2].succeeded());

    // Pr and Ps recovered through the dense fallback are bit-identical to
    // the clean dense solve — the degradation ladder ends on *exactly* the
    // Dense-representation code path.
    assert_eq!(
        loss.absorbed_power().to_bits(),
        reference.absorbed_power().to_bits()
    );
    assert_eq!(
        loss.flat_absorbed_power().to_bits(),
        reference.flat_absorbed_power().to_bits()
    );
    assert_eq!(
        loss.enhancement_factor().to_bits(),
        reference.enhancement_factor().to_bits()
    );
}

#[test]
fn single_breakdown_recovers_on_the_tightened_rung() {
    let krylov = gmres_mf();
    let surface = krylov.sample_surface(5);
    let operator = krylov.operator();

    let _plan = ScopedPlan::parse("solver.krylov.breakdown:1");
    let (_, stats, diagnostics) = krylov
        .absorbed_power_diagnosed(&surface, &operator)
        .unwrap();
    assert!(diagnostics.degraded);
    assert_eq!(diagnostics.attempts.len(), 2, "{}", diagnostics.summary());
    assert!(!diagnostics.attempts[0].succeeded());
    assert!(diagnostics.attempts[1].strategy.contains("gmres-tightened"));
    assert!(diagnostics.attempts[1].succeeded());
    assert!(stats.relative_residual < 1e-10);
}

#[test]
fn clean_solves_report_a_single_non_degraded_attempt() {
    let _plan = ScopedPlan::install(rough_faults::FaultPlan::none());
    let krylov = gmres_mf();
    let surface = krylov.sample_surface(5);
    let operator = krylov.operator();
    let (_, _, diagnostics) = krylov
        .absorbed_power_diagnosed(&surface, &operator)
        .unwrap();
    assert!(!diagnostics.degraded);
    assert_eq!(diagnostics.attempts.len(), 1);
    assert!(diagnostics.attempts[0].succeeded());
}
