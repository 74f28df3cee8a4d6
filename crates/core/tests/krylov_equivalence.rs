//! Preconditioned Krylov vs direct LU on a *real* assembled rough-surface
//! system (reduced Fig. 5 case) — not the synthetic well-conditioned matrix of
//! the `solver.rs` unit tests.
//!
//! Pins the acceptance criteria of the matrix-free operator: Pr/Ps from the
//! preconditioned Krylov + MatrixFree path agrees with DirectLu + Dense within
//! 1e-8 relative, and the near-field block ILU(0) preconditioner keeps the
//! iteration counts at the handful it reaches today (recorded in the test
//! output).

use rough_core::solver::solve_operator;
use rough_core::{
    AssemblyScheme, MatrixFreeOperator, MatrixFreePolicy, OperatorRepr, RoughnessSpec, SolverKind,
    SwmProblem,
};
use rough_em::material::Stackup;
use rough_em::units::{GigaHertz, Micrometers};

/// Reduced Fig. 5 configuration: the paper's baseline stack and Gaussian
/// roughness (RMS 1 µm, correlation length 1 µm) on a coarse validation grid.
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

#[test]
fn preconditioned_krylov_matches_direct_lu_on_reduced_fig5() {
    let dense = reduced_fig5(SolverKind::DirectLu, OperatorRepr::Dense);
    let surface = dense.sample_surface(5);
    let reference = dense.solve(&surface).unwrap();
    assert!(reference.enhancement_factor() > 0.9);

    for kind in [
        SolverKind::Bicgstab { tolerance: 1e-12 },
        SolverKind::Gmres {
            tolerance: 1e-12,
            restart: 60,
        },
    ] {
        let krylov = reduced_fig5(kind, OperatorRepr::MatrixFree(MatrixFreePolicy::default()));
        let result = krylov.solve(&surface).unwrap();
        let rel = (result.enhancement_factor() - reference.enhancement_factor()).abs()
            / reference.enhancement_factor();
        assert!(
            rel <= 1e-8,
            "{kind:?}: Pr/Ps {:.12} vs LU {:.12} (rel {rel:e})",
            result.enhancement_factor(),
            reference.enhancement_factor()
        );
        assert!(result.relative_residual() < 1e-10);
    }
}

#[test]
fn near_field_preconditioner_keeps_iteration_counts_small() {
    let problem = reduced_fig5(
        SolverKind::Bicgstab { tolerance: 1e-12 },
        OperatorRepr::MatrixFree(MatrixFreePolicy::default()),
    );
    let surface = problem.sample_surface(5);
    let operator = problem.operator();
    let AssemblyScheme::LocallyCorrected(policy) = operator.assembly();
    let mesh = rough_core::mesh::PatchMesh::from_surface(&surface);
    let mf = MatrixFreeOperator::assemble(
        &mesh,
        operator.green_dielectric(),
        operator.green_conductor(),
        operator.beta(),
        operator.k1(),
        policy,
        MatrixFreePolicy::default(),
        operator.kernel_eval(),
        rough_core::AssemblyParallelism::Serial,
    );
    let precond = mf.preconditioner();

    // The near-field preconditioner takes 7 BiCGSTAB and 11 GMRES
    // iterations here (the block-diagonal one it replaced took 14 and 24);
    // the limits leave a little room and catch a return to the old counts.
    for (kind, limit) in [
        (SolverKind::Bicgstab { tolerance: 1e-12 }, 10),
        (
            SolverKind::Gmres {
                tolerance: 1e-12,
                restart: 60,
            },
            16,
        ),
    ] {
        let (_, stats) = solve_operator(&mf, mf.rhs(), kind, Some(&precond)).unwrap();
        println!(
            "reduced Fig.5 {kind:?}: {} iterations, residual {:.2e}",
            stats.iterations, stats.relative_residual
        );
        assert!(stats.iterations > 0);
        assert!(
            stats.iterations <= limit,
            "{kind:?} needed {} iterations, more than {limit}",
            stats.iterations
        );
        assert!(stats.relative_residual < 1e-10);
    }
}
