//! Linear-system solution strategies for the assembled MOM system.
//!
//! The paper points out that eq. (9) can be attacked either directly or with
//! iterative solvers of `O(N log N)` flavour. Both paths are provided: a dense
//! LU with partial pivoting (robust default for the patch sizes of the
//! experiments) and the Krylov solvers of `rough-numerics` (BiCGSTAB /
//! restarted GMRES), which only need matrix–vector products and therefore also
//! serve the matrix-free ablation benches.

use crate::error::SwmError;
use rough_numerics::complex::c64;
use rough_numerics::iterative::{bicgstab, gmres, IterativeConfig, IterativeError, LinearOperator};
use rough_numerics::linalg::CMatrix;

/// Strategy used to solve the assembled `2N × 2N` system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SolverKind {
    /// Dense LU factorization with partial pivoting (default).
    #[default]
    DirectLu,
    /// BiCGSTAB Krylov iteration.
    Bicgstab {
        /// Relative residual tolerance.
        tolerance: f64,
    },
    /// Restarted GMRES(m) Krylov iteration.
    Gmres {
        /// Relative residual tolerance.
        tolerance: f64,
        /// Restart length.
        restart: usize,
    },
}

/// Diagnostics of one linear solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// Relative residual `‖b − A·x‖ / ‖b‖` of the returned solution.
    pub relative_residual: f64,
    /// Iterations used (0 for the direct solver).
    pub iterations: usize,
}

/// One rung of a solver escalation ladder: which strategy ran and how it
/// ended.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveAttempt {
    /// Human-readable strategy label, e.g. `gmres(restart=50)` or
    /// `direct-lu-fallback`.
    pub strategy: String,
    /// `ok` for a successful attempt, otherwise the failure message.
    pub outcome: String,
    /// Iterations the attempt used (0 for direct solves).
    pub iterations: usize,
    /// Relative residual the attempt reached (`NaN` when it produced none).
    pub relative_residual: f64,
}

impl SolveAttempt {
    fn ok(strategy: impl Into<String>, stats: SolveStats) -> Self {
        Self {
            strategy: strategy.into(),
            outcome: "ok".into(),
            iterations: stats.iterations,
            relative_residual: stats.relative_residual,
        }
    }

    fn failed(strategy: impl Into<String>, error: &SwmError) -> Self {
        Self {
            strategy: strategy.into(),
            outcome: error.to_string(),
            iterations: 0,
            relative_residual: f64::NAN,
        }
    }

    /// Whether this attempt succeeded.
    pub fn succeeded(&self) -> bool {
        self.outcome == "ok"
    }
}

/// Structured record of how a solve was obtained: every attempt in order,
/// and whether the result came from a fallback rung instead of the
/// configured strategy. Attached to reports by the graceful-degradation
/// ladder (`SwmProblem::absorbed_power_diagnosed`) so a degraded run is
/// visible instead of silent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveDiagnostics {
    /// Attempts in escalation order; the last one produced the result.
    pub attempts: Vec<SolveAttempt>,
    /// `true` when the configured strategy failed and a fallback produced
    /// the result.
    pub degraded: bool,
}

impl SolveDiagnostics {
    /// Records a successful attempt.
    pub fn push_ok(&mut self, strategy: impl Into<String>, stats: SolveStats) {
        self.attempts.push(SolveAttempt::ok(strategy, stats));
    }

    /// Records a failed attempt; any later success marks the solve degraded.
    pub fn push_failed(&mut self, strategy: impl Into<String>, error: &SwmError) {
        self.attempts.push(SolveAttempt::failed(strategy, error));
        self.degraded = true;
    }

    /// One-line summary of the escalation chain, e.g.
    /// `gmres(restart=50): injected Krylov breakdown -> direct-lu-fallback: ok`.
    pub fn summary(&self) -> String {
        self.attempts
            .iter()
            .map(|a| format!("{}: {}", a.strategy, a.outcome))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Human-readable label of a solver strategy (diagnostics / logs).
pub fn strategy_label(kind: SolverKind) -> String {
    match kind {
        SolverKind::DirectLu => "direct-lu".into(),
        SolverKind::Bicgstab { tolerance } => format!("bicgstab(tol={tolerance:.0e})"),
        SolverKind::Gmres { tolerance, restart } => {
            format!("gmres(tol={tolerance:.0e},restart={restart})")
        }
    }
}

/// Solves `A·x = b` with the requested strategy.
///
/// # Errors
///
/// Returns [`SwmError::LinearSolver`] if the factorization detects a singular
/// matrix or the iteration fails to converge.
pub fn solve_system(
    matrix: &CMatrix,
    rhs: &[c64],
    kind: SolverKind,
) -> Result<(Vec<c64>, SolveStats), SwmError> {
    match kind {
        SolverKind::DirectLu => {
            let x = matrix
                .solve(rhs)
                .map_err(|e| SwmError::LinearSolver(e.to_string()))?;
            let stats = SolveStats {
                relative_residual: relative_residual(matrix, rhs, &x),
                iterations: 0,
            };
            Ok((x, stats))
        }
        SolverKind::Bicgstab { .. } | SolverKind::Gmres { .. } => {
            solve_operator(matrix, rhs, kind, None)
        }
    }
}

/// Composition `A·M⁻¹` used for right preconditioning: the Krylov iteration
/// solves `A·M⁻¹·u = b` and the caller recovers `x = M⁻¹·u`. Because the
/// solver's residual is measured on `A·M⁻¹·u`, it equals the *true* residual
/// of `A·x = b` — right preconditioning never distorts the reported accuracy.
struct RightPreconditioned<'a> {
    op: &'a dyn LinearOperator,
    precond: &'a dyn LinearOperator,
}

impl LinearOperator for RightPreconditioned<'_> {
    fn dim(&self) -> usize {
        self.op.dim()
    }

    fn apply(&self, x: &[c64]) -> Vec<c64> {
        self.op.apply(&self.precond.apply(x))
    }
}

/// Solves `A·x = b` through *any* [`LinearOperator`] — dense or matrix-free —
/// with an optional right preconditioner `M⁻¹` (itself just another operator;
/// see [`crate::matrixfree::NearFieldPreconditioner`]).
///
/// Only the Krylov strategies apply: a matrix-free operator exposes nothing a
/// direct factorization could act on.
///
/// # Errors
///
/// Returns [`SwmError::LinearSolver`] when `kind` is [`SolverKind::DirectLu`]
/// (which requires a dense matrix — use [`solve_system`]) or when the
/// iteration breaks down or fails to converge.
pub fn solve_operator(
    op: &dyn LinearOperator,
    rhs: &[c64],
    kind: SolverKind,
    precond: Option<&dyn LinearOperator>,
) -> Result<(Vec<c64>, SolveStats), SwmError> {
    let config = krylov_config(kind)?;
    solve_operator_configured(op, rhs, kind, precond, &config)
}

/// The [`IterativeConfig`] a Krylov [`SolverKind`] implies (default iteration
/// budget, the kind's tolerance and restart).
///
/// # Errors
///
/// Returns [`SwmError::LinearSolver`] for [`SolverKind::DirectLu`], which has
/// no iterative configuration.
pub fn krylov_config(kind: SolverKind) -> Result<IterativeConfig, SwmError> {
    match kind {
        SolverKind::DirectLu => Err(SwmError::LinearSolver(
            "DirectLu requires a dense matrix; use a Krylov SolverKind for operator solves".into(),
        )),
        SolverKind::Bicgstab { tolerance } => Ok(IterativeConfig {
            tolerance,
            ..Default::default()
        }),
        SolverKind::Gmres { tolerance, restart } => Ok(IterativeConfig {
            tolerance,
            restart,
            ..Default::default()
        }),
    }
}

/// [`solve_operator`] with an explicit [`IterativeConfig`] — the escalation
/// ladder retries a failed solve with a tightened config through this entry
/// point. The config's `tolerance`/`restart` take precedence over the values
/// embedded in `kind`; `kind` only selects the method.
///
/// The named fault point `solver.krylov.breakdown`
/// ([`rough_faults::should_fire`]) injects a deterministic breakdown here,
/// before any iteration runs — the hook chaos tests use to force the
/// degradation ladder without constructing a pathological system.
///
/// # Errors
///
/// Same contract as [`solve_operator`].
pub fn solve_operator_configured(
    op: &dyn LinearOperator,
    rhs: &[c64],
    kind: SolverKind,
    precond: Option<&dyn LinearOperator>,
    config: &IterativeConfig,
) -> Result<(Vec<c64>, SolveStats), SwmError> {
    let use_gmres = match kind {
        SolverKind::DirectLu => {
            return Err(SwmError::LinearSolver(
                "DirectLu requires a dense matrix; use a Krylov SolverKind for operator solves"
                    .into(),
            ))
        }
        SolverKind::Bicgstab { .. } => false,
        SolverKind::Gmres { .. } => true,
    };
    if rough_faults::should_fire("solver.krylov.breakdown") {
        return Err(SwmError::LinearSolver(
            "injected Krylov breakdown (fault plan)".into(),
        ));
    }
    let composed;
    let krylov_op: &dyn LinearOperator = match precond {
        Some(precond) => {
            composed = RightPreconditioned { op, precond };
            &composed
        }
        None => op,
    };
    let sol = if use_gmres {
        gmres(krylov_op, rhs, config)
    } else {
        bicgstab(krylov_op, rhs, config)
    }
    .map_err(map_iterative_error)?;
    let x = match precond {
        Some(precond) => precond.apply(&sol.x),
        None => sol.x,
    };
    Ok((
        x,
        SolveStats {
            relative_residual: sol.residual,
            iterations: sol.iterations,
        },
    ))
}

fn map_iterative_error(e: IterativeError) -> SwmError {
    SwmError::LinearSolver(e.to_string())
}

fn relative_residual(matrix: &CMatrix, rhs: &[c64], x: &[c64]) -> f64 {
    let ax = matrix.matvec(x);
    let mut num = 0.0;
    let mut den = 0.0;
    for (a, b) in ax.iter().zip(rhs) {
        num += (*a - *b).norm_sqr();
        den += b.norm_sqr();
    }
    if den == 0.0 {
        0.0
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_system(n: usize) -> (CMatrix, Vec<c64>) {
        let a = CMatrix::from_fn(n, n, |i, j| {
            if i == j {
                c64::new(3.0, 0.5)
            } else {
                c64::new(0.2 / (1.0 + (i as f64 - j as f64).abs()), -0.05)
            }
        });
        let b: Vec<c64> = (0..n)
            .map(|i| c64::new(1.0 + i as f64 * 0.1, -0.3))
            .collect();
        (a, b)
    }

    #[test]
    fn all_solvers_agree() {
        let (a, b) = test_system(30);
        let (x_lu, s_lu) = solve_system(&a, &b, SolverKind::DirectLu).unwrap();
        let (x_bi, s_bi) = solve_system(&a, &b, SolverKind::Bicgstab { tolerance: 1e-11 }).unwrap();
        let (x_gm, s_gm) = solve_system(
            &a,
            &b,
            SolverKind::Gmres {
                tolerance: 1e-11,
                restart: 25,
            },
        )
        .unwrap();
        assert!(s_lu.relative_residual < 1e-12);
        assert!(s_bi.iterations > 0 && s_bi.relative_residual < 1e-10);
        assert!(s_gm.iterations > 0 && s_gm.relative_residual < 1e-10);
        for i in 0..30 {
            assert!((x_lu[i] - x_bi[i]).abs() < 1e-8);
            assert!((x_lu[i] - x_gm[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn operator_solve_with_jacobi_preconditioner_matches_direct() {
        use rough_numerics::iterative::FnOperator;
        let (a, b) = test_system(30);
        let (x_lu, _) = solve_system(&a, &b, SolverKind::DirectLu).unwrap();
        let diag_inv: Vec<c64> = (0..30).map(|i| a[(i, i)].recip()).collect();
        let jacobi = FnOperator::new(30, move |x: &[c64]| {
            x.iter().zip(&diag_inv).map(|(v, d)| *v * *d).collect()
        });
        for kind in [
            SolverKind::Bicgstab { tolerance: 1e-12 },
            SolverKind::Gmres {
                tolerance: 1e-12,
                restart: 25,
            },
        ] {
            let (x, stats) = solve_operator(&a, &b, kind, Some(&jacobi)).unwrap();
            assert!(stats.iterations > 0 && stats.relative_residual < 1e-10);
            for i in 0..30 {
                assert!((x_lu[i] - x[i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn operator_solve_rejects_direct_lu() {
        let (a, b) = test_system(4);
        match solve_operator(&a, &b, SolverKind::DirectLu, None) {
            Err(SwmError::LinearSolver(msg)) => assert!(msg.contains("DirectLu")),
            other => panic!("expected solver error, got {other:?}"),
        }
    }

    #[test]
    fn singular_matrix_is_an_error() {
        let a = CMatrix::zeros(4, 4);
        let b = vec![c64::one(); 4];
        match solve_system(&a, &b, SolverKind::DirectLu) {
            Err(SwmError::LinearSolver(msg)) => assert!(msg.contains("singular")),
            other => panic!("expected solver error, got {other:?}"),
        }
    }

    #[test]
    fn default_solver_is_direct() {
        assert_eq!(SolverKind::default(), SolverKind::DirectLu);
    }
}
