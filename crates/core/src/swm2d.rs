//! High-level 2D SWM problem (Fig. 6 comparison case).
//!
//! The 2D formulation treats the surface height as uniform along `y`, reducing
//! the integral equation to a periodic contour in the `(x, z)` plane. The paper
//! uses it to demonstrate that genuinely 3D roughness produces a markedly
//! larger loss enhancement than a 2D (ridged) roughness of the same σ and η.

use crate::assembly2d::assemble_system_2d;
use crate::error::SwmError;
use crate::loss::LossResult;
use crate::mesh::ContourMesh;
use crate::nearfield::AssemblyScheme;
use crate::power::absorbed_power_2d;
use crate::solver::{solve_system, SolverKind};
use rough_em::fresnel::flat_interface;
use rough_em::green::PeriodicGreen2d;
use rough_em::material::Stackup;
use rough_em::units::Frequency;
use rough_surface::Profile1d;

/// A configured 2D scalar-wave-modeling problem.
///
/// # Example
///
/// ```
/// use rough_core::swm2d::Swm2dProblem;
/// use rough_em::material::Stackup;
/// use rough_em::units::GigaHertz;
/// use rough_surface::Profile1d;
///
/// # fn main() -> Result<(), rough_core::SwmError> {
/// let problem = Swm2dProblem::new(Stackup::paper_baseline(), GigaHertz::new(5.0).into())?;
/// let flat = Profile1d::flat(16, 5.0e-6);
/// let result = problem.solve(&flat)?;
/// assert!((result.enhancement_factor() - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Swm2dProblem {
    stack: Stackup,
    frequency: Frequency,
    assembly: AssemblyScheme,
}

impl Swm2dProblem {
    /// Creates a 2D problem for a stack at one frequency.
    ///
    /// # Errors
    ///
    /// Returns [`SwmError::InvalidConfiguration`] for a non-positive frequency.
    pub fn new(stack: Stackup, frequency: Frequency) -> Result<Self, SwmError> {
        if frequency.value() <= 0.0 {
            return Err(SwmError::InvalidConfiguration(
                "the simulation frequency must be positive".into(),
            ));
        }
        Ok(Self {
            stack,
            frequency,
            assembly: AssemblyScheme::default(),
        })
    }

    /// Selects the near-field assembly scheme (defaults to the locally
    /// corrected scheme).
    pub fn with_assembly(mut self, assembly: AssemblyScheme) -> Self {
        self.assembly = assembly;
        self
    }

    /// Simulation frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Absorbed power per unit transverse length of one profile realization.
    ///
    /// # Errors
    ///
    /// Returns [`SwmError::InvalidConfiguration`] for an invalid near-field
    /// policy; propagates solver failures.
    pub fn absorbed_power(&self, profile: &Profile1d) -> Result<f64, SwmError> {
        let AssemblyScheme::LocallyCorrected(policy) = self.assembly;
        policy.validate().map_err(SwmError::InvalidConfiguration)?;
        let mesh = ContourMesh::from_profile(profile);
        let g1 = PeriodicGreen2d::new(self.stack.k1(self.frequency), mesh.period());
        let g2 = PeriodicGreen2d::new(self.stack.k2(self.frequency), mesh.period());
        let system = assemble_system_2d(
            &mesh,
            &g1,
            &g2,
            self.stack.beta(self.frequency),
            self.stack.k1(self.frequency),
            self.assembly,
        );
        let (solution, _) = solve_system(&system.matrix, &system.rhs, SolverKind::DirectLu)?;
        let n = system.surface_unknowns;
        Ok(absorbed_power_2d(&mesh, &solution[..n], &solution[n..]))
    }

    /// Solves the 2D problem for a profile, forming the enhancement against a
    /// flat profile with the same discretization.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Swm2dProblem::absorbed_power`].
    pub fn solve(&self, profile: &Profile1d) -> Result<LossResult, SwmError> {
        let flat = Profile1d::flat(profile.len(), profile.period());
        let reference = self.absorbed_power(&flat)?;
        let power = self.absorbed_power(profile)?;
        let analytic = {
            let sol = flat_interface(&self.stack, self.frequency);
            sol.transmission.norm_sqr() * profile.period()
                / (2.0 * self.stack.skin_depth(self.frequency).value())
        };
        Ok(LossResult::new(
            self.frequency,
            power,
            reference,
            analytic,
            0.0,
            profile.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RoughnessSpec, SwmProblem};
    use rough_em::units::{GigaHertz, Micrometers};

    fn sine_profile(n: usize, l: f64, amp: f64) -> Profile1d {
        Profile1d::new(
            l,
            (0..n)
                .map(|i| amp * (2.0 * std::f64::consts::PI * i as f64 / n as f64).sin())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn flat_profile_matches_analytic_power() {
        let problem =
            Swm2dProblem::new(Stackup::paper_baseline(), GigaHertz::new(5.0).into()).unwrap();
        let flat = Profile1d::flat(24, 5e-6);
        let numeric = problem.absorbed_power(&flat).unwrap();
        let sol = flat_interface(&Stackup::paper_baseline(), GigaHertz::new(5.0).into());
        let analytic = sol.transmission.norm_sqr() * 5e-6
            / (2.0
                * Stackup::paper_baseline()
                    .skin_depth(GigaHertz::new(5.0).into())
                    .value());
        let rel = (numeric - analytic).abs() / analytic;
        assert!(
            rel < 0.08,
            "numeric {numeric:.4e} vs analytic {analytic:.4e}"
        );
    }

    #[test]
    fn rough_profile_enhancement_exceeds_unity_and_grows_with_amplitude() {
        let problem =
            Swm2dProblem::new(Stackup::paper_baseline(), GigaHertz::new(5.0).into()).unwrap();
        let small = problem.solve(&sine_profile(24, 5e-6, 0.3e-6)).unwrap();
        let large = problem.solve(&sine_profile(24, 5e-6, 0.8e-6)).unwrap();
        assert!(small.enhancement_factor() > 1.0);
        assert!(large.enhancement_factor() > small.enhancement_factor());
        assert!(large.enhancement_factor() < 3.0);
    }

    #[test]
    fn ridged_profile_enhancement_is_pinned() {
        // A 16-segment ridged Fig. 6 profile (σ = η = 1 µm) at 5 GHz; the
        // pinned value is Pr/Ps of the same solve before the 2D kernel was
        // folded onto one mode table.
        let stack = Stackup::paper_baseline();
        let frequency = GigaHertz::new(5.0).into();
        let spec = RoughnessSpec::gaussian(Micrometers::new(1.0), Micrometers::new(1.0));
        let profile = SwmProblem::builder(stack, spec)
            .frequency(frequency)
            .cells_per_side(16)
            .build()
            .unwrap()
            .sample_ridged_surface(1)
            .profile_along_x(0);
        let problem = Swm2dProblem::new(stack, frequency).unwrap();
        let pr_ps = problem.solve(&profile).unwrap().enhancement_factor();
        let pinned = 1.272_176_934_574_309_2;
        assert!(
            (pr_ps - pinned).abs() <= 1e-10 * pinned,
            "Pr/Ps {pr_ps:.17} vs pinned {pinned:.17}"
        );
    }

    #[test]
    fn invalid_frequency_rejected() {
        assert!(Swm2dProblem::new(Stackup::paper_baseline(), Frequency::new(0.0)).is_err());
    }
}
