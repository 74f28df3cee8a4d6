//! Scalar Green's functions for the SWM integral equations.
//!
//! Three kernels are provided:
//!
//! * [`free_space`] — the 3D free-space kernel `e^{jkR}/(4πR)` together with the
//!   analytic cell integrals needed for the MOM self terms.
//! * [`ewald`] — the doubly-periodic kernel (period `L` in both transverse
//!   directions) evaluated with the Ewald method (paper §III-B, eq. (8) and
//!   ref. \[16\]). This is what makes the small-patch, doubly-periodic surface
//!   assumption computationally viable: both the spatial and the spectral Ewald
//!   sums converge with a handful of terms.
//! * [`periodic2d`] — the singly-periodic 2D kernel used by the simplified 2D
//!   SWM formulation of Fig. 6, evaluated with a Kummer-accelerated Floquet
//!   series.
//!
//! # Scalar vs batched evaluation
//!
//! The 3D kernel exposes two evaluation styles:
//!
//! * **scalar** — [`PeriodicGreen3d::sample`]: one separation per call, every
//!   per-`k` and per-mode constant recomputed inside the call. This is the
//!   reference ("oracle") path that the batched path is pinned against.
//! * **batched** — [`PeriodicGreen3d::eval_batch_samples`] (values +
//!   gradients) and [`PeriodicGreen3d::eval_batch_regularized`]: many
//!   separations per call, with the Ewald splitting setup, lattice-sum loop
//!   bounds and `erfc`/`exp` class factors hoisted out of the inner loop and
//!   shared across the batch. The sums also fold each term's exponentials
//!   into the Faddeeva function and evaluate all of a sum's terms in one
//!   lane-parallel call. The 3D MOM assembly gathers all far-field
//!   observation–source separations of a row panel into one batched call
//!   (see `rough_core`), which is where the assembly speedup comes from.
//!
//! The 2D kernel has one evaluation, [`PeriodicGreen2d::sample`]: its
//! Floquet-mode constants are built once in [`PeriodicGreen2d::new`], so a
//! per-separation call already shares them.

pub mod ewald;
pub mod free_space;
pub mod periodic2d;

pub use ewald::{GreenSample, PeriodicGreen3d, SeparationVector};
pub use free_space::{
    inverse_r_integral_over_planar_polygon, inverse_r_integral_over_rectangle,
    ln_r_integral_over_segment, scalar_green_3d, scalar_green_3d_gradient, smooth_kernel_3d,
    smooth_kernel_3d_radial_derivative, solid_angle_of_planar_polygon, subtended_angle_of_segment,
};
pub use periodic2d::{Green2dSample, PeriodicGreen2d};
