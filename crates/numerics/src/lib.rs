//! # rough-numerics
//!
//! Self-contained numerical substrate for the `roughsim` workspace.
//!
//! The surrounding crates solve a method-of-moments discretization of a scalar
//! two-medium transmission problem on a randomly rough, doubly-periodic surface
//! (Chen & Wong, DATE 2009). Everything that problem needs which would normally
//! come from LAPACK/FFTW/Boost is implemented here from scratch:
//!
//! * [`complex`] — a [`complex::c64`] double-precision complex type with a full
//!   set of elementary functions.
//! * [`linalg`] — dense real/complex matrices, LU factorization with partial
//!   pivoting, triangular solves, determinants and condition estimates.
//! * [`iterative`] — BiCGSTAB and restarted GMRES Krylov solvers for the large
//!   MOM systems.
//! * [`eigen`] — Jacobi eigenvalue decomposition of real symmetric matrices and
//!   an implicit-QL solver for symmetric tridiagonal matrices (used by the
//!   Karhunen–Loève expansion and Golub–Welsch quadrature construction).
//! * [`fft`] — mixed-radix (2/3/4/5 Stockham, Bluestein for other primes)
//!   complex FFT in one, two and three dimensions (spectral surface synthesis,
//!   matrix-free matvec).
//! * [`special`] — error functions of real and complex argument (the Faddeeva
//!   function needed by the Ewald-summed periodic Green's function).
//! * [`quadrature`] — Gauss–Legendre and Gauss–Hermite rules plus tensor-product
//!   helpers.
//! * [`quadrature2d`] — adaptive (embedded-error, panel-subdividing)
//!   Gauss–Legendre rules on intervals and rectangles for the locally
//!   corrected near-field MOM integrals.
//! * [`stats`] — descriptive statistics, empirical CDFs and histograms used by
//!   the Monte-Carlo / SSCM comparison experiments.
//! * [`rational`] — Floater–Hormann barycentric rational interpolation, the
//!   local curve model that estimates a broadband sweep's table error.
//!
//! The crate has no external dependencies (the dev-dependencies `proptest` and
//! `rand` are used only by the test-suite).
//!
//! # Example
//!
//! ```
//! use rough_numerics::complex::c64;
//! use rough_numerics::linalg::CMatrix;
//!
//! // Solve a small complex linear system A x = b.
//! let a = CMatrix::from_rows(&[
//!     vec![c64::new(2.0, 1.0), c64::new(0.0, -1.0)],
//!     vec![c64::new(1.0, 0.0), c64::new(3.0, 2.0)],
//! ]);
//! let b = vec![c64::new(1.0, 0.0), c64::new(0.0, 1.0)];
//! let x = a.lu().expect("non-singular").solve(&b);
//! let r = a.matvec(&x);
//! assert!((r[0] - b[0]).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod complex;
pub mod eigen;
pub mod fft;
pub mod iterative;
pub mod linalg;
pub mod quadrature;
pub mod quadrature2d;
pub mod rational;
pub mod special;
pub mod stats;

pub use complex::c64;
pub use linalg::{CMatrix, RMatrix};
