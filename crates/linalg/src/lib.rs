//! Small dense linear algebra and statistics toolkit.
//!
//! The prediction subsystem of the paper estimates the coefficients of a
//! multiple linear regression with ordinary least squares, computed through a
//! singular value decomposition so that over- and under-determined systems
//! and collinear predictors are handled gracefully (Section 3.2.2). The
//! regression involves at most a few dozen predictors and a few hundred
//! observations, so a simple, dependency-free implementation is more than
//! adequate; this crate provides exactly that:
//!
//! * [`Matrix`] — a column-major dense `f64` matrix,
//! * [`SvdWorkspace`] — one-sided Jacobi singular value decomposition,
//! * [`OlsWorkspace`] — least-squares solve through the SVD pseudo-inverse
//!   (a decomposition, then one projection — or the projection alone, onto a
//!   decomposition several responses share), both over caller-owned working
//!   memory, so a predictor that refits every bin allocates nothing once warm,
//! * [`stats`] — mean / variance / percentile / EWMA helpers shared by the
//!   predictors and the experiment harness.

#![forbid(unsafe_code)]

pub mod matrix;
pub mod ols;
pub mod stats;
pub mod svd;

pub use matrix::Matrix;
pub use ols::OlsWorkspace;
pub use svd::{Svd, SvdWorkspace};
