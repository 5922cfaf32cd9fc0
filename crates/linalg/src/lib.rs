//! # linalg — dense linear algebra for the k-Graph pipeline
//!
//! From-scratch, dependency-free numerics used across the workspace:
//!
//! * [`Matrix`] — dense row-major `f64` matrix with the handful of
//!   operations the pipeline needs (products, transpose, covariance),
//! * [`eigen`] — symmetric eigendecomposition (Householder + implicit QL)
//!   plus power iteration (used by spectral clustering, PCA and k-Shape),
//! * [`pca`] — principal component analysis (the 2-D projection behind
//!   k-Graph's graph embedding),
//! * [`fft`] — iterative radix-2 FFT and FFT-backed cross-correlation
//!   (speeds up k-Shape's NCC from O(m²) to O(m log m)),
//! * [`kde`] — 1-D Gaussian kernel density estimation with local-maxima
//!   extraction (node creation along each radial scan sector); the grid is
//!   evaluated by a Gaussian recurrence, about three `exp` calls per point.
//!
//! Sizes here are small (hundreds to a few thousands), so clarity wins over
//! blocked/SIMD kernels; everything is O(n³) or better and deterministic.

pub mod eigen;
pub mod fft;
pub mod kde;
pub mod matrix;
pub mod pca;

pub use eigen::{power_iteration, symmetric_eigen, EigenDecomposition};
pub use fft::{cross_correlation_fft, Complex};
pub use kde::Kde;
pub use matrix::Matrix;
pub use pca::Pca;
