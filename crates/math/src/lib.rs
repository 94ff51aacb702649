//! Linear-algebra and numerical primitives for the MetaSapiens PBNR stack.
//!
//! This crate provides the small, dependency-free math substrate every other
//! crate in the workspace builds on:
//!
//! * [`Vec2`], [`Vec3`], [`Vec4`] — column vectors with the usual operators.
//! * [`Mat3`], [`Mat4`] — row-major small matrices with the transforms needed
//!   by a splatting renderer (look-at, perspective, covariance conjugation).
//! * [`Quat`] — unit quaternions for Gaussian orientations and pose slerp.
//! * [`sh`] — real spherical-harmonics basis (degrees 0–3) used for
//!   view-dependent Gaussian color, matching the 3DGS convention.
//! * [`Conic2`] / [`Cov2`] — the 2-D projected covariance machinery used by
//!   EWA splatting (invert covariance, eigen extents, point-inside tests).
//! * [`stats`] — summary statistics (mean/std/percentiles/boxplots) used by
//!   the evaluation harness to reproduce the paper's boxplot figures.
//!
//! # Example
//!
//! ```
//! use ms_math::{Vec3, Mat3, Quat};
//!
//! let q = Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), std::f32::consts::FRAC_PI_2);
//! let r: Mat3 = q.to_mat3();
//! let v = r * Vec3::new(1.0, 0.0, 0.0);
//! assert!((v.z - -1.0).abs() < 1e-5);
//! ```

#![deny(missing_docs)]

mod aabb;
mod conic;
mod mat;
mod quat;
pub mod sh;
pub mod stats;
mod vec;

pub use aabb::{Aabb2, Aabb3, TileRect};
pub use conic::{Conic2, Cov2};
pub use mat::{Mat3, Mat4};
pub use quat::Quat;
pub use vec::{Vec2, Vec3, Vec4};

/// Degrees → radians.
#[inline]
pub fn deg_to_rad(deg: f32) -> f32 {
    deg * std::f32::consts::PI / 180.0
}

/// Radians → degrees.
#[inline]
pub fn rad_to_deg(rad: f32) -> f32 {
    rad * 180.0 / std::f32::consts::PI
}

/// Clamp a float to `[lo, hi]`.
#[inline]
pub fn clampf(x: f32, lo: f32, hi: f32) -> f32 {
    x.max(lo).min(hi)
}

/// Linear interpolation between `a` and `b` by `t` (unclamped).
#[inline]
pub fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a + (b - a) * t
}

/// Smoothstep interpolation (clamped, C¹-continuous), used when blending
/// adjacent foveation quality levels.
#[inline]
pub fn smoothstep(edge0: f32, edge1: f32, x: f32) -> f32 {
    if edge0 >= edge1 {
        return if x < edge0 { 0.0 } else { 1.0 };
    }
    let t = clampf((x - edge0) / (edge1 - edge0), 0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

/// Sigmoid, used to map unconstrained opacity logits to `(0, 1)` exactly as
/// 3DGS does during training.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Inverse sigmoid (logit). Input is clamped away from {0, 1} for stability.
#[inline]
pub fn inverse_sigmoid(y: f32) -> f32 {
    let y = clampf(y, 1e-6, 1.0 - 1e-6);
    (y / (1.0 - y)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deg_rad_roundtrip() {
        for d in [-180.0f32, -33.0, 0.0, 18.0, 27.0, 90.0, 360.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-4);
        }
    }

    #[test]
    fn smoothstep_endpoints_and_midpoint() {
        assert_eq!(smoothstep(0.0, 1.0, -1.0), 0.0);
        assert_eq!(smoothstep(0.0, 1.0, 2.0), 1.0);
        assert!((smoothstep(0.0, 1.0, 0.5) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn smoothstep_degenerate_edge_is_step() {
        assert_eq!(smoothstep(1.0, 1.0, 0.5), 0.0);
        assert_eq!(smoothstep(1.0, 1.0, 1.5), 1.0);
    }

    #[test]
    fn sigmoid_logit_roundtrip() {
        for y in [0.01f32, 0.25, 0.5, 0.9, 0.999] {
            assert!((sigmoid(inverse_sigmoid(y)) - y).abs() < 1e-4);
        }
    }

    #[test]
    fn lerp_basics() {
        assert_eq!(lerp(2.0, 4.0, 0.0), 2.0);
        assert_eq!(lerp(2.0, 4.0, 1.0), 4.0);
        assert_eq!(lerp(2.0, 4.0, 0.5), 3.0);
    }
}
