//! Unit quaternions for Gaussian orientations and pose interpolation.

use crate::{Mat3, Vec3};
use serde::{Deserialize, Serialize};
use std::ops::Mul;

/// Quaternion stored as `(w, x, y, z)`, matching the 3DGS checkpoint layout.
///
/// Gaussians store their ellipsoid orientation as a (normalized) quaternion;
/// camera trajectories use [`Quat::slerp`] for smooth pose interpolation when
/// densifying the sparse dataset poses into 90 FPS traces (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quat {
    /// Scalar part.
    pub w: f32,
    /// X imaginary part.
    pub x: f32,
    /// Y imaginary part.
    pub y: f32,
    /// Z imaginary part.
    pub z: f32,
}

impl Default for Quat {
    #[inline]
    fn default() -> Self {
        Self::identity()
    }
}

impl Quat {
    /// The identity rotation.
    #[inline]
    pub const fn identity() -> Self {
        Self {
            w: 1.0,
            x: 0.0,
            y: 0.0,
            z: 0.0,
        }
    }

    /// Construct from components (w, x, y, z). Not normalized automatically.
    #[inline]
    pub const fn new(w: f32, x: f32, y: f32, z: f32) -> Self {
        Self { w, x, y, z }
    }

    /// Rotation of `angle` radians about (normalized) `axis`.
    #[inline]
    pub fn from_axis_angle(axis: Vec3, angle: f32) -> Self {
        let axis = axis.normalized();
        let (s, c) = (angle * 0.5).sin_cos();
        Self::new(c, axis.x * s, axis.y * s, axis.z * s)
    }

    /// Squared norm.
    #[inline]
    pub fn norm_squared(self) -> f32 {
        self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Norm.
    #[inline]
    pub fn norm(self) -> f32 {
        self.norm_squared().sqrt()
    }

    /// Normalized copy. Returns identity for a (near-)zero quaternion.
    #[inline]
    pub fn normalized(self) -> Self {
        let n = self.norm();
        if n <= f32::EPSILON {
            Self::identity()
        } else {
            Self::new(self.w / n, self.x / n, self.y / n, self.z / n)
        }
    }

    /// Quaternion dot product.
    #[inline]
    pub fn dot(self, rhs: Self) -> f32 {
        self.w * rhs.w + self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Rotate a vector by this (unit) quaternion.
    #[inline]
    pub fn rotate(self, v: Vec3) -> Vec3 {
        // v' = q v q*; expanded to avoid constructing intermediates.
        let u = Vec3::new(self.x, self.y, self.z);
        let s = self.w;
        u * (2.0 * u.dot(v)) + v * (s * s - u.dot(u)) + u.cross(v) * (2.0 * s)
    }

    /// Convert to a rotation matrix. The quaternion is normalized first, so
    /// raw (trainable, unnormalized) quaternion parameters are accepted.
    #[inline]
    pub fn to_mat3(self) -> Mat3 {
        let q = self.normalized();
        let (w, x, y, z) = (q.w, q.x, q.y, q.z);
        Mat3::from_rows(
            [
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ],
            [
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ],
            [
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ],
        )
    }

    /// Spherical linear interpolation from `self` to `rhs` by `t ∈ [0, 1]`.
    ///
    /// Takes the shorter arc and falls back to normalized lerp when the
    /// endpoints are nearly parallel.
    #[inline]
    pub fn slerp(self, rhs: Self, t: f32) -> Self {
        let a = self.normalized();
        let mut b = rhs.normalized();
        let mut cos_theta = a.dot(b);
        if cos_theta < 0.0 {
            // Take the short way around.
            b = Self::new(-b.w, -b.x, -b.y, -b.z);
            cos_theta = -cos_theta;
        }
        if cos_theta > 0.9995 {
            // Nearly parallel: nlerp.
            return Self::new(
                crate::lerp(a.w, b.w, t),
                crate::lerp(a.x, b.x, t),
                crate::lerp(a.y, b.y, t),
                crate::lerp(a.z, b.z, t),
            )
            .normalized();
        }
        let theta = cos_theta.clamp(-1.0, 1.0).acos();
        let sin_theta = theta.sin();
        let wa = ((1.0 - t) * theta).sin() / sin_theta;
        let wb = (t * theta).sin() / sin_theta;
        Self::new(
            wa * a.w + wb * b.w,
            wa * a.x + wb * b.x,
            wa * a.y + wb * b.y,
            wa * a.z + wb * b.z,
        )
    }
}

impl Mul for Quat {
    type Output = Self;
    #[inline]
    fn mul(self, r: Self) -> Self {
        Self::new(
            self.w * r.w - self.x * r.x - self.y * r.y - self.z * r.z,
            self.w * r.x + self.x * r.w + self.y * r.z - self.z * r.y,
            self.w * r.y - self.x * r.z + self.y * r.w + self.z * r.x,
            self.w * r.z + self.x * r.y - self.y * r.x + self.z * r.w,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f32::consts::{FRAC_PI_2, PI};

    #[test]
    fn identity_rotation_is_noop() {
        let v = Vec3::new(1.0, -2.0, 0.5);
        assert!(Quat::identity().rotate(v).distance(v) < 1e-6);
    }

    #[test]
    fn rotate_90_about_z() {
        let q = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), FRAC_PI_2);
        let v = q.rotate(Vec3::new(1.0, 0.0, 0.0));
        assert!(v.distance(Vec3::new(0.0, 1.0, 0.0)) < 1e-5);
    }

    #[test]
    fn mat3_agrees_with_rotate() {
        let q = Quat::from_axis_angle(Vec3::new(1.0, 1.0, 0.3), 1.1);
        let m = q.to_mat3();
        let v = Vec3::new(0.2, -0.8, 1.5);
        assert!((m * v).distance(q.rotate(v)) < 1e-5);
    }

    #[test]
    fn composition_matches_matrix_product() {
        let a = Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), 0.7);
        let b = Quat::from_axis_angle(Vec3::new(1.0, 0.0, 0.0), -0.4);
        let v = Vec3::new(1.0, 2.0, 3.0);
        let via_quat = (a * b).rotate(v);
        let via_mats = a.to_mat3() * (b.to_mat3() * v);
        assert!(via_quat.distance(via_mats) < 1e-4);
    }

    #[test]
    fn slerp_endpoints() {
        let a = Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), 0.3);
        let b = Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), 2.1);
        assert!(a.slerp(b, 0.0).dot(a).abs() > 0.9999);
        assert!(a.slerp(b, 1.0).dot(b).abs() > 0.9999);
    }

    #[test]
    fn slerp_halfway_bisects_angle() {
        let a = Quat::identity();
        let b = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), PI / 2.0);
        let mid = a.slerp(b, 0.5);
        let expect = Quat::from_axis_angle(Vec3::new(0.0, 0.0, 1.0), PI / 4.0);
        assert!(mid.dot(expect).abs() > 0.9999);
    }

    #[test]
    fn zero_quat_normalizes_to_identity() {
        assert_eq!(Quat::new(0.0, 0.0, 0.0, 0.0).normalized(), Quat::identity());
    }

    proptest! {
        #[test]
        fn rotation_preserves_length(
            axis in proptest::array::uniform3(-1.0f32..1.0),
            angle in -PI..PI,
            v in proptest::array::uniform3(-10.0f32..10.0),
        ) {
            let axis = Vec3::from(axis);
            prop_assume!(axis.length() > 1e-3);
            let q = Quat::from_axis_angle(axis, angle);
            let v = Vec3::from(v);
            prop_assert!((q.rotate(v).length() - v.length()).abs() < 1e-3);
        }

        #[test]
        fn to_mat3_is_orthonormal(
            axis in proptest::array::uniform3(-1.0f32..1.0),
            angle in -PI..PI,
        ) {
            let axis = Vec3::from(axis);
            prop_assume!(axis.length() > 1e-3);
            let m = Quat::from_axis_angle(axis, angle).to_mat3();
            let should_be_id = m * m.transposed();
            for i in 0..3 {
                for j in 0..3 {
                    let expect = if i == j { 1.0 } else { 0.0 };
                    prop_assert!((should_be_id.m[i][j] - expect).abs() < 1e-4);
                }
            }
            prop_assert!((m.determinant() - 1.0).abs() < 1e-3);
        }

        #[test]
        fn slerp_output_is_unit(
            angle_a in -PI..PI,
            angle_b in -PI..PI,
            t in 0.0f32..1.0,
        ) {
            let a = Quat::from_axis_angle(Vec3::new(0.3, 1.0, -0.2), angle_a);
            let b = Quat::from_axis_angle(Vec3::new(-0.5, 0.1, 0.9), angle_b);
            prop_assert!((a.slerp(b, t).norm() - 1.0).abs() < 1e-4);
        }
    }
}
