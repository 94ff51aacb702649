//! Small row-major matrices (`Mat3`, `Mat4`).

use crate::{Vec3, Vec4};
use serde::{Deserialize, Serialize};
use std::ops::{Add, Mul, Sub};

/// 3×3 row-major matrix.
///
/// Used for rotations, covariance matrices and the EWA Jacobian.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat3 {
    /// Rows-major storage: `m[row][col]`.
    pub m: [[f32; 3]; 3],
}

impl Default for Mat3 {
    #[inline]
    fn default() -> Self {
        Self::identity()
    }
}

impl Mat3 {
    /// Identity matrix.
    #[inline]
    pub const fn identity() -> Self {
        Self {
            m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Matrix of all zeros.
    #[inline]
    pub const fn zero() -> Self {
        Self { m: [[0.0; 3]; 3] }
    }

    /// Build from rows.
    #[inline]
    pub const fn from_rows(r0: [f32; 3], r1: [f32; 3], r2: [f32; 3]) -> Self {
        Self { m: [r0, r1, r2] }
    }

    /// Diagonal matrix.
    #[inline]
    pub const fn from_diagonal(d: Vec3) -> Self {
        Self {
            m: [[d.x, 0.0, 0.0], [0.0, d.y, 0.0], [0.0, 0.0, d.z]],
        }
    }

    /// Transposed copy.
    #[inline]
    pub fn transposed(&self) -> Self {
        let m = &self.m;
        Self::from_rows(
            [m[0][0], m[1][0], m[2][0]],
            [m[0][1], m[1][1], m[2][1]],
            [m[0][2], m[1][2], m[2][2]],
        )
    }

    /// Determinant.
    #[inline]
    pub fn determinant(&self) -> f32 {
        let m = &self.m;
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    }

    /// Inverse, or `None` when the matrix is singular.
    #[inline]
    pub fn inverse(&self) -> Option<Self> {
        let det = self.determinant();
        if det.abs() < 1e-12 {
            return None;
        }
        let m = &self.m;
        let inv_det = 1.0 / det;
        let c = |r0: usize, c0: usize, r1: usize, c1: usize| {
            m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]
        };
        Some(Self::from_rows(
            [
                c(1, 1, 2, 2) * inv_det,
                -c(0, 1, 2, 2) * inv_det,
                c(0, 1, 1, 2) * inv_det,
            ],
            [
                -c(1, 0, 2, 2) * inv_det,
                c(0, 0, 2, 2) * inv_det,
                -c(0, 0, 1, 2) * inv_det,
            ],
            [
                c(1, 0, 2, 1) * inv_det,
                -c(0, 0, 2, 1) * inv_det,
                c(0, 0, 1, 1) * inv_det,
            ],
        ))
    }

    /// Row `i` as a vector.
    #[inline]
    pub fn row(&self, i: usize) -> Vec3 {
        Vec3::new(self.m[i][0], self.m[i][1], self.m[i][2])
    }

    /// Column `j` as a vector.
    #[inline]
    pub fn col(&self, j: usize) -> Vec3 {
        Vec3::new(self.m[0][j], self.m[1][j], self.m[2][j])
    }

    /// Conjugate a symmetric matrix: `self * s * selfᵀ`.
    ///
    /// This is the covariance transform used when rotating a Gaussian
    /// (`Σ' = R Σ Rᵀ`) and when projecting 3-D covariance with the EWA
    /// Jacobian (`Σ₂ = J W Σ Wᵀ Jᵀ`).
    #[inline]
    pub fn conjugate_symmetric(&self, s: &Mat3) -> Mat3 {
        *self * *s * self.transposed()
    }
}

impl Mul for Mat3 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let mut out = Mat3::zero();
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for (k, rhs_row) in rhs.m.iter().enumerate() {
                    acc += self.m[i][k] * rhs_row[j];
                }
                out.m[i][j] = acc;
            }
        }
        out
    }
}

impl Mul<Vec3> for Mat3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        Vec3::new(self.row(0).dot(v), self.row(1).dot(v), self.row(2).dot(v))
    }
}

impl Mul<f32> for Mat3 {
    type Output = Self;
    #[inline]
    fn mul(self, s: f32) -> Self {
        let mut out = self;
        for row in &mut out.m {
            for v in row {
                *v *= s;
            }
        }
        out
    }
}

impl Add for Mat3 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let mut out = self;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] += rhs.m[i][j];
            }
        }
        out
    }
}

impl Sub for Mat3 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let mut out = self;
        for i in 0..3 {
            for j in 0..3 {
                out.m[i][j] -= rhs.m[i][j];
            }
        }
        out
    }
}

/// 4×4 row-major matrix for homogeneous transforms.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Mat4 {
    /// Row-major storage: `m[row][col]`.
    pub m: [[f32; 4]; 4],
}

impl Default for Mat4 {
    #[inline]
    fn default() -> Self {
        Self::identity()
    }
}

impl Mat4 {
    /// Identity matrix.
    #[inline]
    pub const fn identity() -> Self {
        Self {
            m: [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
        }
    }

    /// Build from rows.
    #[inline]
    pub const fn from_rows(r0: [f32; 4], r1: [f32; 4], r2: [f32; 4], r3: [f32; 4]) -> Self {
        Self {
            m: [r0, r1, r2, r3],
        }
    }

    /// Right-handed look-at view matrix. The camera at `eye` looks toward
    /// `target`; the view space has +X right, +Y up, and the camera looking
    /// down **−Z**.
    #[inline]
    pub fn look_at(eye: Vec3, target: Vec3, up: Vec3) -> Self {
        let f = (target - eye).normalized(); // forward
        let s = f.cross(up).normalized(); // right
        let u = s.cross(f); // corrected up
        Self::from_rows(
            [s.x, s.y, s.z, -s.dot(eye)],
            [u.x, u.y, u.z, -u.dot(eye)],
            [-f.x, -f.y, -f.z, f.dot(eye)],
            [0.0, 0.0, 0.0, 1.0],
        )
    }

    /// Right-handed perspective projection (OpenGL-style clip space,
    /// z ∈ [−1, 1]).
    ///
    /// `fovy` is the vertical field of view in radians.
    ///
    /// # Panics
    ///
    /// Panics if `fovy`, `aspect` or the near/far planes are non-positive, or
    /// if `near >= far`.
    #[inline]
    pub fn perspective(fovy: f32, aspect: f32, near: f32, far: f32) -> Self {
        assert!(fovy > 0.0 && aspect > 0.0, "fovy/aspect must be positive");
        assert!(near > 0.0 && far > near, "require 0 < near < far");
        let f = 1.0 / (fovy / 2.0).tan();
        Self::from_rows(
            [f / aspect, 0.0, 0.0, 0.0],
            [0.0, f, 0.0, 0.0],
            [
                0.0,
                0.0,
                (far + near) / (near - far),
                (2.0 * far * near) / (near - far),
            ],
            [0.0, 0.0, -1.0, 0.0],
        )
    }

    /// Transposed copy.
    #[inline]
    pub fn transposed(&self) -> Self {
        let mut out = Mat4::identity();
        for i in 0..4 {
            for j in 0..4 {
                out.m[i][j] = self.m[j][i];
            }
        }
        out
    }

    /// Upper-left 3×3 block.
    #[inline]
    pub fn upper_left3(&self) -> Mat3 {
        Mat3::from_rows(
            [self.m[0][0], self.m[0][1], self.m[0][2]],
            [self.m[1][0], self.m[1][1], self.m[1][2]],
            [self.m[2][0], self.m[2][1], self.m[2][2]],
        )
    }

    /// Transform a point (w = 1), returning the homogeneous result.
    #[inline]
    pub fn transform_point(&self, p: Vec3) -> Vec4 {
        *self * p.extend(1.0)
    }
}

impl Mul for Mat4 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        let mut out = Mat4 { m: [[0.0; 4]; 4] };
        for i in 0..4 {
            for j in 0..4 {
                let mut acc = 0.0;
                for (k, rhs_row) in rhs.m.iter().enumerate() {
                    acc += self.m[i][k] * rhs_row[j];
                }
                out.m[i][j] = acc;
            }
        }
        out
    }
}

impl Mul<Vec4> for Mat4 {
    type Output = Vec4;
    #[inline]
    fn mul(self, v: Vec4) -> Vec4 {
        let r = |i: usize| {
            self.m[i][0] * v.x + self.m[i][1] * v.y + self.m[i][2] * v.z + self.m[i][3] * v.w
        };
        Vec4::new(r(0), r(1), r(2), r(3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_mat3_close(a: &Mat3, b: &Mat3, tol: f32) {
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (a.m[i][j] - b.m[i][j]).abs() < tol,
                    "mismatch at ({i},{j}): {} vs {}",
                    a.m[i][j],
                    b.m[i][j]
                );
            }
        }
    }

    #[test]
    fn identity_multiplication() {
        let a = Mat3::from_rows([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 10.0]);
        assert_mat3_close(&(a * Mat3::identity()), &a, 1e-6);
        assert_mat3_close(&(Mat3::identity() * a), &a, 1e-6);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Mat3::from_rows([2.0, 1.0, 0.5], [0.0, 3.0, 1.0], [1.0, 0.0, 2.0]);
        let inv = a.inverse().expect("invertible");
        assert_mat3_close(&(a * inv), &Mat3::identity(), 1e-4);
    }

    #[test]
    fn singular_matrix_has_no_inverse() {
        let a = Mat3::from_rows([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]);
        assert!(a.inverse().is_none());
    }

    #[test]
    fn look_at_centers_target_on_negative_z() {
        let eye = Vec3::new(0.0, 0.0, 5.0);
        let view = Mat4::look_at(eye, Vec3::zero(), Vec3::new(0.0, 1.0, 0.0));
        let p = view.transform_point(Vec3::zero()).project();
        assert!(p.x.abs() < 1e-5 && p.y.abs() < 1e-5);
        assert!(
            (p.z - -5.0).abs() < 1e-5,
            "target should be 5 units down -Z, got {p}"
        );
    }

    #[test]
    fn perspective_maps_near_far_to_clip_bounds() {
        let proj = Mat4::perspective(std::f32::consts::FRAC_PI_2, 1.0, 0.1, 100.0);
        let near = (proj * Vec4::new(0.0, 0.0, -0.1, 1.0)).project();
        let far = (proj * Vec4::new(0.0, 0.0, -100.0, 1.0)).project();
        assert!((near.z - -1.0).abs() < 1e-4);
        assert!((far.z - 1.0).abs() < 1e-4);
    }

    #[test]
    #[should_panic]
    fn perspective_rejects_bad_planes() {
        let _ = Mat4::perspective(1.0, 1.0, 10.0, 1.0);
    }

    #[test]
    fn conjugate_symmetric_preserves_symmetry() {
        let r = Mat3::from_rows([0.8, -0.6, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0]);
        let s = Mat3::from_diagonal(Vec3::new(1.0, 4.0, 9.0));
        let c = r.conjugate_symmetric(&s);
        for i in 0..3 {
            for j in 0..3 {
                assert!((c.m[i][j] - c.m[j][i]).abs() < 1e-5);
            }
        }
    }

    proptest! {
        #[test]
        fn det_of_product_is_product_of_dets(
            vals in proptest::array::uniform9(-3.0f32..3.0),
            vals2 in proptest::array::uniform9(-3.0f32..3.0),
        ) {
            let a = Mat3::from_rows(
                [vals[0], vals[1], vals[2]],
                [vals[3], vals[4], vals[5]],
                [vals[6], vals[7], vals[8]],
            );
            let b = Mat3::from_rows(
                [vals2[0], vals2[1], vals2[2]],
                [vals2[3], vals2[4], vals2[5]],
                [vals2[6], vals2[7], vals2[8]],
            );
            let lhs = (a * b).determinant();
            let rhs = a.determinant() * b.determinant();
            let scale = lhs.abs().max(rhs.abs()).max(1.0);
            prop_assert!((lhs - rhs).abs() / scale < 1e-3);
        }

        #[test]
        fn transpose_is_involution(vals in proptest::array::uniform9(-10.0f32..10.0)) {
            let a = Mat3::from_rows(
                [vals[0], vals[1], vals[2]],
                [vals[3], vals[4], vals[5]],
                [vals[6], vals[7], vals[8]],
            );
            prop_assert_eq!(a.transposed().transposed(), a);
        }
    }
}
