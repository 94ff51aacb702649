//! Small column vectors (`Vec2`, `Vec3`, `Vec4`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{
    Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign,
};

macro_rules! impl_vec_common {
    ($name:ident, $n:expr, [$($f:ident),+]) => {
        impl $name {
            /// Vector with all components set to `v`.
            #[inline]
            pub const fn splat(v: f32) -> Self {
                Self { $($f: v),+ }
            }

            /// Zero vector.
            #[inline]
            pub const fn zero() -> Self {
                Self::splat(0.0)
            }

            /// Vector of ones.
            #[inline]
            pub const fn one() -> Self {
                Self::splat(1.0)
            }

            /// Dot product.
            #[inline]
            pub fn dot(self, rhs: Self) -> f32 {
                0.0 $(+ self.$f * rhs.$f)+
            }

            /// Squared Euclidean length.
            #[inline]
            pub fn length_squared(self) -> f32 {
                self.dot(self)
            }

            /// Euclidean length.
            #[inline]
            pub fn length(self) -> f32 {
                self.length_squared().sqrt()
            }

            /// Distance to `rhs`.
            #[inline]
            pub fn distance(self, rhs: Self) -> f32 {
                (self - rhs).length()
            }

            /// Unit-length copy. Returns the zero vector when the length is
            /// (near) zero rather than producing NaNs.
            #[inline]
            pub fn normalized(self) -> Self {
                let len = self.length();
                if len <= f32::EPSILON {
                    Self::zero()
                } else {
                    self / len
                }
            }

            /// Component-wise minimum.
            #[inline]
            pub fn min(self, rhs: Self) -> Self {
                Self { $($f: self.$f.min(rhs.$f)),+ }
            }

            /// Component-wise maximum.
            #[inline]
            pub fn max(self, rhs: Self) -> Self {
                Self { $($f: self.$f.max(rhs.$f)),+ }
            }

            /// Component-wise absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self { $($f: self.$f.abs()),+ }
            }

            /// Largest component.
            #[inline]
            pub fn max_component(self) -> f32 {
                let mut m = f32::NEG_INFINITY;
                $( m = m.max(self.$f); )+
                m
            }

            /// Linear interpolation toward `rhs` by `t`.
            #[inline]
            pub fn lerp(self, rhs: Self, t: f32) -> Self {
                self + (rhs - self) * t
            }

            /// True when every component is finite.
            #[inline]
            pub fn is_finite(self) -> bool {
                true $(&& self.$f.is_finite())+
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self { $($f: self.$f + rhs.$f),+ }
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self { $($f: self.$f - rhs.$f),+ }
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self { $($f: -self.$f),+ }
            }
        }

        impl Mul<f32> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f32) -> Self {
                Self { $($f: self.$f * rhs),+ }
            }
        }

        impl Mul<$name> for f32 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                rhs * self
            }
        }

        impl Div<f32> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f32) -> Self {
                Self { $($f: self.$f / rhs),+ }
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }

        impl MulAssign<f32> for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: f32) {
                *self = *self * rhs;
            }
        }

        impl DivAssign<f32> for $name {
            #[inline]
            fn div_assign(&mut self, rhs: f32) {
                *self = *self / rhs;
            }
        }

        impl Index<usize> for $name {
            type Output = f32;
            #[inline]
            fn index(&self, i: usize) -> &f32 {
                let arr: &[f32; $n] = unsafe { &*(self as *const Self as *const [f32; $n]) };
                &arr[i]
            }
        }

        impl IndexMut<usize> for $name {
            #[inline]
            fn index_mut(&mut self, i: usize) -> &mut f32 {
                let arr: &mut [f32; $n] = unsafe { &mut *(self as *mut Self as *mut [f32; $n]) };
                &mut arr[i]
            }
        }
    };
}

/// 2-D vector (image-plane positions, tile coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct Vec2 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
}

/// 3-D vector (world/view positions, scales, RGB colors).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct Vec3 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
}

/// 4-D vector (homogeneous coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[repr(C)]
pub struct Vec4 {
    /// X component.
    pub x: f32,
    /// Y component.
    pub y: f32,
    /// Z component.
    pub z: f32,
    /// W component.
    pub w: f32,
}

impl_vec_common!(Vec2, 2, [x, y]);
impl_vec_common!(Vec3, 3, [x, y, z]);
impl_vec_common!(Vec4, 4, [x, y, z, w]);

impl Vec2 {
    /// Construct from components.
    #[inline]
    pub const fn new(x: f32, y: f32) -> Self {
        Self { x, y }
    }

    /// 2-D cross product (z of the 3-D cross of the embedded vectors).
    #[inline]
    pub fn cross(self, rhs: Self) -> f32 {
        self.x * rhs.y - self.y * rhs.x
    }
}

impl Vec3 {
    /// Construct from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Self { x, y, z }
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Self) -> Self {
        Self::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Drop to the XY plane.
    #[inline]
    pub fn xy(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }

    /// Extend with a `w` component.
    #[inline]
    pub fn extend(self, w: f32) -> Vec4 {
        Vec4::new(self.x, self.y, self.z, w)
    }
}

impl Vec4 {
    /// Construct from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32, w: f32) -> Self {
        Self { x, y, z, w }
    }

    /// Truncate to XYZ.
    #[inline]
    pub fn xyz(self) -> Vec3 {
        Vec3::new(self.x, self.y, self.z)
    }

    /// Perspective division (`xyz / w`).
    ///
    /// # Panics
    ///
    /// Does not panic; division by a zero `w` yields non-finite components the
    /// caller is expected to cull (see `Vec3::is_finite`).
    #[inline]
    pub fn project(self) -> Vec3 {
        Vec3::new(self.x / self.w, self.y / self.w, self.z / self.w)
    }
}

impl From<[f32; 2]> for Vec2 {
    #[inline]
    fn from(a: [f32; 2]) -> Self {
        Self::new(a[0], a[1])
    }
}

impl From<[f32; 3]> for Vec3 {
    #[inline]
    fn from(a: [f32; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

impl From<[f32; 4]> for Vec4 {
    #[inline]
    fn from(a: [f32; 4]) -> Self {
        Self::new(a[0], a[1], a[2], a[3])
    }
}

impl From<Vec2> for [f32; 2] {
    #[inline]
    fn from(v: Vec2) -> Self {
        [v.x, v.y]
    }
}

impl From<Vec3> for [f32; 3] {
    #[inline]
    fn from(v: Vec3) -> Self {
        [v.x, v.y, v.z]
    }
}

impl From<Vec4> for [f32; 4] {
    #[inline]
    fn from(v: Vec4) -> Self {
        [v.x, v.y, v.z, v.w]
    }
}

impl fmt::Display for Vec2 {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Vec3 {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl fmt::Display for Vec4 {
    #[inline]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {}, {})", self.x, self.y, self.z, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cross_is_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-4);
        assert!(c.dot(b).abs() < 1e-4);
    }

    #[test]
    fn normalize_zero_is_zero() {
        assert_eq!(Vec3::zero().normalized(), Vec3::zero());
    }

    #[test]
    fn project_divides_by_w() {
        let v = Vec4::new(2.0, 4.0, 6.0, 2.0);
        assert_eq!(v.project(), Vec3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn indexing_matches_fields() {
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 2.0);
        assert_eq!(v[2], 3.0);
        let mut w = v;
        w[1] = 9.0;
        assert_eq!(w.y, 9.0);
    }

    fn finite_f32() -> impl Strategy<Value = f32> {
        -1.0e3f32..1.0e3f32
    }

    proptest! {
        #[test]
        fn dot_commutes(ax in finite_f32(), ay in finite_f32(), az in finite_f32(),
                        bx in finite_f32(), by in finite_f32(), bz in finite_f32()) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            prop_assert!((a.dot(b) - b.dot(a)).abs() <= 1e-2);
        }

        #[test]
        fn normalized_has_unit_length(ax in finite_f32(), ay in finite_f32(), az in finite_f32()) {
            let a = Vec3::new(ax, ay, az);
            prop_assume!(a.length() > 1e-3);
            prop_assert!((a.normalized().length() - 1.0).abs() < 1e-4);
        }

        #[test]
        fn triangle_inequality(ax in finite_f32(), ay in finite_f32(), az in finite_f32(),
                               bx in finite_f32(), by in finite_f32(), bz in finite_f32()) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            prop_assert!((a + b).length() <= a.length() + b.length() + 1e-2);
        }

        #[test]
        fn lerp_endpoints(ax in finite_f32(), bx in finite_f32()) {
            let a = Vec2::new(ax, 0.0);
            let b = Vec2::new(bx, 1.0);
            prop_assert!((a.lerp(b, 0.0) - a).length() < 1e-4);
            prop_assert!((a.lerp(b, 1.0) - b).length() < 1e-3);
        }
    }
}
