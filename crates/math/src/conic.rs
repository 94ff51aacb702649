//! 2-D projected-covariance (conic) machinery for EWA splatting.
//!
//! After a 3-D Gaussian is projected to the image plane its footprint is a
//! 2-D Gaussian with covariance [`Cov2`]. Rasterization evaluates the Gaussian
//! through the inverse covariance — the [`Conic2`] — and bounds its extent by
//! a few standard deviations to find the pixel tiles it intersects.

use crate::{gaussian_falloff, Vec2};
use serde::{Deserialize, Serialize};

/// Symmetric 2×2 covariance matrix `[[a, b], [b, c]]`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Cov2 {
    /// Variance along x.
    pub a: f32,
    /// Covariance term.
    pub b: f32,
    /// Variance along y.
    pub c: f32,
}

impl Cov2 {
    /// Construct from the upper-triangular entries.
    #[inline]
    pub const fn new(a: f32, b: f32, c: f32) -> Self {
        Self { a, b, c }
    }

    /// Isotropic covariance with variance `v`.
    #[inline]
    pub const fn isotropic(v: f32) -> Self {
        Self { a: v, b: 0.0, c: v }
    }

    /// Determinant.
    #[inline]
    pub fn determinant(self) -> f32 {
        self.a * self.c - self.b * self.b
    }

    /// Add `v` to both diagonal entries. 3DGS dilates the screen-space
    /// covariance by 0.3 px² as a low-pass filter; Mip-Splatting makes this
    /// scale-aware.
    #[inline]
    pub fn dilated(self, v: f32) -> Self {
        Self::new(self.a + v, self.b, self.c + v)
    }

    /// Eigenvalues, largest first. For a symmetric 2×2 matrix both are real.
    #[inline]
    pub fn eigenvalues(self) -> (f32, f32) {
        let mid = 0.5 * (self.a + self.c);
        let disc = (0.25 * (self.a - self.c).powi(2) + self.b * self.b)
            .max(0.0)
            .sqrt();
        (mid + disc, mid - disc)
    }

    /// Radius (in pixels) that covers `k` standard deviations of the larger
    /// principal axis. 3DGS uses `k = 3`.
    #[inline]
    pub fn bounding_radius(self, k: f32) -> f32 {
        let (l1, _) = self.eigenvalues();
        k * l1.max(0.0).sqrt()
    }

    /// Invert to conic form. Returns `None` for (near-)degenerate footprints,
    /// which the projection stage culls.
    #[inline]
    pub fn to_conic(self) -> Option<Conic2> {
        let det = self.determinant();
        if det <= 1e-12 {
            return None;
        }
        let inv_det = 1.0 / det;
        Some(Conic2 {
            a: self.c * inv_det,
            b: -self.b * inv_det,
            c: self.a * inv_det,
        })
    }
}

/// Inverse 2-D covariance `[[a, b], [b, c]]` (a.k.a. the conic matrix).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Conic2 {
    /// Inverse-covariance xx entry.
    pub a: f32,
    /// Inverse-covariance xy entry.
    pub b: f32,
    /// Inverse-covariance yy entry.
    pub c: f32,
}

impl Conic2 {
    /// Squared Mahalanobis distance of offset `d` from the Gaussian center:
    /// `dᵀ Σ⁻¹ d`.
    #[inline]
    pub fn mahalanobis_sq(self, d: Vec2) -> f32 {
        self.a * d.x * d.x + 2.0 * self.b * d.x * d.y + self.c * d.y * d.y
    }

    /// Exponent `-½ dᵀ Σ⁻¹ d` of the Gaussian at offset `d`.
    #[inline]
    pub fn gaussian_power(self, d: Vec2) -> f32 {
        -0.5 * self.mahalanobis_sq(d)
    }

    /// Gaussian falloff `exp(-½ dᵀ Σ⁻¹ d)` of offset `d`:
    /// [`gaussian_falloff`] of [`Conic2::gaussian_power`], so `1.0` where
    /// rounding makes the power positive (`d ≈ 0`). Raster evaluates the
    /// same two calls a group of splats at a time, so a reference
    /// compositor built on this method matches it bit for bit.
    #[inline]
    pub fn gaussian_weight(self, d: Vec2) -> f32 {
        gaussian_falloff(self.gaussian_power(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn isotropic_eigenvalues_are_equal() {
        let (l1, l2) = Cov2::isotropic(4.0).eigenvalues();
        assert!((l1 - 4.0).abs() < 1e-6);
        assert!((l2 - 4.0).abs() < 1e-6);
    }

    #[test]
    fn bounding_radius_isotropic() {
        // variance 4 → σ = 2 → 3σ = 6.
        assert!((Cov2::isotropic(4.0).bounding_radius(3.0) - 6.0).abs() < 1e-5);
    }

    #[test]
    fn conic_inverts_covariance() {
        let cov = Cov2::new(5.0, 1.0, 2.0);
        let conic = cov.to_conic().unwrap();
        // Σ Σ⁻¹ = I
        let p00 = cov.a * conic.a + cov.b * conic.b;
        let p01 = cov.a * conic.b + cov.b * conic.c;
        let p11 = cov.b * conic.b + cov.c * conic.c;
        assert!((p00 - 1.0).abs() < 1e-5);
        assert!(p01.abs() < 1e-5);
        assert!((p11 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn degenerate_covariance_yields_none() {
        assert!(Cov2::new(1.0, 1.0, 1.0).to_conic().is_none());
        assert!(Cov2::new(0.0, 0.0, 0.0).to_conic().is_none());
    }

    #[test]
    fn gaussian_weight_peaks_at_center() {
        let conic = Cov2::new(2.0, 0.3, 1.0).to_conic().unwrap();
        assert!((conic.gaussian_weight(Vec2::zero()) - 1.0).abs() < 1e-6);
        assert!(conic.gaussian_weight(Vec2::new(1.0, 1.0)) < 1.0);
    }

    #[test]
    fn dilation_grows_radius() {
        let c = Cov2::new(1.0, 0.2, 0.5);
        assert!(c.dilated(0.3).bounding_radius(3.0) > c.bounding_radius(3.0));
    }

    proptest! {
        #[test]
        fn eigenvalues_bracket_trace(a in 0.1f32..20.0, b in -2.0f32..2.0, c in 0.1f32..20.0) {
            prop_assume!(a * c - b * b > 1e-3);
            let cov = Cov2::new(a, b, c);
            let (l1, l2) = cov.eigenvalues();
            prop_assert!(l1 >= l2);
            prop_assert!(((l1 + l2) - (a + c)).abs() < 1e-3);
            prop_assert!((l1 * l2 - cov.determinant()).abs() / cov.determinant().max(1.0) < 1e-2);
        }

        #[test]
        fn mahalanobis_is_nonnegative_for_pd(
            a in 0.1f32..20.0, b in -2.0f32..2.0, c in 0.1f32..20.0,
            dx in -50.0f32..50.0, dy in -50.0f32..50.0,
        ) {
            prop_assume!(a * c - b * b > 1e-3);
            let conic = Cov2::new(a, b, c).to_conic().unwrap();
            prop_assert!(conic.mahalanobis_sq(Vec2::new(dx, dy)) >= -1e-3);
        }

        #[test]
        fn weight_monotone_along_ray(
            a in 0.1f32..20.0, c in 0.1f32..20.0,
            dx in -5.0f32..5.0, dy in -5.0f32..5.0,
        ) {
            let conic = Cov2::new(a, 0.0, c).to_conic().unwrap();
            let d = Vec2::new(dx, dy);
            prop_assert!(conic.gaussian_weight(d) >= conic.gaussian_weight(d * 2.0) - 1e-6);
        }
    }
}
