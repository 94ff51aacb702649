//! Real spherical harmonics (SH) up to degree 3, 3DGS convention.
//!
//! Gaussian colors are view-dependent: each point stores per-channel SH
//! coefficients, and the rendered color for a view direction `d` is
//! `c = Σₗₘ SHₗₘ · Yₗₘ(d)` pushed through `+0.5` and a clamp, exactly as in
//! the reference 3DGS implementation. Degree 0 (the "DC" component) carries
//! the base color; this is the component MetaSapiens selectively
//! multi-versions across foveation levels (paper §4.2).

use crate::Vec3;

/// Number of SH coefficients for a given degree (`(deg+1)²`).
#[inline]
pub const fn coeff_count(degree: usize) -> usize {
    (degree + 1) * (degree + 1)
}

/// Maximum SH degree supported (matches 3DGS).
pub const MAX_DEGREE: usize = 3;

/// Total coefficients at [`MAX_DEGREE`].
pub const MAX_COEFFS: usize = coeff_count(MAX_DEGREE); // 16

// Real SH basis constants (Condon–Shortley phase folded in, 3DGS values).
const SH_C0: f32 = 0.282_094_79;
const SH_C1: f32 = 0.488_602_51;
const SH_C2: [f32; 5] = [
    1.092_548_4,
    -1.092_548_4,
    0.315_391_57,
    -1.092_548_4,
    0.546_274_2,
];
const SH_C3: [f32; 7] = [
    -0.590_043_6,
    2.890_611_4,
    -0.457_045_8,
    0.373_176_33,
    -0.457_045_8,
    1.445_305_7,
    -0.590_043_6,
];

/// Evaluate the SH basis functions for unit direction `d` into `out`.
///
/// Only the first `coeff_count(degree)` entries of `out` are written.
///
/// # Panics
///
/// Panics if `degree > MAX_DEGREE` or `out` is shorter than
/// `coeff_count(degree)`.
#[inline]
pub fn eval_basis(degree: usize, d: Vec3, out: &mut [f32]) {
    assert!(degree <= MAX_DEGREE, "SH degree {degree} > {MAX_DEGREE}");
    let n = coeff_count(degree);
    assert!(
        out.len() >= n,
        "basis buffer too short: {} < {n}",
        out.len()
    );

    out[0] = SH_C0;
    if degree == 0 {
        return;
    }
    let (x, y, z) = (d.x, d.y, d.z);
    out[1] = -SH_C1 * y;
    out[2] = SH_C1 * z;
    out[3] = -SH_C1 * x;
    if degree == 1 {
        return;
    }
    let (xx, yy, zz) = (x * x, y * y, z * z);
    let (xy, yz, xz) = (x * y, y * z, x * z);
    out[4] = SH_C2[0] * xy;
    out[5] = SH_C2[1] * yz;
    out[6] = SH_C2[2] * (2.0 * zz - xx - yy);
    out[7] = SH_C2[3] * xz;
    out[8] = SH_C2[4] * (xx - yy);
    if degree == 2 {
        return;
    }
    out[9] = SH_C3[0] * y * (3.0 * xx - yy);
    out[10] = SH_C3[1] * xy * z;
    out[11] = SH_C3[2] * y * (4.0 * zz - xx - yy);
    out[12] = SH_C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy);
    out[13] = SH_C3[4] * x * (4.0 * zz - xx - yy);
    out[14] = SH_C3[5] * z * (xx - yy);
    out[15] = SH_C3[6] * x * (xx - yy - 2.0 * zz);
}

/// Evaluate an SH color for view direction `view_dir` (from camera to point,
/// need not be normalized) given per-channel coefficients.
///
/// `coeffs` is laid out `[c0_r, c0_g, c0_b, c1_r, c1_g, c1_b, ...]` with
/// `coeff_count(degree)` triplets. The result follows the 3DGS convention of
/// adding 0.5 and clamping at zero (no upper clamp — HDR-ish highlights are
/// clamped at the image stage).
///
/// # Panics
///
/// Panics if `coeffs.len() < 3 * coeff_count(degree)` or the degree exceeds
/// [`MAX_DEGREE`].
#[inline]
pub fn eval_color(degree: usize, view_dir: Vec3, coeffs: &[f32]) -> Vec3 {
    let mut basis = [0.0f32; MAX_COEFFS];
    eval_basis(degree, view_dir.normalized(), &mut basis);
    color_from_basis(degree, &basis, [coeffs[0], coeffs[1], coeffs[2]], coeffs)
}

/// The color of [`eval_color`] from a `basis` that [`eval_basis`] already
/// filled, with `dc` standing in for the first coefficient triplet
/// (`coeffs[..3]` is not read). A foveated level that multi-versions only
/// the DC term evaluates the basis once per point and calls this per level;
/// the sum runs in [`eval_color`]'s order, so the result is bit-identical
/// to [`eval_color`] on the DC-substituted coefficients.
///
/// # Panics
///
/// Panics if `coeffs.len() < 3 * coeff_count(degree)` or `basis` is shorter
/// than `coeff_count(degree)`.
#[inline]
pub fn color_from_basis(degree: usize, basis: &[f32], dc: [f32; 3], coeffs: &[f32]) -> Vec3 {
    let n = coeff_count(degree);
    assert!(
        coeffs.len() >= 3 * n,
        "need {} SH coefficients, got {}",
        3 * n,
        coeffs.len()
    );
    let mut c = Vec3::zero();
    c.x += basis[0] * dc[0];
    c.y += basis[0] * dc[1];
    c.z += basis[0] * dc[2];
    for (i, &b) in basis[..n].iter().enumerate().skip(1) {
        c.x += b * coeffs[3 * i];
        c.y += b * coeffs[3 * i + 1];
        c.z += b * coeffs[3 * i + 2];
    }
    (c + Vec3::splat(0.5)).max(Vec3::zero())
}

/// Convert a linear RGB color in `[0, 1]` to the DC coefficient triplet that
/// reproduces it under [`eval_color`] with all higher-order terms zero.
#[inline]
pub fn rgb_to_dc(rgb: Vec3) -> [f32; 3] {
    let v = (rgb - Vec3::splat(0.5)) / SH_C0;
    [v.x, v.y, v.z]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn coeff_counts() {
        assert_eq!(coeff_count(0), 1);
        assert_eq!(coeff_count(1), 4);
        assert_eq!(coeff_count(2), 9);
        assert_eq!(coeff_count(3), 16);
        assert_eq!(MAX_COEFFS, 16);
    }

    #[test]
    fn dc_roundtrip() {
        for rgb in [
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.5, 0.25),
            Vec3::new(0.9, 0.9, 0.9),
        ] {
            let dc = rgb_to_dc(rgb);
            assert!(eval_color(0, Vec3::new(0.0, 0.0, 1.0), &dc).distance(rgb) < 1e-5);
        }
    }

    #[test]
    fn dc_only_color_is_view_independent() {
        let mut coeffs = vec![0.0f32; 3 * MAX_COEFFS];
        let dc = rgb_to_dc(Vec3::new(0.7, 0.2, 0.4));
        coeffs[0] = dc[0];
        coeffs[1] = dc[1];
        coeffs[2] = dc[2];
        let c1 = eval_color(3, Vec3::new(1.0, 0.0, 0.0), &coeffs);
        let c2 = eval_color(3, Vec3::new(0.0, -1.0, 0.5), &coeffs);
        assert!(c1.distance(c2) < 1e-5);
        assert!(c1.distance(Vec3::new(0.7, 0.2, 0.4)) < 1e-5);
    }

    #[test]
    fn higher_bands_modulate_with_view() {
        let mut coeffs = vec![0.0f32; 3 * 4];
        // DC gray plus a band-1 z-lobe on red.
        let dc = rgb_to_dc(Vec3::splat(0.5));
        coeffs[..3].copy_from_slice(&dc);
        coeffs[3 * 2] = 1.0; // Y_1^0 (z) on red channel
        let from_top = eval_color(1, Vec3::new(0.0, 0.0, 1.0), &coeffs);
        let from_bottom = eval_color(1, Vec3::new(0.0, 0.0, -1.0), &coeffs);
        assert!(from_top.x > from_bottom.x);
        assert!((from_top.y - from_bottom.y).abs() < 1e-6);
    }

    #[test]
    fn eval_color_clamps_negative() {
        let mut coeffs = vec![0.0f32; 3];
        coeffs[0] = -10.0; // hugely negative red DC
        let c = eval_color(0, Vec3::new(0.0, 0.0, 1.0), &coeffs);
        assert_eq!(c.x, 0.0);
    }

    #[test]
    #[should_panic]
    fn eval_color_rejects_short_buffer() {
        let coeffs = vec![0.0f32; 3];
        let _ = eval_color(1, Vec3::new(0.0, 0.0, 1.0), &coeffs);
    }

    /// Band-1 basis functions integrate to zero over the sphere; check a
    /// crude Monte-Carlo version of orthogonality to DC.
    #[test]
    fn band1_integrates_to_zero() {
        let mut sum = [0.0f64; 4];
        let n = 20_000;
        let mut state = 0x12345678u64;
        let mut rng = || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut basis = [0.0f32; 4];
        for _ in 0..n {
            // Uniform sphere via z/phi sampling.
            let z = 2.0 * rng() - 1.0;
            let phi = 2.0 * std::f32::consts::PI * rng();
            let r = (1.0 - z * z).max(0.0).sqrt();
            let d = Vec3::new(r * phi.cos(), r * phi.sin(), z);
            eval_basis(1, d, &mut basis);
            for (s, b) in sum.iter_mut().zip(basis.iter()) {
                *s += *b as f64;
            }
        }
        for s in &sum[1..] {
            assert!((s / n as f64).abs() < 0.02, "band-1 mean not ~0: {s}");
        }
    }

    proptest! {
        #[test]
        fn basis_is_bounded(dx in -1.0f32..1.0, dy in -1.0f32..1.0, dz in -1.0f32..1.0) {
            let d = Vec3::new(dx, dy, dz);
            prop_assume!(d.length() > 1e-3);
            let mut basis = [0.0f32; MAX_COEFFS];
            eval_basis(3, d.normalized(), &mut basis);
            for b in basis {
                prop_assert!(b.abs() < 3.0, "basis value out of expected bound: {b}");
            }
        }

        #[test]
        fn eval_color_never_negative(
            dx in -1.0f32..1.0, dy in -1.0f32..1.0, dz in -1.0f32..1.0,
            coeffs in proptest::collection::vec(-2.0f32..2.0, 48),
        ) {
            let d = Vec3::new(dx, dy, dz);
            prop_assume!(d.length() > 1e-3);
            let c = eval_color(3, d, &coeffs);
            prop_assert!(c.x >= 0.0 && c.y >= 0.0 && c.z >= 0.0);
        }

        /// A level's color from a shared basis is the color of its
        /// DC-substituted coefficients, bit for bit, at every degree and for
        /// a zero-length view direction (whose basis has no direction).
        #[test]
        fn color_from_basis_is_eval_color_with_dc_substituted(
            degree in 0usize..4,
            dx in -1.0f32..1.0, dy in -1.0f32..1.0, dz in -1.0f32..1.0,
            zero_dir in proptest::bool::ANY,
            dc in proptest::array::uniform3(-2.0f32..2.0),
            coeffs in proptest::collection::vec(-2.0f32..2.0, 48),
        ) {
            let view_dir = if zero_dir { Vec3::zero() } else { Vec3::new(dx, dy, dz) };
            let mut basis = [0.0f32; MAX_COEFFS];
            eval_basis(degree, view_dir.normalized(), &mut basis);
            let shared = color_from_basis(degree, &basis, dc, &coeffs);
            let mut substituted = coeffs.clone();
            substituted[..3].copy_from_slice(&dc);
            let direct = eval_color(degree, view_dir, &substituted);
            prop_assert_eq!(
                [shared.x.to_bits(), shared.y.to_bits(), shared.z.to_bits()],
                [direct.x.to_bits(), direct.y.to_bits(), direct.z.to_bits()]
            );
        }
    }
}
