//! The Gaussian point-cloud model (SoA layout).

use ms_math::{sh, Aabb3, Quat, Vec3};
use serde::{Deserialize, Serialize};

/// Serialized bytes per point at full SH degree 3:
/// position (12) + scale (12) + rotation (16) + opacity (4) + 48 SH floats
/// (192) = 236 bytes. Matches the ~233 B/point implied by the paper's 1.4 GB
/// bicycle checkpoint at ~6 M points.
pub const BYTES_PER_POINT_FULL: usize = 12 + 12 + 16 + 4 + 3 * sh::MAX_COEFFS * 4;

/// A read-only view of a single Gaussian point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianPoint<'a> {
    /// World-space center.
    pub position: Vec3,
    /// Per-axis ellipsoid scales (standard deviations, world units).
    pub scale: Vec3,
    /// Orientation.
    pub rotation: Quat,
    /// Opacity in `[0, 1]`.
    pub opacity: f32,
    /// SH color coefficients, `3 * coeff_count(degree)` floats.
    pub sh: &'a [f32],
}

/// A trained PBNR model: a set of Gaussian points in SoA layout.
///
/// All PBNR variants in this workspace — dense 3DGS-style models, pruned
/// models, and the per-level foveation models — are instances of this type;
/// foveation metadata (quality bounds, multi-versioned parameters) lives in
/// `ms-fov` and references points by index.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GaussianModel {
    /// World-space centers, one per point.
    pub positions: Vec<Vec3>,
    /// Per-axis scales (σ, world units), one per point.
    pub scales: Vec<Vec3>,
    /// Orientations, one per point.
    pub rotations: Vec<Quat>,
    /// Opacities in `[0, 1]`, one per point.
    pub opacities: Vec<f32>,
    /// Flattened SH coefficients: `3 * coeff_count(sh_degree)` per point,
    /// channel-interleaved (`[c0_r, c0_g, c0_b, c1_r, ...]`).
    pub sh_coeffs: Vec<f32>,
    /// SH degree in `0..=3`.
    pub sh_degree: usize,
}

impl GaussianModel {
    /// An empty model at the given SH degree.
    ///
    /// # Panics
    ///
    /// Panics if `sh_degree > ms_math::sh::MAX_DEGREE`.
    pub fn new(sh_degree: usize) -> Self {
        assert!(sh_degree <= sh::MAX_DEGREE);
        Self {
            positions: Vec::new(),
            scales: Vec::new(),
            rotations: Vec::new(),
            opacities: Vec::new(),
            sh_coeffs: Vec::new(),
            sh_degree,
        }
    }

    /// Number of SH floats stored per point.
    #[inline]
    pub fn sh_stride(&self) -> usize {
        3 * sh::coeff_count(self.sh_degree)
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when the model holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Append a point. `sh` must have exactly [`GaussianModel::sh_stride`]
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics on an SH length mismatch.
    pub fn push(&mut self, position: Vec3, scale: Vec3, rotation: Quat, opacity: f32, sh: &[f32]) {
        assert_eq!(sh.len(), self.sh_stride(), "SH coefficient count mismatch");
        self.positions.push(position);
        self.scales.push(scale);
        self.rotations.push(rotation);
        self.opacities.push(opacity);
        self.sh_coeffs.extend_from_slice(sh);
    }

    /// Convenience: append a view-independent point with base color `rgb`
    /// (higher-order SH zeroed).
    pub fn push_solid(
        &mut self,
        position: Vec3,
        scale: Vec3,
        rotation: Quat,
        opacity: f32,
        rgb: Vec3,
    ) {
        let mut coeffs = vec![0.0f32; self.sh_stride()];
        let dc = sh::rgb_to_dc(rgb);
        coeffs[..3].copy_from_slice(&dc);
        self.push(position, scale, rotation, opacity, &coeffs);
    }

    /// View of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn point(&self, i: usize) -> GaussianPoint<'_> {
        let stride = self.sh_stride();
        GaussianPoint {
            position: self.positions[i],
            scale: self.scales[i],
            rotation: self.rotations[i],
            opacity: self.opacities[i],
            sh: &self.sh_coeffs[i * stride..(i + 1) * stride],
        }
    }

    /// Mutable access to the SH coefficients of point `i`.
    pub fn sh_mut(&mut self, i: usize) -> &mut [f32] {
        let stride = self.sh_stride();
        &mut self.sh_coeffs[i * stride..(i + 1) * stride]
    }

    /// SH coefficients of point `i`.
    pub fn sh(&self, i: usize) -> &[f32] {
        let stride = self.sh_stride();
        &self.sh_coeffs[i * stride..(i + 1) * stride]
    }

    /// The world-space 3σ bounding box of all points, or `None` when empty.
    pub fn bounding_box(&self) -> Option<Aabb3> {
        if self.is_empty() {
            return None;
        }
        let mut bb = Aabb3::new(self.positions[0], self.positions[0]);
        for i in 0..self.len() {
            let r = self.scales[i].max_component() * 3.0;
            let p = self.positions[i];
            bb.min = bb.min.min(p - Vec3::splat(r));
            bb.max = bb.max.max(p + Vec3::splat(r));
        }
        Some(bb)
    }

    /// Build a new model containing only the points at `indices`
    /// (order-preserving, duplicates allowed). This is the primitive the
    /// pruning pipeline and FR subsetting build on.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Self {
        let stride = self.sh_stride();
        let mut out = Self::new(self.sh_degree);
        out.positions.reserve(indices.len());
        out.scales.reserve(indices.len());
        out.rotations.reserve(indices.len());
        out.opacities.reserve(indices.len());
        out.sh_coeffs.reserve(indices.len() * stride);
        for &i in indices {
            out.positions.push(self.positions[i]);
            out.scales.push(self.scales[i]);
            out.rotations.push(self.rotations[i]);
            out.opacities.push(self.opacities[i]);
            out.sh_coeffs
                .extend_from_slice(&self.sh_coeffs[i * stride..(i + 1) * stride]);
        }
        out
    }

    /// Copy the points in `range` into `into`, replacing its contents.
    ///
    /// `into` is reinitialized to this model's SH degree but keeps its
    /// allocations, so a caller looping over ranges (the chunked
    /// [`crate::SceneSource`] path) reuses one buffer instead of allocating
    /// per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn clone_range_into(&self, range: std::ops::Range<usize>, into: &mut GaussianModel) {
        assert!(range.end <= self.len(), "range out of bounds");
        let stride = self.sh_stride();
        into.sh_degree = self.sh_degree;
        into.positions.clear();
        into.scales.clear();
        into.rotations.clear();
        into.opacities.clear();
        into.sh_coeffs.clear();
        into.positions
            .extend_from_slice(&self.positions[range.clone()]);
        into.scales.extend_from_slice(&self.scales[range.clone()]);
        into.rotations
            .extend_from_slice(&self.rotations[range.clone()]);
        into.opacities
            .extend_from_slice(&self.opacities[range.clone()]);
        into.sh_coeffs
            .extend_from_slice(&self.sh_coeffs[range.start * stride..range.end * stride]);
    }

    /// Append every point of `other` to this model.
    ///
    /// # Panics
    ///
    /// Panics when the SH degrees differ.
    pub fn extend_from(&mut self, other: &GaussianModel) {
        assert_eq!(self.sh_degree, other.sh_degree, "SH degree mismatch");
        self.positions.extend_from_slice(&other.positions);
        self.scales.extend_from_slice(&other.scales);
        self.rotations.extend_from_slice(&other.rotations);
        self.opacities.extend_from_slice(&other.opacities);
        self.sh_coeffs.extend_from_slice(&other.sh_coeffs);
    }

    /// Serialized size in bytes (what a stored checkpoint of this model
    /// occupies); see [`BYTES_PER_POINT_FULL`].
    pub fn storage_bytes(&self) -> usize {
        let per_point = 12 + 12 + 16 + 4 + self.sh_stride() * 4;
        self.len() * per_point
    }

    /// Largest ellipse span of point `i` in any direction — the paper's
    /// point scale `Sᵢ` in the Weighted-Scale metric (Eqn. 4): the maximum
    /// axis σ times the 3σ splat extent convention.
    pub fn point_extent(&self, i: usize) -> f32 {
        self.scales[i].max_component() * 3.0
    }

    /// Sanity-check internal invariants (vector lengths agree, opacities in
    /// range, scales positive and finite). Used by tests and after
    /// deserialization.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.len();
        if self.scales.len() != n
            || self.rotations.len() != n
            || self.opacities.len() != n
            || self.sh_coeffs.len() != n * self.sh_stride()
        {
            return Err(format!(
                "inconsistent SoA lengths: pos={n} scale={} rot={} opa={} sh={} (stride {})",
                self.scales.len(),
                self.rotations.len(),
                self.opacities.len(),
                self.sh_coeffs.len(),
                self.sh_stride()
            ));
        }
        for (i, &o) in self.opacities.iter().enumerate() {
            if !(0.0..=1.0).contains(&o) || !o.is_finite() {
                return Err(format!("opacity {o} out of [0,1] at point {i}"));
            }
        }
        for (i, s) in self.scales.iter().enumerate() {
            if !(s.x > 0.0 && s.y > 0.0 && s.z > 0.0 && s.is_finite()) {
                return Err(format!("non-positive scale {s} at point {i}"));
            }
        }
        for (i, p) in self.positions.iter().enumerate() {
            if !p.is_finite() {
                return Err(format!("non-finite position at point {i}"));
            }
        }
        Ok(())
    }
}

impl Extend<(Vec3, Vec3, Quat, f32, Vec<f32>)> for GaussianModel {
    fn extend<T: IntoIterator<Item = (Vec3, Vec3, Quat, f32, Vec<f32>)>>(&mut self, iter: T) {
        for (p, s, r, o, sh) in iter {
            self.push(p, s, r, o, &sh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> GaussianModel {
        let mut m = GaussianModel::new(1);
        m.push_solid(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::splat(0.1),
            Quat::identity(),
            0.9,
            Vec3::new(1.0, 0.0, 0.0),
        );
        m.push_solid(
            Vec3::new(1.0, 2.0, 3.0),
            Vec3::new(0.1, 0.2, 0.3),
            Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.0), 0.5),
            0.5,
            Vec3::new(0.0, 1.0, 0.0),
        );
        m
    }

    #[test]
    fn push_and_point_roundtrip() {
        let m = sample_model();
        assert_eq!(m.len(), 2);
        let p = m.point(1);
        assert_eq!(p.position, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(p.opacity, 0.5);
        assert_eq!(p.sh.len(), m.sh_stride());
        m.validate().unwrap();
    }

    #[test]
    fn subset_preserves_order_and_data() {
        let m = sample_model();
        let s = m.subset(&[1, 0, 1]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.point(0).position, m.point(1).position);
        assert_eq!(s.point(1).position, m.point(0).position);
        assert_eq!(s.point(2).sh, m.point(1).sh);
        s.validate().unwrap();
    }

    #[test]
    fn storage_bytes_full_degree() {
        let mut m = GaussianModel::new(3);
        m.push_solid(
            Vec3::zero(),
            Vec3::splat(0.1),
            Quat::identity(),
            1.0,
            Vec3::one(),
        );
        assert_eq!(m.storage_bytes(), BYTES_PER_POINT_FULL);
    }

    #[test]
    fn bounding_box_includes_extent() {
        let m = sample_model();
        let bb = m.bounding_box().unwrap();
        assert!(bb.min.x <= -0.3);
        assert!(bb.max.z >= 3.9 - 1e-5);
        assert!(GaussianModel::new(0).bounding_box().is_none());
    }

    #[test]
    fn validate_catches_bad_opacity() {
        let mut m = sample_model();
        m.opacities[0] = 1.5;
        assert!(m.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_scale() {
        let mut m = sample_model();
        m.scales[1] = Vec3::new(0.0, 0.1, 0.1);
        assert!(m.validate().is_err());
    }

    #[test]
    #[should_panic]
    fn push_rejects_wrong_sh_len() {
        let mut m = GaussianModel::new(2);
        m.push(Vec3::zero(), Vec3::one(), Quat::identity(), 0.5, &[0.0; 3]);
    }

    #[test]
    fn point_extent_uses_max_axis() {
        let m = sample_model();
        assert!((m.point_extent(1) - 0.9).abs() < 1e-6);
    }

    #[test]
    fn clone_range_into_reuses_buffer() {
        let m = sample_model();
        let mut buf = GaussianModel::new(3);
        m.clone_range_into(1..2, &mut buf);
        assert_eq!(buf.sh_degree, m.sh_degree);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.point(0).position, m.point(1).position);
        assert_eq!(buf.point(0).sh, m.point(1).sh);
        buf.validate().unwrap();
        // Second fill with a different range reuses the same buffer.
        m.clone_range_into(0..2, &mut buf);
        assert_eq!(buf, m);
    }

    #[test]
    fn extend_from_concatenates() {
        let m = sample_model();
        let mut a = GaussianModel::new(m.sh_degree);
        let mut chunk = GaussianModel::new(m.sh_degree);
        m.clone_range_into(0..1, &mut chunk);
        a.extend_from(&chunk);
        m.clone_range_into(1..2, &mut chunk);
        a.extend_from(&chunk);
        assert_eq!(a, m);
    }
}
