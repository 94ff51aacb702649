//! The hierarchical foveated model representation (Fig. 7 C–D).

use ms_hvs::QualityRegions;
use ms_scene::GaussianModel;
use serde::{Deserialize, Serialize};

/// Multi-versioned parameters of one quality level (levels ≥ 1; level 0
/// uses the base model's parameters directly).
///
/// Only Opacity and the SH DC component are versioned — "these four
/// parameters [opacity + 3 DC coefficients] are empirically found to impact
/// the pixel colors the most" (§4.2). Entries are indexed by base-model
/// point index and are only meaningful for points whose quality bound
/// admits them to this level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelParams {
    /// Per-point opacity override.
    pub opacity: Vec<f32>,
    /// Per-point SH-DC override (RGB DC coefficients).
    pub dc: Vec<[f32; 3]>,
}

/// A foveated PBNR model: L1 base + subset hierarchy + multi-versioned
/// parameters.
///
/// Invariants (checked by [`FoveatedModel::validate`]):
/// * points of level `ℓ+1` are a strict subset of level `ℓ`'s
///   (monotone quality bounds),
/// * level 0 contains every point,
/// * per-level parameter vectors are base-length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoveatedModel {
    /// The L1 (level-0) model carrying all shared parameters.
    base: GaussianModel,
    /// `quality_bound[i]` = highest level index (0-based) that still uses
    /// point `i` (the paper's `m`, Fig. 7-C).
    quality_bound: Vec<u8>,
    /// Multi-versioned parameters for levels `1..level_count`.
    level_params: Vec<LevelParams>,
    /// Eccentricity regions the levels map to.
    regions: QualityRegions,
}

impl FoveatedModel {
    /// Assemble a foveated model.
    ///
    /// `level_params[ℓ-1]` carries the overrides for level `ℓ`. Pass
    /// base-model copies to express "no override" for a level.
    ///
    /// # Panics
    ///
    /// Panics when the invariants fail (see [`FoveatedModel::validate`]).
    pub fn new(
        base: GaussianModel,
        quality_bound: Vec<u8>,
        level_params: Vec<LevelParams>,
        regions: QualityRegions,
    ) -> Self {
        let out = Self {
            base,
            quality_bound,
            level_params,
            regions,
        };
        out.validate().expect("invalid foveated model");
        out
    }

    /// Check structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.base.len();
        if self.quality_bound.len() != n {
            return Err("quality_bound length mismatch".into());
        }
        let levels = self.level_count();
        if levels == 0 {
            return Err("need at least one level".into());
        }
        for (i, &b) in self.quality_bound.iter().enumerate() {
            if b as usize >= levels {
                return Err(format!("point {i} bound {b} exceeds level count {levels}"));
            }
        }
        if self.level_params.len() != levels - 1 {
            return Err(format!(
                "expected {} level-param sets, got {}",
                levels - 1,
                self.level_params.len()
            ));
        }
        for (l, p) in self.level_params.iter().enumerate() {
            if p.opacity.len() != n || p.dc.len() != n {
                return Err(format!("level {} params wrong length", l + 1));
            }
        }
        self.base.validate()
    }

    /// Number of quality levels (paper uses 4).
    pub fn level_count(&self) -> usize {
        self.regions.level_count()
    }

    /// The quality regions this model renders into.
    pub fn regions(&self) -> &QualityRegions {
        &self.regions
    }

    /// The base (L1) model.
    pub fn base(&self) -> &GaussianModel {
        &self.base
    }

    /// Per-point quality bounds.
    pub fn quality_bounds(&self) -> &[u8] {
        &self.quality_bound
    }

    /// Multi-versioned parameters of level `l >= 1`.
    pub(crate) fn level_params(&self, l: usize) -> &LevelParams {
        &self.level_params[l - 1]
    }

    /// Build the standalone model of level `l` (0 = highest quality): the
    /// points its quality bound admits, in base order, with that level's
    /// opacity and DC. The foveated renderer never builds it — it derives
    /// each level from one shared projection of the base model — but the
    /// result is the reference that derivation must equal.
    ///
    /// # Panics
    ///
    /// Panics when `l >= level_count`.
    pub fn level_model(&self, l: usize) -> GaussianModel {
        assert!(l < self.level_count(), "level {l} out of range");
        let indices: Vec<usize> = (0..self.base.len())
            .filter(|&i| self.quality_bound[i] as usize >= l)
            .collect();
        let mut m = self.base.subset(&indices);
        if l >= 1 {
            let params = self.level_params(l);
            let stride = m.sh_stride();
            for (new_i, &old_i) in indices.iter().enumerate() {
                m.opacities[new_i] = params.opacity[old_i];
                m.sh_coeffs[new_i * stride..new_i * stride + 3].copy_from_slice(&params.dc[old_i]);
            }
        }
        m
    }

    /// Point count per level (non-increasing by the subset invariant).
    pub fn level_point_counts(&self) -> Vec<usize> {
        (0..self.level_count())
            .map(|l| {
                self.quality_bound
                    .iter()
                    .filter(|&&b| b as usize >= l)
                    .count()
            })
            .collect()
    }

    /// Total storage in bytes: the base model plus the multi-versioned
    /// parameters (4 floats per point per *extra* level it participates in).
    /// This is the paper's "about 6%" overhead accounting (§7.4): unlike
    /// MMFR, subsetting stores each point once.
    pub fn storage_bytes(&self) -> usize {
        let base = self.base.storage_bytes();
        let mut extra_versions = 0usize;
        for &b in &self.quality_bound {
            extra_versions += b as usize; // one extra version per level ≥ 1
        }
        base + extra_versions * 4 * 4 // opacity + 3 DC floats
    }

    /// Multi-versioning overhead relative to the base model.
    pub fn storage_overhead(&self) -> f32 {
        let base = self.base.storage_bytes();
        if base == 0 {
            return 0.0;
        }
        (self.storage_bytes() - base) as f32 / base as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_math::{Quat, Vec3};

    fn base_model(n: usize) -> GaussianModel {
        let mut m = GaussianModel::new(3);
        for i in 0..n {
            m.push_solid(
                Vec3::new(i as f32 * 0.1, 0.0, 0.0),
                Vec3::splat(0.1),
                Quat::identity(),
                0.5,
                Vec3::new(0.5, 0.5, 0.5),
            );
        }
        m
    }

    fn no_override(base: &GaussianModel) -> LevelParams {
        LevelParams {
            opacity: base.opacities.clone(),
            dc: (0..base.len())
                .map(|i| {
                    let sh = base.sh(i);
                    [sh[0], sh[1], sh[2]]
                })
                .collect(),
        }
    }

    fn sample() -> FoveatedModel {
        let base = base_model(8);
        // Bounds: 8 points, half drop out at each level.
        let bounds = vec![3, 3, 2, 2, 1, 1, 0, 0];
        let params = vec![no_override(&base), no_override(&base), no_override(&base)];
        FoveatedModel::new(base, bounds, params, QualityRegions::paper_default())
    }

    #[test]
    fn level_counts_are_monotone_subsets() {
        let fm = sample();
        let counts = fm.level_point_counts();
        assert_eq!(counts, vec![8, 6, 4, 2]);
        // Each level's model holds exactly the points its bound admits.
        for (l, &count) in counts.iter().enumerate() {
            assert_eq!(fm.level_model(l).len(), count);
        }
    }

    #[test]
    fn level_zero_contains_all_points() {
        let fm = sample();
        assert_eq!(fm.level_model(0).len(), fm.base().len());
    }

    #[test]
    fn storage_overhead_counts_extra_versions() {
        let fm = sample();
        // Extra versions = sum of bounds = 3+3+2+2+1+1 = 12 → 12·16 bytes.
        let expected_extra = 12 * 16;
        assert_eq!(
            fm.storage_bytes() - fm.base().storage_bytes(),
            expected_extra
        );
        // Overhead stays small relative to a full-SH model (the paper's
        // ~6% figure assumes most points bound out at L1; here the bound
        // distribution is deliberately uniform, so allow more headroom).
        assert!(
            fm.storage_overhead() < 0.15,
            "overhead {}",
            fm.storage_overhead()
        );
    }

    #[test]
    fn level_params_override_opacity_and_dc() {
        let base = base_model(4);
        let bounds = vec![1, 1, 0, 0];
        let mut p = no_override(&base);
        p.opacity = vec![0.9; 4];
        p.dc = vec![[1.0, 2.0, 3.0]; 4];
        let fm = FoveatedModel::new(
            base,
            bounds,
            vec![p, no_override(&base_model(4)), no_override(&base_model(4))],
            QualityRegions::paper_default(),
        );
        let l1 = fm.level_model(1);
        assert_eq!(l1.len(), 2);
        assert_eq!(l1.opacities[0], 0.9);
        assert_eq!(&l1.sh(0)[..3], &[1.0, 2.0, 3.0]);
        // Base model untouched.
        assert_eq!(fm.level_model(0).opacities[0], 0.5);
    }

    #[test]
    #[should_panic]
    fn bound_exceeding_levels_panics() {
        let base = base_model(2);
        let p = no_override(&base);
        let _ = FoveatedModel::new(
            base,
            vec![7, 0],
            vec![p.clone(), p.clone(), p],
            QualityRegions::paper_default(),
        );
    }

    #[test]
    #[should_panic]
    fn wrong_param_count_panics() {
        let base = base_model(2);
        let p = no_override(&base);
        let _ = FoveatedModel::new(base, vec![0, 0], vec![p], QualityRegions::paper_default());
    }
}
