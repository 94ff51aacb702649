//! The FR baselines of §7.4: SMFR and MMFR.
//!
//! * **SMFR** (Single-Model FR): one dense model; lower-quality regions are
//!   rendered by *randomly sampling* its points — effectively strict
//!   subsetting with no multi-versioning. Fastest, cheapest storage, but the
//!   peripheral quality collapses (its L4 HVSQ is >10× worse, Tbl. 1).
//! * **MMFR** (Multi-Model FR, after Fov-NeRF): each level is an
//!   *independent* model pruned separately from L1 — no subsetting, so all
//!   parameters are per-level. Best peripheral HVSQ but pays the projection
//!   overhead of evaluating every model and nearly 2× storage.

use crate::model::{FoveatedModel, LevelParams};
use crate::render::{FovRenderOutput, FoveatedRenderer};
use ms_hvs::QualityRegions;
use ms_math::Vec2;
use ms_render::{project_model_offset_into, Image, StageKind, StageSample};
use ms_scene::{Camera, GaussianModel};
use ms_train::ce::{compute_ce, CeOptions};
use ms_train::finetune::{FineTuneConfig, FineTuner};
use ms_train::prune::prune_lowest;
use std::time::Instant;

/// Build an SMFR model: strict subsetting of `l1` by **random sampling**
/// (no CE, no multi-versioning). Level point counts follow
/// `level_fractions` like [`crate::FrBuildConfig`].
///
/// # Panics
///
/// Panics when fractions don't match the regions or are invalid.
pub fn build_smfr(
    l1: &GaussianModel,
    regions: QualityRegions,
    level_fractions: &[f32],
    seed: u64,
) -> FoveatedModel {
    assert_eq!(level_fractions.len(), regions.level_count());
    assert!((level_fractions[0] - 1.0).abs() < 1e-6);
    let n = l1.len();
    let levels = regions.level_count();

    // Deterministic shuffle via splitmix-ish hashing.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        let mut h = (i as u64)
            .wrapping_add(seed)
            .wrapping_mul(0x9E3779B97F4A7C15);
        h ^= h >> 31;
        h = h.wrapping_mul(0xBF58476D1CE4E5B9);
        h ^ (h >> 29)
    });

    let mut quality_bound = vec![0u8; n];
    for (l, &frac) in level_fractions.iter().enumerate().take(levels).skip(1) {
        let keep = ((n as f32) * frac).round().max(1.0) as usize;
        for &i in order.iter().take(keep) {
            quality_bound[i] = l as u8;
        }
    }

    // No multi-versioning: every level reads the base parameters.
    let base_params = LevelParams {
        opacity: l1.opacities.clone(),
        dc: (0..n)
            .map(|i| {
                let sh = l1.sh(i);
                [sh[0], sh[1], sh[2]]
            })
            .collect(),
    };
    let level_params = vec![base_params; levels - 1];
    FoveatedModel::new(l1.clone(), quality_bound, level_params, regions)
}

/// An MMFR model: independent per-level models (no parameter sharing).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiModelFr {
    /// One model per quality level; `models[0]` is the L1 model.
    pub models: Vec<GaussianModel>,
    /// The quality regions.
    pub regions: QualityRegions,
}

impl MultiModelFr {
    /// Total storage: the sum over all level models — the multi-model
    /// penalty (Tbl. 1 reports 1.92× the SMFR storage).
    pub fn storage_bytes(&self) -> usize {
        self.models.iter().map(|m| m.storage_bytes()).sum()
    }

    /// Point count per level.
    pub fn level_point_counts(&self) -> Vec<usize> {
        self.models.iter().map(|m| m.len()).collect()
    }
}

/// Build an MMFR model: each level pruned from `l1` by CE to its fraction
/// and fine-tuned independently (all parameters free).
///
/// # Panics
///
/// Panics on invalid fractions or camera/reference mismatch.
pub fn build_mmfr(
    l1: &GaussianModel,
    cameras: &[Camera],
    references: &[Image],
    regions: QualityRegions,
    level_fractions: &[f32],
    finetune: Option<&FineTuneConfig>,
    ce: &CeOptions,
) -> MultiModelFr {
    assert_eq!(level_fractions.len(), regions.level_count());
    assert_eq!(cameras.len(), references.len());
    let n = l1.len();
    let mut models = Vec::with_capacity(regions.level_count());
    models.push(l1.clone());
    let ce_scores = compute_ce(l1, cameras, ce);
    for &frac in &level_fractions[1..] {
        let target = ((n as f32) * frac).round().max(1.0) as usize;
        let (mut m, _) = prune_lowest(l1, &ce_scores, n.saturating_sub(target));
        if let Some(ft) = finetune {
            let mut tuner = FineTuner::new(ft.clone(), m.len());
            tuner.run(&mut m, cameras, references);
        }
        models.push(m);
    }
    MultiModelFr { models, regions }
}

/// Render an MMFR model. Projection cost is accounted **per level** — every
/// independent model must run Projection and Filtering (§4.1, Challenge 1),
/// all timed as the frame's one Project sample. The levels index the
/// models' points one after another, so `points_submitted` is their sum
/// and each level's is its model's length.
pub fn render_mmfr(
    renderer: &FoveatedRenderer,
    model: &MultiModelFr,
    camera: &Camera,
    gaze: Option<Vec2>,
) -> FovRenderOutput {
    let start = Instant::now();
    let mut projected: Vec<Vec<_>> = vec![Vec::new(); model.models.len()];
    let mut points = 0;
    for (m, splats) in model.models.iter().zip(&mut projected) {
        project_model_offset_into(m, camera, renderer.options(), points as u32, splats);
        points += m.len();
    }
    let project = StageSample {
        kind: StageKind::Project,
        wall: start.elapsed(),
        items: projected.iter().map(|splats| splats.len() as u64).sum(),
    };
    let mut out = renderer.render_levels(&projected, points, &model.regions, camera, gaze, project);
    for (stats, m) in out.per_level_stats.iter_mut().zip(&model.models) {
        stats.points_submitted = m.len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_render::Renderer;
    use ms_scene::dataset::TraceId;

    fn setup() -> (GaussianModel, Vec<Camera>, Vec<Image>) {
        let scene = TraceId::by_name("playroom")
            .unwrap()
            .build_scene_with_scale(0.005);
        let cameras: Vec<Camera> = scene
            .train_cameras
            .iter()
            .step_by(12)
            .take(2)
            .map(|c| Camera {
                width: 80,
                height: 60,
                ..*c
            })
            .collect();
        let renderer = Renderer::default();
        let references: Vec<Image> = cameras
            .iter()
            .map(|c| renderer.render(&scene.model, c).image)
            .collect();
        (scene.model, cameras, references)
    }

    const FRACTIONS: [f32; 4] = [1.0, 0.55, 0.30, 0.16];

    #[test]
    fn smfr_matches_level_counts_and_has_no_overhead() {
        let (l1, _, _) = setup();
        let smfr = build_smfr(&l1, QualityRegions::paper_default(), &FRACTIONS, 7);
        let counts = smfr.level_point_counts();
        assert_eq!(counts[0], l1.len());
        for (l, &f) in FRACTIONS.iter().enumerate().skip(1) {
            let expected = (l1.len() as f32 * f).round() as usize;
            assert!((counts[l] as i64 - expected as i64).unsigned_abs() <= 1);
        }
        // Note: the FoveatedModel accounting charges version slots even when
        // values equal the base; a real SMFR pays none. What matters here is
        // that the subset structure itself adds no point storage.
        assert_eq!(
            smfr.base().storage_bytes(),
            l1.storage_bytes(),
            "subsetting must not duplicate points"
        );
    }

    #[test]
    fn smfr_is_deterministic_per_seed() {
        let (l1, _, _) = setup();
        let a = build_smfr(&l1, QualityRegions::paper_default(), &FRACTIONS, 1);
        let b = build_smfr(&l1, QualityRegions::paper_default(), &FRACTIONS, 1);
        let c = build_smfr(&l1, QualityRegions::paper_default(), &FRACTIONS, 2);
        assert_eq!(a.quality_bounds(), b.quality_bounds());
        assert_ne!(a.quality_bounds(), c.quality_bounds());
    }

    #[test]
    fn mmfr_storage_exceeds_subsetting() {
        let (l1, cams, refs) = setup();
        let mmfr = build_mmfr(
            &l1,
            &cams,
            &refs,
            QualityRegions::paper_default(),
            &FRACTIONS,
            None,
            &CeOptions::default(),
        );
        let smfr = build_smfr(&l1, QualityRegions::paper_default(), &FRACTIONS, 3);
        // MMFR stores every level separately: Σ fractions ≈ 2× the base.
        let expected_ratio = FRACTIONS.iter().sum::<f32>();
        let actual_ratio = mmfr.storage_bytes() as f32 / l1.storage_bytes() as f32;
        assert!(
            (actual_ratio - expected_ratio).abs() < 0.05,
            "ratio {actual_ratio}"
        );
        assert!(mmfr.storage_bytes() > smfr.storage_bytes());
    }

    #[test]
    fn mmfr_projection_cost_is_per_level() {
        let (l1, cams, refs) = setup();
        let regions = QualityRegions::paper_default();
        let mmfr = build_mmfr(
            &l1,
            &cams,
            &refs,
            regions.clone(),
            &FRACTIONS,
            None,
            &CeOptions::default(),
        );
        let smfr = build_smfr(&l1, regions, &FRACTIONS, 3);
        let fr = FoveatedRenderer::default();
        let out_mm = render_mmfr(&fr, &mmfr, &cams[0], None);
        let out_sm = fr.render(&smfr, &cams[0], None);
        assert!(
            out_mm.stats.points_submitted > out_sm.stats.points_submitted,
            "MMFR must project every level's model: {} vs {}",
            out_mm.stats.points_submitted,
            out_sm.stats.points_submitted
        );
    }

    #[test]
    fn mmfr_renders_full_image() {
        let (l1, cams, refs) = setup();
        let mmfr = build_mmfr(
            &l1,
            &cams,
            &refs,
            QualityRegions::paper_default(),
            &FRACTIONS,
            None,
            &CeOptions::default(),
        );
        let out = render_mmfr(&FoveatedRenderer::default(), &mmfr, &cams[0], None);
        assert_eq!(out.image.width(), 80);
        assert_eq!(out.per_level_stats.len(), 4);
    }
}
