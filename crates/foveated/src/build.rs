//! Building a foveated model from an L1 model (paper §4.3).
//!
//! "We first train the highest-quality L1 model ... We then prune a L1 model
//! to obtain a L2 model, which is pruned down to obtain a L3 model; this
//! continues until the desired level is achieved." Each level's
//! multi-versioned parameters (Opacity, SH-DC) are fine-tuned while shared
//! parameters — including scales — stay frozen ("during iterative
//! re-training we do not apply scale decay, because an ellipse scale is not
//! part of the multi-versioned parameters").

use crate::model::{FoveatedModel, LevelParams};
use ms_hvs::QualityRegions;
use ms_render::Image;
use ms_scene::{Camera, GaussianModel};
use ms_train::ce::{compute_ce, CeOptions};
use ms_train::finetune::{FineTuneConfig, FineTuner};
use ms_train::prune::prune_lowest;
use serde::{Deserialize, Serialize};

/// Configuration of the level-construction procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrBuildConfig {
    /// Eccentricity regions (one level per region).
    pub regions: QualityRegions,
    /// Point budget of each level as a fraction of the L1 point count.
    /// Must start at 1.0 and decrease. The defaults keep enough peripheral
    /// coverage for the multi-versioned fine-tuning to restore pooled
    /// feature statistics (the metamerism HVS-guided training targets);
    /// pruning much deeper opens holes no opacity retuning can fill.
    pub level_fractions: Vec<f32>,
    /// Per-level fine-tuning of the multi-versioned parameters (`None`
    /// skips tuning — the SMFR-like fast path used in unit tests).
    pub finetune: Option<FineTuneConfig>,
    /// CE options for the per-level pruning.
    pub ce: CeOptions,
}

impl Default for FrBuildConfig {
    fn default() -> Self {
        Self {
            regions: QualityRegions::paper_default(),
            level_fractions: vec![1.0, 0.65, 0.45, 0.30],
            finetune: Some(FineTuneConfig {
                iterations: 12,
                scale_decay: None,
                ..FineTuneConfig::default()
            }),
            ce: CeOptions::default(),
        }
    }
}

impl FrBuildConfig {
    /// Validate fractions against the regions.
    pub fn validate(&self) -> Result<(), String> {
        if self.level_fractions.len() != self.regions.level_count() {
            return Err(format!(
                "{} fractions for {} regions",
                self.level_fractions.len(),
                self.regions.level_count()
            ));
        }
        if (self.level_fractions[0] - 1.0).abs() > 1e-6 {
            return Err("level 0 fraction must be 1.0".into());
        }
        if !self.level_fractions.windows(2).all(|w| w[1] <= w[0]) {
            return Err("fractions must be non-increasing".into());
        }
        if self.level_fractions.iter().any(|&f| f <= 0.0) {
            return Err("fractions must be positive".into());
        }
        if let Some(ft) = &self.finetune {
            if ft.scale_decay.is_some() {
                return Err("scale decay is not allowed in level training (§4.3)".into());
            }
        }
        Ok(())
    }
}

/// Build a foveated model from a (pruned, scale-decayed) L1 model.
///
/// `references` are ground-truth images for `cameras` (typically dense-model
/// renders); they anchor the per-level fine-tuning.
///
/// # Panics
///
/// Panics on invalid configuration or camera/reference mismatch.
pub fn build_foveated(
    l1: &GaussianModel,
    cameras: &[Camera],
    references: &[Image],
    config: &FrBuildConfig,
) -> FoveatedModel {
    config.validate().expect("invalid FR build config");
    assert_eq!(cameras.len(), references.len());
    assert!(!cameras.is_empty());

    let levels = config.regions.level_count();
    let n = l1.len();
    let mut quality_bound = vec![0u8; n];
    let mut level_params: Vec<LevelParams> = Vec::with_capacity(levels - 1);

    // Working state: the current level's model and its base-index mapping.
    let mut current_model = l1.clone();
    let mut current_base_indices: Vec<usize> = (0..n).collect();

    for l in 1..levels {
        let target = ((n as f32) * config.level_fractions[l]).round().max(1.0) as usize;
        let remove = current_model.len().saturating_sub(target);

        // Prune by CE within the current level's model.
        let ce = compute_ce(&current_model, cameras, &config.ce);
        let (mut next_model, kept_local) = prune_lowest(&current_model, &ce, remove);
        let next_base_indices: Vec<usize> = kept_local
            .iter()
            .map(|&k| current_base_indices[k])
            .collect();

        // Survivors reach level l.
        for &bi in &next_base_indices {
            quality_bound[bi] = l as u8;
        }

        // Fine-tune the multi-versioned parameters of this level.
        if let Some(ft) = &config.finetune {
            let mut tuner = FineTuner::new(ft.clone(), next_model.len());
            tuner.run(&mut next_model, cameras, references);
        }

        // Record full-length parameter vectors for this level (entries for
        // non-member points default to the base values — they are never
        // read because the quality bound excludes those points).
        let mut opacity: Vec<f32> = l1.opacities.clone();
        let mut dc: Vec<[f32; 3]> = (0..n)
            .map(|i| {
                let sh = l1.sh(i);
                [sh[0], sh[1], sh[2]]
            })
            .collect();
        let stride = next_model.sh_stride();
        for (local, &bi) in next_base_indices.iter().enumerate() {
            opacity[bi] = next_model.opacities[local];
            let sh = &next_model.sh_coeffs[local * stride..local * stride + 3];
            dc[bi] = [sh[0], sh[1], sh[2]];
        }
        level_params.push(LevelParams { opacity, dc });

        current_model = next_model;
        current_base_indices = next_base_indices;
    }

    FoveatedModel::new(
        l1.clone(),
        quality_bound,
        level_params,
        config.regions.clone(),
    )
}

/// HVSQ-threshold-controlled level construction — the full §4.3 procedure.
///
/// Instead of fixed per-level point fractions, each level is pruned
/// iteratively (rate `prune_rate` per round) **while its own quality
/// region's HVSQ stays within `hvsq_slack` × the L1 model's HVSQ** against
/// the dense references — "we control for L_quality so that the HVSQ at
/// all quality levels is the same as that of L1 such that the human visual
/// quality is consistent across the entire visual field". After each prune
/// round the multi-versioned parameters are re-tuned; when the region HVSQ
/// exceeds the budget the previous round's point set is kept.
///
/// # Panics
///
/// Panics on camera/reference mismatch or an empty camera set.
pub fn build_foveated_hvsq(
    l1: &GaussianModel,
    cameras: &[Camera],
    references: &[Image],
    config: &FrBuildConfig,
    prune_rate: f32,
    hvsq_slack: f32,
    max_rounds: usize,
) -> FoveatedModel {
    use ms_hvs::{DisplayGeometry, EccentricityMap, Hvsq, HvsqOptions};
    use ms_render::Renderer;

    assert_eq!(cameras.len(), references.len());
    assert!(!cameras.is_empty());
    assert!(prune_rate > 0.0 && prune_rate < 1.0);

    let levels = config.regions.level_count();
    let n = l1.len();
    let boundaries = config.regions.boundaries_deg().to_vec();
    let renderer = Renderer::new(config.ce.render.clone());

    // HVSQ evaluators per camera (gaze at center, as during training).
    let evaluators: Vec<Hvsq> = cameras
        .iter()
        .map(|cam| {
            let display =
                DisplayGeometry::new(cam.width, cam.height, ms_math::rad_to_deg(cam.fovx()));
            Hvsq::with_options(
                EccentricityMap::centered(display),
                HvsqOptions {
                    stride: 2,
                    ..HvsqOptions::default()
                },
            )
        })
        .collect();
    let region_hvsq = |model: &GaussianModel, level: usize| -> f32 {
        let lo = boundaries[level];
        let hi = boundaries.get(level + 1).copied().unwrap_or(f32::INFINITY);
        let mut acc = 0.0f32;
        for ((cam, reference), hvsq) in cameras.iter().zip(references).zip(&evaluators) {
            let img = renderer.render(model, cam).image;
            acc += hvsq.evaluate(reference, &img, Some((lo, hi)));
        }
        acc / cameras.len() as f32
    };

    // The quality budget: L1's HVSQ in its own (foveal) region.
    let budget = region_hvsq(l1, 0).max(1e-9) * hvsq_slack.max(1.0);

    let mut quality_bound = vec![0u8; n];
    let mut level_params: Vec<LevelParams> = Vec::with_capacity(levels - 1);
    let mut current_model = l1.clone();
    let mut current_base_indices: Vec<usize> = (0..n).collect();

    for l in 1..levels {
        let mut accepted_model = current_model.clone();
        let mut accepted_indices = current_base_indices.clone();
        for _ in 0..max_rounds {
            if accepted_model.len() < 8 {
                break;
            }
            let ce = compute_ce(&accepted_model, cameras, &config.ce);
            let remove = ((accepted_model.len() as f32) * prune_rate).round() as usize;
            let (mut candidate, kept_local) = prune_lowest(&accepted_model, &ce, remove);
            if let Some(ft) = &config.finetune {
                let mut tuner = FineTuner::new(ft.clone(), candidate.len());
                tuner.run(&mut candidate, cameras, references);
            }
            if region_hvsq(&candidate, l) > budget {
                break; // quality breached: keep the previous round's set
            }
            accepted_indices = kept_local.iter().map(|&k| accepted_indices[k]).collect();
            accepted_model = candidate;
        }

        for &bi in &accepted_indices {
            quality_bound[bi] = l as u8;
        }
        let mut opacity: Vec<f32> = l1.opacities.clone();
        let mut dc: Vec<[f32; 3]> = (0..n)
            .map(|i| {
                let sh = l1.sh(i);
                [sh[0], sh[1], sh[2]]
            })
            .collect();
        let stride = accepted_model.sh_stride();
        for (local, &bi) in accepted_indices.iter().enumerate() {
            opacity[bi] = accepted_model.opacities[local];
            let sh = &accepted_model.sh_coeffs[local * stride..local * stride + 3];
            dc[bi] = [sh[0], sh[1], sh[2]];
        }
        level_params.push(LevelParams { opacity, dc });
        current_model = accepted_model;
        current_base_indices = accepted_indices;
    }

    FoveatedModel::new(
        l1.clone(),
        quality_bound,
        level_params,
        config.regions.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_render::Renderer;
    use ms_scene::dataset::TraceId;

    fn setup() -> (GaussianModel, Vec<Camera>, Vec<Image>) {
        let scene = TraceId::by_name("counter")
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

    #[test]
    fn build_respects_level_fractions() {
        let (l1, cams, refs) = setup();
        let config = FrBuildConfig {
            finetune: None,
            ..FrBuildConfig::default()
        };
        let fr = build_foveated(&l1, &cams, &refs, &config);
        let counts = fr.level_point_counts();
        assert_eq!(counts[0], l1.len());
        for (l, &frac) in config.level_fractions.iter().enumerate() {
            let expected = (l1.len() as f32 * frac).round() as usize;
            assert!(
                (counts[l] as i64 - expected as i64).unsigned_abs() <= 1,
                "level {l}: {} vs expected {expected}",
                counts[l]
            );
        }
    }

    #[test]
    fn subset_invariant_holds() {
        let (l1, cams, refs) = setup();
        let config = FrBuildConfig {
            finetune: None,
            ..FrBuildConfig::default()
        };
        let fr = build_foveated(&l1, &cams, &refs, &config);
        // Membership is `quality_bound >= l`, so level l+1 nests inside
        // level l; pruning must also make it strictly smaller.
        let counts = fr.level_point_counts();
        assert_eq!(counts[0], fr.base().len());
        for l in 0..fr.level_count() - 1 {
            assert!(counts[l + 1] < counts[l], "level {} not pruned", l + 1);
        }
    }

    #[test]
    fn finetuning_improves_peripheral_level() {
        let (l1, cams, refs) = setup();
        let plain = build_foveated(
            &l1,
            &cams,
            &refs,
            &FrBuildConfig {
                finetune: None,
                ..FrBuildConfig::default()
            },
        );
        let tuned = build_foveated(
            &l1,
            &cams,
            &refs,
            &FrBuildConfig {
                finetune: Some(FineTuneConfig {
                    iterations: 25,
                    scale_decay: None,
                    ..FineTuneConfig::default()
                }),
                ..FrBuildConfig::default()
            },
        );
        // The L4 model of the tuned build should approximate the reference
        // better than the un-tuned subset (multi-versioning at work).
        let renderer = Renderer::default();
        let mse_plain = renderer
            .render(&plain.level_model(3), &cams[0])
            .image
            .mse(&refs[0]);
        let mse_tuned = renderer
            .render(&tuned.level_model(3), &cams[0])
            .image
            .mse(&refs[0]);
        assert!(
            mse_tuned < mse_plain,
            "multi-version tuning should help: {mse_plain} → {mse_tuned}"
        );
    }

    #[test]
    fn storage_overhead_is_small() {
        let (l1, cams, refs) = setup();
        let config = FrBuildConfig {
            finetune: None,
            ..FrBuildConfig::default()
        };
        let fr = build_foveated(&l1, &cams, &refs, &config);
        // Paper: ~6% for 4 multi-versioned params out of ~60.
        let overhead = fr.storage_overhead();
        assert!(overhead > 0.0 && overhead < 0.15, "overhead {overhead}");
    }

    #[test]
    fn hvsq_guided_build_respects_quality_budget() {
        let (l1, cams, refs) = setup();
        let config = FrBuildConfig {
            finetune: None,
            ..FrBuildConfig::default()
        };
        let fr = build_foveated_hvsq(&l1, &cams, &refs, &config, 0.2, 3.0, 4);
        let counts = fr.level_point_counts();
        // Levels shrink monotonically and the hierarchy stays valid.
        for w in counts.windows(2) {
            assert!(w[1] <= w[0], "{counts:?}");
        }
        assert_eq!(counts[0], l1.len());
        fr.validate().unwrap();
    }

    #[test]
    fn hvsq_guided_build_prunes_less_under_tight_budget() {
        let (l1, cams, refs) = setup();
        let config = FrBuildConfig {
            finetune: None,
            ..FrBuildConfig::default()
        };
        let tight = build_foveated_hvsq(&l1, &cams, &refs, &config, 0.25, 1.0, 6);
        let loose = build_foveated_hvsq(&l1, &cams, &refs, &config, 0.25, 50.0, 6);
        // A looser quality budget admits deeper pruning at the last level.
        let t = tight.level_point_counts();
        let lo = loose.level_point_counts();
        assert!(lo[3] <= t[3], "loose {lo:?} vs tight {t:?}");
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = FrBuildConfig {
            level_fractions: vec![1.0, 0.5],
            ..FrBuildConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FrBuildConfig {
            level_fractions: vec![0.9, 0.5, 0.3, 0.1],
            ..FrBuildConfig::default()
        };
        assert!(c.validate().is_err());
        let c = FrBuildConfig {
            level_fractions: vec![1.0, 0.5, 0.6, 0.1],
            ..FrBuildConfig::default()
        };
        assert!(c.validate().is_err());
        let mut c = FrBuildConfig::default();
        if let Some(ft) = &mut c.finetune {
            ft.scale_decay = Some(ms_train::scale_decay::ScaleDecayOptions::default());
        }
        assert!(c.validate().is_err());
    }
}
