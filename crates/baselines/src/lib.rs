//! Emulated PBNR baseline families (paper §6 "Baselines").
//!
//! The paper compares against seven published models. We cannot run their
//! CUDA checkpoints, so each baseline is *emulated*: built from the same
//! synthetic dense scene with the construction rule that gives it the
//! published family behaviour —
//!
//! | Baseline | Emulation | Behavioural signature |
//! |---|---|---|
//! | 3DGS | dense scene + extra reconstruction clutter (duplicates/floaters) | slowest dense model, baseline quality |
//! | Mini-Splatting-D | the dense scene as-is (best point distribution) | best quality (the paper's quality reference) |
//! | Mip-Splatting | dense + scale-aware screen filter (larger dilation) | anti-aliased, ≈3DGS speed |
//! | StopThePop | Mini-Splatting-D points + a per-pixel re-sort charged by the GPU cost model | view-consistent but slower rasterization |
//! | LightGS | prune 3DGS by opacity·scale significance (~75% removed) | small model, limited speedup (keeps big splats) |
//! | CompactGS | prune 3DGS by opacity mask (~60% removed) | similar |
//! | Mini-Splatting | prune Mini-Splatting-D by pixel-dominance importance (~80% removed) | best pruned baseline |
//!
//! The point of these emulations is captured by Fig. 4: count-oriented
//! pruning removes many points but keeps the large ellipses that generate
//! tile intersections, so its latency reduction lags its point reduction —
//! which is exactly how these constructions behave under our renderer.

#![deny(missing_docs)]

use ms_math::Vec3;
use ms_render::{RenderOptions, Renderer};
use ms_scene::synth::Scene;
use ms_scene::{Camera, GaussianModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The seven baseline PBNR models of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// 3D Gaussian Splatting (Kerbl et al. 2023) — the earliest PBNR model.
    ThreeDgs,
    /// Mini-Splatting-D (dense; the paper's quality reference).
    MiniSplattingD,
    /// Mip-Splatting (dense, anti-aliased).
    MipSplatting,
    /// StopThePop (dense, per-pixel sorted).
    StopThePop,
    /// LightGaussian (pruned from 3DGS).
    LightGs,
    /// CompactGS (pruned from 3DGS).
    CompactGs,
    /// Mini-Splatting (pruned from Mini-Splatting-D).
    MiniSplatting,
}

impl BaselineKind {
    /// All baselines in paper order (dense first).
    pub const ALL: [BaselineKind; 7] = [
        BaselineKind::ThreeDgs,
        BaselineKind::MiniSplattingD,
        BaselineKind::MipSplatting,
        BaselineKind::StopThePop,
        BaselineKind::LightGs,
        BaselineKind::CompactGs,
        BaselineKind::MiniSplatting,
    ];

    /// The five models of the paper's Fig. 3 FPS survey.
    pub const FIG3: [BaselineKind; 5] = [
        BaselineKind::ThreeDgs,
        BaselineKind::MiniSplattingD,
        BaselineKind::CompactGs,
        BaselineKind::LightGs,
        BaselineKind::MiniSplatting,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::ThreeDgs => "3DGS",
            BaselineKind::MiniSplattingD => "Mini-Splatting-D",
            BaselineKind::MipSplatting => "Mip-Splatting",
            BaselineKind::StopThePop => "StopThePop",
            BaselineKind::LightGs => "LightGS",
            BaselineKind::CompactGs => "CompactGS",
            BaselineKind::MiniSplatting => "Mini-Splatting",
        }
    }

    /// Whether this is a dense (unpruned) model.
    pub fn is_dense(self) -> bool {
        matches!(
            self,
            BaselineKind::ThreeDgs
                | BaselineKind::MiniSplattingD
                | BaselineKind::MipSplatting
                | BaselineKind::StopThePop
        )
    }

    /// Whether the model re-sorts each pixel's splats before compositing
    /// (StopThePop's view-consistent ordering). Our splats keep only their
    /// centre depth, the key the tile lists are already sorted by, so the
    /// re-sort never changes a pixel: it is charged as a cost only, through
    /// `ms_gpu::FrameWorkload::per_pixel_sort`.
    pub fn sorts_per_pixel(self) -> bool {
        self == BaselineKind::StopThePop
    }
}

impl fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A constructed baseline: model + the render options it runs with.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineModel {
    /// Which baseline this is.
    pub kind: BaselineKind,
    /// The Gaussian model.
    pub model: GaussianModel,
    /// Render options (e.g. Mip-Splatting's stronger screen filter).
    pub render_options: RenderOptions,
}

impl BaselineModel {
    /// Serialized model size in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.model.storage_bytes()
    }
}

/// Add 3DGS-style reconstruction clutter: jittered duplicates plus a few
/// large floaters (fraction `extra` of the base point count).
fn add_clutter(base: &GaussianModel, extra: f32, seed: u64) -> GaussianModel {
    let mut m = base.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let n_extra = (base.len() as f32 * extra) as usize;
    let bb = base.bounding_box();
    let scene_r = bb.map(|b| b.diagonal() * 0.25).unwrap_or(1.0);
    for k in 0..n_extra {
        if k % 8 == 7 {
            // Floater.
            let pos = Vec3::new(
                rng.gen_range(-0.5..0.5f32),
                rng.gen_range(0.05..0.5f32),
                rng.gen_range(-0.5..0.5f32),
            ) * scene_r;
            let scale = Vec3::splat(rng.gen_range(0.05..0.25f32) * scene_r);
            let mut sh = vec![0.0f32; m.sh_stride()];
            let dc = ms_math::sh::rgb_to_dc(Vec3::splat(rng.gen_range(0.3..0.7f32)));
            sh[..3].copy_from_slice(&dc);
            let rot = m.rotations[rng.gen_range(0..base.len())];
            m.push(pos, scale, rot, rng.gen_range(0.02..0.12f32), &sh);
        } else {
            // Jittered duplicate.
            let src = rng.gen_range(0..base.len());
            let p = base.point(src);
            let jitter = Vec3::new(
                rng.gen_range(-1.0..1.0f32),
                rng.gen_range(-1.0..1.0f32),
                rng.gen_range(-1.0..1.0f32),
            ) * p.scale.max_component();
            let sh = p.sh.to_vec();
            m.push(
                p.position + jitter,
                p.scale * rng.gen_range(0.6..1.2f32),
                p.rotation,
                (p.opacity * rng.gen_range(0.3..0.9f32)).clamp(0.01, 1.0),
                &sh,
            );
        }
    }
    m
}

/// Prune keeping the `keep_fraction` highest-scoring points.
fn prune_by_score(model: &GaussianModel, scores: &[f32], keep_fraction: f32) -> GaussianModel {
    let remove = (model.len() as f32 * (1.0 - keep_fraction)).round() as usize;
    ms_train::prune::prune_lowest(model, scores, remove).0
}

/// LightGS-style global significance: opacity × screen-relevant volume.
/// Keeps large opaque splats (they score high), which is why its latency
/// reduction lags its point reduction (Fig. 4).
fn lightgs_scores(model: &GaussianModel) -> Vec<f32> {
    (0..model.len())
        .map(|i| {
            let s = model.scales[i];
            let volume = (s.x * s.y * s.z).cbrt();
            model.opacities[i] * volume
        })
        .collect()
}

/// CompactGS-style learned mask. The published method trains a binary mask
/// against the photometric loss; points whose removal the loss tolerates —
/// transparent *or* spatially redundant ones — are masked. We approximate
/// the learned mask with opacity weighted by a mild volume term (keeps
/// small high-opacity content over large translucent media).
fn compactgs_scores(model: &GaussianModel) -> Vec<f32> {
    (0..model.len())
        .map(|i| {
            let s = model.scales[i];
            let volume = (s.x * s.y * s.z).cbrt();
            model.opacities[i] * volume.powf(0.3)
        })
        .collect()
}

/// Mini-Splatting importance: pixels dominated across sample views
/// (intersection-agnostic, like the published importance sampling).
fn minisplatting_scores(model: &GaussianModel, cameras: &[Camera]) -> Vec<f32> {
    let renderer = Renderer::new(RenderOptions::with_point_stats());
    let mut scores = vec![0.0f32; model.len()];
    for cam in cameras {
        let out = renderer.render(model, cam);
        for (s, &d) in scores.iter_mut().zip(&out.stats.point_pixels_dominated) {
            *s += d as f32;
        }
    }
    scores
}

/// Build a baseline from a scene. `stat_cameras` supply the view statistics
/// some pruners need (a subset of the scene's training cameras is fine).
///
/// # Panics
///
/// Panics when a statistics-driven baseline gets an empty `stat_cameras`.
pub fn build_baseline(kind: BaselineKind, scene: &Scene, stat_cameras: &[Camera]) -> BaselineModel {
    let dense = &scene.model;
    let seed = scene.spec.seed ^ 0xBA5E;
    match kind {
        BaselineKind::ThreeDgs => BaselineModel {
            kind,
            model: add_clutter(dense, 0.25, seed),
            render_options: RenderOptions::default(),
        },
        BaselineKind::MiniSplattingD => BaselineModel {
            kind,
            model: dense.clone(),
            render_options: RenderOptions::default(),
        },
        BaselineKind::MipSplatting => BaselineModel {
            kind,
            model: dense.clone(),
            // Scale-aware 3D smoothing ≈ stronger screen-space low-pass.
            render_options: RenderOptions {
                dilation: 0.9,
                ..RenderOptions::default()
            },
        },
        BaselineKind::StopThePop => BaselineModel {
            kind,
            model: dense.clone(),
            render_options: RenderOptions::default(),
        },
        BaselineKind::LightGs => {
            let three_dgs = add_clutter(dense, 0.25, seed);
            let scores = lightgs_scores(&three_dgs);
            BaselineModel {
                kind,
                model: prune_by_score(&three_dgs, &scores, 0.25),
                render_options: RenderOptions::default(),
            }
        }
        BaselineKind::CompactGs => {
            let three_dgs = add_clutter(dense, 0.25, seed);
            let scores = compactgs_scores(&three_dgs);
            BaselineModel {
                kind,
                model: prune_by_score(&three_dgs, &scores, 0.40),
                render_options: RenderOptions::default(),
            }
        }
        BaselineKind::MiniSplatting => {
            assert!(
                !stat_cameras.is_empty(),
                "Mini-Splatting pruning needs cameras"
            );
            let scores = minisplatting_scores(dense, stat_cameras);
            BaselineModel {
                kind,
                model: prune_by_score(dense, &scores, 0.20),
                render_options: RenderOptions::default(),
            }
        }
    }
}

/// LightGS at an explicit prune level (Fig. 4 sweeps 75%–97% pruned).
///
/// # Panics
///
/// Panics when `keep_fraction` is outside `(0, 1]`.
pub fn lightgs_with_keep_fraction(scene: &Scene, keep_fraction: f32) -> BaselineModel {
    assert!(keep_fraction > 0.0 && keep_fraction <= 1.0);
    let three_dgs = add_clutter(&scene.model, 0.25, scene.spec.seed ^ 0xBA5E);
    let scores = lightgs_scores(&three_dgs);
    BaselineModel {
        kind: BaselineKind::LightGs,
        model: prune_by_score(&three_dgs, &scores, keep_fraction),
        render_options: RenderOptions::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_scene::dataset::TraceId;

    fn scene() -> Scene {
        TraceId::by_name("truck")
            .unwrap()
            .build_scene_with_scale(0.004)
    }

    fn small_cams(scene: &Scene) -> Vec<Camera> {
        scene
            .train_cameras
            .iter()
            .step_by(12)
            .take(2)
            .map(|c| Camera {
                width: 80,
                height: 60,
                ..*c
            })
            .collect()
    }

    #[test]
    fn threedgs_is_larger_than_msd() {
        let s = scene();
        let cams = small_cams(&s);
        let tdgs = build_baseline(BaselineKind::ThreeDgs, &s, &cams);
        let msd = build_baseline(BaselineKind::MiniSplattingD, &s, &cams);
        assert!(tdgs.model.len() > msd.model.len());
        tdgs.model.validate().unwrap();
    }

    #[test]
    fn pruned_models_are_smaller() {
        let s = scene();
        let cams = small_cams(&s);
        let msd = build_baseline(BaselineKind::MiniSplattingD, &s, &cams);
        for kind in [
            BaselineKind::LightGs,
            BaselineKind::CompactGs,
            BaselineKind::MiniSplatting,
        ] {
            let b = build_baseline(kind, &s, &cams);
            assert!(
                b.model.len() < msd.model.len(),
                "{kind} should be pruned: {} vs {}",
                b.model.len(),
                msd.model.len()
            );
            b.model.validate().unwrap();
        }
    }

    #[test]
    fn stopthepop_uses_per_pixel_sort() {
        for kind in BaselineKind::ALL {
            assert_eq!(kind.sorts_per_pixel(), kind == BaselineKind::StopThePop);
        }
    }

    #[test]
    fn count_pruning_keeps_disproportionate_intersections() {
        // The Fig. 4 phenomenon: LightGS removes 75% of points but much
        // less than 75% of tile intersections, because its significance
        // score keeps large splats.
        let s = scene();
        let cams = small_cams(&s);
        let dense = build_baseline(BaselineKind::ThreeDgs, &s, &cams);
        let pruned = build_baseline(BaselineKind::LightGs, &s, &cams);
        let renderer = Renderer::default();
        let di = renderer
            .render(&dense.model, &cams[0])
            .stats
            .total_intersections as f32;
        let pi = renderer
            .render(&pruned.model, &cams[0])
            .stats
            .total_intersections as f32;
        let point_ratio = pruned.model.len() as f32 / dense.model.len() as f32; // 0.25
        let isect_ratio = pi / di;
        assert!(
            isect_ratio > point_ratio * 1.15,
            "intersections should shrink slower than points: {isect_ratio} vs {point_ratio}"
        );
    }

    #[test]
    fn lightgs_sweep_is_monotone() {
        let s = scene();
        let mut last_points = usize::MAX;
        for keep in [0.25, 0.15, 0.08, 0.03] {
            let b = lightgs_with_keep_fraction(&s, keep);
            assert!(b.model.len() < last_points);
            last_points = b.model.len();
        }
    }

    #[test]
    fn baselines_are_deterministic() {
        let s = scene();
        let cams = small_cams(&s);
        let a = build_baseline(BaselineKind::ThreeDgs, &s, &cams);
        let b = build_baseline(BaselineKind::ThreeDgs, &s, &cams);
        assert_eq!(a.model, b.model);
    }

    #[test]
    fn all_contains_everything() {
        assert_eq!(BaselineKind::ALL.len(), 7);
        assert_eq!(BaselineKind::FIG3.len(), 5);
        assert!(BaselineKind::ThreeDgs.is_dense());
        assert!(!BaselineKind::LightGs.is_dense());
        assert_eq!(BaselineKind::MiniSplattingD.to_string(), "Mini-Splatting-D");
    }
}
