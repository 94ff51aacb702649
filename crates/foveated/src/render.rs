//! The foveated rendering pipeline (Fig. 7-E): Projection → Filtering →
//! Sorting → Rasterization → Blending.

use crate::model::FoveatedModel;
use ms_hvs::{DisplayGeometry, EccentricityMap, QualityRegions};
use ms_math::{rad_to_deg, Vec2};
use ms_render::{
    project_model, FrameArena, FrameProfile, Image, ProjectedSplat, RenderOptions, RenderStats,
    Renderer, SceneRef, StageKind, StageSample, View,
};
use ms_scene::Camera;
use std::time::Instant;

/// Result of a foveated render.
#[derive(Debug, Clone, PartialEq)]
pub struct FovRenderOutput {
    /// The blended foveated image.
    pub image: Image,
    /// Merged workload statistics across levels: per-tile intersections
    /// and every stage's samples sum over levels. Project holds only the
    /// projections that ran — one shared pass over the base point set for
    /// subsetting models, one per level for multi-model baselines — so
    /// `profile.items(Project) == points_projected`.
    pub stats: RenderStats,
    /// Raw per-level statistics.
    pub per_level_stats: Vec<RenderStats>,
    /// Dominant quality level per tile (row-major) — the accelerator
    /// simulator's input alongside the intersection counts.
    pub tile_level: Vec<u8>,
    /// Number of pixels rendered twice for boundary blending.
    pub blended_pixels: usize,
}

/// Renders [`FoveatedModel`]s (and, internally, multi-model baselines).
#[derive(Debug, Clone)]
pub struct FoveatedRenderer {
    renderer: Renderer,
}

impl Default for FoveatedRenderer {
    fn default() -> Self {
        Self::new(RenderOptions::default())
    }
}

impl FoveatedRenderer {
    /// Create a foveated renderer from base render options.
    ///
    /// # Panics
    ///
    /// Panics when the options are invalid.
    pub fn new(options: RenderOptions) -> Self {
        Self {
            renderer: Renderer::new(options),
        }
    }

    /// The underlying renderer options.
    pub fn options(&self) -> &RenderOptions {
        self.renderer.options()
    }

    /// Render a foveated model. `gaze` is in pixels (`None` = image
    /// center, the fixation the paper's objective metrics assume).
    ///
    /// Projection and Filtering execute once over the base point set
    /// (§4.2): one projection of the base model, from which each level's
    /// splats are filtered. Both are timed as the frame's single Project
    /// sample; each level then starts its masked frame at Bin.
    pub fn render(
        &self,
        model: &FoveatedModel,
        camera: &Camera,
        gaze: Option<Vec2>,
    ) -> FovRenderOutput {
        let start = Instant::now();
        let (shared, levels) = self.project_levels(model, camera);
        let profile = FrameProfile {
            samples: vec![StageSample {
                kind: StageKind::Project,
                wall: start.elapsed(),
                items: shared.len() as u64,
            }],
            projected_bytes_peak: std::mem::size_of_val(shared.as_slice()) as u64,
            ..FrameProfile::default()
        };
        let points = model.base().len();
        let scenes: Vec<SceneRef<'_>> = levels
            .iter()
            .map(|splats| SceneRef::Projected { splats, points })
            .collect();
        self.render_levels(&scenes, model.regions(), camera, gaze, profile, points)
    }

    /// Project the base model once and derive every level's splats from
    /// that shared projection, which is returned alongside them.
    fn project_levels(
        &self,
        model: &FoveatedModel,
        camera: &Camera,
    ) -> (Vec<ProjectedSplat>, Vec<Vec<ProjectedSplat>>) {
        // No opacity cull yet: a level's opacity can lift a point the base
        // opacity would cull.
        let uncut = RenderOptions {
            alpha_min: 0.0,
            ..self.options().clone()
        };
        let shared = project_model(model.base(), camera, &uncut);
        let levels = (0..model.level_count())
            .map(|l| self.derive_level(model, &shared, l, camera))
            .collect();
        (shared, levels)
    }

    /// Level `l`'s splats, filtered out of the shared projection in base
    /// order: each splat whose point the level admits (`quality_bound >=
    /// l`), at the level's opacity — culled below `alpha_min` — and the
    /// colour its DC gives. Geometry is shared, so every other field is
    /// copied. The result equals projecting [`FoveatedModel::level_model`],
    /// except that `point_index` stays the base index.
    fn derive_level(
        &self,
        model: &FoveatedModel,
        shared: &[ProjectedSplat],
        l: usize,
        camera: &Camera,
    ) -> Vec<ProjectedSplat> {
        let options = self.options();
        let base = model.base();
        let bounds = model.quality_bounds();
        let params = (l >= 1).then(|| model.level_params(l));
        let mut coeffs = Vec::with_capacity(base.sh_stride());
        let mut out = Vec::new();
        for s in shared {
            let p = s.point_index as usize;
            if (bounds[p] as usize) < l {
                continue;
            }
            let mut splat = *s;
            if let Some(params) = params {
                splat.opacity = params.opacity[p];
            }
            if splat.opacity < options.alpha_min {
                continue;
            }
            if let Some(params) = params {
                coeffs.clear();
                coeffs.extend_from_slice(base.sh(p));
                coeffs[..3].copy_from_slice(&params.dc[p]);
                let view_dir = base.positions[p] - camera.eye;
                splat.color = ms_math::sh::eval_color(base.sh_degree, view_dir, &coeffs);
            }
            out.push(splat);
        }
        out
    }

    /// Render one masked frame per quality level, `scenes[l]` being what
    /// level `l` draws, and blend them. `profile` seeds the merged profile
    /// (the shared Project sample of a subsetting model) and
    /// `points_submitted` is the merged point count.
    pub(crate) fn render_levels(
        &self,
        scenes: &[SceneRef<'_>],
        regions: &QualityRegions,
        camera: &Camera,
        gaze: Option<Vec2>,
        mut profile: FrameProfile,
        points_submitted: usize,
    ) -> FovRenderOutput {
        assert_eq!(
            scenes.len(),
            regions.level_count(),
            "one scene per quality region required"
        );
        let display = DisplayGeometry::new(camera.width, camera.height, rad_to_deg(camera.fovx()));
        let gaze = gaze.unwrap_or_else(|| display.center());
        let ecc = EccentricityMap::new(display, gaze);

        let n_pixels = (camera.width * camera.height) as usize;
        let levels = regions.level_count();
        // Per-pixel (level, blend weight toward the next level).
        let mut pixel_level = vec![0u8; n_pixels];
        let mut pixel_blend = vec![0.0f32; n_pixels];
        for (i, &e) in ecc.values().iter().enumerate() {
            let (l, w) = regions.blend_toward_next(e);
            pixel_level[i] = l as u8;
            pixel_blend[i] = w;
        }

        // Per-level pixel masks: a level renders its own region plus the
        // blend band of the previous region that leads into it. One arena
        // carries the frame buffers from level to level.
        let mut arena = FrameArena::default();
        let mut level_images: Vec<Image> = Vec::with_capacity(levels);
        let mut per_level_stats: Vec<RenderStats> = Vec::with_capacity(levels);
        for (l, &scene) in scenes.iter().enumerate() {
            let mask: Vec<bool> = (0..n_pixels)
                .map(|i| {
                    let pl = pixel_level[i] as usize;
                    pl == l || (l >= 1 && pl == l - 1 && pixel_blend[i] > 0.0)
                })
                .collect();
            let (out, recycled) =
                self.renderer
                    .try_render(scene, View::masked(*camera, mask), arena);
            arena = recycled;
            let out = out.expect("in-core and pre-projected frames load no chunks");
            level_images.push(out.image);
            per_level_stats.push(out.stats);
        }

        // Blend: pixels in a blend band were rendered by both adjacent
        // levels; interpolate. Others copy their level's render.
        let mut image = Image::new(camera.width, camera.height);
        let mut blended_pixels = 0usize;
        for y in 0..camera.height {
            for x in 0..camera.width {
                let i = (y * camera.width + x) as usize;
                let l = pixel_level[i] as usize;
                let w = pixel_blend[i];
                let c = if w > 0.0 && l + 1 < levels {
                    blended_pixels += 1;
                    level_images[l]
                        .pixel(x, y)
                        .lerp(level_images[l + 1].pixel(x, y), w)
                } else {
                    level_images[l].pixel(x, y)
                };
                image.set_pixel(x, y, c);
            }
        }

        // Merge stats. Per-level stage profiles fold into one frame profile
        // (per-stage wall times and work counters sum across levels), so the
        // merged stats stay the single source the accelerator workload is
        // derived from.
        let grid = per_level_stats[0].grid;
        let mut tile_intersections = vec![0u32; per_level_stats[0].tile_intersections.len()];
        let mut blend_steps = 0u64;
        for s in &per_level_stats {
            for (acc, &v) in tile_intersections.iter_mut().zip(&s.tile_intersections) {
                *acc += v;
            }
            blend_steps += s.blend_steps;
            profile.absorb(&s.profile);
        }
        let total_intersections = tile_intersections.iter().map(|&v| v as u64).sum();
        let points_projected = profile.items(StageKind::Project) as usize;

        // Dominant level per tile (majority of pixels).
        let ts = grid.tile_size;
        let mut tile_level = vec![0u8; grid.tile_count()];
        for ty in 0..grid.tiles_y {
            for tx in 0..grid.tiles_x {
                let mut counts = vec![0u32; levels];
                let x_end = ((tx + 1) * ts).min(camera.width);
                let y_end = ((ty + 1) * ts).min(camera.height);
                for y in (ty * ts)..y_end {
                    for x in (tx * ts)..x_end {
                        counts[pixel_level[(y * camera.width + x) as usize] as usize] += 1;
                    }
                }
                let dominant = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, c)| *c)
                    .map(|(l, _)| l as u8)
                    .unwrap_or(0);
                tile_level[(ty * grid.tiles_x + tx) as usize] = dominant;
            }
        }

        FovRenderOutput {
            image,
            stats: RenderStats {
                grid,
                tile_intersections,
                points_projected,
                points_submitted,
                total_intersections,
                blend_steps,
                point_tiles_used: Vec::new(),
                point_pixels_dominated: Vec::new(),
                profile,
            },
            per_level_stats,
            tile_level,
            blended_pixels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_foveated, FrBuildConfig};
    use crate::model::LevelParams;
    use ms_scene::dataset::TraceId;

    /// Render options with 8-px tiles: at test resolutions the default
    /// 16-px tiles are so coarse that nearly every tile straddles a region
    /// boundary, which double-counts cross-level work the real (high-res)
    /// configuration doesn't pay.
    fn fr_opts() -> RenderOptions {
        RenderOptions {
            tile_size: 8,
            ..RenderOptions::default()
        }
    }

    fn setup() -> (FoveatedModel, Vec<Camera>, Vec<Image>) {
        let scene = TraceId::by_name("room")
            .unwrap()
            .build_scene_with_scale(0.006);
        let cameras: Vec<Camera> = scene
            .train_cameras
            .iter()
            .step_by(10)
            .take(2)
            // Wide VR-like FOV (fovx ≈ 88°): with a narrow camera most of
            // the image is foveal and FR has nothing to relax.
            .map(|c| Camera {
                width: 128,
                height: 96,
                fovy: ms_math::deg_to_rad(74.0),
                ..*c
            })
            .collect();
        let renderer = Renderer::new(fr_opts());
        let references: Vec<Image> = cameras
            .iter()
            .map(|c| renderer.render(&scene.model, c).image)
            .collect();
        let config = FrBuildConfig {
            finetune: None,
            ..FrBuildConfig::default()
        };
        let fr = build_foveated(&scene.model, &cameras, &references, &config);
        (fr, cameras, references)
    }

    #[test]
    fn foveated_render_produces_full_image() {
        let (fr, cameras, _) = setup();
        let out = FoveatedRenderer::new(fr_opts()).render(&fr, &cameras[0], None);
        assert_eq!(out.image.width(), 128);
        assert_eq!(out.per_level_stats.len(), 4);
        assert_eq!(out.tile_level.len(), out.stats.grid.tile_count());
    }

    #[test]
    fn foveated_render_cheaper_than_dense() {
        let (fr, cameras, _) = setup();
        let fov = FoveatedRenderer::new(fr_opts()).render(&fr, &cameras[0], None);
        let dense = Renderer::new(fr_opts()).render(fr.base(), &cameras[0]);
        assert!(
            fov.stats.total_intersections < dense.stats.total_intersections,
            "FR intersections {} should undercut dense {}",
            fov.stats.total_intersections,
            dense.stats.total_intersections
        );
    }

    #[test]
    fn foveal_region_matches_l1_render() {
        let (fr, cameras, _) = setup();
        let out = FoveatedRenderer::new(fr_opts()).render(&fr, &cameras[0], None);
        let dense = Renderer::new(fr_opts()).render(&fr.level_model(0), &cameras[0]);
        // Center pixel is deep inside R1 (no blending): exact L1 color.
        let c = out.image.pixel(64, 48);
        let d = dense.image.pixel(64, 48);
        assert!((c - d).length() < 1e-6, "foveal pixel differs: {c} vs {d}");
    }

    #[test]
    fn workload_concentrates_at_gaze() {
        let (fr, cameras, _) = setup();
        let out = FoveatedRenderer::new(fr_opts()).render(&fr, &cameras[0], None);
        let grid = out.stats.grid;
        // Compare the center tile against the corner tile.
        let center_idx = ((grid.tiles_y / 2) * grid.tiles_x + grid.tiles_x / 2) as usize;
        let corner_idx = 0usize;
        let center = out.stats.tile_intersections[center_idx];
        let corner = out.stats.tile_intersections[corner_idx];
        assert!(
            center > corner,
            "center tile ({center}) should out-work corner tile ({corner})"
        );
    }

    #[test]
    fn gaze_shift_moves_high_quality_region() {
        let (fr, cameras, _) = setup();
        let r = FoveatedRenderer::new(fr_opts());
        let left = r.render(&fr, &cameras[0], Some(Vec2::new(12.0, 48.0)));
        // Tile level at the left edge should be 0 when gazing left.
        let grid = left.stats.grid;
        let left_tile = (grid.tiles_y / 2 * grid.tiles_x) as usize;
        assert_eq!(left.tile_level[left_tile], 0);
        // And the right edge should be peripheral.
        let right_tile = (grid.tiles_y / 2 * grid.tiles_x + grid.tiles_x - 1) as usize;
        assert!(left.tile_level[right_tile] >= 2);
    }

    #[test]
    fn blending_touches_boundary_pixels_only() {
        let (fr, cameras, _) = setup();
        let out = FoveatedRenderer::new(fr_opts()).render(&fr, &cameras[0], None);
        let n = (128 * 96) as usize;
        assert!(out.blended_pixels > 0, "some pixels must blend");
        assert!(
            out.blended_pixels < n / 2,
            "blending should be a minority of pixels"
        );
    }

    #[test]
    fn merged_projection_counts_base_once() {
        let (fr, cameras, _) = setup();
        let out = FoveatedRenderer::new(fr_opts()).render(&fr, &cameras[0], None);
        assert_eq!(out.stats.points_submitted, fr.base().len());
        // Per-level projected sums exceed the shared count (subsetting wins).
        let sum: usize = out.per_level_stats.iter().map(|s| s.points_projected).sum();
        assert!(sum >= out.stats.points_projected);
    }

    #[test]
    fn merged_profile_counters_match_merged_stats() {
        use ms_render::StageKind;
        let (fr, cameras, _) = setup();
        let out = FoveatedRenderer::new(fr_opts()).render(&fr, &cameras[0], None);
        let p = &out.stats.profile;
        // The merged profile must agree with the merged headline stats —
        // the "renderer and simulator agree by construction" invariant.
        assert_eq!(
            p.items(StageKind::Project),
            out.stats.points_projected as u64
        );
        assert_eq!(p.items(StageKind::Bin), out.stats.total_intersections);
        assert_eq!(p.items(StageKind::Raster), out.stats.blend_steps);
    }

    /// `fr`'s geometry with every level's opacity and DC moved off the
    /// base's, and one visible point whose base opacity is below
    /// `alpha_min` while its level-1 opacity is above it.
    fn overridden(fr: &FoveatedModel, camera: &Camera) -> (FoveatedModel, u32) {
        let mut base = fr.base().clone();
        let lifted = project_model(&base, camera, &fr_opts())[0].point_index;
        let alpha_min = fr_opts().alpha_min;
        base.opacities[lifted as usize] = alpha_min * 0.5;
        let mut bounds = fr.quality_bounds().to_vec();
        bounds[lifted as usize] = 1;
        let mut params: Vec<LevelParams> = (1..fr.level_count())
            .map(|l| {
                let shift = 0.1 * l as f32;
                LevelParams {
                    opacity: (0..base.len())
                        .map(|i| (base.opacities[i] * (1.0 - shift) + 0.02).min(1.0))
                        .collect(),
                    dc: (0..base.len())
                        .map(|i| {
                            let sh = base.sh(i);
                            [sh[0] + shift, sh[1] - shift, sh[2] * (1.0 - shift)]
                        })
                        .collect(),
                }
            })
            .collect();
        params[0].opacity[lifted as usize] = 0.8;
        let regions = fr.regions().clone();
        (FoveatedModel::new(base, bounds, params, regions), lifted)
    }

    #[test]
    fn derived_splats_equal_each_projected_level() {
        let (fr, cameras, _) = setup();
        let camera = &cameras[0];
        let (fm, lifted) = overridden(&fr, camera);
        for threads in [1usize, 3] {
            let opts = RenderOptions {
                threads,
                ..fr_opts()
            };
            let (_, levels) = FoveatedRenderer::new(opts.clone()).project_levels(&fm, camera);
            for (l, derived) in levels.iter().enumerate() {
                // Level-local index → base index.
                let members: Vec<u32> = (0..fm.base().len() as u32)
                    .filter(|&i| fm.quality_bounds()[i as usize] as usize >= l)
                    .collect();
                let expected: Vec<ProjectedSplat> =
                    project_model(&fm.level_model(l), camera, &opts)
                        .into_iter()
                        .map(|s| ProjectedSplat {
                            point_index: members[s.point_index as usize],
                            ..s
                        })
                        .collect();
                assert!(!expected.is_empty());
                assert_eq!(*derived, expected, "level {l} at threads={threads}");
                let has_lifted = derived.iter().any(|s| s.point_index == lifted);
                assert_eq!(has_lifted, l == 1, "level {l}: lifted point");
                // Base-index splats rasterize to the level model's pixels.
                let renderer = Renderer::new(opts.clone());
                let scene = SceneRef::Projected {
                    splats: derived,
                    points: fm.base().len(),
                };
                let from_shared = renderer.render(scene, camera);
                let from_level = renderer.render(&fm.level_model(l), camera);
                assert_eq!(from_shared.image, from_level.image, "level {l} pixels");
                assert_eq!(from_shared.stats.blend_steps, from_level.stats.blend_steps);
            }
        }
    }
}
