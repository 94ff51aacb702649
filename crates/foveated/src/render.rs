//! The foveated rendering pipeline (Fig. 7-E): Projection → Filtering →
//! Sorting → Rasterization → Blending.

use crate::model::{FoveatedModel, LevelParams};
use ms_hvs::{DisplayGeometry, EccentricityMap, QualityRegions};
use ms_math::{rad_to_deg, sh, Vec2};
use ms_render::{
    project_model, Image, PixelLevels, ProjectedSplat, RenderOptions, RenderStats, Renderer,
    SceneRef, StageKind, StageSample, TileGridDims, View, TILE_SIZE,
};
use ms_scene::Camera;
use std::time::Instant;

/// Result of a foveated render.
#[derive(Debug, Clone, PartialEq)]
pub struct FovRenderOutput {
    /// The blended foveated image.
    pub image: Image,
    /// Merged workload statistics of the one frame: per-tile
    /// intersections and blend steps sum over levels. Project holds only the
    /// projections that ran — one shared pass over the base point set for
    /// subsetting models, one per level for multi-model baselines — so
    /// `profile.items(Project) == points_projected`.
    pub stats: RenderStats,
    /// Per-level statistics (their profiles are empty: the levels share the
    /// frame's stages).
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
    /// sample; the frame then starts at Bin.
    pub fn render(
        &self,
        model: &FoveatedModel,
        camera: &Camera,
        gaze: Option<Vec2>,
    ) -> FovRenderOutput {
        let start = Instant::now();
        let (shared, levels) = self.project_levels(model, camera);
        let project = StageSample {
            kind: StageKind::Project,
            wall: start.elapsed(),
            items: shared.len() as u64,
        };
        drop(shared);
        let points = model.base().len();
        self.render_levels(&levels, points, model.regions(), camera, gaze, project)
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
        let levels = self.derive_levels(model, &shared, camera);
        (shared, levels)
    }

    /// Every level's splats, filtered out of the shared projection in one
    /// pass over it, each level in base order. Level `l` keeps each splat
    /// whose point it admits (`quality_bound >= l`), at the level's opacity
    /// — culled below `alpha_min` — and the colour its DC gives. Geometry is
    /// shared, so every other field is copied, and so is the SH basis: it
    /// depends only on the view direction, so a point that some level
    /// `l >= 1` keeps evaluates it once for all of them. Level `l`'s result
    /// equals projecting [`FoveatedModel::level_model`], except that
    /// `point_index` stays the base index.
    fn derive_levels(
        &self,
        model: &FoveatedModel,
        shared: &[ProjectedSplat],
        camera: &Camera,
    ) -> Vec<Vec<ProjectedSplat>> {
        let alpha_min = self.options().alpha_min;
        let base = model.base();
        let bounds = model.quality_bounds();
        let params: Vec<&LevelParams> = (1..model.level_count())
            .map(|l| model.level_params(l))
            .collect();
        let mut levels = vec![Vec::new(); model.level_count()];
        let mut basis = [0.0f32; sh::MAX_COEFFS];
        for s in shared {
            if s.opacity >= alpha_min {
                levels[0].push(*s);
            }
            let p = s.point_index as usize;
            let mut basis_ready = false;
            // `params[i]` is level `i + 1`, admitted while `i < bound`.
            for (i, params) in params.iter().enumerate().take(bounds[p] as usize) {
                let opacity = params.opacity[p];
                if opacity < alpha_min {
                    continue;
                }
                if !basis_ready {
                    let view_dir = base.positions[p] - camera.eye;
                    sh::eval_basis(base.sh_degree, view_dir.normalized(), &mut basis);
                    basis_ready = true;
                }
                let color = sh::color_from_basis(base.sh_degree, &basis, params.dc[p], base.sh(p));
                levels[i + 1].push(ProjectedSplat {
                    opacity,
                    color,
                    ..*s
                });
            }
        }
        levels
    }

    /// Render `levels[l]` (splats of a `points`-point model) wherever
    /// `regions` puts level `l` around the gaze, as one frame, and blend
    /// across region boundaries. `project` is the Project sample of the
    /// projections that made `levels`.
    pub(crate) fn render_levels(
        &self,
        levels: &[Vec<ProjectedSplat>],
        points: usize,
        regions: &QualityRegions,
        camera: &Camera,
        gaze: Option<Vec2>,
        project: StageSample,
    ) -> FovRenderOutput {
        assert_eq!(
            levels.len(),
            regions.level_count(),
            "one splat set per quality region required"
        );
        let display = DisplayGeometry::new(camera.width, camera.height, rad_to_deg(camera.fovx()));
        let gaze = gaze.unwrap_or_else(|| display.center());
        let ecc = EccentricityMap::new(display, gaze);
        // Per-pixel (level, blend weight toward the next level).
        let (level, blend): (Vec<u8>, Vec<f32>) = (ecc.values().iter())
            .map(|&e| {
                let (l, w) = regions.blend_toward_next(e);
                (l as u8, w)
            })
            .unzip();
        let blended_pixels = (level.iter().zip(&blend))
            .filter(|&(&l, &w)| w > 0.0 && l as usize + 1 < levels.len())
            .count();

        // Dominant level per tile (majority of pixels).
        let grid = TileGridDims::for_image(camera.width, camera.height);
        let mut tile_level = vec![0u8; grid.tile_count()];
        for ty in 0..grid.tiles_y {
            for tx in 0..grid.tiles_x {
                let mut counts = vec![0u32; levels.len()];
                let x_end = ((tx + 1) * TILE_SIZE).min(camera.width);
                let y_end = ((ty + 1) * TILE_SIZE).min(camera.height);
                for y in (ty * TILE_SIZE)..y_end {
                    for x in (tx * TILE_SIZE)..x_end {
                        counts[level[(y * camera.width + x) as usize] as usize] += 1;
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

        let view = View {
            camera: *camera,
            levels: Some(PixelLevels { level, blend }),
        };
        let levels: Vec<&[ProjectedSplat]> = levels.iter().map(Vec::as_slice).collect();
        let scene = SceneRef::Projected {
            levels: &levels,
            points,
        };
        let out = self.renderer.render(scene, view);
        let mut stats = out.stats;
        stats.profile.samples.insert(0, project);
        stats.points_projected = project.items as usize;
        FovRenderOutput {
            image: out.image,
            stats,
            per_level_stats: out.level_stats,
            tile_level,
            blended_pixels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_foveated, FrBuildConfig};
    use ms_scene::dataset::TraceId;
    use std::sync::OnceLock;

    /// The test image size: at smaller images the 16-px tiles are so
    /// coarse that nearly every tile straddles a region boundary, which
    /// double-counts cross-level work the real (high-res) configuration
    /// doesn't pay.
    const W: u32 = 256;
    const H: u32 = 192;

    /// The foveated model and its two cameras, built once and shared by
    /// every test: the build, not the renders, dominates their run time.
    fn setup() -> &'static (FoveatedModel, Vec<Camera>) {
        static SETUP: OnceLock<(FoveatedModel, Vec<Camera>)> = OnceLock::new();
        SETUP.get_or_init(build)
    }

    fn build() -> (FoveatedModel, Vec<Camera>) {
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
                width: W,
                height: H,
                fovy: ms_math::deg_to_rad(74.0),
                ..*c
            })
            .collect();
        let renderer = Renderer::default();
        let references: Vec<Image> = cameras
            .iter()
            .map(|c| renderer.render(&scene.model, c).image)
            .collect();
        let config = FrBuildConfig {
            finetune: None,
            ..FrBuildConfig::default()
        };
        let fr = build_foveated(&scene.model, &cameras, &references, &config);
        (fr, cameras)
    }

    #[test]
    fn foveated_render_produces_full_image() {
        let (fr, cameras) = setup();
        let out = FoveatedRenderer::default().render(fr, &cameras[0], None);
        assert_eq!(out.image.width(), W);
        assert_eq!(out.per_level_stats.len(), 4);
        assert_eq!(out.tile_level.len(), out.stats.grid.tile_count());
    }

    #[test]
    fn foveated_render_cheaper_than_dense() {
        let (fr, cameras) = setup();
        let fov = FoveatedRenderer::default().render(fr, &cameras[0], None);
        let dense = Renderer::default().render(fr.base(), &cameras[0]);
        assert!(
            fov.stats.total_intersections < dense.stats.total_intersections,
            "FR intersections {} should undercut dense {}",
            fov.stats.total_intersections,
            dense.stats.total_intersections
        );
    }

    #[test]
    fn foveal_region_matches_l1_render() {
        let (fr, cameras) = setup();
        let out = FoveatedRenderer::default().render(fr, &cameras[0], None);
        let dense = Renderer::default().render(&fr.level_model(0), &cameras[0]);
        // Center pixel is deep inside R1 (no blending): exact L1 color.
        let c = out.image.pixel(W / 2, H / 2);
        let d = dense.image.pixel(W / 2, H / 2);
        assert!((c - d).length() < 1e-6, "foveal pixel differs: {c} vs {d}");
    }

    #[test]
    fn workload_concentrates_at_gaze() {
        let (fr, cameras) = setup();
        let out = FoveatedRenderer::default().render(fr, &cameras[0], None);
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
        let (fr, cameras) = setup();
        let r = FoveatedRenderer::default();
        let left = r.render(fr, &cameras[0], Some(Vec2::new(24.0, H as f32 / 2.0)));
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
        let (fr, cameras) = setup();
        let out = FoveatedRenderer::default().render(fr, &cameras[0], None);
        let n = (W * H) as usize;
        assert!(out.blended_pixels > 0, "some pixels must blend");
        assert!(
            out.blended_pixels < n / 2,
            "blending should be a minority of pixels"
        );
    }

    #[test]
    fn merged_projection_counts_base_once() {
        let (fr, cameras) = setup();
        let out = FoveatedRenderer::default().render(fr, &cameras[0], None);
        assert_eq!(out.stats.points_submitted, fr.base().len());
        // Per-level projected sums exceed the shared count (subsetting wins).
        let sum: usize = out.per_level_stats.iter().map(|s| s.points_projected).sum();
        assert!(sum >= out.stats.points_projected);
    }

    #[test]
    fn merged_profile_counters_match_merged_stats() {
        use ms_render::StageKind;
        let (fr, cameras) = setup();
        let out = FoveatedRenderer::default().render(fr, &cameras[0], None);
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
        let lifted = project_model(&base, camera, &RenderOptions::default())[0].point_index;
        let alpha_min = RenderOptions::default().alpha_min;
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
        let (fr, cameras) = setup();
        let camera = &cameras[0];
        let (fm, lifted) = overridden(fr, camera);
        for threads in [1usize, 3] {
            let opts = RenderOptions {
                threads,
                ..RenderOptions::default()
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
                    levels: &[derived],
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
