//! Shared evaluation helpers used by the examples and the benchmark
//! harness: quality metrics against reference renders, workload capture,
//! and full-scale FPS estimation.

use ms_baselines::BaselineModel;
use ms_fov::{FovRenderOutput, FoveatedModel, FoveatedRenderer};
use ms_gpu::{FrameWorkload, GpuCostModel};
use ms_hvs::{lpips_proxy, psnr, ssim};
use ms_render::{Image, RenderOptions, Renderer};
use ms_scene::{Camera, GaussianModel};
use serde::{Deserialize, Serialize};

/// Crop an image to the gaze region (the central square inscribed in the
/// 18° foveal disk, clamped to the image). The paper reports PSNR/SSIM/
/// LPIPS "for the region under the user's gaze" (§7.2); measuring the
/// periphery with full-field metrics would double-count quality FR
/// deliberately relaxes.
pub fn gaze_region_crop(image: &Image, camera: &Camera) -> Image {
    let half = (ms_math::deg_to_rad(18.0).tan() * camera.focal_x())
        .min(camera.width as f32 * 0.5)
        .min(camera.height as f32 * 0.5)
        .max(8.0) as u32;
    let cx = camera.width / 2;
    let cy = camera.height / 2;
    let x0 = cx.saturating_sub(half);
    let y0 = cy.saturating_sub(half);
    let x1 = (cx + half).min(image.width());
    let y1 = (cy + half).min(image.height());
    let mut out = Image::new((x1 - x0).max(1), (y1 - y0).max(1));
    for y in y0..y1 {
        for x in x0..x1 {
            out.set_pixel(x - x0, y - y0, image.pixel(x, y));
        }
    }
    out
}

/// Quality + performance metrics of a model over a set of views.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelMetrics {
    /// Mean PSNR in dB (capped at 60 for identical renders).
    pub psnr_db: f32,
    /// Mean SSIM.
    pub ssim: f32,
    /// Mean LPIPS-proxy (lower is better).
    pub lpips: f32,
    /// Estimated full-scale FPS on the mobile GPU model.
    pub fps: f64,
    /// Mean tile-ellipse intersections per frame (measured).
    pub intersections: f64,
}

/// Workload-scaling factors that map reduced experiment scenes/resolutions
/// to the paper's full-scale configuration (see
/// [`ms_gpu::FrameWorkload::scaled`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleFactors {
    /// Multiplier on point-proportional work (1 / scene scale).
    pub point_factor: f64,
    /// Multiplier on pixel-proportional work (full pixels / rendered).
    pub pixel_factor: f64,
}

impl ScaleFactors {
    /// Identity scaling (report the measured workload as-is).
    pub fn identity() -> Self {
        Self {
            point_factor: 1.0,
            pixel_factor: 1.0,
        }
    }

    /// Factors for a scene built at `scene_scale` and rendered at
    /// `(w, h)`, relative to a 1080p-class full-scale configuration.
    pub fn for_experiment(scene_scale: f64, w: u32, h: u32) -> Self {
        Self {
            point_factor: (1.0 / scene_scale.max(1e-9)).max(1.0),
            pixel_factor: (1920.0 * 1080.0) / (w as f64 * h as f64),
        }
    }
}

/// Evaluate a plain (non-foveated) model against reference images.
///
/// # Panics
///
/// Panics when `cameras` and `references` differ in length or are empty.
pub fn evaluate_model(
    model: &GaussianModel,
    options: &RenderOptions,
    cameras: &[Camera],
    references: &[Image],
    scale: ScaleFactors,
) -> ModelMetrics {
    evaluate(model, options, false, cameras, references, scale)
}

/// Evaluate a baseline like [`evaluate_model`], charging the modelled GPU
/// for a per-pixel re-sort when the baseline's kind does one
/// ([`BaselineKind::sorts_per_pixel`](ms_baselines::BaselineKind::sorts_per_pixel)).
///
/// # Panics
///
/// Panics when `cameras` and `references` differ in length or are empty.
pub fn evaluate_baseline(
    baseline: &BaselineModel,
    cameras: &[Camera],
    references: &[Image],
    scale: ScaleFactors,
) -> ModelMetrics {
    let (model, options) = (&baseline.model, &baseline.render_options);
    let per_pixel_sort = baseline.kind.sorts_per_pixel();
    evaluate(model, options, per_pixel_sort, cameras, references, scale)
}

fn evaluate(
    model: &GaussianModel,
    options: &RenderOptions,
    per_pixel_sort: bool,
    cameras: &[Camera],
    references: &[Image],
    scale: ScaleFactors,
) -> ModelMetrics {
    assert_eq!(cameras.len(), references.len());
    assert!(!cameras.is_empty());
    let renderer = Renderer::new(options.clone());
    let gpu = GpuCostModel::xavier();

    let mut psnr_acc = 0.0f64;
    let mut ssim_acc = 0.0f64;
    let mut lpips_acc = 0.0f64;
    let mut latency_acc = 0.0f64;
    let mut isect_acc = 0.0f64;
    for (cam, reference) in cameras.iter().zip(references) {
        let out = renderer.render(model, cam);
        let crop = gaze_region_crop(&out.image, cam);
        let crop_ref = gaze_region_crop(reference, cam);
        psnr_acc += psnr(&crop, &crop_ref).min(60.0) as f64;
        ssim_acc += ssim(&crop, &crop_ref) as f64;
        lpips_acc += lpips_proxy(&crop, &crop_ref) as f64;
        let w = FrameWorkload::from_stats(&out.stats, per_pixel_sort)
            .scaled(scale.point_factor, scale.pixel_factor);
        latency_acc += gpu.frame_latency(&w);
        isect_acc += out.stats.total_intersections as f64;
    }
    let n = cameras.len() as f64;
    ModelMetrics {
        psnr_db: (psnr_acc / n) as f32,
        ssim: (ssim_acc / n) as f32,
        lpips: (lpips_acc / n) as f32,
        fps: n / latency_acc,
        intersections: isect_acc / n,
    }
}

/// Evaluate a foveated model (center gaze) against reference images.
///
/// # Panics
///
/// Panics when `cameras` and `references` differ in length or are empty.
pub fn evaluate_foveated(
    model: &FoveatedModel,
    options: &RenderOptions,
    cameras: &[Camera],
    references: &[Image],
    scale: ScaleFactors,
) -> ModelMetrics {
    assert_eq!(cameras.len(), references.len());
    assert!(!cameras.is_empty());
    let renderer = FoveatedRenderer::new(options.clone());
    let gpu = GpuCostModel::xavier();

    let mut psnr_acc = 0.0f64;
    let mut ssim_acc = 0.0f64;
    let mut lpips_acc = 0.0f64;
    let mut latency_acc = 0.0f64;
    let mut isect_acc = 0.0f64;
    for (cam, reference) in cameras.iter().zip(references) {
        let out = renderer.render(model, cam, None);
        let crop = gaze_region_crop(&out.image, cam);
        let crop_ref = gaze_region_crop(reference, cam);
        psnr_acc += psnr(&crop, &crop_ref).min(60.0) as f64;
        ssim_acc += ssim(&crop, &crop_ref) as f64;
        lpips_acc += lpips_proxy(&crop, &crop_ref) as f64;
        latency_acc += gpu.frame_latency(&foveated_workload(&out, scale));
        isect_acc += out.stats.total_intersections as f64;
    }
    let n = cameras.len() as f64;
    ModelMetrics {
        psnr_db: (psnr_acc / n) as f32,
        ssim: (ssim_acc / n) as f32,
        lpips: (lpips_acc / n) as f32,
        fps: n / latency_acc,
        intersections: isect_acc / n,
    }
}

/// Convert a foveated render into a scaled GPU workload (including the
/// blending overhead).
pub fn foveated_workload(out: &FovRenderOutput, scale: ScaleFactors) -> FrameWorkload {
    FrameWorkload::from_stats(&out.stats, false)
        .with_blended_pixels(out.blended_pixels as u64)
        .scaled(scale.point_factor, scale.pixel_factor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_system, BuildConfig, Variant};
    use ms_scene::dataset::TraceId;

    #[test]
    fn metrics_of_model_against_itself_are_ideal() {
        let scene = TraceId::by_name("room")
            .unwrap()
            .build_scene_with_scale(0.003);
        let cams: Vec<Camera> = scene
            .train_cameras
            .iter()
            .take(2)
            .map(|c| Camera {
                width: 64,
                height: 48,
                ..*c
            })
            .collect();
        let renderer = Renderer::default();
        let refs: Vec<Image> = cams
            .iter()
            .map(|c| renderer.render(&scene.model, c).image)
            .collect();
        let m = evaluate_model(
            &scene.model,
            &RenderOptions::default(),
            &cams,
            &refs,
            ScaleFactors::identity(),
        );
        assert!(m.psnr_db >= 60.0 - 1e-3);
        assert!(m.ssim > 0.999);
        assert!(m.lpips < 1e-6);
        assert!(m.fps > 0.0);
    }

    #[test]
    fn pruned_system_trades_quality_for_fps() {
        let scene = TraceId::by_name("room")
            .unwrap()
            .build_scene_with_scale(0.003);
        let system = build_system(&scene, &BuildConfig::fast_for_tests(Variant::L));
        let cams = system.train_cameras.clone();
        let refs = system.references.clone();
        let dense = evaluate_model(
            &scene.model,
            &RenderOptions::default(),
            &cams,
            &refs,
            ScaleFactors::identity(),
        );
        let pruned = evaluate_model(
            &system.l1,
            &RenderOptions::default(),
            &cams,
            &refs,
            ScaleFactors::identity(),
        );
        assert!(
            pruned.fps > dense.fps,
            "pruned {} vs dense {}",
            pruned.fps,
            dense.fps
        );
        assert!(pruned.psnr_db <= dense.psnr_db);
        assert!(
            pruned.psnr_db > 15.0,
            "pruned quality collapsed: {}",
            pruned.psnr_db
        );
    }

    #[test]
    fn scale_factors_raise_latency() {
        let scene = TraceId::by_name("room")
            .unwrap()
            .build_scene_with_scale(0.003);
        let cams: Vec<Camera> = scene
            .train_cameras
            .iter()
            .take(1)
            .map(|c| Camera {
                width: 64,
                height: 48,
                ..*c
            })
            .collect();
        let renderer = Renderer::default();
        let refs: Vec<Image> = cams
            .iter()
            .map(|c| renderer.render(&scene.model, c).image)
            .collect();
        let small = evaluate_model(
            &scene.model,
            &RenderOptions::default(),
            &cams,
            &refs,
            ScaleFactors::identity(),
        );
        let scaled = evaluate_model(
            &scene.model,
            &RenderOptions::default(),
            &cams,
            &refs,
            ScaleFactors::for_experiment(0.003, 64, 48),
        );
        assert!(scaled.fps < small.fps);
    }
    #[test]
    fn stopthepop_is_charged_for_its_per_pixel_sort() {
        // StopThePop and Mini-Splatting-D render the same dense model with
        // the same options, so only the modelled re-sort tells them apart.
        use ms_baselines::{build_baseline, BaselineKind};
        let scene = TraceId::by_name("room")
            .unwrap()
            .build_scene_with_scale(0.003);
        let cams: Vec<Camera> = scene
            .train_cameras
            .iter()
            .take(2)
            .map(|c| Camera {
                width: 64,
                height: 48,
                ..*c
            })
            .collect();
        let stp = build_baseline(BaselineKind::StopThePop, &scene, &cams);
        let msd = build_baseline(BaselineKind::MiniSplattingD, &scene, &cams);
        let refs: Vec<Image> = cams
            .iter()
            .map(|c| Renderer::default().render(&scene.model, c).image)
            .collect();
        for cam in &cams {
            let a = Renderer::new(stp.render_options.clone()).render(&stp.model, cam);
            let b = Renderer::new(msd.render_options.clone()).render(&msd.model, cam);
            assert_eq!(a.image, b.image);
        }
        let scale = ScaleFactors::identity();
        let m_stp = evaluate_baseline(&stp, &cams, &refs, scale);
        let m_msd = evaluate_baseline(&msd, &cams, &refs, scale);
        assert_eq!(m_stp.psnr_db, m_msd.psnr_db);
        assert_eq!(m_stp.intersections, m_msd.intersections);
        assert!(
            m_stp.fps < m_msd.fps,
            "StopThePop {} FPS vs Mini-Splatting-D {}",
            m_stp.fps,
            m_msd.fps
        );
    }
}
