//! Cross-crate invariants: properties that must hold across module
//! boundaries (renderer stats ↔ pruning metrics ↔ cost models), checked on
//! real generated scenes rather than toy fixtures.

use metasapiens::baselines::{build_baseline, BaselineKind};
use metasapiens::gpu::{FrameWorkload, GpuCostModel};
use metasapiens::hvs::{psnr, ssim};
use metasapiens::render::{RenderOptions, Renderer};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::Camera;
use metasapiens::train::ce::{compute_ce, CeOptions};
use metasapiens::train::prune::prune_fraction;

fn scene() -> metasapiens::scene::synth::Scene {
    TraceId::by_name("kitchen")
        .unwrap()
        .build_scene_with_scale(0.004)
}

fn small_cams(s: &metasapiens::scene::synth::Scene, n: usize) -> Vec<Camera> {
    s.train_cameras
        .iter()
        .step_by((s.train_cameras.len() / n).max(1))
        .take(n)
        .map(|c| Camera {
            width: 96,
            height: 72,
            ..*c
        })
        .collect()
}

#[test]
fn stats_tiles_used_equals_tile_intersections() {
    // Σ over points of tiles-used must equal Σ over tiles of intersections:
    // the same quantity counted from both sides.
    let s = scene();
    let cams = small_cams(&s, 1);
    let renderer = Renderer::new(RenderOptions::with_point_stats());
    let out = renderer.render(&s.model, &cams[0]);
    let from_points: u64 = out.stats.point_tiles_used.iter().map(|&t| t as u64).sum();
    assert_eq!(from_points, out.stats.total_intersections);
}

#[test]
fn dominated_pixels_never_exceed_image() {
    let s = scene();
    let cams = small_cams(&s, 1);
    let renderer = Renderer::new(RenderOptions::with_point_stats());
    let out = renderer.render(&s.model, &cams[0]);
    let dominated: u64 = out
        .stats
        .point_pixels_dominated
        .iter()
        .map(|&d| d as u64)
        .sum();
    assert!(dominated <= (96 * 72) as u64);
}

#[test]
fn ce_pruning_beats_inverse_ce_pruning() {
    // Pruning the lowest-CE points must preserve quality better than
    // pruning the highest-CE points (sanity of the metric's direction).
    let s = scene();
    let cams = small_cams(&s, 2);
    let renderer = Renderer::default();
    let refs: Vec<_> = cams
        .iter()
        .map(|c| renderer.render(&s.model, c).image)
        .collect();

    let ce = compute_ce(&s.model, &cams, &CeOptions::default());
    let (keep_good, _) = prune_fraction(&s.model, &ce, 0.5);
    let inverted: Vec<f32> = ce.iter().map(|&c| -c).collect();
    let (keep_bad, _) = prune_fraction(&s.model, &inverted, 0.5);

    let mse_good: f32 = cams
        .iter()
        .zip(&refs)
        .map(|(c, r)| renderer.render(&keep_good, c).image.mse(r))
        .sum();
    let mse_bad: f32 = cams
        .iter()
        .zip(&refs)
        .map(|(c, r)| renderer.render(&keep_bad, c).image.mse(r))
        .sum();
    assert!(
        mse_good < mse_bad,
        "keeping high-CE points should be better: {mse_good} vs {mse_bad}"
    );
}

#[test]
fn fig4_latency_tracks_intersections_not_points() {
    // The paper's Fig. 4 argument end-to-end: across LightGS prune levels,
    // the modeled latency correlates with tile intersections more strongly
    // than with point count.
    let s = scene();
    let cams = small_cams(&s, 1);
    let renderer = Renderer::default();
    let gpu = GpuCostModel::xavier();
    let scale = metasapiens::eval::ScaleFactors::for_experiment(0.004, 96, 72);

    let mut points = Vec::new();
    let mut isects = Vec::new();
    let mut latencies = Vec::new();
    for keep in [1.0f32, 0.5, 0.25, 0.12, 0.06, 0.03] {
        let b = metasapiens::baselines::lightgs_with_keep_fraction(&s, keep);
        let out = renderer.render(&b.model, &cams[0]);
        points.push(b.model.len() as f64);
        isects.push(out.stats.total_intersections as f64);
        latencies.push(
            gpu.frame_latency(
                &FrameWorkload::from_stats(&out.stats, false)
                    .scaled(scale.point_factor, scale.pixel_factor),
            ),
        );
    }
    fn pearson(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len() as f64;
        let ma = a.iter().sum::<f64>() / n;
        let mb = b.iter().sum::<f64>() / n;
        let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
        let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
        cov / (va.sqrt() * vb.sqrt()).max(1e-12)
    }
    let corr_isect = pearson(&latencies, &isects);
    let corr_points = pearson(&latencies, &points);
    assert!(
        corr_isect > 0.9,
        "latency must track intersections strongly: r = {corr_isect:.3}"
    );
    assert!(
        corr_isect >= corr_points - 0.02,
        "intersections (r={corr_isect:.3}) should predict latency at least as well as \
         point count (r={corr_points:.3})"
    );
}

#[test]
fn quality_reference_baseline_is_best() {
    // Mini-Splatting-D is the paper's quality reference; the emulated
    // pruned baselines must not beat it against the ground truth.
    let s = scene();
    let cams = small_cams(&s, 2);
    let renderer = Renderer::default();
    let refs: Vec<_> = cams
        .iter()
        .map(|c| renderer.render(&s.model, c).image)
        .collect();

    let msd = build_baseline(BaselineKind::MiniSplattingD, &s, &cams);
    let psnr_of = |b: &metasapiens::baselines::BaselineModel| {
        let r = Renderer::new(b.render_options.clone());
        cams.iter()
            .zip(&refs)
            .map(|(c, reference)| psnr(&r.render(&b.model, c).image, reference).min(60.0))
            .sum::<f32>()
            / cams.len() as f32
    };
    let msd_psnr = psnr_of(&msd);
    for kind in [
        BaselineKind::LightGs,
        BaselineKind::CompactGs,
        BaselineKind::MiniSplatting,
    ] {
        let b = build_baseline(kind, &s, &cams);
        assert!(
            psnr_of(&b) <= msd_psnr + 0.5,
            "{kind} should not beat the dense reference"
        );
    }
}

#[test]
fn ssim_and_psnr_rank_baselines_consistently_for_extremes() {
    let s = scene();
    let cams = small_cams(&s, 1);
    let renderer = Renderer::default();
    let reference = renderer.render(&s.model, &cams[0]).image;

    let msd = build_baseline(BaselineKind::MiniSplattingD, &s, &cams);
    let heavy = metasapiens::baselines::lightgs_with_keep_fraction(&s, 0.03);
    let img_good = renderer.render(&msd.model, &cams[0]).image;
    let img_bad = renderer.render(&heavy.model, &cams[0]).image;
    assert!(psnr(&img_good, &reference) > psnr(&img_bad, &reference));
    assert!(ssim(&img_good, &reference) > ssim(&img_bad, &reference));
}

#[test]
fn workload_scaling_commutes_with_latency_monotonicity() {
    let s = scene();
    let cams = small_cams(&s, 1);
    let renderer = Renderer::default();
    let out = renderer.render(&s.model, &cams[0]);
    let gpu = GpuCostModel::xavier();
    let base = FrameWorkload::from_stats(&out.stats, false);
    let lat1 = gpu.frame_latency(&base.scaled(1.0, 1.0));
    let lat2 = gpu.frame_latency(&base.scaled(10.0, 4.0));
    assert!(lat2 > lat1);
}

#[test]
fn fr_with_identical_levels_matches_plain_render() {
    // If every point participates in every level and the per-level
    // parameters equal the base parameters, the foveated pipeline — levels,
    // filtering, blending and all — must reproduce the plain render
    // exactly (blending identical images is the identity).
    use metasapiens::fov::{FoveatedModel, FoveatedRenderer, LevelParams};
    use metasapiens::hvs::QualityRegions;

    let s = scene();
    let cams = small_cams(&s, 1);
    let model = &s.model;
    let n = model.len();
    let regions = QualityRegions::paper_default();
    let base_params = LevelParams {
        opacity: model.opacities.clone(),
        dc: (0..n)
            .map(|i| {
                let sh = model.sh(i);
                [sh[0], sh[1], sh[2]]
            })
            .collect(),
    };
    let fm = FoveatedModel::new(
        model.clone(),
        vec![(regions.level_count() - 1) as u8; n],
        vec![base_params; regions.level_count() - 1],
        regions,
    );
    let fr = FoveatedRenderer::default().render(&fm, &cams[0], None);
    let plain = Renderer::default().render(model, &cams[0]);
    assert!(
        fr.image.mse(&plain.image) < 1e-10,
        "identity FR must match the plain render: mse {}",
        fr.image.mse(&plain.image)
    );
}

#[test]
fn rendering_a_subset_never_adds_work() {
    let s = scene();
    let cams = small_cams(&s, 1);
    let renderer = Renderer::default();
    let full = renderer.render(&s.model, &cams[0]);
    let half = s
        .model
        .subset(&(0..s.model.len()).step_by(2).collect::<Vec<_>>());
    let out = renderer.render(&half, &cams[0]);
    assert!(out.stats.total_intersections <= full.stats.total_intersections);
    assert!(out.stats.blend_steps <= full.stats.blend_steps);
    assert!(out.stats.points_projected <= full.stats.points_projected);
}

#[test]
fn rendered_pixels_stay_in_gamut() {
    // Input colors are in [0,1] and compositing is a convex combination of
    // splat colors and the black background, so outputs must stay bounded (SH
    // view-dependence can push slightly past 1; allow a small margin).
    let s = scene();
    let cams = small_cams(&s, 1);
    let out = Renderer::default().render(&s.model, &cams[0]);
    for p in out.image.pixels() {
        assert!(
            p.x >= 0.0 && p.y >= 0.0 && p.z >= 0.0,
            "negative channel: {p}"
        );
        assert!(p.max_component() < 1.6, "out-of-gamut pixel: {p}");
    }
}

#[test]
fn headline_claim_metasapiens_is_real_time_class() {
    // §7.2's headline: an order-of-magnitude speedup over dense PBNR on
    // the mobile GPU while dense models sit below 10 FPS. Check both ends
    // on a full-scale extrapolated workload.
    use metasapiens::eval::{evaluate_foveated, evaluate_model, ScaleFactors};
    use metasapiens::pipeline::{build_system, BuildConfig, Variant};

    let trace = TraceId::by_name("room").unwrap();
    let scene = trace.build_scene_with_scale(0.004);
    let system = build_system(&scene, &BuildConfig::fast_for_tests(Variant::L));
    let scale = ScaleFactors::for_experiment(0.004, 96, 72);
    let cams: Vec<Camera> = system.train_cameras.clone();
    let refs = system.references.clone();
    let dense = evaluate_model(&scene.model, &RenderOptions::default(), &cams, &refs, scale);
    let ours = evaluate_foveated(&system.fov, &RenderOptions::default(), &cams, &refs, scale);
    // `room` is the corpus' smallest trace; dense still sits well below the
    // 75-90 FPS VR bar (Fig. 3's upper whiskers reach ~25 FPS).
    assert!(
        dense.fps < 35.0,
        "dense should be below VR rates: {}",
        dense.fps
    );
    assert!(
        ours.fps > dense.fps * 4.0,
        "MetaSapiens-L should be several times faster: {} vs {}",
        ours.fps,
        dense.fps
    );
}

#[test]
fn accelerator_subtiles_are_the_renderers_tile_rows() {
    // The IP model splits a tile into one sub-tile per tile row, so every
    // preset, at every resource scale, must agree with the renderer's tile.
    use metasapiens::accel::AccelConfig;
    use metasapiens::render::TILE_SIZE;

    let presets = [
        AccelConfig::metasapiens_base(),
        AccelConfig::metasapiens_tm(),
        AccelConfig::metasapiens_tm_ip(),
        AccelConfig::gscore(),
    ];
    for preset in &presets {
        assert_eq!(preset.subtiles, TILE_SIZE, "{}", preset.name);
        // Fig. 15's resource scales.
        for config in [0.5, 1.0, 2.0, 3.0, 4.0].map(|f| preset.scaled(f)) {
            assert_eq!(config.subtiles, TILE_SIZE, "{}", config.name);
        }
    }
}
