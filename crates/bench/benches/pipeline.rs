//! Criterion benchmarks of the higher-level pipeline steps: CE computation,
//! one prune round, one fine-tune iteration, foveated vs dense frame
//! rendering (the wall-clock counterpart of the paper's FPS comparisons),
//! and thread scaling of the parallel pipeline stages with a per-stage
//! wall-time report from `FrameProfile`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use metasapiens::fov::{build_foveated, FoveatedRenderer, FrBuildConfig};
use metasapiens::render::{RenderOptions, Renderer, StageKind};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::Camera;
use metasapiens::train::ce::{compute_ce, CeOptions};
use metasapiens::train::finetune::{FineTuneConfig, FineTuner};
use metasapiens::train::prune::prune_fraction;
use std::time::Duration;

struct Setup {
    scene: metasapiens::scene::synth::Scene,
    cameras: Vec<Camera>,
    references: Vec<metasapiens::render::Image>,
}

fn setup() -> Setup {
    let scene = TraceId::by_name("room")
        .unwrap()
        .build_scene_with_scale(0.006);
    let cameras: Vec<Camera> = scene
        .train_cameras
        .iter()
        .step_by(12)
        .take(2)
        .map(|c| Camera {
            width: 128,
            height: 96,
            fovy: ms_math::deg_to_rad(74.0),
            ..*c
        })
        .collect();
    let renderer = Renderer::default();
    let references = cameras
        .iter()
        .map(|c| renderer.render(&scene.model, c).image)
        .collect();
    Setup {
        scene,
        cameras,
        references,
    }
}

fn bench_ce(c: &mut Criterion) {
    let s = setup();
    let opts = CeOptions::default();
    c.bench_function("compute_ce_two_poses", |b| {
        b.iter(|| compute_ce(&s.scene.model, &s.cameras, &opts));
    });
}

fn bench_prune_round(c: &mut Criterion) {
    let s = setup();
    let ce = compute_ce(&s.scene.model, &s.cameras, &CeOptions::default());
    c.bench_function("prune_10_percent", |b| {
        b.iter(|| prune_fraction(&s.scene.model, &ce, 0.10));
    });
}

fn bench_finetune_iteration(c: &mut Criterion) {
    let s = setup();
    let config = FineTuneConfig {
        iterations: 1,
        ..FineTuneConfig::default()
    };
    c.bench_function("finetune_one_iteration", |b| {
        b.iter_batched(
            || s.scene.model.clone(),
            |mut m| {
                let mut tuner = FineTuner::new(config.clone(), m.len());
                tuner.run(&mut m, &s.cameras, &s.references)
            },
            BatchSize::LargeInput,
        );
    });
}

fn bench_dense_vs_foveated_frame(c: &mut Criterion) {
    let s = setup();
    let fr_model = build_foveated(
        &s.scene.model,
        &s.cameras,
        &s.references,
        &FrBuildConfig {
            finetune: None,
            ..FrBuildConfig::default()
        },
    );
    let renderer = Renderer::default();
    let fr = FoveatedRenderer::new(RenderOptions::default());
    let cam = &s.cameras[0];
    let mut group = c.benchmark_group("frame_wall_clock");
    group.bench_function("dense", |b| b.iter(|| renderer.render(&s.scene.model, cam)));
    group.bench_function("foveated", |b| b.iter(|| fr.render(&fr_model, cam, None)));
    group.finish();
}

/// Whole-frame render at each worker count, plus a per-stage wall-time
/// report so Project/Bin/Raster scaling is visible individually — the
/// measure-then-rebalance loop the workload analysis calls for.
fn bench_render_thread_scaling(c: &mut Criterion) {
    let s = setup();
    let cam = &s.cameras[0];
    let thread_counts = [1usize, 2, 4, 8];

    let mut group = c.benchmark_group("render_threads");
    for &threads in &thread_counts {
        let renderer = Renderer::new(RenderOptions {
            threads,
            ..RenderOptions::default()
        });
        group.bench_function(&format!("threads_{threads}"), |b| {
            b.iter(|| renderer.render(&s.scene.model, cam));
        });
    }
    group.finish();

    // Per-stage wall times (best of N frames, from the frame's own
    // FrameProfile): Project and Bin must shrink as threads grow.
    const FRAMES: usize = 5;
    let stages = [
        StageKind::Project,
        StageKind::Bin,
        StageKind::Merge,
        StageKind::Raster,
        StageKind::Composite,
    ];
    for &threads in &thread_counts {
        let renderer = Renderer::new(RenderOptions {
            threads,
            ..RenderOptions::default()
        });
        let best = (0..FRAMES)
            .map(|_| renderer.render(&s.scene.model, cam).stats.profile)
            .min_by_key(|p| p.total_wall())
            .expect("at least one frame");
        let per_stage: Vec<String> = stages
            .iter()
            .map(|&k| format!("{} {:>7.1}µs", k.name(), best.wall(k).as_secs_f64() * 1e6))
            .collect();
        println!(
            "stage_walls threads={threads}  {}  total {:>7.1}µs",
            per_stage.join("  "),
            best.total_wall().as_secs_f64() * 1e6
        );
    }
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = pipeline;
    config = configured();
    targets = bench_ce, bench_prune_round, bench_finetune_iteration,
              bench_dense_vs_foveated_frame, bench_render_thread_scaling
}
criterion_main!(pipeline);
