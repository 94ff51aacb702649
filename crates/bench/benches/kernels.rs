//! Criterion micro-benchmarks of the pipeline kernels: projection, tile
//! binning + sorting, rasterization, HVSQ, and the accelerator simulator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use metasapiens::accel::{simulate, AccelConfig, AccelWorkload};
use metasapiens::hvs::{DisplayGeometry, EccentricityMap, Hvsq, HvsqOptions};
use metasapiens::render::{project_model, RenderOptions, Renderer, TileBins, TileGridDims};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::Camera;
use std::time::Duration;

fn setup() -> (metasapiens::scene::synth::Scene, Camera) {
    let scene = TraceId::by_name("garden")
        .unwrap()
        .build_scene_with_scale(0.01);
    let cam = Camera {
        width: 192,
        height: 144,
        ..scene.train_cameras[0]
    };
    (scene, cam)
}

fn bench_projection(c: &mut Criterion) {
    let (scene, cam) = setup();
    let opts = RenderOptions::default();
    c.bench_function("projection", |b| {
        b.iter(|| project_model(&scene.model, &cam, &opts));
    });
}

fn bench_binning(c: &mut Criterion) {
    let (scene, cam) = setup();
    let opts = RenderOptions::default();
    let splats = project_model(&scene.model, &cam, &opts);
    let grid = TileGridDims::for_image(cam.width, cam.height, 16);
    c.bench_function("binning", |b| {
        b.iter(|| TileBins::build(&splats, grid));
    });
}

fn bench_rasterization(c: &mut Criterion) {
    let (scene, cam) = setup();
    let renderer = Renderer::default();
    c.bench_function("render_full_frame", |b| {
        b.iter(|| renderer.render(&scene.model, &cam));
    });
}

fn bench_rasterization_parallel(c: &mut Criterion) {
    let (scene, cam) = setup();
    let renderer = Renderer::new(RenderOptions {
        threads: 0,
        ..RenderOptions::default()
    });
    c.bench_function("render_full_frame_parallel", |b| {
        b.iter(|| renderer.render(&scene.model, &cam));
    });
}

fn bench_hvsq(c: &mut Criterion) {
    let (scene, cam) = setup();
    let renderer = Renderer::default();
    let reference = renderer.render(&scene.model, &cam).image;
    let mut altered = reference.clone();
    for p in altered.pixels_mut() {
        *p *= 0.97;
    }
    let display = DisplayGeometry::new(cam.width, cam.height, 88.0);
    let hvsq = Hvsq::with_options(
        EccentricityMap::centered(display),
        HvsqOptions {
            stride: 2,
            ..HvsqOptions::default()
        },
    );
    c.bench_function("hvsq_full_image", |b| {
        b.iter(|| hvsq.evaluate(&reference, &altered, None));
    });
}

fn bench_accel_sim(c: &mut Criterion) {
    let (scene, cam) = setup();
    let renderer = Renderer::default();
    let out = renderer.render(&scene.model, &cam);
    let workload =
        AccelWorkload::from_stats(&out.stats, None, 0, scene.model.storage_bytes() as u64);
    let config = AccelConfig::metasapiens_tm_ip();
    c.bench_function("accel_simulate_frame", |b| {
        b.iter_batched(
            || workload.clone(),
            |w| simulate(&w, &config),
            BatchSize::SmallInput,
        );
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = kernels;
    config = configured();
    targets = bench_projection, bench_binning, bench_rasterization,
              bench_rasterization_parallel, bench_hvsq, bench_accel_sim
}
criterion_main!(kernels);
