//! `fov-gaze`: solo `FoveatedRenderer::render` of the foveated model built
//! from the dense-orbit scene (levels at 100/65/45/30 % of its splats),
//! with the gaze sweeping horizontally. The masked second pipeline
//! (`Renderer::run_pipeline`), per-level re-projection and blending run
//! only here.

use crate::stats::{self, median, ratio};
use crate::trace::Tracer;
use crate::workload::{
    count_failures, deployment_options, end_to_end, reference_options, render_layer, room_spec,
    same_image, time_frames, timed_setup, trace_overhead, unit, Orbit, Outcome, RunSpec, Scale,
    StageFrame, Window,
};
use ms_fov::{build_foveated, FovRenderOutput, FoveatedRenderer, FrBuildConfig};
use ms_math::Vec2;
use ms_render::{Renderer, StageKind};
use ms_scene::synth;
use std::collections::BTreeMap;
use std::time::Instant;

pub(crate) fn run(spec: &RunSpec, scale: &Scale) -> Result<Outcome, String> {
    let room = room_spec(scale.dense_points, spec.seed);
    // The dense-orbit ring, entered at a seeded phase; the camera stays
    // there while the gaze moves.
    let camera = Orbit::long(scale, room.radius, 0, unit(spec.seed, 0)).camera(0);
    let (setup_s, (model, renderer)) = timed_setup(scale.setup_reps, || {
        let dense = synth::generate(&room)?.model;
        let target = Renderer::new(deployment_options())
            .render(&dense, &camera)
            .image;
        let config = FrBuildConfig {
            finetune: None,
            ..FrBuildConfig::default()
        };
        let model = build_foveated(&dense, &[camera], &[target], &config);
        Ok((model, FoveatedRenderer::new(deployment_options())))
    })?;
    let sweep_phase = unit(spec.seed, 1);
    let gaze = |i: usize| {
        let t = sweep_phase + i as f32 / scale.lap_frames as f32;
        let w = scale.width as f32;
        let x = w * (0.5 + 0.35 * (t * std::f32::consts::TAU).sin());
        Some(Vec2::new(x, scale.height as f32 * 0.5))
    };
    for i in 0..2 {
        std::hint::black_box(renderer.render(&model, &camera, gaze(i)));
    }

    let mut values = BTreeMap::new();
    let window = Window::new(spec, scale.min_samples.max(scale.lap_frames));
    let (timed, tracer) = if spec.trace {
        let mut tracer = Tracer::default();
        let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
        let (mut frames, mut levels) = (Vec::new(), Vec::new());
        let timed = time_frames(window, |i| {
            let start = Instant::now();
            std::hint::black_box(renderer.render(&model, &camera, gaze(i)));
            untraced_ms.push(stats::ms(start.elapsed()));
            let t0 = Instant::now();
            let out = renderer.render(&model, &camera, gaze(i));
            let t1 = Instant::now();
            tracer.record("foveated.render", i as u64, None, t0, t1);
            traced_ms.push(stats::ms(t1 - t0));
            levels.push(LevelFrame::new(&out, stats::ms(t1 - t0)));
            frames.push(StageFrame::from_profile(&out.stats.profile));
            out
        });
        render_layer(&mut values, &frames, scale.lap_frames);
        foveated_layer(&mut values, &levels, scale.lap_frames);
        trace_overhead(&mut values, &untraced_ms, &traced_ms, &tracer);
        (timed, Some(tracer))
    } else {
        let timed = time_frames(window, |i| renderer.render(&model, &camera, gaze(i)));
        end_to_end(&mut values, &timed.latencies_ms, timed.wall, setup_s)?;
        (timed, None)
    };

    let reference = FoveatedRenderer::new(reference_options());
    let failed = count_failures(&timed.kept, |i, out| {
        same_output(out, &reference.render(&model, &camera, gaze(i)))
    });
    Ok(Outcome {
        attempted: timed.latencies_ms.len() as u64,
        failed,
        values,
        tracer,
    })
}

/// One foveated frame as the `foveated` layer saw it, from its public
/// per-level statistics.
struct LevelFrame {
    levels: usize,
    project_ms: f64,
    raster_ms: f64,
    /// Render wall minus the time the level pipelines account for: mask
    /// building, blending and stats merging.
    outside_ms: f64,
    /// Σ level `points_projected` ÷ the base level's.
    project_repeat: f64,
    blended_pixels: usize,
}

impl LevelFrame {
    fn new(out: &FovRenderOutput, wall_ms: f64) -> Self {
        let levels = &out.per_level_stats;
        let sum_ms = |k: StageKind| levels.iter().map(|s| stats::ms(s.profile.wall(k))).sum();
        let pipeline_ms: f64 = levels
            .iter()
            .map(|s| stats::ms(s.profile.total_wall()))
            .sum();
        Self {
            levels: levels.len(),
            project_ms: sum_ms(StageKind::Project),
            raster_ms: sum_ms(StageKind::Raster),
            outside_ms: wall_ms - pipeline_ms,
            project_repeat: ratio(
                levels.iter().map(|s| s.points_projected as f64).sum(),
                out.stats.points_projected as f64,
            ),
            blended_pixels: out.blended_pixels,
        }
    }
}

fn foveated_layer(values: &mut BTreeMap<&'static str, f64>, frames: &[LevelFrame], count: usize) {
    let first = &frames[..count.min(frames.len())];
    let mean = |f: fn(&LevelFrame) -> f64| ratio(first.iter().map(f).sum(), first.len() as f64);
    values.insert("fov.levels", mean(|f| f.levels as f64));
    values.insert(
        "fov.project_ms",
        median(frames.iter().map(|f| f.project_ms)),
    );
    values.insert("fov.project_repeat", mean(|f| f.project_repeat));
    values.insert("fov.raster_ms", median(frames.iter().map(|f| f.raster_ms)));
    values.insert(
        "fov.outside_ms",
        median(frames.iter().map(|f| f.outside_ms)),
    );
    values.insert("fov.blended_pixels", mean(|f| f.blended_pixels as f64));
}

/// Bit-identical pixels and equal per-level statistics.
fn same_output(a: &FovRenderOutput, b: &FovRenderOutput) -> bool {
    same_image(&a.image, &b.image) && a == b
}
