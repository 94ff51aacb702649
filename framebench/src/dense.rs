//! `dense-orbit`: solo `Renderer::render` of 100k small splats along an
//! orbit. The overdraw regime, where Raster is most of the frame; no
//! serve, chunk or foveated code runs.

use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::workload::{
    count_failures, deployment_options, end_to_end, reference_options, render_layer, room_spec,
    same_output, time_frames, timed_setup, trace_overhead, unit, Orbit, Outcome, RunSpec, Scale,
    StageFrame, Window, STAGES,
};
use ms_render::{FrameArena, RenderOutput, Renderer};
use ms_scene::{synth, Camera, GaussianModel};
use std::collections::BTreeMap;
use std::time::Instant;

pub(crate) fn run(spec: &RunSpec, scale: &Scale) -> Result<Outcome, String> {
    let room = room_spec(scale.dense_points, spec.seed);
    let (setup_s, (model, renderer)) = timed_setup(scale.setup_reps, || {
        let model = synth::generate(&room)?.model;
        Ok((model, Renderer::new(deployment_options())))
    })?;
    let orbit = Orbit::long(scale, room.radius, 0, unit(spec.seed, 0));
    // Untimed frames first: the worker pool starts lazily.
    for i in 0..2 {
        std::hint::black_box(renderer.render(&model, &orbit.camera(i)));
    }

    let mut values = BTreeMap::new();
    let window = Window::new(spec, scale.min_samples.max(scale.lap_frames));
    let (timed, tracer) = if spec.trace {
        let mut tracer = Tracer::default();
        let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
        let (mut frames, mut overhead_ms) = (Vec::new(), Vec::new());
        // Untraced and traced renders of each pose alternate, so drift
        // reaches both sides of the overhead comparison equally.
        let timed = time_frames(window, |i| {
            let camera = orbit.camera(i);
            let start = Instant::now();
            std::hint::black_box(renderer.render(&model, &camera));
            untraced_ms.push(stats::ms(start.elapsed()));
            let (out, stage_ms, frame_ms) =
                traced_frame(&renderer, &model, &camera, &mut tracer, i);
            traced_ms.push(frame_ms);
            overhead_ms.push(frame_ms - stage_ms.iter().sum::<f64>());
            frames.push(StageFrame {
                ms: stage_ms,
                profile: out.stats.profile.clone(),
            });
            out
        });
        render_layer(&mut values, &frames, scale.lap_frames);
        values.insert("render.frame.overhead_ms", median(overhead_ms));
        trace_overhead(&mut values, &untraced_ms, &traced_ms, &tracer);
        (timed, Some(tracer))
    } else {
        let timed = time_frames(window, |i| renderer.render(&model, &orbit.camera(i)));
        end_to_end(&mut values, &timed.latencies_ms, timed.wall, setup_s)?;
        (timed, None)
    };

    let reference = Renderer::new(reference_options());
    let failed = count_failures(&timed.kept, |i, out| {
        same_output(out, &reference.render(&model, &orbit.camera(i)))
    });
    Ok(Outcome {
        attempted: timed.latencies_ms.len() as u64,
        failed,
        values,
        tracer,
    })
}

/// One frame through `begin_frame` → `run_stage`… → `finish`, with a span
/// per stage (named by `next_stage`) and one for the frame. Starts from
/// `FrameArena::default()`, as `render` does, so the comparison with
/// `render` measures the spans and not arena reuse. Returns the output,
/// the per-stage span times and the frame's wall time, in ms.
fn traced_frame(
    renderer: &Renderer,
    model: &GaussianModel,
    camera: &Camera,
    tracer: &mut Tracer,
    index: usize,
) -> (RenderOutput, [f64; 5], f64) {
    let frame_no = index as u64;
    let start = Instant::now();
    let mut frame = renderer.begin_frame(model, camera, FrameArena::default());
    let mut stage_ms = [0.0; 5];
    loop {
        let kind = frame
            .next_stage()
            .expect("an in-core frame always has a next stage until done");
        let t0 = Instant::now();
        let done = frame.run_stage(renderer, model);
        let t1 = Instant::now();
        tracer.record(kind.name(), frame_no, None, t0, t1);
        let slot = STAGES
            .iter()
            .position(|&k| k == kind)
            .expect("STAGES lists every stage");
        stage_ms[slot] += stats::ms(t1 - t0);
        if done {
            break;
        }
    }
    let (out, arena) = frame.finish(renderer);
    drop(arena);
    let end = Instant::now();
    tracer.record("frame", frame_no, None, start, end);
    (out, stage_ms, stats::ms(end - start))
}
