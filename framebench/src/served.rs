//! `served-stream`: a `FrameServer` over the encoded chunked container of a
//! 160k-splat scene, 4 sessions on distinct orbits with 2 frames in flight
//! each, rings drained after every `step()` — a closed loop of 4 clients.
//! Decoded, the scene is about 1.13× the default chunk-cache budget, so
//! decode, eviction, both streamed Project passes and the lockstep step
//! barrier all do real work.

use crate::stats::{self, median, ratio};
use crate::trace::Tracer;
use crate::workload::{
    checked, count_failures, deployment_options, end_to_end, reference_options, render_layer,
    room_spec, same_output, timed_setup, trace_overhead, unit, Orbit, Outcome, RunSpec, Scale,
    StageFrame, Window,
};
use ms_render::{FrameProfile, RenderOutput, Renderer};
use ms_scene::{
    encode_model_chunked, synth, CacheStats, ChunkCache, ChunkedFileSource, GaussianModel,
    SceneSource,
};
use ms_serve::{FrameServer, SessionConfig, SessionId};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const SESSIONS: usize = 4;
const IN_FLIGHT: usize = 2;
/// Completion events whose frames the count metrics average: a fixed,
/// seed-determined set of frames, because the sessions run in lockstep.
const COUNT_CYCLES: usize = 2;
/// Frames per session of the serial baseline.
const SERIAL_FRAMES: usize = 3;

fn session(orbit: &Orbit, frame_count: usize, in_flight: usize) -> SessionConfig {
    SessionConfig {
        trajectory: orbit.trajectory().clone(),
        prototype: orbit.prototype(),
        frame_count,
        options: deployment_options(),
        in_flight,
        ring_capacity: in_flight,
    }
}

pub(crate) fn run(spec: &RunSpec, scale: &Scale) -> Result<Outcome, String> {
    let mut tracer = spec.trace.then(Tracer::default);
    let room = room_spec(scale.served_points, spec.seed);
    let orbits: Vec<Orbit> = (0..SESSIONS)
        .map(|s| Orbit::long(scale, room.radius, s, unit(spec.seed, s as u64)))
        .collect();
    let (setup_s, (source, mut server, ids)) = timed_setup(scale.setup_reps, || {
        let model = synth::generate(&room)?.model;
        let bytes = encode_model_chunked(&model, scale.chunk_splats).to_vec();
        drop(model);
        let source = Arc::new(ChunkedFileSource::from_bytes(bytes).map_err(|e| e.to_string())?);
        let mut server = FrameServer::new_chunked(source.clone());
        let ids = orbits
            .iter()
            .map(|o| server.add_session(session(o, o.frame_count(), IN_FLIGHT)))
            .collect::<Result<Vec<SessionId>, String>>()?;
        Ok((source, server, ids))
    })?;
    let mut values = BTreeMap::new();
    if let Some(tracer) = tracer.as_mut() {
        decode_probe(&source, tracer, &mut values)?;
    }

    // Untimed until the first frames complete: the pool starts and the
    // cache fills.
    let warmup = Instant::now();
    while server.step() == 0 && warmup.elapsed().as_secs_f64() < 60.0 {}
    for &id in &ids {
        server.take_frames(id);
    }

    let window = Window::new(spec, scale.min_samples);
    let cache_before = server.report().cache;
    let start = Instant::now();
    let mut run = Loop::default();
    // A traced run alternates untraced and traced completion cycles, so
    // drift reaches both sides of the overhead comparison equally.
    let mut traced_cycle = false;
    // The region ends at the last completion: frames still in flight at
    // the deadline are not counted, and neither is their time.
    let mut end = start;
    while window.more(start, run.latencies_ms.len()) {
        let t0 = Instant::now();
        let completed = server.step();
        let t1 = Instant::now();
        run.steps += 1;
        let mut cycle_tracer = if traced_cycle { tracer.as_mut() } else { None };
        if let Some(t) = cycle_tracer.as_deref_mut() {
            t.record("serve.step", run.steps, None, t0, t1);
            run.step_ms.push(stats::ms(t1 - t0));
        }
        if completed > 0 {
            run.completions.push((run.steps, completed));
            end = t1;
        }
        for (s, &id) in ids.iter().enumerate() {
            for frame in server.take_frames(id) {
                let latency_ms = stats::ms(frame.latency);
                if let Some(t) = cycle_tracer.as_deref_mut() {
                    let admitted = t1.checked_sub(frame.latency).unwrap_or(t1);
                    let index = frame.frame_index as u64;
                    t.record("serve.frame", index, Some(s as u32), admitted, t1);
                    run.traced_ms.push(latency_ms);
                } else {
                    run.untraced_ms.push(latency_ms);
                }
                if run.completions.len() <= COUNT_CYCLES {
                    run.count_frames += 1;
                }
                run.frames
                    .push(StageFrame::from_profile(&frame.output.stats.profile));
                if checked(run.latencies_ms.len()) {
                    run.kept.push((s, (frame.frame_index, frame.output)));
                }
                run.latencies_ms.push(latency_ms);
            }
        }
        if completed > 0 && tracer.is_some() {
            traced_cycle = !traced_cycle;
        }
    }
    let wall = end - start;
    if tracer.is_none() {
        end_to_end(&mut values, &run.latencies_ms, wall, setup_s)?;
    }
    let cache = delta(&cache_before, &server.report().cache);
    // A failed session drops the frames it had in flight and admits no more.
    let lost = ids
        .iter()
        .filter_map(|&id| server.session_error(id))
        .inspect(|e| eprintln!("framebench: session failed: {e}"))
        .count()
        * IN_FLIGHT;

    if let Some(tracer) = &tracer {
        let delivered = run.latencies_ms.len() as f64;
        render_layer(&mut values, &run.frames, run.count_frames);
        values.insert("scene.cache.hit_rate", cache.hit_rate());
        values.insert("scene.cache.misses", ratio(cache.misses as f64, delivered));
        values.insert(
            "scene.cache.evictions",
            ratio(cache.evictions as f64, delivered),
        );
        values.insert(
            "scene.cache.resident_peak_mb",
            cache.resident_bytes_peak as f64 / (1 << 20) as f64,
        );
        let peak = |f: fn(&FrameProfile) -> u64| {
            run.frames
                .iter()
                .map(|fr| f(&fr.profile))
                .max()
                .unwrap_or(0) as f64
        };
        values.insert("scene.chunk_bytes_peak", peak(|p| p.chunk_bytes_peak));
        values.insert(
            "scene.projected_bytes_peak",
            peak(|p| p.projected_bytes_peak),
        );
        let steps = stats::sorted(run.step_ms.iter().copied());
        values.insert(
            "serve.step_ms_p50",
            stats::percentile(&steps, 50).unwrap_or(0.0),
        );
        values.insert(
            "serve.step_ms_p90",
            stats::percentile(&steps, 90).unwrap_or(0.0),
        );
        values.insert("serve.steps_per_frame", run.steps_per_frame());
        let served_fps = delivered / wall.as_secs_f64();
        let serial_orbits: Vec<Orbit> = (0..SESSIONS)
            .map(|s| Orbit::new(scale, room.radius, s, unit(spec.seed, s as u64), 1))
            .collect();
        let serial = serial_fps(&source, &serial_orbits)?;
        values.insert("serve.serial_ratio", ratio(served_fps, serial));
        trace_overhead(&mut values, &run.untraced_ms, &run.traced_ms, tracer);
    }

    // Served frames must be bit-identical to a solo in-core render of the
    // same pose; the scene is regenerated from the seed for the check.
    let model = synth::generate(&room)?.model;
    let reference = Renderer::new(reference_options());
    let failed = count_failures(&run.kept, |s, (i, out)| {
        same_output(out, &reference.render(&model, &orbits[s].camera(*i)))
    });
    Ok(Outcome {
        attempted: (run.latencies_ms.len() + lost) as u64,
        failed: failed + lost as u64,
        values,
        tracer,
    })
}

/// What the timed loop collects.
#[derive(Default)]
struct Loop {
    /// Latency of every delivered frame, admission to completion.
    latencies_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    step_ms: Vec<f64>,
    steps: u64,
    /// `(step, frames completed)` of every step that completed frames.
    completions: Vec<(u64, usize)>,
    frames: Vec<StageFrame>,
    /// Frames of the first [`COUNT_CYCLES`] completion events.
    count_frames: usize,
    /// `(session, (frame index, output))` of the frames sampled for the
    /// check.
    kept: Vec<(usize, (usize, RenderOutput))>,
}

impl Loop {
    /// Steps per delivered frame between the first and last completion
    /// events: whole lockstep cycles only, so it repeats exactly.
    fn steps_per_frame(&self) -> f64 {
        match (self.completions.first(), self.completions.last()) {
            (Some(&(first, _)), Some(&(last, _))) => ratio(
                (last - first) as f64,
                self.completions[1..].iter().map(|&(_, n)| n as f64).sum(),
            ),
            _ => 0.0,
        }
    }
}

fn delta(before: &CacheStats, after: &CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        resident_bytes_peak: after.resident_bytes_peak,
    }
}

/// Decode every chunk through `SceneSource::load_chunk_into`, then twice
/// through `ChunkCache::load_into` with a budget that holds the whole
/// scene: the first pass misses and inserts, the second hits.
fn decode_probe(
    source: &ChunkedFileSource,
    tracer: &mut Tracer,
    values: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut chunk = GaussianModel::new(0);
    let (mut decode_ms, mut bytes) = (Vec::new(), 0usize);
    for i in 0..source.chunk_count() {
        let t0 = Instant::now();
        source
            .load_chunk_into(i, &mut chunk)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        tracer.record("scene.load_chunk_into", i as u64, None, t0, t1);
        decode_ms.push(stats::ms(t1 - t0));
        bytes += chunk.storage_bytes();
    }
    let cache = ChunkCache::new(2 * bytes);
    let mut hit_ms = Vec::new();
    for _pass in 0..2 {
        for i in 0..source.chunk_count() {
            let t0 = Instant::now();
            let access = cache
                .load_into(source, i, 0, &mut chunk)
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            tracer.record("cache.load_into", i as u64, None, t0, t1);
            if access.hit {
                hit_ms.push(stats::ms(t1 - t0));
            }
        }
    }
    let decode_s = decode_ms.iter().sum::<f64>() / 1e3;
    values.insert("scene.decode_ms_per_chunk", median(decode_ms));
    values.insert("scene.decode_mb_s", ratio(bytes as f64 / 1e6, decode_s));
    values.insert("scene.cache.hit_copy_ms", median(hit_ms));
    Ok(())
}

/// Frames per second of the same sessions served one after another: one
/// session at a time, one frame in flight, [`SERIAL_FRAMES`] poses of a
/// one-lap `orbits[s]` each.
fn serial_fps(source: &Arc<ChunkedFileSource>, orbits: &[Orbit]) -> Result<f64, String> {
    let mut server = FrameServer::new_chunked(source.clone());
    let start = Instant::now();
    let mut frames = 0;
    for orbit in orbits {
        let id = server.add_session(session(orbit, SERIAL_FRAMES, 1))?;
        let mut delivered = 0;
        while delivered < SERIAL_FRAMES {
            server.step();
            delivered += server.take_frames(id).len();
            if let Some(e) = server.session_error(id) {
                return Err(format!("serial baseline session failed: {e}"));
            }
        }
        frames += delivered;
    }
    Ok(frames as f64 / start.elapsed().as_secs_f64())
}
