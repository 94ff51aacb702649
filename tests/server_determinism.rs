//! Determinism of the multi-session frame server: every session's frame
//! stream must be **bit-identical** — pixels, winner buffers, stats and
//! `FrameProfile` work counters — to a solo `Renderer` walking the same
//! trajectory, no matter how many other sessions are in flight, how many
//! pool workers exist, and whether tile merging is on. Pipelining changes
//! *when* a frame's stages execute, never their inputs.
//!
//! Also property-tests the trajectory sampler the server admits frames
//! from: endpoint clamping, loop closure, per-index/batch agreement and
//! monotonicity.

use metasapiens::math::Vec3;
use metasapiens::render::{RenderOptions, RenderOutput, Renderer};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::trajectory::{orbit, PoseKey, Trajectory};
use metasapiens::scene::{
    encode_model_chunked, Camera, ChunkCache, ChunkedFileSource, GaussianModel, InCoreSource,
    SceneSource,
};
use ms_serve::{FrameServer, SceneHandle, SessionConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Worker counts the suite runs the server under (0 = auto).
const THREAD_COUNTS: [usize; 4] = [2, 3, 8, 0];
/// Concurrency levels, up to the 16-session acceptance bar.
const SESSION_COUNTS: [usize; 3] = [1, 4, 16];
/// Frames per session. Small: the matrix multiplies fast.
const FRAMES: usize = 4;
/// Distinct trajectories; session `i` uses trajectory `i % DISTINCT_TRAJS`.
const DISTINCT_TRAJS: usize = 6;

fn model() -> Arc<GaussianModel> {
    Arc::new(
        TraceId::by_name("kitchen")
            .unwrap()
            .build_scene_with_scale(0.0012)
            .model,
    )
}

fn prototype() -> Camera {
    let s = TraceId::by_name("kitchen")
        .unwrap()
        .build_scene_with_scale(0.0012);
    Camera {
        width: 48,
        height: 36,
        ..s.train_cameras[0]
    }
}

/// Trajectory for session slot `i`: orbits of varying radius/height so
/// sessions render genuinely different frames (a shared trajectory would
/// let cross-session buffer mixups cancel out).
fn trajectory(slot: usize) -> Trajectory {
    let slot = slot % DISTINCT_TRAJS;
    orbit(
        Vec3::zero(),
        8.0 + slot as f32 * 1.5,
        0.5 + slot as f32 * 0.4,
        5 + slot,
    )
}

fn options(threads: usize, merged: bool) -> RenderOptions {
    let base = if merged {
        RenderOptions::with_tile_merging()
    } else {
        RenderOptions::default()
    };
    RenderOptions {
        threads,
        track_point_stats: true,
        ..base
    }
}

/// Solo reference: a plain serial `Renderer` walking trajectory `slot`.
fn solo_frames(slot: usize, merged: bool) -> Vec<RenderOutput> {
    let model = model();
    let proto = prototype();
    let renderer = Renderer::new(options(1, merged));
    trajectory(slot)
        .cameras(&proto, FRAMES)
        .iter()
        .map(|cam| renderer.render(&*model, cam))
        .collect()
}

/// Run `sessions` concurrent sessions at `threads` workers on `server` and
/// assert every frame equals the solo in-core reference bit for bit.
/// `RenderOutput: PartialEq` covers pixels, winners and the full stats
/// block (profile equality ignores wall times and the resident-peak
/// fields, so chunked-vs-in-core compares clean). `scene` names the
/// server's scene in failure messages.
fn assert_served_matches_solo(
    mut server: FrameServer,
    scene: &str,
    sessions: usize,
    threads: usize,
    merged: bool,
) {
    let refs: Vec<Vec<RenderOutput>> = (0..DISTINCT_TRAJS.min(sessions))
        .map(|slot| solo_frames(slot, merged))
        .collect();

    let proto = prototype();
    let ids: Vec<_> = (0..sessions)
        .map(|i| {
            server
                .add_session(SessionConfig {
                    trajectory: trajectory(i),
                    prototype: proto,
                    frame_count: FRAMES,
                    options: options(threads, merged),
                    // Vary the pipelining window across sessions to
                    // exercise different interleavings.
                    in_flight: 1 + i % 3,
                    ring_capacity: FRAMES,
                })
                .expect("valid session config")
        })
        .collect();

    let results = server.run_to_completion();
    assert_eq!(results.len(), sessions);
    for (i, (id, frames)) in results.iter().enumerate() {
        assert_eq!(*id, ids[i]);
        assert_eq!(frames.len(), FRAMES, "session {i} frame count");
        let expect = &refs[i % DISTINCT_TRAJS];
        for (k, frame) in frames.iter().enumerate() {
            assert_eq!(frame.frame_index, k, "session {i} completion order");
            assert_eq!(
                frame.output, expect[k],
                "{scene} session {i} frame {k} differs from in-core solo \
                 (sessions={sessions} threads={threads} merged={merged})"
            );
        }
    }

    let report = server.report();
    assert_eq!(report.total_frames, sessions * FRAMES);
    for s in &report.sessions {
        assert_eq!(s.frames_completed, FRAMES);
        assert!(s.sustained_fps > 0.0);
        assert!(s.latency_p99 >= s.latency_p50);
    }
}

/// Chunk size of the eviction tests: four chunks of the 384-splat scene,
/// the last one ragged.
const EVICTION_CHUNK_SPLATS: usize = 100;

/// A cache of two `EVICTION_CHUNK_SPLATS`-point chunks' decoded bytes:
/// smaller than the scene, so serving it must evict or re-decode.
fn two_chunk_cache(model: &GaussianModel) -> Arc<ChunkCache> {
    let mut chunk = GaussianModel::new(model.sh_degree);
    model.clone_range_into(0..EVICTION_CHUNK_SPLATS, &mut chunk);
    let budget = 2 * chunk.storage_bytes();
    assert!(
        budget < model.storage_bytes(),
        "the cache must not hold the scene"
    );
    Arc::new(ChunkCache::new(budget))
}

/// Assert `cache` was too small for the scene it served: some chunk of
/// `source` decoded more than once.
fn assert_cache_reloaded(cache: &ChunkCache, source: &dyn SceneSource) {
    let stats = cache.stats();
    assert!(
        stats.misses > source.chunk_count() as u64,
        "a cache smaller than the scene must re-decode ({stats:?})"
    );
    assert!(stats.resident_bytes_peak <= cache.budget_bytes());
}

#[test]
fn server_unmerged_matches_solo() {
    for sessions in SESSION_COUNTS {
        for threads in THREAD_COUNTS {
            let server = FrameServer::new(model());
            assert_served_matches_solo(server, "in-core", sessions, threads, false);
        }
    }
}

#[test]
fn server_merged_matches_solo() {
    for sessions in SESSION_COUNTS {
        for threads in THREAD_COUNTS {
            let server = FrameServer::new(model());
            assert_served_matches_solo(server, "in-core", sessions, threads, true);
        }
    }
}

#[test]
fn sessions_added_and_removed_mid_run_stay_deterministic() {
    // A session that joins late or a neighbor that leaves mid-flight must
    // not perturb anyone else's frames.
    let refs: Vec<Vec<RenderOutput>> = (0..3).map(|slot| solo_frames(slot, false)).collect();
    let mut server = FrameServer::new(model());
    let proto = prototype();
    let mk = |slot: usize| SessionConfig {
        trajectory: trajectory(slot),
        prototype: proto,
        frame_count: FRAMES,
        options: options(3, false),
        in_flight: 2,
        ring_capacity: FRAMES,
    };
    let a = server.add_session(mk(0)).unwrap();
    let b = server.add_session(mk(1)).unwrap();
    server.step();
    server.step();
    // Session c joins while a and b are mid-flight; a is torn down with
    // frames still in its window.
    let c = server.add_session(mk(2)).unwrap();
    server.remove_session(a).expect("a was live");
    let results = server.run_to_completion();
    let by_id: std::collections::HashMap<_, _> = results.into_iter().collect();
    assert!(!by_id.contains_key(&a));
    for (id, slot) in [(b, 1usize), (c, 2usize)] {
        let frames = &by_id[&id];
        assert_eq!(frames.len(), FRAMES);
        for (k, frame) in frames.iter().enumerate() {
            assert_eq!(frame.output, refs[slot][k], "slot {slot} frame {k}");
        }
    }
}

#[test]
fn backpressure_bounds_undrained_frames() {
    let mut server = FrameServer::new(model());
    let id = server
        .add_session(SessionConfig {
            trajectory: trajectory(0),
            prototype: prototype(),
            frame_count: 6,
            options: options(2, false),
            in_flight: 2,
            ring_capacity: 2,
        })
        .unwrap();
    // Nobody drains: the session must stall at ring_capacity completed
    // frames, not run ahead.
    for _ in 0..60 {
        server.step();
    }
    assert!(!server.is_idle());
    assert_eq!(server.session_stats(id).unwrap().frames_completed, 2);
    // Draining releases the stall; the full stream still arrives in order.
    let mut got = server.take_frames(id);
    while !server.is_idle() {
        server.step();
        got.append(&mut server.take_frames(id));
    }
    got.append(&mut server.take_frames(id));
    let indices: Vec<_> = got.iter().map(|f| f.frame_index).collect();
    assert_eq!(indices, vec![0, 1, 2, 3, 4, 5]);
}

// ---------------------------------------------------------------------------
// Out-of-core chunking crossed with the served axis
// ---------------------------------------------------------------------------

/// The chunk axis crossed with the served axis: 16 sessions served from a
/// chunked [`SceneSource`] must be bit-identical to solo in-core renders of
/// the same trajectories — for a ragged chunk size that splits tile lists
/// mid-stream and for a half-scene size, under different worker counts.
#[test]
fn chunked_server_sessions_match_in_core_solo() {
    let model = model();
    for chunk_splats in [347, model.len() / 2 + 1] {
        let source: Arc<dyn SceneSource + Send + Sync> =
            Arc::new(InCoreSource::new((*model).clone(), chunk_splats));
        assert!(
            source.chunk_count() >= 2,
            "chunk size {chunk_splats} must actually chunk the scene"
        );
        for threads in [2, 8] {
            let server = FrameServer::new_chunked(source.clone());
            let scene = format!("chunked ({chunk_splats}-splat chunks)");
            assert_served_matches_solo(server, &scene, 16, threads, true);
        }
    }

    // Again through a shared cache of two chunks, smaller than the scene:
    // sessions evict and re-decode each other's chunks.
    let source: Arc<dyn SceneSource + Send + Sync> =
        Arc::new(InCoreSource::new((*model).clone(), EVICTION_CHUNK_SPLATS));
    for threads in [2, 8] {
        let cache = two_chunk_cache(&model);
        let server = FrameServer::new_scene_with_cache(
            SceneHandle::Chunked(source.clone()),
            Arc::clone(&cache),
        );
        assert_served_matches_solo(server, "two-chunk cache", 16, threads, true);
        assert_cache_reloaded(&cache, &*source);
    }
}

/// The shared chunk cache crossed with the served axis: 16 sessions
/// streaming the same chunked scene through one explicit [`ChunkCache`]
/// must each be bit-identical to the solo in-core render — hit/miss
/// interleavings across sessions are excluded from every compared field —
/// and the shared cache must actually share: with every session walking
/// the same source, at least half of all chunk lookups hit (the ISSUE
/// acceptance bar; in practice nearly all do, since each chunk decodes
/// roughly once for the whole server).
#[test]
fn cached_chunked_server_shares_decodes_across_sessions() {
    let model = model();
    let proto = prototype();
    let refs: Vec<Vec<RenderOutput>> = (0..DISTINCT_TRAJS)
        .map(|slot| solo_frames(slot, false))
        .collect();

    let source: Arc<dyn SceneSource + Send + Sync> =
        Arc::new(InCoreSource::new((*model).clone(), 347));
    let chunks = source.chunk_count() as u64;
    assert!(chunks >= 2);
    let cache = Arc::new(ChunkCache::new(64 << 20));
    let mut server = FrameServer::new_scene_with_cache(SceneHandle::Chunked(source), cache);
    let sessions = 16;
    let ids: Vec<_> = (0..sessions)
        .map(|i| {
            server
                .add_session(SessionConfig {
                    trajectory: trajectory(i),
                    prototype: proto,
                    frame_count: FRAMES,
                    options: options(3, false),
                    in_flight: 1 + i % 3,
                    ring_capacity: FRAMES,
                })
                .expect("valid session config")
        })
        .collect();
    let results = server.run_to_completion();
    assert_eq!(results.len(), sessions);
    for (i, (id, frames)) in results.iter().enumerate() {
        assert_eq!(*id, ids[i]);
        assert_eq!(frames.len(), FRAMES, "session {i} frame count");
        let expect = &refs[i % DISTINCT_TRAJS];
        for (k, frame) in frames.iter().enumerate() {
            assert_eq!(
                frame.output, expect[k],
                "cached session {i} frame {k} differs from in-core solo"
            );
        }
    }

    let report = server.report();
    let cache = report.cache;
    // 16 sessions × 4 frames, each streaming every chunk once = 64 lookups
    // per chunk; only the first decode of each chunk (plus any concurrent
    // first-lookup races) can miss.
    assert_eq!(
        cache.lookups(),
        sessions as u64 * FRAMES as u64 * chunks,
        "every chunk access goes through the shared cache"
    );
    assert!(
        cache.hit_rate() >= 0.5,
        "shared-scene sessions must hit each other's decodes (hit rate {:.3})",
        cache.hit_rate()
    );
    assert!(cache.resident_bytes_peak > 0);
}

/// Serving straight from an encoded multi-chunk container reproduces the
/// in-core stream too: encode → [`ChunkedFileSource::from_bytes`] → serve.
#[test]
fn chunked_file_source_served_matches_in_core_solo() {
    let model = model();
    let source = ChunkedFileSource::from_bytes(encode_model_chunked(&model, 347).to_vec())
        .expect("valid container");
    assert!(source.chunk_count() >= 2);
    let server = FrameServer::new_chunked(Arc::new(source));
    assert_served_matches_solo(server, "file-served", 4, 3, false);

    // Again through a cache of two chunks, smaller than the scene.
    let encoded = encode_model_chunked(&model, EVICTION_CHUNK_SPLATS);
    let source = ChunkedFileSource::from_bytes(encoded.to_vec()).expect("valid container");
    let source: Arc<dyn SceneSource + Send + Sync> = Arc::new(source);
    let cache = two_chunk_cache(&model);
    let server =
        FrameServer::new_scene_with_cache(SceneHandle::Chunked(source.clone()), Arc::clone(&cache));
    assert_served_matches_solo(server, "file-served two-chunk cache", 4, 3, false);
    assert_cache_reloaded(&cache, &*source);
}

// ---------------------------------------------------------------------------
// Trajectory sampler properties (the server's frame-admission source)
// ---------------------------------------------------------------------------

fn close(a: Vec3, b: Vec3, tol: f32) -> bool {
    a.distance(b) <= tol
}

proptest! {
    /// Out-of-range parameters clamp to the endpoints (non-looped).
    #[test]
    fn sample_clamps_to_endpoints(t in -3.0f32..4.0) {
        let keys = vec![
            PoseKey { eye: Vec3::new(0.0, 0.0, 0.0), target: Vec3::zero() },
            PoseKey { eye: Vec3::new(1.0, 2.0, 0.0), target: Vec3::one() },
            PoseKey { eye: Vec3::new(3.0, 1.0, -1.0), target: Vec3::zero() },
        ];
        let traj = Trajectory::new(keys, false);
        let s = traj.sample(t);
        let expect = traj.sample(t.clamp(0.0, 1.0));
        prop_assert_eq!(s.eye, expect.eye);
        prop_assert_eq!(s.target, expect.target);
    }

    /// A looped trajectory closes: sample(1) returns to sample(0) (within
    /// f32 spline-evaluation noise — u=1 does not cancel exactly).
    #[test]
    fn looped_trajectory_closes(radius in 1.0f32..10.0, height in -2.0f32..2.0) {
        let traj = orbit(Vec3::zero(), radius, height, 7);
        let a = traj.sample(0.0);
        let b = traj.sample(1.0);
        prop_assert!(close(a.eye, b.eye, 1e-4 * radius.max(1.0)));
        prop_assert!(close(a.target, b.target, 1e-4));
    }

    /// `camera_at` is exactly the batch densification, frame by frame —
    /// the server admits single frames, solo renders walk the batch, and
    /// determinism needs them bit-identical.
    #[test]
    fn camera_at_matches_batch_cameras(n in 2usize..40, looped_bit in 0usize..2) {
        let looped = looped_bit == 1;
        let keys = vec![
            PoseKey { eye: Vec3::new(0.0, 1.0, 5.0), target: Vec3::zero() },
            PoseKey { eye: Vec3::new(4.0, 1.5, 0.0), target: Vec3::new(0.5, 0.0, 0.0) },
            PoseKey { eye: Vec3::new(0.0, 2.0, -5.0), target: Vec3::zero() },
            PoseKey { eye: Vec3::new(-4.0, 0.5, 0.0), target: Vec3::new(0.0, 0.5, 0.0) },
        ];
        let traj = Trajectory::new(keys, looped);
        let proto = Camera::look_at(64, 48, 60.0, Vec3::zero(), Vec3::one());
        let batch = traj.cameras(&proto, n);
        for (i, cam) in batch.iter().enumerate() {
            let single = traj.camera_at(&proto, i, n);
            prop_assert!(single.eye == cam.eye, "frame {} eye mismatch", i);
            prop_assert!(single.target == cam.target, "frame {} target mismatch", i);
            prop_assert_eq!(single.width, cam.width);
            prop_assert_eq!(single.height, cam.height);
        }
    }

    /// On equally spaced collinear keys, uniform Catmull–Rom degenerates
    /// to linear interpolation, so the sampled eye must advance
    /// monotonically with `t`.
    #[test]
    fn sample_is_monotone_on_collinear_keys(steps in 3usize..50) {
        let keys: Vec<PoseKey> = (0..5)
            .map(|i| PoseKey {
                eye: Vec3::new(i as f32, 0.0, 0.0),
                target: Vec3::zero(),
            })
            .collect();
        let traj = Trajectory::new(keys, false);
        let mut prev = traj.sample(0.0).eye.x;
        for k in 1..=steps {
            let t = k as f32 / steps as f32;
            let x = traj.sample(t).eye.x;
            prop_assert!(x >= prev - 1e-5, "t={} x={} prev={}", t, x, prev);
            prev = x;
        }
        prop_assert!(close(traj.sample(0.0).eye, Vec3::zero(), 1e-6));
        prop_assert!(close(traj.sample(1.0).eye, Vec3::new(4.0, 0.0, 0.0), 1e-4));
    }
}
