//! Fault injection for the streaming path: a scripted chunk-load failure
//! must surface as a clean [`SourceError`] from the `try_` entry points —
//! never a panic, a poisoned [`FrameArena`], or a torn frame server.
//!
//! [`FailingSource`] sabotages one chunk index, either permanently or for
//! the first *n* loads (`transient` — a fault that heals, so exactly one
//! consumer of a shared source hits it). The suite proves four things:
//! errors propagate with the right variant for both failure modes, the
//! recovered arena renders the next frame bit-identically, the panicking
//! wrapper panics with a diagnosable message, and a 16-session server
//! sharing a transiently-faulty scene loses exactly one session while the
//! other fifteen keep producing bit-identical frames.

use metasapiens::math::Vec3;
use metasapiens::render::{FrameArena, RenderOptions, RenderOutput, Renderer, SceneRef};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::trajectory::{orbit, Trajectory};
use metasapiens::scene::{
    Camera, ChunkCache, DecodeError, FailingSource, FailureMode, GaussianModel, InCoreSource,
    SceneSource, SourceError,
};
use ms_serve::{FrameServer, SceneHandle, SessionConfig};
use std::sync::Arc;

/// Chunk size that slices the 384-splat test scene into four chunks.
const CHUNK_SPLATS: usize = 96;

fn model() -> GaussianModel {
    TraceId::by_name("kitchen")
        .unwrap()
        .build_scene_with_scale(0.0012)
        .model
}

fn camera() -> Camera {
    let s = TraceId::by_name("kitchen")
        .unwrap()
        .build_scene_with_scale(0.0012);
    Camera {
        width: 48,
        height: 36,
        ..s.train_cameras[0]
    }
}

fn opts() -> RenderOptions {
    RenderOptions {
        threads: 3,
        track_point_stats: true,
        ..RenderOptions::default()
    }
}

fn source(model: &GaussianModel) -> InCoreSource {
    InCoreSource::new(model.clone(), CHUNK_SPLATS)
}

/// A permanently scripted [`FailureMode::Error`] fault surfaces as
/// `SourceError::Decode(DecodeError::Truncated)` no matter where the bad
/// chunk sits — first, middle or last: the frame fails at the streaming
/// step that loads it.
#[test]
fn scripted_error_surfaces_as_source_error() {
    let model = model();
    let cam = camera();
    let chunks = source(&model).chunk_count();
    assert!(chunks >= 3, "scene must span several chunks");
    for fail_at in [0, chunks / 2, chunks - 1] {
        let faulty = FailingSource::new(source(&model), fail_at, FailureMode::Error);
        let renderer = Renderer::new(opts());
        let err = renderer
            .try_render(SceneRef::Chunked(&faulty), &cam, FrameArena::default())
            .0
            .expect_err("scripted chunk fault must fail the frame");
        assert!(
            matches!(err, SourceError::Decode(DecodeError::Truncated)),
            "fail_at={fail_at}: unexpected error {err:?}"
        );
    }
}

/// A [`FailureMode::ShortRead`] — the load "succeeds" but delivers fewer
/// points than `chunk_len` claims — is caught by the cache's length check
/// and reported as `DecodeError::Invalid`, not silently rendered.
#[test]
fn short_read_is_caught_by_the_length_check() {
    let model = model();
    let cam = camera();
    let faulty = FailingSource::new(source(&model), 1, FailureMode::ShortRead);
    let renderer = Renderer::new(opts());
    let err = renderer
        .try_render(SceneRef::Chunked(&faulty), &cam, FrameArena::default())
        .0
        .expect_err("short read must fail the frame");
    match err {
        SourceError::Decode(DecodeError::Invalid(msg)) => {
            assert!(msg.contains("short read"), "message: {msg}");
        }
        other => panic!("expected Invalid(short read), got {other:?}"),
    }
}

/// A failed frame hands its [`FrameArena`] back intact: rendering the next
/// frame with the recovered arena on a healthy source is bit-identical to
/// a cold-start render. The arena is recycled capacity, never content — a
/// fault must not poison it.
#[test]
fn failed_frame_does_not_poison_the_arena() {
    let model = model();
    let cam = camera();
    let healthy = source(&model);
    let expect: RenderOutput = Renderer::new(opts()).render(&model, &cam);

    for fail_at in [0, 2] {
        let faulty = FailingSource::new(source(&model), fail_at, FailureMode::Error);
        let renderer = Renderer::new(opts());
        let (result, arena) =
            renderer.try_render(SceneRef::Chunked(&faulty), &cam, FrameArena::default());
        assert!(result.is_err(), "fail_at={fail_at} must fail");
        let (result, _arena) = renderer.try_render(SceneRef::Chunked(&healthy), &cam, arena);
        let output = result.expect("healthy source renders after a fault");
        assert_eq!(
            output, expect,
            "fail_at={fail_at}: recovered arena changed the output"
        );
    }
}

/// The panicking wrapper stays a wrapper: `render` over a faulty chunked
/// source panics with a diagnosable message instead of returning garbage.
#[test]
#[should_panic(expected = "loading scene chunk failed")]
fn render_panics_on_source_fault() {
    let model = model();
    let cam = camera();
    let faulty = FailingSource::new(source(&model), 1, FailureMode::Error);
    Renderer::new(opts()).render(SceneRef::Chunked(&faulty), &cam);
}

/// A transient fault heals once its fuse burns: the first render fails,
/// the retry succeeds and is bit-identical to the in-core render — the
/// failed attempt left nothing stale in the renderer's chunk cache.
#[test]
fn transient_fault_heals_after_the_fuse_burns() {
    let model = model();
    let cam = camera();
    let faulty = FailingSource::transient(source(&model), 1, FailureMode::Error, 1);
    let renderer = Renderer::new(opts());
    assert!(
        renderer
            .try_render(SceneRef::Chunked(&faulty), &cam, FrameArena::default())
            .0
            .is_err(),
        "first render burns the fuse"
    );
    let output = renderer
        .try_render(SceneRef::Chunked(&faulty), &cam, FrameArena::default())
        .0
        .expect("healed source renders");
    let expect = Renderer::new(opts()).render(&model, &cam);
    assert_eq!(output, expect, "post-fault render differs from in-core");
}

/// Frames per session in the server scenario.
const FRAMES: usize = 4;
/// Distinct trajectories; session `i` uses trajectory `i % DISTINCT_TRAJS`.
const DISTINCT_TRAJS: usize = 6;

fn trajectory(slot: usize) -> Trajectory {
    let slot = slot % DISTINCT_TRAJS;
    orbit(
        Vec3::zero(),
        8.0 + slot as f32 * 1.5,
        0.5 + slot as f32 * 0.4,
        5 + slot,
    )
}

/// One session dies alone: 16 sessions share a chunked scene whose chunk 1
/// fails exactly once (`transient`, fuse = 1). The first session to decode
/// that chunk eats the error — its frames stop, [`FrameServer::session_error`]
/// records the fault — while the other fifteen keep producing frames
/// bit-identical to a solo in-core render (a healthy sibling re-decodes
/// the chunk into the shared cache). The server drains to completion; a
/// faulty session never wedges the pump loop.
#[test]
fn chunked_server_session_fault_dies_alone() {
    assert_session_fault_dies_alone(FrameServer::new_chunked);

    // Again through a shared cache of two chunks, half the scene: healthy
    // sessions keep evicting and re-decoding chunks around the fault.
    let model = model();
    let mut chunk = GaussianModel::new(model.sh_degree);
    model.clone_range_into(0..CHUNK_SPLATS, &mut chunk);
    let budget = 2 * chunk.storage_bytes();
    assert!(
        budget < model.storage_bytes(),
        "the cache must not hold the scene"
    );
    let cache = Arc::new(ChunkCache::new(budget));
    assert_session_fault_dies_alone(|faulty| {
        FrameServer::new_scene_with_cache(SceneHandle::Chunked(faulty), Arc::clone(&cache))
    });
    let stats = cache.stats();
    assert!(
        stats.misses > model.len().div_ceil(CHUNK_SPLATS) as u64,
        "a cache smaller than the scene must re-decode ({stats:?})"
    );
}

/// Serve 16 sessions of a scene whose chunk 1 fails once from the server
/// `serve` builds over it, and assert exactly one session dies while every
/// delivered frame matches the solo in-core render.
fn assert_session_fault_dies_alone(
    serve: impl FnOnce(Arc<dyn SceneSource + Send + Sync>) -> FrameServer,
) {
    let model = model();
    let proto = camera();
    let refs: Vec<Vec<RenderOutput>> = (0..DISTINCT_TRAJS)
        .map(|slot| {
            let renderer = Renderer::new(RenderOptions {
                threads: 1,
                ..opts()
            });
            trajectory(slot)
                .cameras(&proto, FRAMES)
                .iter()
                .map(|cam| renderer.render(&model, cam))
                .collect()
        })
        .collect();

    let faulty: Arc<dyn SceneSource + Send + Sync> = Arc::new(FailingSource::transient(
        source(&model),
        1,
        FailureMode::Error,
        1,
    ));
    let mut server = serve(faulty);
    let sessions = 16;
    let ids: Vec<_> = (0..sessions)
        .map(|i| {
            server
                .add_session(SessionConfig {
                    trajectory: trajectory(i),
                    prototype: proto,
                    frame_count: FRAMES,
                    options: opts(),
                    in_flight: 1 + i % 3,
                    ring_capacity: FRAMES,
                })
                .expect("valid session config")
        })
        .collect();

    let results = server.run_to_completion();
    assert_eq!(results.len(), sessions);

    let mut failed = 0usize;
    for (i, (id, frames)) in results.iter().enumerate() {
        assert_eq!(*id, ids[i]);
        let expect = &refs[i % DISTINCT_TRAJS];
        if let Some(err) = server.session_error(*id) {
            failed += 1;
            assert!(
                matches!(err, SourceError::Decode(DecodeError::Truncated)),
                "session {i}: unexpected error {err:?}"
            );
            assert!(
                frames.len() < FRAMES,
                "session {i} failed yet delivered every frame"
            );
        } else {
            assert_eq!(frames.len(), FRAMES, "healthy session {i} frame count");
        }
        // Every frame that *was* delivered — including those a failed
        // session produced before the fault — is bit-identical to solo.
        for (k, frame) in frames.iter().enumerate() {
            assert_eq!(frame.frame_index, k, "session {i} completion order");
            assert_eq!(
                frame.output, expect[k],
                "session {i} frame {k} differs from in-core solo"
            );
        }
    }
    assert_eq!(failed, 1, "exactly one session eats the transient fault");

    let delivered: usize = results.iter().map(|(_, frames)| frames.len()).sum();
    assert_eq!(server.report().total_frames, delivered);
}
