//! Determinism of the parallel pipeline stages (Project, Bin and Raster):
//! a frame rendered with `threads = 1` (the serial reference) must be
//! *bit-identical* — pixels, winner buffers and `FrameProfile` work
//! counters — to the same frame rendered with any other worker count,
//! including auto (`threads = 0`), on plain, filtered and foveated renders.
//!
//! Filtered renders project the whole model, keep the splats whose point
//! index an admission predicate accepts, and rasterize the survivors as a
//! one-level `SceneRef::Projected` scene. Foveated frames — one
//! `SceneRef::Projected` level per quality region and a per-pixel level
//! map, ours and the MMFR baseline's — join the suite in
//! `foveated_render_is_bit_identical_across_threads`.
//!
//! Chunked sources and the chunk cache add the other two axes: a streamed
//! frame must equal the in-core frame for every chunk size and cache
//! budget. Random-scene coverage of the Raster stage (threads and
//! two-level maps over random splat lists) lives in
//! `crates/render/tests/raster_properties.rs`.

use metasapiens::render::{
    project_model, RenderOptions, RenderOutput, Renderer, SceneRef, StageKind,
};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::{Camera, ChunkCache, GaussianModel, SceneSource};
use std::sync::Arc;

/// Worker counts the suite compares against the serial reference.
const THREAD_COUNTS: [usize; 4] = [2, 3, 8, 0];

fn scene() -> metasapiens::scene::synth::Scene {
    TraceId::by_name("kitchen")
        .unwrap()
        .build_scene_with_scale(0.004)
}

fn camera(s: &metasapiens::scene::synth::Scene) -> Camera {
    Camera {
        width: 160,
        height: 120,
        ..s.train_cameras[0]
    }
}

fn opts(threads: usize) -> RenderOptions {
    RenderOptions {
        threads,
        track_point_stats: true,
        ..RenderOptions::default()
    }
}

/// A filtered render: project, keep only the splats of points `admit`
/// accepts, then rasterize the survivors.
fn render_admitted(
    renderer: &Renderer,
    model: &GaussianModel,
    cam: &Camera,
    admit: impl Fn(usize) -> bool,
) -> RenderOutput {
    let mut splats = project_model(model, cam, renderer.options());
    splats.retain(|s| admit(s.point_index as usize));
    let scene = SceneRef::Projected {
        levels: &[&splats],
        points: model.len(),
    };
    renderer.render(scene, cam)
}

/// Assert `par` is the same frame as `serial`, bit for bit: pixels, winner
/// buffers, headline stats, and the per-stage `FrameProfile` work counters
/// (profile equality already ignores wall times, which legitimately vary).
fn assert_bit_identical(par: &RenderOutput, serial: &RenderOutput, threads: usize) {
    assert_eq!(
        par.image, serial.image,
        "pixels differ at threads={threads}"
    );
    assert_eq!(
        par.winners, serial.winners,
        "winners differ at threads={threads}"
    );
    assert_eq!(par.stats, serial.stats, "stats differ at threads={threads}");
    for kind in [
        StageKind::Project,
        StageKind::Bin,
        StageKind::Merge,
        StageKind::Raster,
        StageKind::Composite,
    ] {
        assert_eq!(
            par.stats.profile.items(kind),
            serial.stats.profile.items(kind),
            "{} work counter differs at threads={threads}",
            kind.name()
        );
    }
    // Profile equality skips the Raster ordering counters; a tile's pixels
    // decide how deep its list is ordered, whichever worker runs them.
    assert_eq!(
        par.stats.profile.raster, serial.stats.profile.raster,
        "raster ordering counters differ at threads={threads}"
    );
}

#[test]
fn parallel_render_is_bit_identical_to_serial() {
    let s = scene();
    let cam = camera(&s);
    let serial = Renderer::new(opts(1)).render(&s.model, &cam);
    // Every list entry is either ordered and gathered by Raster or never
    // ordered at all.
    let work = serial.stats.profile.raster;
    assert!(work.splats_staged > 0);
    assert_eq!(
        work.splats_staged + work.splats_culled,
        serial.stats.total_intersections
    );
    for threads in THREAD_COUNTS {
        let par = Renderer::new(opts(threads)).render(&s.model, &cam);
        assert_bit_identical(&par, &serial, threads);
    }
}

#[test]
fn filtered_parallel_render_is_bit_identical_to_serial() {
    // Projection shards concatenate in point order, so the filtered splat
    // set and its order must not depend on the worker count.
    let s = scene();
    let cam = camera(&s);
    let admit = |i: usize| i % 3 != 1;
    let serial = render_admitted(&Renderer::new(opts(1)), &s.model, &cam, admit);
    for threads in THREAD_COUNTS {
        let par = render_admitted(&Renderer::new(opts(threads)), &s.model, &cam, admit);
        assert_bit_identical(&par, &serial, threads);
    }
}

#[test]
fn repeated_renders_are_reproducible() {
    // The whole pipeline (synthetic scene included) is deterministic: two
    // fresh end-to-end runs produce the same image.
    let sa = scene();
    let a = Renderer::new(opts(2)).render(&sa.model, &camera(&sa));
    let sb = scene();
    let b = Renderer::new(opts(2)).render(&sb.model, &camera(&sb));
    assert_eq!(a.image, b.image);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn profile_stages_present_regardless_of_threads() {
    let s = scene();
    let cam = camera(&s);
    for threads in [1usize, 4] {
        let out = Renderer::new(opts(threads)).render(&s.model, &cam);
        let kinds: Vec<StageKind> = out
            .stats
            .profile
            .samples
            .iter()
            .map(|smp| smp.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                StageKind::Project,
                StageKind::Bin,
                StageKind::Merge,
                StageKind::Raster,
                StageKind::Composite
            ],
            "stage graph must not depend on the worker count"
        );
    }
}

/// A pulled-back view of the kitchen scene: the model shrinks into the
/// center tiles, leaving the sparse periphery that makes the occupancy
/// merge plan actually coalesce super-tiles (the head-on test camera fills
/// every tile far too uniformly for any tile to drop below half the mean).
fn foveal_camera() -> Camera {
    use metasapiens::math::Vec3;
    Camera::look_at(160, 120, 60.0, Vec3::new(0.0, 0.0, 16.0), Vec3::zero())
}

// ---------------------------------------------------------------------------
// Foveated frames: one frame over one `SceneRef::Projected` level per
// quality region — derived from one shared projection of the base model
// (ours) or projected from independent models (MMFR) — with a per-pixel
// level map. The frame must be as thread-invariant as a plain frame.
// ---------------------------------------------------------------------------

#[test]
fn foveated_render_is_bit_identical_across_threads() {
    use metasapiens::fov::baselines::{build_mmfr, render_mmfr};
    use metasapiens::fov::{build_foveated, FoveatedRenderer, FrBuildConfig};
    use metasapiens::math::{deg_to_rad, Vec2};
    use metasapiens::train::ce::CeOptions;
    let s = scene();
    // A wide VR-like FOV, so the periphery has levels to relax.
    let cam = Camera {
        fovy: deg_to_rad(74.0),
        ..camera(&s)
    };
    let reference = Renderer::default().render(&s.model, &cam).image;
    let config = FrBuildConfig {
        finetune: None,
        ..FrBuildConfig::default()
    };
    let fm = build_foveated(&s.model, &[cam], std::slice::from_ref(&reference), &config);
    let mm = build_mmfr(
        &s.model,
        &[cam],
        &[reference],
        config.regions.clone(),
        &config.level_fractions,
        None,
        &CeOptions::default(),
    );
    let gaze = Some(Vec2::new(40.0, 60.0));
    let ours = |threads| FoveatedRenderer::new(opts(threads)).render(&fm, &cam, gaze);
    let mmfr = |threads| render_mmfr(&FoveatedRenderer::new(opts(threads)), &mm, &cam, gaze);
    for (name, render) in [("ours", &ours as &dyn Fn(usize) -> _), ("mmfr", &mmfr)] {
        let serial = render(1);
        assert_eq!(serial.per_level_stats.len(), 4);
        for threads in THREAD_COUNTS {
            // Pixels, merged and per-level stats, tile levels, blend count.
            let par = render(threads);
            assert_eq!(par, serial, "{name}: output differs at threads={threads}");
            assert_eq!(
                par.stats.profile.raster, serial.stats.profile.raster,
                "{name}: raster ordering counters differ at threads={threads}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Out-of-core chunking: the second determinism axis
// ---------------------------------------------------------------------------
//
// With LOD off, a chunked render must be bit-identical — pixels, winners,
// work counters — to the in-core render of the concatenated chunks, for
// every chunk size, across the other axes. Chunk sizes here are
// deliberately ragged (odd primes, not tile-aligned), so chunk boundaries
// split tile lists mid-stream.

/// Chunk sizes to sweep: a small odd prime (many ragged chunks, every tile
/// list split mid-stream) and roughly half the model (one mid-model split).
fn chunk_sizes(model_len: usize) -> [usize; 2] {
    assert!(model_len > 347, "scene too small for the chunk sweep");
    [347, model_len / 2 + 1]
}

#[test]
fn chunked_render_is_bit_identical_to_in_core_across_threads() {
    let s = scene();
    let cam = camera(&s);
    let serial = Renderer::new(opts(1)).render(&s.model, &cam);
    for chunk_splats in chunk_sizes(s.model.len()) {
        let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
        assert!(source.chunk_count() >= 2, "chunk sweep must actually chunk");
        for threads in [1, 2, 3, 8, 0] {
            let chunked = Renderer::new(opts(threads)).render(SceneRef::Chunked(&source), &cam);
            assert_bit_identical(&chunked, &serial, threads);
            assert_eq!(
                chunked.stats.profile, serial.stats.profile,
                "chunked profile (kind, items) differs at chunk_splats={chunk_splats}, \
                 threads={threads}"
            );
        }
    }
}

#[test]
fn chunked_render_matches_in_core_under_merging() {
    // The chunk axis on a sparse frame whose §4.3 merge plan coalesces
    // tiles: the chunked frame equals the in-core frame, plan included.
    let s = scene();
    let cam = foveal_camera();
    let chunk_splats = chunk_sizes(s.model.len())[0];
    let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
    let renderer = Renderer::new(opts(3));
    let in_core = renderer.render(&s.model, &cam);
    let chunked = renderer.render(SceneRef::Chunked(&source), &cam);
    assert_bit_identical(&chunked, &in_core, 3);
    assert_eq!(chunked.stats.profile, in_core.stats.profile);
    let plan = in_core.stats.unit_intersections();
    assert!(plan.len() < in_core.stats.grid.tile_count());
    assert_eq!(chunked.stats.unit_intersections(), plan);
}

#[test]
fn chunked_file_source_round_trips_bit_identically() {
    // The real out-of-core impl: encode the model into the multi-chunk
    // container, reopen it from bytes, and render from it — still the
    // in-core frame, bit for bit.
    let s = scene();
    let cam = camera(&s);
    let serial = Renderer::new(opts(1)).render(&s.model, &cam);
    let chunk_splats = chunk_sizes(s.model.len())[0];
    let encoded = metasapiens::scene::encode_model_chunked(&s.model, chunk_splats);
    let source = metasapiens::scene::ChunkedFileSource::from_bytes(encoded.to_vec())
        .expect("container decodes");
    assert!(source.chunk_count() >= 2);
    for threads in [1, 3] {
        let chunked = Renderer::new(opts(threads)).render(SceneRef::Chunked(&source), &cam);
        assert_bit_identical(&chunked, &serial, threads);
    }
}

#[test]
fn chunked_scratch_peak_is_bounded_by_chunk_not_model() {
    // The memory claim the chunked pipeline exists for, asserted via the
    // new FrameProfile counters: projected-splat scratch residency scales
    // with the chunk size, not the model size.
    use metasapiens::render::ProjectedSplat;
    let s = scene();
    let cam = camera(&s);
    let in_core = Renderer::new(opts(1)).render(&s.model, &cam);
    let splat_bytes = std::mem::size_of::<ProjectedSplat>() as u64;
    assert_eq!(
        in_core.stats.profile.projected_bytes_peak,
        in_core.stats.points_projected as u64 * splat_bytes
    );
    assert_eq!(in_core.stats.profile.chunk_bytes_peak, 0);
    let mut last_peak = u64::MAX;
    for chunk_splats in [s.model.len() / 2 + 1, 347] {
        let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
        let chunked = Renderer::new(opts(3)).render(SceneRef::Chunked(&source), &cam);
        let p = &chunked.stats.profile;
        assert!(p.projected_bytes_peak <= chunk_splats as u64 * splat_bytes);
        assert!(p.projected_bytes_peak < in_core.stats.profile.projected_bytes_peak);
        assert!(p.chunk_bytes_peak > 0);
        // Halving the chunk size must shrink the peak monotonically.
        assert!(p.projected_bytes_peak < last_peak);
        last_peak = p.projected_bytes_peak;
        // Deterministic per configuration: an identical run reproduces the
        // exact peaks.
        let again = Renderer::new(opts(3)).render(SceneRef::Chunked(&source), &cam);
        assert_eq!(
            again.stats.profile.projected_bytes_peak,
            p.projected_bytes_peak
        );
        assert_eq!(again.stats.profile.chunk_bytes_peak, p.chunk_bytes_peak);
    }
}

// ---------------------------------------------------------------------------
// Chunk cache: the third determinism axis
// ---------------------------------------------------------------------------
//
// The cross-frame chunk cache must change *where* chunk bytes come from,
// never what a frame computes: for every cache budget — disabled, exactly
// one chunk, unbounded — a cached chunked render must be bit-identical to
// the uncached one, and both to the in-core reference, for every chunk
// size and thread count. Renderers are reused across frames so later
// frames exercise warm-cache replay, not just the intra-frame hits.

/// A renderer with its own chunk cache of `budget` bytes.
fn with_budget(options: RenderOptions, budget: usize) -> Renderer {
    Renderer::with_chunk_cache(options, Arc::new(ChunkCache::new(budget)))
}

#[test]
fn cached_chunked_render_is_bit_identical_across_budgets() {
    let s = scene();
    let cam = camera(&s);
    let serial = Renderer::new(opts(1)).render(&s.model, &cam);
    for chunk_splats in chunk_sizes(s.model.len()) {
        let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
        let one_chunk_bytes = {
            let mut probe = metasapiens::scene::GaussianModel::new(0);
            s.model.clone_range_into(0..chunk_splats, &mut probe);
            probe.storage_bytes()
        };
        for budget in [0, one_chunk_bytes, usize::MAX] {
            for threads in [1, 2, 3, 8, 0] {
                let renderer = with_budget(opts(threads), budget);
                // Two frames from one renderer: the first populates the
                // cache (budget permitting), the second replays it.
                let first = renderer.render(SceneRef::Chunked(&source), &cam);
                let second = renderer.render(SceneRef::Chunked(&source), &cam);
                for out in [&first, &second] {
                    assert_bit_identical(out, &serial, threads);
                    // Profile equality (kind, items pairs) must hold too:
                    // cache traffic is excluded from it by design.
                    assert_eq!(
                        out.stats.profile, serial.stats.profile,
                        "profile differs at chunk_splats={chunk_splats}, \
                         budget={budget}, threads={threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn cached_chunked_frames_reuse_decodes_across_frames() {
    // The cache's contract in counters: a frame streams every chunk exactly
    // once, so with an unbounded budget frame 1 misses every chunk once and
    // hits none; frame 2 from the same renderer never decodes at all.
    let s = scene();
    let cam = camera(&s);
    let chunk_splats = chunk_sizes(s.model.len())[0];
    let source = metasapiens::scene::InCoreSource::new(s.model.clone(), chunk_splats);
    let n = source.chunk_count() as u64;
    let renderer = with_budget(opts(3), usize::MAX);
    let first = renderer.render(SceneRef::Chunked(&source), &cam);
    let c1 = first.stats.profile.cache;
    assert_eq!(c1.misses, n, "frame 1 decodes every chunk once");
    assert_eq!(c1.hits, 0, "frame 1 loads each chunk only once");
    assert_eq!(c1.evictions, 0);
    let second = renderer.render(SceneRef::Chunked(&source), &cam);
    let c2 = second.stats.profile.cache;
    assert_eq!(c2.misses, 0, "a warm renderer never re-decodes");
    assert_eq!(c2.hits, n);
    assert_eq!(first.image, second.image);

    // Budget 0 is pass-through: every access is a miss, once per chunk.
    let renderer = with_budget(opts(3), 0);
    let uncached = renderer.render(SceneRef::Chunked(&source), &cam);
    let c0 = uncached.stats.profile.cache;
    assert_eq!(c0.hits, 0);
    assert_eq!(c0.misses, n);
    assert_eq!(c0.resident_bytes_peak, 0);
    assert_eq!(uncached.image, first.image);
}

#[test]
fn merging_reduces_work_units_and_imbalance() {
    // The §4.3 claim over a rendered frame's counts: the occupancy plan has
    // fewer, better-balanced work units than raw tiles on a foveal
    // (center-heavy) frame.
    let s = scene();
    let cam = foveal_camera();
    let out = Renderer::new(opts(1)).render(&s.model, &cam);
    let units = out.stats.unit_intersections();
    assert!(!units.is_empty() && units.len() < out.stats.grid.tile_count());
    let mean = units.iter().map(|&u| u as f32).sum::<f32>() / units.len() as f32;
    let post = *units.iter().max().unwrap() as f32 / mean;
    let pre = out.stats.imbalance_ratio();
    assert!(
        post < pre,
        "per-unit imbalance {post} must undercut per-tile {pre}"
    );
}
