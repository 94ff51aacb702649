//! Resumable frames: [`FrameInFlight`] runs the staged pipeline one stage
//! at a time, and [`FrameArena`] recycles a frame's scratch buffers into
//! the next one.
//!
//! [`Renderer::render`](crate::Renderer::render) executes a frame as one
//! synchronous call. A frame *server* (the `ms_serve` crate) instead wants
//! many frames **in flight at once** — Project/Bin of one session's next
//! frame overlapping Raster/Composite of another's — which requires the
//! pipeline to be suspendable between stages. [`Renderer::begin_frame`]
//! returns a [`FrameInFlight`]: a self-contained state machine that owns
//! the frame's view and intermediate buffers and advances exactly one
//! stage per [`run_stage`](FrameInFlight::run_stage) call. `render` itself
//! runs this machine to completion, so a frame's output is bit-identical no
//! matter how its stages were interleaved with other frames'.
//!
//! It is the only pipeline driver. What a frame renders is a [`SceneRef`]
//! (an in-core model, a chunked source, or pre-projected splats, one slice
//! per quality level) seen through a [`View`] (a camera plus an optional
//! per-pixel level map); the three entry points —
//! [`Renderer::begin_frame`], [`Renderer::render`] and
//! [`Renderer::try_render`] — all run this machine over that pair, so every
//! frame measures its stages and assembles its output the same way.
//!
//! [`FrameArena`] holds the large per-frame allocations (the
//! projected-splat vector and one pair of CSR offset/index buffers per
//! level). The frame owns one arena and one
//! [`FrameProfile`](crate::FrameProfile) from `begin_frame` until
//! [`FrameInFlight::finish`] (or
//! [`FrameInFlight::into_failure`]); each stage reads and writes them in
//! place and records its sample, byte peak or cache traffic where it
//! measures it, so the pipeline states carry only what their stage
//! produced. Handing the returned arena to the next
//! [`begin_frame`](crate::Renderer::begin_frame) turns the steady-state
//! per-frame cost into buffer reuse instead of allocation. Buffers are
//! cleared before reuse, so arenas never leak data between frames (or
//! sessions) and `FrameArena::default()` is always a valid cold start.
//!
//! A chunked frame streams its Project through one chunk buffer: each
//! streaming step loads one chunk through the renderer's
//! [`ChunkCache`] and projects it before the next step loads the
//! next, so the frame's scene residency is the cache budget plus one
//! chunk.

use crate::binning::{SuperTile, TileBins};
use crate::options::RenderOptions;
use crate::pipeline::{self, Composited, FrameProfile, StageKind, StageSample};
use crate::projection::{project_model_offset_into, ProjectedSplat};
use crate::raster::{check_camera, RenderOutput, Renderer, UnitResult};
use crate::stats::TileGridDims;
use ms_scene::{CacheStats, Camera, ChunkCache, GaussianModel, SceneSource, SourceError};
use std::ops::Range;
use std::time::{Duration, Instant};

/// The scene a frame reads its splats from: a fully resident
/// [`GaussianModel`] (the classic path), an out-of-core
/// [`SceneSource`](ms_scene::SceneSource) streamed chunk by chunk, or splats
/// some caller already projected.
///
/// A `SceneRef` is a borrow, cheap to copy; the frame machinery never
/// clones the underlying data. `&GaussianModel` converts implicitly
/// (`From`), so in-core call sites read exactly as before. The chunked
/// path is bit-identical to the in-core path over the
/// concatenated chunks — pixels, winners and every work counter — for
/// every chunk size and thread count (see `tests/determinism.rs`).
#[derive(Clone, Copy)]
pub enum SceneRef<'a> {
    /// The whole model resident in one `Vec`-of-arrays.
    InCore(&'a GaussianModel),
    /// A chunked source with a bounded resident budget; the frame streams
    /// its Project one chunk at a time through a single chunk buffer, then
    /// bins the frame's splats like an in-core frame.
    Chunked(&'a (dyn SceneSource + Sync)),
    /// Screen-space splats projected ahead of time from a `points`-point
    /// model, one slice per quality level (for example by the foveated
    /// renderer, which derives every level from one shared
    /// [`project_model`](crate::project_model) pass). The frame starts at
    /// Bin over a copy of the slices, so its profile carries no Project
    /// sample. There must be a level, every splat's `point_index` must be
    /// below `points`, its `depth` finite and its `tiles` on the frame's
    /// tile grid; all are checked when the frame begins.
    Projected {
        /// Each level's splats, in the order Bin should see them.
        levels: &'a [&'a [ProjectedSplat]],
        /// Point count of the model they were projected from.
        points: usize,
    },
}

impl<'a> From<&'a GaussianModel> for SceneRef<'a> {
    fn from(model: &'a GaussianModel) -> Self {
        SceneRef::InCore(model)
    }
}

impl SceneRef<'_> {
    /// Total number of points in the scene (the chunked total is the sum
    /// over chunks — the same count the concatenated in-core model has).
    pub fn total_points(&self) -> usize {
        match self {
            SceneRef::InCore(model) => model.len(),
            SceneRef::Chunked(source) => source.total_points(),
            SceneRef::Projected { points, .. } => *points,
        }
    }
}

impl std::fmt::Debug for SceneRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SceneRef::InCore(model) => f
                .debug_struct("SceneRef::InCore")
                .field("points", &model.len())
                .finish(),
            SceneRef::Chunked(source) => f
                .debug_struct("SceneRef::Chunked")
                .field("points", &source.total_points())
                .field("chunks", &source.chunk_count())
                .finish(),
            SceneRef::Projected { levels, points } => f
                .debug_struct("SceneRef::Projected")
                .field("points", points)
                .field("levels", &levels.len())
                .finish(),
        }
    }
}

/// What a frame looks at: the camera, plus an optional per-pixel level
/// map saying which of the scene's quality levels each pixel renders.
/// Without a map every pixel renders level 0.
///
/// `&Camera` converts implicitly (`From`), so single-level call sites pass
/// the camera alone.
#[derive(Debug, Clone)]
pub struct View {
    /// The view camera.
    pub camera: Camera,
    /// Optional per-pixel level map.
    pub levels: Option<PixelLevels>,
}

/// A foveated frame's per-pixel quality levels (row-major,
/// `camera.width * camera.height` entries each). A pixel composites its
/// level's tile list; with a blend weight `w > 0` below the last level it
/// also composites level `level + 1`'s list and lerps toward it by `w`.
/// Bin lists a level on a tile only when some pixel of the tile reads it,
/// mirroring the foveation Filtering stage (Fig. 7-E).
#[derive(Debug, Clone, PartialEq)]
pub struct PixelLevels {
    /// Each pixel's quality level, below the scene's level count.
    pub level: Vec<u8>,
    /// Each pixel's blend weight toward the next level.
    pub blend: Vec<f32>,
}

impl From<&Camera> for View {
    fn from(camera: &Camera) -> Self {
        View {
            camera: *camera,
            levels: None,
        }
    }
}

/// Recyclable scratch storage for one frame: the projected-splat vector
/// and one pair of CSR `(offsets, indices)` buffers per level. Returned by
/// [`FrameInFlight::finish`] with contents cleared (capacity retained) and
/// accepted by [`Renderer::begin_frame`]; `FrameArena::default()` is a
/// valid cold start that simply allocates on first use.
#[derive(Debug, Default)]
pub struct FrameArena {
    pub(crate) splats: Vec<ProjectedSplat>,
    pub(crate) csr: Vec<(Vec<u32>, Vec<u32>)>,
}

impl FrameArena {
    /// Drop every buffer's contents, keeping its capacity.
    fn clear(&mut self) {
        self.splats.clear();
        for (offsets, indices) in &mut self.csr {
            offsets.clear();
            indices.clear();
        }
    }
}

/// Unwrap the chunked source a streaming frame step was begun with,
/// mirroring the in-core arm's scene-kind and size checks.
fn expect_chunked<'a>(scene: SceneRef<'a>, model_len: usize) -> &'a (dyn SceneSource + Sync) {
    let SceneRef::Chunked(source) = scene else {
        panic!("frame begun on a chunked source driven with an in-core model")
    };
    debug_assert_eq!(
        source.total_points(),
        model_len,
        "source changed size since begin_frame"
    );
    source
}

/// Where a [`FrameInFlight`] is in the Project → Bin → Merge → Raster →
/// Composite pipeline, carrying what the stages so far produced. The
/// frame's buffers stay in its [`FrameArena`] and its counters in its
/// [`FrameProfile`], whatever the state.
enum State {
    /// Nothing ran yet (in-core scenes).
    Project,
    /// Streaming Project over a chunked source: each
    /// [`run_stage`](FrameInFlight::run_stage) call loads chunk `next`
    /// (from the chunk cache or the source) into `chunk`, the frame's one
    /// chunk buffer, and projects it with its global point-index base onto
    /// the end of the frame's splat vector. After the last chunk the frame
    /// moves to [`State::Bin`] and runs on exactly like an in-core frame.
    Stream {
        chunk: GaussianModel,
        next: usize,
        /// Load and projection time summed over the chunks so far.
        wall: Duration,
    },
    /// A chunk load failed. The frame is abandoned — no output exists —
    /// and [`FrameInFlight::into_failure`] hands back the error with the
    /// frame's arena.
    Failed { error: SourceError },
    /// Project done.
    Bin,
    /// Bin done; the arena's CSR buffers now live in `bins`, one per level.
    Merge { bins: Vec<TileBins> },
    /// Merge done.
    Raster {
        bins: Vec<TileBins>,
        units: Vec<SuperTile>,
    },
    /// Raster done.
    Composite {
        bins: Vec<TileBins>,
        units: Vec<UnitResult>,
    },
    /// Composite done; [`FrameInFlight::finish`] assembles the output.
    Done {
        bins: Vec<TileBins>,
        composited: Composited,
    },
    /// A stage panicked mid-transition (the state was taken and never put
    /// back). Any further use of the frame is a bug.
    Poisoned,
}

/// A frame suspended between pipeline stages.
///
/// Created by [`Renderer::begin_frame`]; driven by repeated
/// [`run_stage`](FrameInFlight::run_stage) calls (each executes exactly one
/// stage) and consumed by [`finish`](FrameInFlight::finish) once done. The
/// frame owns its [`View`] and every intermediate buffer, so independent
/// frames — of one session or many — can be advanced in any interleaving,
/// including concurrently from worker-pool tasks (`FrameInFlight` is
/// `Send`): the output is bit-identical to
/// [`Renderer::render`](crate::Renderer::render) on the same scene and
/// view by construction, because `render` runs this exact machine to
/// completion.
pub struct FrameInFlight {
    /// Camera and optional level map (checked when the frame begins).
    view: View,
    model_len: usize,
    /// Each level's splats in `arena.splats`; set when Project ends.
    levels: Vec<Range<usize>>,
    /// The frame's buffers, from `begin_frame` until `finish` or
    /// `into_failure` hands them back. Project appends to `splats`; Bin
    /// moves the CSR buffers into its [`TileBins`] and `finish` moves them
    /// back.
    arena: FrameArena,
    /// Stage samples, byte peaks and cache traffic, each recorded where it
    /// is measured.
    profile: FrameProfile,
    state: State,
}

impl std::fmt::Debug for FrameInFlight {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameInFlight")
            .field(
                "camera",
                &format_args!("{}x{}", self.view.camera.width, self.view.camera.height),
            )
            .field("model_len", &self.model_len)
            .field("next_stage", &self.next_stage())
            .finish()
    }
}

impl FrameInFlight {
    /// Start a frame over `scene` seen through `view`: at the Project stage
    /// (in-core scenes), at the streamed Project (chunked sources) or at
    /// Bin (pre-projected splats, copied into the arena's splat vector).
    /// The view and the scene are checked here, once, before any stage
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics with [`check_camera`]'s message when the camera has a
    /// zero-pixel image or exceeds `u32` pixel addressing; when the level
    /// map does not have `width * height` entries (compared in `u64`: at
    /// extreme dimensions the product overflows `u32`) or names a level the
    /// scene lacks; or when a pre-projected scene has no level, or one of
    /// its splats has a `point_index` not below the scene's `points`, a
    /// depth that is not finite, or a tile rectangle outside the camera's
    /// grid of `tile_size`-pixel tiles.
    pub(crate) fn new(
        scene: SceneRef<'_>,
        view: View,
        mut arena: FrameArena,
        tile_size: u32,
    ) -> Self {
        let camera = &view.camera;
        if let Err(message) = check_camera(camera) {
            panic!("{message}");
        }
        let level_count = match scene {
            SceneRef::Projected { levels, .. } => levels.len(),
            _ => 1,
        };
        assert!(level_count > 0, "projected scene has no level");
        if let Some(map) = &view.levels {
            let pixels = camera.width as u64 * camera.height as u64;
            assert!(
                map.level.len() as u64 == pixels && map.blend.len() as u64 == pixels,
                "pixel level map size mismatch"
            );
            if let Some(l) = map.level.iter().find(|&&l| l as usize >= level_count) {
                panic!("pixel level {l} out of range for a {level_count}-level scene");
            }
        }
        let mut profile = FrameProfile::default();
        let mut ranges = Vec::new();
        let state = match scene {
            SceneRef::InCore(_) => State::Project,
            SceneRef::Chunked(_) => State::Stream {
                chunk: GaussianModel::new(0),
                next: 0,
                wall: Duration::ZERO,
            },
            SceneRef::Projected { levels, points } => {
                let mut splats = levels.iter().flat_map(|level| level.iter());
                if let Some(s) = splats.clone().find(|s| s.point_index as usize >= points) {
                    panic!(
                        "projected splat point_index {} out of range for a {points}-point scene",
                        s.point_index
                    );
                }
                // A NaN depth would composite in front of (−NaN) or behind
                // (+NaN) every finite one instead of failing.
                if let Some(s) = splats.clone().find(|s| !s.depth.is_finite()) {
                    panic!("projected splat depth {} is not finite", s.depth);
                }
                // Bin indexes `ty * tiles_x + tx` unchecked: an x past the
                // grid would land in the next row's tile.
                let grid = TileGridDims::for_image(camera.width, camera.height, tile_size);
                let outside =
                    |s: &&ProjectedSplat| s.tiles.x1 >= grid.tiles_x || s.tiles.y1 >= grid.tiles_y;
                if let Some(s) = splats.find(outside) {
                    panic!(
                        "projected splat tiles ({}..={}, {}..={}) outside the {}x{} tile grid",
                        s.tiles.x0, s.tiles.x1, s.tiles.y0, s.tiles.y1, grid.tiles_x, grid.tiles_y
                    );
                }
                arena.splats.reserve(levels.iter().map(|l| l.len()).sum());
                for level in levels {
                    let start = arena.splats.len();
                    arena.splats.extend_from_slice(level);
                    ranges.push(start..arena.splats.len());
                }
                profile.projected_bytes_peak = std::mem::size_of_val(&arena.splats[..]) as u64;
                State::Bin
            }
        };
        Self {
            view,
            model_len: scene.total_points(),
            levels: ranges,
            arena,
            profile,
            state,
        }
    }

    /// The camera this frame renders.
    pub fn camera(&self) -> &Camera {
        &self.view.camera
    }

    /// Whether every stage has run ([`finish`](Self::finish) is ready).
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done { .. })
    }

    /// Whether a chunk load failed and the frame was abandoned — no output
    /// exists; consume with [`into_failure`](Self::into_failure) to recover
    /// the error and the recycled arena. A failure is confined to this
    /// frame: nothing shared (renderer, cache, worker pool) is poisoned,
    /// and the next frame begun from the recovered arena renders exactly
    /// as if this one had never run.
    pub fn is_failed(&self) -> bool {
        matches!(self.state, State::Failed { .. })
    }

    /// The stage the next [`run_stage`](Self::run_stage) call will execute,
    /// or `None` once the frame is done — or failed, which also has no
    /// next stage to run.
    pub fn next_stage(&self) -> Option<StageKind> {
        match self.state {
            State::Project | State::Stream { .. } => Some(StageKind::Project),
            State::Bin => Some(StageKind::Bin),
            State::Merge { .. } => Some(StageKind::Merge),
            State::Raster { .. } => Some(StageKind::Raster),
            State::Composite { .. } => Some(StageKind::Composite),
            State::Done { .. } | State::Failed { .. } => None,
            State::Poisoned => panic!("frame poisoned by an earlier stage panic"),
        }
    }

    /// Execute the next pipeline step; returns `true` once the frame needs
    /// no more pumping — finished ([`is_done`](Self::is_done), collect with
    /// [`finish`](Self::finish)) or failed ([`is_failed`](Self::is_failed),
    /// collect with [`into_failure`](Self::into_failure)).
    /// `renderer` and `scene` must be the ones the frame was begun
    /// with — the frame carries no back-references so it can be `Send` and
    /// self-contained, and the frame server guarantees the pairing by
    /// owning both. `scene` accepts a plain `&GaussianModel` (in-core
    /// frames) or a [`SceneRef`].
    ///
    /// In-core frames advance exactly one pipeline stage per call. Chunked
    /// frames advance one *chunk* per call while streaming Project (so a
    /// frame server interleaves chunk work across sessions at the same
    /// granularity it interleaves stages), then one stage per call from Bin
    /// on: `max(chunk_count, 1) + 4` calls in all (a 0-chunk source still
    /// takes one streaming call to reach Bin).
    ///
    /// A chunk-load failure does **not** panic: the frame transitions to
    /// the failed state and further calls are no-ops returning `true`.
    ///
    /// # Panics
    ///
    /// Panics when called on a finished or poisoned frame, when the scene
    /// kind differs from the one the frame was begun with, or (debug only)
    /// when the scene changed size since [`Renderer::begin_frame`].
    pub fn run_stage<'a>(&mut self, renderer: &Renderer, scene: impl Into<SceneRef<'a>>) -> bool {
        let scene = scene.into();
        let options = renderer.options();
        self.state = match std::mem::replace(&mut self.state, State::Poisoned) {
            State::Project => {
                let SceneRef::InCore(model) = scene else {
                    panic!("frame begun on an in-core model driven with a chunked source")
                };
                debug_assert_eq!(
                    model.len(),
                    self.model_len,
                    "model changed size since begin_frame"
                );
                let start = Instant::now();
                self.project(model, 0, options);
                self.end_project(start.elapsed());
                State::Bin
            }
            State::Stream {
                mut chunk,
                next,
                mut wall,
            } => {
                let source = expect_chunked(scene, self.model_len);
                let count = source.chunk_count();
                let start = Instant::now();
                let step = if next < count {
                    self.stream_chunk(renderer.chunk_cache(), source, next, &mut chunk, options)
                } else {
                    Ok(())
                };
                wall += start.elapsed();
                match step {
                    Err(error) => State::Failed { error },
                    Ok(()) if next + 1 < count => State::Stream {
                        chunk,
                        next: next + 1,
                        wall,
                    },
                    Ok(()) => {
                        self.end_project(wall);
                        State::Bin
                    }
                }
            }
            State::Bin => {
                let (camera, map) = (&self.view.camera, self.view.levels.as_ref());
                let grid = TileGridDims::for_image(camera.width, camera.height, options.tile_size);
                let threads = options.resolved_threads();
                let FrameArena { splats, csr, .. } = &mut self.arena;
                let levels = self.levels.iter().map(|range| &splats[range.clone()]);
                let bins = timed(
                    &mut self.profile.samples,
                    StageKind::Bin,
                    || pipeline::bin(levels, grid, map, threads, csr),
                    |bins| bins.iter().map(TileBins::total_intersections).sum(),
                );
                State::Merge { bins }
            }
            State::Merge { bins } => {
                let units = timed(
                    &mut self.profile.samples,
                    StageKind::Merge,
                    || pipeline::merge(bins[0].grid()),
                    |units| units.len() as u64,
                );
                State::Raster { bins, units }
            }
            State::Raster { bins, units } => {
                let (camera, map) = (&self.view.camera, self.view.levels.as_ref());
                let splats = &self.arena.splats;
                let levels: Vec<_> = (self.levels.iter())
                    .map(|range| &splats[range.clone()])
                    .zip(&bins)
                    .collect();
                let units = timed(
                    &mut self.profile.samples,
                    StageKind::Raster,
                    || pipeline::raster(&levels, &units, options, camera, map),
                    |units| units.iter().flat_map(|u| &u.blend_steps).sum(),
                );
                let work = &mut self.profile.raster;
                for unit in &units {
                    work.splats_staged += unit.work.splats_staged;
                    work.splats_culled += unit.work.splats_culled;
                }
                State::Composite { bins, units }
            }
            State::Composite { bins, units } => {
                let camera = &self.view.camera;
                let composited = timed(
                    &mut self.profile.samples,
                    StageKind::Composite,
                    || pipeline::composite(units, camera, options),
                    |c| (c.image.width() * c.image.height()) as u64,
                );
                State::Done { bins, composited }
            }
            // A failed frame absorbs further pumps as no-ops: a scheduler
            // that queued stage work before observing the failure must be
            // able to drain it harmlessly.
            state @ State::Failed { .. } => state,
            State::Done { .. } => panic!("run_stage called on a finished frame"),
            State::Poisoned => panic!("frame poisoned by an earlier stage panic"),
        };
        self.is_done() || self.is_failed()
    }

    /// Project `model` — the whole in-core model, or one streamed chunk
    /// whose first point has global index `base` — onto the end of the
    /// frame's splat vector, raising the projected-bytes peak to what this
    /// step produced. Chunks append in index order, so the final vector is
    /// the in-core projection of the concatenated model.
    fn project(&mut self, model: &GaussianModel, base: u32, options: &RenderOptions) {
        let splats = &mut self.arena.splats;
        let before = splats.len();
        project_model_offset_into(model, &self.view.camera, options, base, splats);
        let bytes = std::mem::size_of_val(&splats[before..]) as u64;
        let peak = &mut self.profile.projected_bytes_peak;
        *peak = (*peak).max(bytes);
    }

    /// Load chunk `index` into the frame's chunk buffer through the chunk
    /// cache (which checks its length), record the cache access and the
    /// chunk's bytes, and project it.
    fn stream_chunk(
        &mut self,
        cache: &ChunkCache,
        source: &(dyn SceneSource + Sync),
        index: usize,
        chunk: &mut GaussianModel,
        options: &RenderOptions,
    ) -> Result<(), SourceError> {
        let access = cache.load_into(source, index, 0, chunk)?;
        self.profile.cache.accumulate(&CacheStats {
            hits: u64::from(access.hit),
            misses: u64::from(!access.hit),
            evictions: access.evictions,
            resident_bytes_peak: cache.resident_bytes(),
        });
        let peak = &mut self.profile.chunk_bytes_peak;
        *peak = (*peak).max(chunk.storage_bytes() as u64);
        let base =
            u32::try_from(source.chunk_base(index)).expect("scene exceeds u32 point indexing");
        self.project(chunk, base, options);
        Ok(())
    }

    /// Close Project with one sample counting the frame's visible splats,
    /// so a chunked frame carries the in-core sample sequence, and make
    /// them the frame's one level.
    fn end_project(&mut self, wall: Duration) {
        self.levels.push(0..self.arena.splats.len());
        self.profile.samples.push(StageSample {
            kind: StageKind::Project,
            wall,
            items: self.arena.splats.len() as u64,
        });
    }

    /// Consume the finished frame: assemble its [`RenderOutput`] (the one
    /// statistics path every frame uses) and return the cleared
    /// [`FrameArena`] for the next frame.
    ///
    /// # Panics
    ///
    /// Panics unless [`is_done`](Self::is_done) — drive the frame with
    /// [`run_stage`](Self::run_stage) first.
    pub fn finish(self, renderer: &Renderer) -> (RenderOutput, FrameArena) {
        let State::Done { bins, composited } = self.state else {
            panic!("finish called before the frame completed");
        };
        let mut arena = self.arena;
        let levels: Vec<_> = (self.levels.into_iter())
            .map(|range| &arena.splats[range])
            .collect();
        let output = crate::raster::assemble_output(
            renderer.options(),
            self.model_len,
            &levels,
            &bins,
            composited,
            self.profile,
            self.view.levels.is_some(),
        );
        arena.csr = bins.into_iter().map(TileBins::into_buffers).collect();
        arena.clear();
        (output, arena)
    }

    /// Consume a failed frame, yielding the chunk-load error and the
    /// frame's [`FrameArena`] (cleared, capacity retained). The arena is
    /// exactly as reusable as one from [`finish`](Self::finish): the
    /// failure poisons nothing, so the next frame begun from it renders
    /// bit-identically to a cold start.
    ///
    /// # Panics
    ///
    /// Panics unless [`is_failed`](Self::is_failed).
    pub fn into_failure(self) -> (SourceError, FrameArena) {
        let State::Failed { error } = self.state else {
            panic!("into_failure called on a frame that did not fail");
        };
        let mut arena = self.arena;
        arena.clear();
        (error, arena)
    }
}

/// Run one stage body, timing it, and push its [`StageSample`] with the
/// work counter `items` reads off the stage's output.
fn timed<T>(
    samples: &mut Vec<StageSample>,
    kind: StageKind,
    stage: impl FnOnce() -> T,
    items: impl FnOnce(&T) -> u64,
) -> T {
    let start = Instant::now();
    let out = stage();
    let wall = start.elapsed();
    samples.push(StageSample {
        kind,
        wall,
        items: items(&out),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_math::{Quat, Vec3};

    /// A small multi-splat scene that exercises every stage (several tiles
    /// occupied, overlapping depths).
    fn scene() -> (GaussianModel, Camera) {
        let mut m = GaussianModel::new(0);
        for i in 0..40 {
            let f = i as f32;
            m.push_solid(
                Vec3::new(
                    (f * 0.13).sin() * 1.2,
                    (f * 0.29).cos() * 0.9,
                    f * 0.05 - 1.0,
                ),
                Vec3::splat(0.12 + 0.01 * (f * 0.7).sin().abs()),
                Quat::identity(),
                0.6,
                Vec3::new(f / 40.0, 1.0 - f / 40.0, 0.5),
            );
        }
        let camera = Camera::look_at(64, 48, 60.0, Vec3::new(0.0, 0.0, 4.0), Vec3::zero());
        (m, camera)
    }

    #[test]
    fn staged_frame_matches_monolithic_render() {
        let (model, camera) = scene();
        let options = crate::RenderOptions::with_point_stats();
        let renderer = Renderer::new(options);
        let reference = renderer.render(&model, &camera);

        let mut frame = renderer.begin_frame(&model, &camera, FrameArena::default());
        let expected = [
            StageKind::Project,
            StageKind::Bin,
            StageKind::Merge,
            StageKind::Raster,
            StageKind::Composite,
        ];
        for (i, kind) in expected.iter().enumerate() {
            assert_eq!(frame.next_stage(), Some(*kind));
            assert!(!frame.is_done());
            let done = frame.run_stage(&renderer, &model);
            assert_eq!(done, i + 1 == expected.len());
        }
        assert_eq!(frame.next_stage(), None);
        let (output, arena) = frame.finish(&renderer);
        assert_eq!(output, reference);
        // The recycled arena comes back cleared but with capacity.
        assert!(arena.splats.is_empty());
        assert!(arena.csr.iter().all(|(o, i)| o.is_empty() && i.is_empty()));
        assert!(arena.splats.capacity() > 0);
    }

    #[test]
    fn arena_reuse_is_bit_identical() {
        let (model, camera) = scene();
        let renderer = Renderer::default();
        let (first, arena) = renderer.try_render(&model, &camera, FrameArena::default());
        let (second, _) = renderer.try_render(&model, &camera, arena);
        assert_eq!(first.unwrap(), second.unwrap());
    }

    #[test]
    #[should_panic(expected = "finish called before the frame completed")]
    fn finish_before_done_panics() {
        let (model, camera) = scene();
        let renderer = Renderer::default();
        let mut frame = renderer.begin_frame(&model, &camera, FrameArena::default());
        frame.run_stage(&renderer, &model);
        frame.finish(&renderer);
    }

    #[test]
    #[should_panic(expected = "run_stage called on a finished frame")]
    fn run_stage_after_done_panics() {
        let (model, camera) = scene();
        let renderer = Renderer::default();
        let mut frame = renderer.begin_frame(&model, &camera, FrameArena::default());
        while !frame.run_stage(&renderer, &model) {}
        frame.run_stage(&renderer, &model);
    }

    /// `FrameInFlight` must stay `Send` — the frame server moves frames
    /// into worker-pool tasks.
    #[test]
    fn frame_in_flight_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<FrameInFlight>();
        assert_send::<FrameArena>();
    }

    #[test]
    fn chunked_render_matches_in_core_for_every_chunk_size() {
        let (model, camera) = scene();
        let renderer = Renderer::new(crate::RenderOptions::with_point_stats());
        let reference = renderer.render(&model, &camera);
        let mut arena = FrameArena::default();
        for chunk_splats in [1, 7, 39, 40, 1000] {
            let source = ms_scene::InCoreSource::new(model.clone(), chunk_splats);
            let out;
            (out, arena) = renderer.try_render(SceneRef::Chunked(&source), &camera, arena);
            let out = out.unwrap();
            assert_eq!(out, reference, "chunk size {chunk_splats}");
            // Profile equality compares (kind, items) pairs — the chunked
            // aggregate samples must mirror the in-core stage sequence.
            assert_eq!(
                out.stats.profile, reference.stats.profile,
                "chunk size {chunk_splats}"
            );
        }
    }

    #[test]
    fn chunked_peak_counters_are_bounded_by_chunk_size() {
        let (model, camera) = scene();
        let renderer = Renderer::default();
        let reference = renderer.render(&model, &camera);
        // In-core: no chunk buffer, projection scratch is the whole
        // visible-splat vector.
        assert_eq!(reference.stats.profile.chunk_bytes_peak, 0);
        assert_eq!(
            reference.stats.profile.projected_bytes_peak,
            (reference.stats.points_projected * std::mem::size_of::<ProjectedSplat>()) as u64
        );
        let chunk_splats = 7;
        let source = ms_scene::InCoreSource::new(model.clone(), chunk_splats);
        let out = renderer.render(SceneRef::Chunked(&source), &camera);
        let chunked = &out.stats.profile;
        assert!(chunked.chunk_bytes_peak > 0);
        // One chunk's worth of points bounds both peaks, model size does not.
        let max_chunk_bytes = {
            let mut probe = GaussianModel::new(0);
            model.clone_range_into(0..chunk_splats, &mut probe);
            probe.storage_bytes() as u64
        };
        assert!(chunked.chunk_bytes_peak <= max_chunk_bytes);
        assert!(
            chunked.projected_bytes_peak
                <= (chunk_splats * std::mem::size_of::<ProjectedSplat>()) as u64
        );
        assert!(chunked.projected_bytes_peak < reference.stats.profile.projected_bytes_peak);
    }

    /// Exact byte peaks and cache traffic for each scene kind: the in-core
    /// projection is one step over the whole model, a pre-projected frame
    /// counts the splats it copied, and a budget-0 chunked frame decodes
    /// every chunk once, peaking at its largest chunk and projection.
    #[test]
    fn profile_counters_are_exact_for_every_scene_kind() {
        let (model, camera) = scene();
        let splat_bytes = std::mem::size_of::<ProjectedSplat>() as u64;
        let renderer = Renderer::default();

        let in_core = renderer.render(&model, &camera);
        let profile = &in_core.stats.profile;
        assert_eq!(
            profile.projected_bytes_peak,
            in_core.stats.points_projected as u64 * splat_bytes
        );
        assert_eq!(profile.chunk_bytes_peak, 0);
        assert_eq!(profile.cache, CacheStats::default());

        let splats = crate::project_model(&model, &camera, renderer.options());
        let scene = SceneRef::Projected {
            levels: &[&splats],
            points: model.len(),
        };
        let profile = renderer.render(scene, &camera).stats.profile;
        assert_eq!(
            profile.projected_bytes_peak,
            splats.len() as u64 * splat_bytes
        );
        assert_eq!(profile.chunk_bytes_peak, 0);
        assert_eq!(profile.cache, CacheStats::default());

        let cache = std::sync::Arc::new(ChunkCache::new(0));
        let renderer = Renderer::with_chunk_cache(crate::RenderOptions::default(), cache);
        let source = ms_scene::InCoreSource::new(model.clone(), 7);
        let (mut projected_peak, mut chunk_peak) = (0, 0);
        let mut chunk = GaussianModel::new(0);
        for k in 0..source.chunk_count() {
            source.load_chunk_into(k, &mut chunk).unwrap();
            let projected = crate::project_model(&chunk, &camera, renderer.options()).len();
            projected_peak = projected_peak.max(projected as u64 * splat_bytes);
            chunk_peak = chunk_peak.max(chunk.storage_bytes() as u64);
        }
        let profile = renderer
            .render(SceneRef::Chunked(&source), &camera)
            .stats
            .profile;
        assert_eq!(profile.projected_bytes_peak, projected_peak);
        assert_eq!(profile.chunk_bytes_peak, chunk_peak);
        let misses = source.chunk_count() as u64;
        assert_eq!(
            profile.cache,
            CacheStats {
                hits: 0,
                misses,
                evictions: 0,
                resident_bytes_peak: 0,
            }
        );
    }

    #[test]
    fn empty_model_renders_clear_frame_in_core_and_chunked() {
        let model = GaussianModel::new(0);
        let camera = Camera::look_at(32, 24, 60.0, Vec3::new(0.0, 0.0, 3.0), Vec3::zero());
        let renderer = Renderer::new(crate::RenderOptions {
            background: Vec3::new(0.1, 0.2, 0.3),
            ..crate::RenderOptions::default()
        });
        let reference = renderer.render(&model, &camera);
        for px in 0..32u32 {
            assert_eq!(reference.image.pixel(px, 11), Vec3::new(0.1, 0.2, 0.3));
        }
        // An empty model is a 0-chunk source; the streamed Project must
        // degenerate cleanly instead of indexing a first chunk.
        let source = ms_scene::InCoreSource::new(model, 4096);
        assert_eq!(source.chunk_count(), 0);
        let out = renderer.render(SceneRef::Chunked(&source), &camera);
        assert_eq!(out, reference);
    }

    /// The scene's splats as two levels — all of them, and every other one
    /// — and a view that renders level 0 on the left half and level 1 on
    /// the right, blending the four columns left of the boundary halfway.
    /// Level 0 is then listed on the left tile columns only.
    fn two_levels(model: &GaussianModel, camera: &Camera) -> ([Vec<ProjectedSplat>; 2], View) {
        let all = crate::project_model(model, camera, &crate::RenderOptions::default());
        let thinned = all.iter().step_by(2).copied().collect();
        let half = camera.width / 2;
        let (level, blend) = (0..camera.width * camera.height)
            .map(|i| match i % camera.width {
                x if x >= half => (1, 0.0),
                x if x + 4 >= half => (0, 0.5),
                _ => (0, 0.0),
            })
            .unzip();
        let levels = Some(PixelLevels { level, blend });
        (
            [all, thinned],
            View {
                camera: *camera,
                levels,
            },
        )
    }

    #[test]
    fn foveated_frame_pumped_stage_by_stage_matches_render() {
        let (model, camera) = scene();
        let renderer = Renderer::new(crate::RenderOptions::with_point_stats());
        let ([all, thinned], view) = two_levels(&model, &camera);
        let scene = SceneRef::Projected {
            levels: &[&all, &thinned],
            points: model.len(),
        };
        let reference = renderer.render(scene, view.clone());
        let mut frame = renderer.begin_frame(scene, view, FrameArena::default());
        for kind in [
            StageKind::Bin,
            StageKind::Merge,
            StageKind::Raster,
            StageKind::Composite,
        ] {
            assert_eq!(frame.next_stage(), Some(kind));
            frame.run_stage(&renderer, scene);
        }
        let (output, _) = frame.finish(&renderer);
        assert_eq!(output, reference);
        let levels = &output.level_stats;
        assert_eq!(
            levels[0].total_intersections + levels[1].total_intersections,
            output.stats.total_intersections
        );
        // The map really restricted level 0 to the tiles that read it.
        let full = renderer.render(&model, &camera);
        assert!(levels[0].total_intersections < full.stats.total_intersections);
    }

    #[test]
    fn arena_recycled_across_foveated_and_plain_frames_is_bit_identical() {
        let (model, camera) = scene();
        let renderer = Renderer::new(crate::RenderOptions {
            threads: 3,
            ..crate::RenderOptions::with_point_stats()
        });
        let ([all, thinned], view) = two_levels(&model, &camera);
        let foveated = SceneRef::Projected {
            levels: &[&all, &thinned],
            points: model.len(),
        };
        let cold_foveated = renderer.render(foveated, view.clone());
        let cold_plain = renderer.render(&model, &camera);
        let mut arena = FrameArena::default();
        for leveled in [true, false, true] {
            let out;
            (out, arena) = if leveled {
                renderer.try_render(foveated, view.clone(), arena)
            } else {
                renderer.try_render(&model, &camera, arena)
            };
            let cold = if leveled { &cold_foveated } else { &cold_plain };
            assert_eq!(&out.unwrap(), cold, "leveled={leveled}");
        }
    }

    #[test]
    fn chunked_frame_takes_one_call_per_chunk_then_four_stages() {
        let (model, camera) = scene();
        let renderer = Renderer::default();
        let sources =
            [1, 7, 40].map(|chunk_splats| ms_scene::InCoreSource::new(model.clone(), chunk_splats));
        let empty = ms_scene::InCoreSource::new(GaussianModel::new(0), 4096);
        for source in sources.iter().chain([&empty]) {
            let scene = SceneRef::Chunked(source);
            let mut frame = renderer.begin_frame(scene, &camera, FrameArena::default());
            let mut calls = 0;
            while !frame.run_stage(&renderer, scene) {
                calls += 1;
            }
            calls += 1;
            assert!(frame.is_done());
            // A 0-chunk source still takes one streaming call to reach Bin.
            let expected = source.chunk_count().max(1) + 4;
            assert_eq!(calls, expected, "{} chunks", source.chunk_count());
        }
    }

    #[test]
    #[should_panic(expected = "projected splat point_index 40 out of range for a 40-point scene")]
    fn projected_point_index_checked_at_begin() {
        let (model, camera) = scene();
        let renderer = Renderer::default();
        let mut splats = crate::project_model(&model, &camera, renderer.options());
        splats[0].point_index = model.len() as u32;
        let scene = SceneRef::Projected {
            levels: &[&[], &splats],
            points: model.len(),
        };
        let _ = renderer.begin_frame(scene, &camera, FrameArena::default());
    }

    #[test]
    #[should_panic(expected = "projected splat depth NaN is not finite")]
    fn projected_depth_checked_at_begin() {
        let (model, camera) = scene();
        let renderer = Renderer::default();
        let mut splats = crate::project_model(&model, &camera, renderer.options());
        splats[3].depth = -f32::NAN;
        let scene = SceneRef::Projected {
            levels: &[&splats, &[]],
            points: model.len(),
        };
        let _ = renderer.begin_frame(scene, &camera, FrameArena::default());
    }

    #[test]
    #[should_panic(expected = "projected splat tiles (4..=4, 0..=0) outside the 4x3 tile grid")]
    fn projected_tiles_checked_at_begin() {
        // 64×48 at 16 px is a 4×3 grid; tile column 4 would alias tile
        // (0, 1) in Bin's row-major index.
        let (model, camera) = scene();
        let renderer = Renderer::default();
        let mut splats = crate::project_model(&model, &camera, renderer.options());
        splats[0].tiles = ms_math::TileRect {
            x0: 4,
            y0: 0,
            x1: 4,
            y1: 0,
        };
        let scene = SceneRef::Projected {
            levels: &[&splats],
            points: model.len(),
        };
        let _ = renderer.begin_frame(scene, &camera, FrameArena::default());
    }
}
