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
//! (an in-core model, a chunked source, or pre-projected splats) seen
//! through a [`View`] (a camera plus an optional pixel mask); the three
//! entry points — [`Renderer::begin_frame`], [`Renderer::render`] and
//! [`Renderer::try_render`] — all run this machine over that pair, so every
//! frame measures its stages and assembles its output the same way.
//!
//! [`FrameArena`] holds the large per-frame allocations (the
//! projected-splat vector, the CSR offset/index buffers, and the raster
//! workers' per-pixel-sort gather buffers). A finished frame returns its
//! arena from [`FrameInFlight::finish`]; handing it to the next
//! [`begin_frame`](crate::Renderer::begin_frame) turns the steady-state
//! per-frame cost into buffer reuse instead of allocation. Buffers are
//! cleared before reuse, so arenas never leak data between frames (or
//! sessions) and `FrameArena::default()` is always a valid cold start.

use crate::binning::{SuperTile, TileBins};
use crate::options::RenderOptions;
use crate::pipeline::{self, Composited, StageKind, StageSample};
use crate::projection::{project_model_offset_into, ProjectedSplat};
use crate::raster::{check_camera, Contrib, RenderOutput, Renderer, UnitResult};
use crate::stats::TileGridDims;
use ms_scene::{CacheStats, Camera, ChunkCache, GaussianModel, SceneSource, SourceError};
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
    /// its Project one chunk at a time (current chunk plus one prefetch
    /// resident), then bins the frame's splats like an in-core frame.
    Chunked(&'a (dyn SceneSource + Sync)),
    /// Screen-space splats projected ahead of time (for example by
    /// the foveated renderer, which derives every quality level from one
    /// shared [`project_model`](crate::project_model) pass) from a
    /// `points`-point model. The frame starts at Bin over a copy of
    /// `splats`, so its profile carries no Project sample. Every splat's
    /// `point_index` must be below `points`, and its `tiles` must lie on the
    /// frame's tile grid; both are checked when the frame begins.
    Projected {
        /// The splats, in the order Bin should see them.
        splats: &'a [ProjectedSplat],
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
            SceneRef::Projected { splats, points } => f
                .debug_struct("SceneRef::Projected")
                .field("points", points)
                .field("splats", &splats.len())
                .finish(),
        }
    }
}

/// What a frame looks at: the camera, plus an optional pixel mask
/// (row-major, one entry per pixel) restricting the frame to the pixels
/// where it is `true`. Masked-out pixels keep the background color; Bin
/// skips tiles with no active pixel entirely — splats are not even
/// duplicated into them, mirroring the foveation Filtering stage
/// (Fig. 7-E) — and Raster composites only active pixels.
///
/// `&Camera` converts implicitly (`From`), so unmasked call sites pass the
/// camera alone.
#[derive(Debug, Clone)]
pub struct View {
    /// The view camera.
    pub camera: Camera,
    /// Optional pixel mask, `camera.width * camera.height` entries.
    pub mask: Option<Vec<bool>>,
}

impl View {
    /// A view restricted to the pixels where `mask` is true.
    pub fn masked(camera: Camera, mask: Vec<bool>) -> Self {
        View {
            camera,
            mask: Some(mask),
        }
    }
}

impl From<&Camera> for View {
    fn from(camera: &Camera) -> Self {
        View {
            camera: *camera,
            mask: None,
        }
    }
}

/// Recyclable scratch storage for one frame: the projected-splat vector,
/// the CSR `(offsets, indices)` buffers, and the Raster stage's per-worker
/// per-pixel-sort gather buffers. Returned by [`FrameInFlight::finish`]
/// with contents cleared (capacity retained) and accepted by
/// [`Renderer::begin_frame`]; `FrameArena::default()` is a valid cold
/// start that simply allocates on first use.
#[derive(Debug, Default)]
pub struct FrameArena {
    pub(crate) splats: Vec<ProjectedSplat>,
    pub(crate) offsets: Vec<u32>,
    pub(crate) indices: Vec<u32>,
    pub(crate) raster: Vec<Vec<Contrib>>,
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

/// The streaming Project of a chunked frame: the double-buffered
/// chunk-decode storage, the frame's growing visible-splat vector, and the
/// per-frame cache/residency accounting.
///
/// # Double buffering
///
/// While the frame projects chunk `k` out of `chunk`, the *next* chunk
/// `k + 1` decodes on the worker pool into `next_chunk` — a one-deep
/// prefetch, so at most two chunk buffers are ever resident: the streamed
/// path's footprint is bounded by the renderer's
/// [`ChunkCache`](ms_scene::ChunkCache) budget plus `2 × chunk_bytes`. Chunks are
/// still *consumed* strictly in index order — the prefetch only moves the
/// decode earlier in time, never reorders it — and a prefetched load's
/// error is held in `prefetched` until its chunk would have been consumed,
/// so a failing source surfaces the same error at the same chunk index as
/// the unprefetched path.
struct ChunkStream {
    /// Chunk buffer currently being projected (the resident-budget unit).
    chunk: GaussianModel,
    /// Prefetch target: chunk `next + 1` decodes into this buffer while
    /// `chunk` is projected; the buffers swap when it is consumed.
    next_chunk: GaussianModel,
    /// Outcome of the in-flight prefetch, if one was issued: the cache
    /// access for chunk `next` now sitting in `next_chunk`, or the load
    /// error to surface when that chunk is consumed.
    prefetched: Option<Result<ms_scene::CacheAccess, SourceError>>,
    /// The frame's visible-splat vector: every chunk's projection appended
    /// in chunk order, so it equals the in-core projection of the
    /// concatenated model.
    splats: Vec<ProjectedSplat>,
    /// Recycled CSR `(offsets, indices)` storage, handed to Bin.
    recycle: (Vec<u32>, Vec<u32>),
    /// Next chunk index to stream.
    next: usize,
    /// Accumulated wall time attributed to the Project sample.
    project_wall: Duration,
    /// Running peaks for the frame-profile memory counters. The chunk peak
    /// counts the largest *single* buffer, matching the pre-prefetch
    /// meaning; the two-buffer residency is the documented budget, not a
    /// measured counter.
    chunk_bytes_peak: u64,
    projected_bytes_peak: u64,
    /// Cache traffic this frame generated (lands in the frame profile).
    cache: CacheStats,
}

impl ChunkStream {
    fn new(arena: FrameArena) -> Self {
        let mut splats = arena.splats;
        splats.clear();
        ChunkStream {
            chunk: GaussianModel::new(0),
            next_chunk: GaussianModel::new(0),
            prefetched: None,
            splats,
            recycle: (arena.offsets, arena.indices),
            next: 0,
            project_wall: Duration::ZERO,
            chunk_bytes_peak: 0,
            projected_bytes_peak: 0,
            cache: CacheStats::default(),
        }
    }

    /// Stream chunk `self.next`: obtain it (from the prefetch buffer or a
    /// fresh cache load) and project it onto the end of the visible-splat
    /// vector with its global point-index base — so projected
    /// `point_index` values match the concatenated in-core model's. The
    /// prefetch of the following chunk runs on the worker pool meanwhile,
    /// overlapping its decode with the projection.
    fn step(
        &mut self,
        cache: &ChunkCache,
        source: &(dyn SceneSource + Sync),
        camera: &Camera,
        options: &RenderOptions,
    ) -> Result<(), SourceError> {
        let start = Instant::now();
        let index = self.next;
        let access = match self.prefetched.take() {
            Some(result) => {
                std::mem::swap(&mut self.chunk, &mut self.next_chunk);
                result?
            }
            None => cache.load_into(source, index, 0, &mut self.chunk)?,
        };
        if access.hit {
            self.cache.hits += 1;
        } else {
            self.cache.misses += 1;
        }
        self.cache.evictions += access.evictions;
        self.cache.resident_bytes_peak = self.cache.resident_bytes_peak.max(cache.resident_bytes());
        let base =
            u32::try_from(source.chunk_base(index)).expect("scene exceeds u32 point indexing");
        let next_index = index + 1;
        let before = self.splats.len();
        if next_index < source.chunk_count() {
            let chunk = &self.chunk;
            let next_chunk = &mut self.next_chunk;
            let prefetched = &mut self.prefetched;
            let splats = &mut self.splats;
            rayon::scope(|s| {
                s.spawn(move |_| {
                    *prefetched = Some(cache.load_into(source, next_index, 0, next_chunk));
                });
                project_model_offset_into(chunk, camera, options, base, splats);
            });
        } else {
            project_model_offset_into(&self.chunk, camera, options, base, &mut self.splats);
        }
        self.project_wall += start.elapsed();
        self.chunk_bytes_peak = self.chunk_bytes_peak.max(self.chunk.storage_bytes() as u64);
        let projected = self.splats.len() - before;
        self.projected_bytes_peak = self
            .projected_bytes_peak
            .max((projected * std::mem::size_of::<ProjectedSplat>()) as u64);
        self.next = next_index;
        Ok(())
    }

    /// Recover the arena-owned buffers from a failed frame (cleared, with
    /// capacity retained) so the fault costs no steady-state allocations.
    /// The raster gather buffers live on `FrameInFlight` and rejoin in
    /// [`FrameInFlight::into_failure`].
    fn into_arena(self) -> FrameArena {
        let ChunkStream {
            mut splats,
            recycle: (offsets, indices),
            ..
        } = self;
        splats.clear();
        FrameArena {
            splats,
            offsets,
            indices,
            raster: Vec::new(),
        }
    }
}

/// Where a [`FrameInFlight`] is in the Project → Bin → Merge → Raster →
/// Composite pipeline, carrying the intermediates produced so far.
enum State {
    /// Nothing ran yet; holds the recycled arena.
    Project { arena: FrameArena },
    /// Streaming Project over a chunked source: each
    /// [`run_stage`](FrameInFlight::run_stage) call obtains one chunk
    /// (prefetch buffer, chunk cache, or source decode) and projects it
    /// with its global point-index base onto the end of the frame's splat
    /// vector — then drops the chunk. At most two chunk buffers (current +
    /// prefetch) are ever resident. After the last chunk the frame moves to
    /// [`State::Bin`] and runs on exactly like an in-core frame.
    Stream(Box<ChunkStream>),
    /// A chunk load failed. The frame is abandoned — no output exists —
    /// but its recycled buffers were recovered into `arena` so the fault
    /// does not cost the owner its allocation steady state
    /// ([`FrameInFlight::into_failure`] hands both back).
    Failed {
        error: SourceError,
        arena: FrameArena,
    },
    /// Project done.
    Bin {
        splats: Vec<ProjectedSplat>,
        recycle: (Vec<u32>, Vec<u32>),
    },
    /// Bin done.
    Merge {
        splats: Vec<ProjectedSplat>,
        bins: TileBins,
    },
    /// Merge done.
    Raster {
        splats: Vec<ProjectedSplat>,
        bins: TileBins,
        units: Vec<SuperTile>,
    },
    /// Raster done.
    Composite {
        splats: Vec<ProjectedSplat>,
        bins: TileBins,
        units: Vec<UnitResult>,
    },
    /// Composite done; [`FrameInFlight::finish`] assembles the output.
    Done {
        splats: Vec<ProjectedSplat>,
        bins: TileBins,
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
    /// Camera and optional pixel mask (mask size checked when the frame
    /// begins).
    view: View,
    model_len: usize,
    /// One sample per executed stage, in execution order.
    samples: Vec<StageSample>,
    state: State,
    /// Raster gather buffers, taken out of the incoming arena so the
    /// Raster stage can borrow them mutably alongside the pipeline state;
    /// they rejoin the arena in [`finish`](Self::finish).
    raster_contribs: Vec<Vec<Contrib>>,
    /// `(chunk_bytes_peak, projected_bytes_peak)` measured by the streamed
    /// Project; `None` on the in-core path, whose peaks are
    /// derived from the final splat vector when the output is assembled.
    peaks: Option<(u64, u64)>,
    /// Chunk-cache traffic measured by the streamed Project; zeros on the
    /// in-core path, which never touches the cache.
    cache_stats: CacheStats,
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
    /// Panics when the camera has a zero-pixel image or exceeds `u32` pixel
    /// addressing, when `mask.len() != width * height`, or when a
    /// pre-projected splat's `point_index` is not below the scene's
    /// `points` or its tile rectangle leaves the camera's grid of
    /// `tile_size`-pixel tiles. The mask-size comparison is done in `u64`:
    /// at extreme dimensions `width * height` overflows `u32`.
    pub(crate) fn new(
        scene: SceneRef<'_>,
        view: View,
        mut arena: FrameArena,
        tile_size: u32,
    ) -> Self {
        let camera = &view.camera;
        check_camera(camera);
        if let Some(mask) = &view.mask {
            assert_eq!(
                mask.len() as u64,
                camera.width as u64 * camera.height as u64,
                "pixel mask size mismatch"
            );
        }
        let raster_contribs = std::mem::take(&mut arena.raster);
        let state = match scene {
            SceneRef::InCore(_) => State::Project { arena },
            SceneRef::Chunked(_) => State::Stream(Box::new(ChunkStream::new(arena))),
            SceneRef::Projected { splats, points } => {
                if let Some(s) = splats.iter().find(|s| s.point_index as usize >= points) {
                    panic!(
                        "projected splat point_index {} out of range for a {points}-point scene",
                        s.point_index
                    );
                }
                // Bin indexes `ty * tiles_x + tx` unchecked: an x past the
                // grid would land in the next row's tile.
                let grid = TileGridDims::for_image(camera.width, camera.height, tile_size);
                let outside =
                    |s: &&ProjectedSplat| s.tiles.x1 >= grid.tiles_x || s.tiles.y1 >= grid.tiles_y;
                if let Some(s) = splats.iter().find(outside) {
                    panic!(
                        "projected splat tiles ({}..={}, {}..={}) outside the {}x{} tile grid",
                        s.tiles.x0, s.tiles.x1, s.tiles.y0, s.tiles.y1, grid.tiles_x, grid.tiles_y
                    );
                }
                let mut copy = arena.splats;
                copy.clear();
                copy.extend_from_slice(splats);
                State::Bin {
                    splats: copy,
                    recycle: (arena.offsets, arena.indices),
                }
            }
        };
        Self {
            view,
            model_len: scene.total_points(),
            samples: Vec::new(),
            state,
            raster_contribs,
            peaks: None,
            cache_stats: CacheStats::default(),
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
            State::Project { .. } | State::Stream(_) => Some(StageKind::Project),
            State::Bin { .. } => Some(StageKind::Bin),
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
    /// the failed state (recovering its recycled buffers) and further
    /// calls are no-ops returning `true`.
    ///
    /// # Panics
    ///
    /// Panics when called on a finished or poisoned frame, when the scene
    /// kind differs from the one the frame was begun with, or (debug only)
    /// when the scene changed size since [`Renderer::begin_frame`].
    pub fn run_stage<'a>(&mut self, renderer: &Renderer, scene: impl Into<SceneRef<'a>>) -> bool {
        let scene = scene.into();
        let options = renderer.options();
        let camera = &self.view.camera;
        let mask = self.view.mask.as_deref();
        self.state = match std::mem::replace(&mut self.state, State::Poisoned) {
            State::Project { arena } => {
                let SceneRef::InCore(model) = scene else {
                    panic!("frame begun on an in-core model driven with a chunked source")
                };
                debug_assert_eq!(
                    model.len(),
                    self.model_len,
                    "model changed size since begin_frame"
                );
                let splats = timed(
                    &mut self.samples,
                    StageKind::Project,
                    || pipeline::project(model, camera, options, arena.splats),
                    |splats| splats.len() as u64,
                );
                State::Bin {
                    splats,
                    recycle: (arena.offsets, arena.indices),
                }
            }
            State::Stream(mut stream) => {
                let source = expect_chunked(scene, self.model_len);
                let count = source.chunk_count();
                let step = if stream.next < count {
                    stream.step(renderer.chunk_cache(), source, camera, options)
                } else {
                    Ok(())
                };
                match step {
                    Err(error) => State::Failed {
                        error,
                        arena: stream.into_arena(),
                    },
                    Ok(()) if stream.next == count => {
                        let ChunkStream {
                            splats,
                            recycle,
                            project_wall,
                            chunk_bytes_peak,
                            projected_bytes_peak,
                            cache,
                            ..
                        } = *stream;
                        // One aggregate Project sample, so chunked profiles
                        // carry the in-core sample sequence.
                        self.samples.push(StageSample {
                            kind: StageKind::Project,
                            wall: project_wall,
                            items: splats.len() as u64,
                        });
                        self.peaks = Some((chunk_bytes_peak, projected_bytes_peak));
                        self.cache_stats = cache;
                        State::Bin { splats, recycle }
                    }
                    Ok(()) => State::Stream(stream),
                }
            }
            State::Bin { splats, recycle } => {
                let grid = TileGridDims::for_image(camera.width, camera.height, options.tile_size);
                let threads = options.resolved_threads();
                let bins = timed(
                    &mut self.samples,
                    StageKind::Bin,
                    || pipeline::bin(&splats, grid, mask, threads, recycle),
                    TileBins::total_intersections,
                );
                State::Merge { splats, bins }
            }
            State::Merge { splats, bins } => {
                let units = timed(
                    &mut self.samples,
                    StageKind::Merge,
                    || pipeline::merge(bins.grid()),
                    |units| units.len() as u64,
                );
                State::Raster {
                    splats,
                    bins,
                    units,
                }
            }
            State::Raster {
                splats,
                bins,
                units,
            } => {
                let contribs = &mut self.raster_contribs;
                let units = timed(
                    &mut self.samples,
                    StageKind::Raster,
                    || pipeline::raster(&splats, &bins, &units, options, camera, mask, contribs),
                    |units| units.iter().map(|u| u.blend_steps).sum(),
                );
                State::Composite {
                    splats,
                    bins,
                    units,
                }
            }
            State::Composite {
                splats,
                bins,
                units,
            } => {
                let composited = timed(
                    &mut self.samples,
                    StageKind::Composite,
                    || pipeline::composite(units, camera, options),
                    |c| (c.image.width() * c.image.height()) as u64,
                );
                State::Done {
                    splats,
                    bins,
                    composited,
                }
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

    /// Consume the finished frame: assemble its [`RenderOutput`] (the one
    /// statistics path every frame uses) and return the cleared
    /// [`FrameArena`] for the next frame.
    ///
    /// # Panics
    ///
    /// Panics unless [`is_done`](Self::is_done) — drive the frame with
    /// [`run_stage`](Self::run_stage) first.
    pub fn finish(self, renderer: &Renderer) -> (RenderOutput, FrameArena) {
        let State::Done {
            mut splats,
            bins,
            composited,
        } = self.state
        else {
            panic!("finish called before the frame completed");
        };
        let mut output = crate::raster::assemble_output(
            renderer.options(),
            self.model_len,
            &splats,
            &bins,
            composited,
            self.samples,
        );
        // The streamed Project measured its own residency peaks (bounded by
        // the chunk size); the in-core defaults from
        // `assemble_output` stand otherwise.
        if let Some((chunk_peak, projected_peak)) = self.peaks {
            output.stats.profile.chunk_bytes_peak = chunk_peak;
            output.stats.profile.projected_bytes_peak = projected_peak;
        }
        output.stats.profile.cache = self.cache_stats;
        splats.clear();
        let (mut offsets, mut indices) = bins.into_buffers();
        offsets.clear();
        indices.clear();
        let mut raster = self.raster_contribs;
        raster.iter_mut().for_each(Vec::clear);
        (
            output,
            FrameArena {
                splats,
                offsets,
                indices,
                raster,
            },
        )
    }

    /// Consume a failed frame, yielding the chunk-load error and the
    /// recovered [`FrameArena`] (cleared, capacity retained — including the
    /// raster gather buffers). The arena is exactly as reusable as one from
    /// [`finish`](Self::finish): the failure poisons nothing, so the next
    /// frame begun from it renders bit-identically to a cold start.
    ///
    /// # Panics
    ///
    /// Panics unless [`is_failed`](Self::is_failed).
    pub fn into_failure(self) -> (SourceError, FrameArena) {
        let State::Failed { error, mut arena } = self.state else {
            panic!("into_failure called on a frame that did not fail");
        };
        let mut raster = self.raster_contribs;
        raster.iter_mut().for_each(Vec::clear);
        arena.raster = raster;
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
        assert!(arena.offsets.is_empty());
        assert!(arena.indices.is_empty());
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

    /// Left-half pixel mask: the right tile columns have no active pixel,
    /// so the masked Bin drops their intersections.
    fn left_half(camera: &Camera) -> Vec<bool> {
        (0..camera.width * camera.height)
            .map(|i| i % camera.width < camera.width / 2)
            .collect()
    }

    fn run_to_end(
        renderer: &Renderer,
        model: &GaussianModel,
        mut frame: FrameInFlight,
    ) -> (RenderOutput, FrameArena) {
        while !frame.run_stage(renderer, model) {}
        frame.finish(renderer)
    }

    #[test]
    fn masked_frame_pumped_stage_by_stage_matches_masked_render() {
        let (model, camera) = scene();
        let renderer = Renderer::new(crate::RenderOptions::with_point_stats());
        let view = View::masked(camera, left_half(&camera));
        let reference = renderer.render(&model, view.clone());
        let mut frame = renderer.begin_frame(&model, view, FrameArena::default());
        for kind in [
            StageKind::Project,
            StageKind::Bin,
            StageKind::Merge,
            StageKind::Raster,
            StageKind::Composite,
        ] {
            assert_eq!(frame.next_stage(), Some(kind));
            frame.run_stage(&renderer, &model);
        }
        let (output, _) = frame.finish(&renderer);
        assert_eq!(output, reference);
        let kinds_items = |o: &RenderOutput| -> Vec<(StageKind, u64)> {
            let samples = &o.stats.profile.samples;
            samples.iter().map(|s| (s.kind, s.items)).collect()
        };
        assert_eq!(kinds_items(&output), kinds_items(&reference));
        // The mask really restricted the frame.
        let full = renderer.render(&model, &camera);
        assert!(output.stats.total_intersections < full.stats.total_intersections);
    }

    #[test]
    fn arena_recycled_across_masked_and_unmasked_frames_is_bit_identical() {
        let (model, camera) = scene();
        let renderer = Renderer::new(crate::RenderOptions {
            threads: 3,
            ..crate::RenderOptions::with_point_stats()
        });
        let mask = left_half(&camera);
        let cold_masked = renderer.render(&model, View::masked(camera, mask.clone()));
        let cold_plain = renderer.render(&model, &camera);
        let mut arena = FrameArena::default();
        for masked in [true, false, true] {
            let view = View {
                camera,
                mask: masked.then(|| mask.clone()),
            };
            let frame = renderer.begin_frame(&model, view, arena);
            let out;
            (out, arena) = run_to_end(&renderer, &model, frame);
            let cold = if masked { &cold_masked } else { &cold_plain };
            assert_eq!(&out, cold, "masked={masked}");
            assert_eq!(out.stats.profile.raster, cold.stats.profile.raster);
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
            splats: &splats,
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
            splats: &splats,
            points: model.len(),
        };
        let _ = renderer.begin_frame(scene, &camera, FrameArena::default());
    }
}
