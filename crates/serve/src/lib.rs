//! Multi-session frame server with pipelined frames in flight.
//!
//! A PBNR deployment (the paper's §6 serving scenario) renders *streams* of
//! frames for multiple viewers of one scene, not isolated frames: each
//! session walks its own camera trajectory at its own quality settings,
//! while every session shares the same immutable Gaussian model. This crate
//! provides that serving layer on top of the staged renderer:
//!
//! * **One shared scene.** [`FrameServer`] owns a [`SceneHandle`] — an
//!   `Arc<GaussianModel>` or an `Arc<dyn SceneSource>` streamed chunk by
//!   chunk; sessions never copy scene data. Chunked sessions advance one
//!   chunk of Project per step (one chunk buffer resident per in-flight
//!   frame, on top of the shared cache's budget), then run Bin onwards
//!   like in-core frames, and their frames are bit-identical to in-core
//!   ones.
//! * **One shared chunk cache.** Every session's renderer shares the
//!   server's [`ChunkCache`], so sessions streaming the same scene hit
//!   each other's decodes — with N sessions walking the same chunked
//!   source, each chunk decodes roughly once for the whole server instead
//!   of once per session. Cache traffic is aggregated in
//!   [`ServerReport::cache`]. Cache hits return the exact decoded bytes, so
//!   sharing never affects determinism.
//! * **Fault isolation.** A chunk-load failure ([`SourceError`]) kills only
//!   the session that hit it: the failed frame's buffers are recovered, the
//!   session stops admitting and reports the error via
//!   [`session_error`](FrameServer::session_error), and every other
//!   session keeps producing bit-identical frames
//!   (`tests/fault_injection.rs` pins one failing session among 16).
//! * **Per-session streams.** [`SessionConfig`] pairs a
//!   [`Trajectory`] + prototype [`Camera`] (the pose source) with
//!   [`RenderOptions`] (quality knobs) — options are validated **once at
//!   session admission** and only debug-asserted on the per-frame hot path.
//! * **Pipelined frames.** Each session keeps a small bounded window of
//!   [`FrameInFlight`] frames; every server
//!   [`step`](FrameServer::step) advances one pipeline stage of *every*
//!   in-flight frame concurrently on the shared worker pool, so the
//!   Project/Bin of one frame overlaps the Raster/Composite of another —
//!   across sessions and within one session's window.
//! * **Backpressure.** Finished frames land in a bounded per-session output
//!   ring; when `ring + in-flight` reaches `ring_capacity`, the session
//!   stops admitting frames until the consumer drains
//!   ([`take_frames`](FrameServer::take_frames)). A slow consumer stalls
//!   only its own session.
//! * **Determinism.** A frame is a self-contained state machine running the
//!   exact stage sequence of `Renderer::render`; concurrency changes only
//!   *when* stages run, never their inputs. Every session's frames are
//!   bit-identical to a solo `Renderer` walking the same trajectory,
//!   regardless of how many other sessions are in flight
//!   (`tests/server_determinism.rs` enforces this at 16 sessions).
//!
//! Sessions can be added and removed mid-run; [`SessionStats`] (frame
//! latency percentiles, sustained FPS) are available per session and
//! aggregated into a [`ServerReport`].

#![deny(missing_docs)]

use ms_render::{
    check_camera, FrameArena, FrameInFlight, RenderOptions, RenderOutput, Renderer, SceneRef,
};
use ms_scene::trajectory::Trajectory;
use ms_scene::{
    CacheStats, Camera, ChunkCache, GaussianModel, SceneSource, SourceError,
    DEFAULT_CHUNK_CACHE_BYTES,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The scene a server shares across its sessions: either a fully resident
/// model or a chunked out-of-core [`SceneSource`], both behind an `Arc` so
/// sessions never copy scene data. Chunked sessions stream Project one
/// chunk per scheduling step and are bit-identical to in-core ones over
/// the concatenated chunks (`tests/server_determinism.rs` pins this).
#[derive(Clone)]
pub enum SceneHandle {
    /// The whole model resident in memory.
    InCore(Arc<GaussianModel>),
    /// A chunked source with a bounded per-session resident budget.
    Chunked(Arc<dyn SceneSource + Send + Sync>),
}

impl SceneHandle {
    /// Borrow the scene for a frame step.
    pub fn as_scene_ref(&self) -> SceneRef<'_> {
        match self {
            SceneHandle::InCore(model) => SceneRef::InCore(model),
            SceneHandle::Chunked(source) => SceneRef::Chunked(&**source),
        }
    }

    /// Total points in the scene.
    pub fn total_points(&self) -> usize {
        self.as_scene_ref().total_points()
    }
}

impl std::fmt::Debug for SceneHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_scene_ref().fmt(f)
    }
}

/// Stable handle for one serving session. Ids are never reused within a
/// server, so a stale handle cannot alias a newer session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw id value (for logs and reports).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Everything a session needs at admission time.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Camera-pose source; the session renders `frame_count` poses sampled
    /// uniformly along it (`Trajectory::camera_at`).
    pub trajectory: Trajectory,
    /// Camera intrinsics (resolution, fov) applied to every sampled pose.
    pub prototype: Camera,
    /// Total frames the session renders. At least 2 (the trajectory
    /// sampler needs two endpoints).
    pub frame_count: usize,
    /// Render options. Validated once at [`FrameServer::add_session`].
    pub options: RenderOptions,
    /// Maximum frames simultaneously in flight for this session (the
    /// pipelining window). At least 1; 1 disables intra-session
    /// pipelining.
    pub in_flight: usize,
    /// Bound on `completed-but-undrained + in-flight` frames — the
    /// backpressure limit. At least 1 (and at least `in_flight` to ever
    /// use the whole window).
    pub ring_capacity: usize,
}

/// One finished frame, as delivered to the session's consumer.
#[derive(Debug)]
pub struct FrameResult {
    /// Index along the session's trajectory (`0..frame_count`).
    pub frame_index: usize,
    /// The rendered frame, bit-identical to a solo `Renderer::render` of
    /// the same pose.
    pub output: RenderOutput,
    /// Wall time from admission to completion (includes time spent queued
    /// behind other sessions' stages).
    pub latency: Duration,
}

/// A frame being advanced through the pipeline.
struct InFlightFrame {
    index: usize,
    started: Instant,
    frame: FrameInFlight,
}

/// Internal per-session state.
struct Session {
    id: SessionId,
    renderer: Renderer,
    trajectory: Trajectory,
    prototype: Camera,
    frame_count: usize,
    window: usize,
    ring_capacity: usize,
    /// Next trajectory index to admit.
    next_frame: usize,
    /// Frames currently in the pipeline, in admission (= index) order.
    in_flight: VecDeque<InFlightFrame>,
    /// Completed frames awaiting the consumer, in completion order.
    ring: VecDeque<FrameResult>,
    /// Recycled scratch buffers (one arena per window slot at steady
    /// state).
    arenas: Vec<FrameArena>,
    /// Completion latencies of every finished frame, for the percentiles.
    latencies: Vec<Duration>,
    first_started: Option<Instant>,
    last_completed: Option<Instant>,
    /// The chunk-load error that killed this session, if any. A failed
    /// session stops admitting frames but stays queryable
    /// ([`FrameServer::session_error`]); other sessions are unaffected.
    failed: Option<SourceError>,
}

impl Session {
    /// Frames this session still owes (admitted or not yet admitted). A
    /// failed session owes nothing — it is finished, albeit unsuccessfully.
    fn is_finished(&self) -> bool {
        (self.next_frame >= self.frame_count || self.failed.is_some()) && self.in_flight.is_empty()
    }

    /// Admit frames up to the window and backpressure limits.
    fn admit(&mut self, scene: SceneRef<'_>) {
        while self.failed.is_none()
            && self.next_frame < self.frame_count
            && self.in_flight.len() < self.window
            && self.in_flight.len() + self.ring.len() < self.ring_capacity
        {
            let index = self.next_frame;
            self.next_frame += 1;
            let camera = self
                .trajectory
                .camera_at(&self.prototype, index, self.frame_count);
            let arena = self.arenas.pop().unwrap_or_default();
            let started = Instant::now();
            self.first_started.get_or_insert(started);
            let frame = self.renderer.begin_frame(scene, &camera, arena);
            self.in_flight.push_back(InFlightFrame {
                index,
                started,
                frame,
            });
        }
    }

    /// Move finished frames from the pipeline window into the output ring.
    /// Completion is in-order (the window is FIFO), so a done frame behind
    /// an unfinished one waits — frame indices in the ring are
    /// monotonically increasing. A *failed* front frame instead kills the
    /// session: its error is recorded, its buffers recovered, and any
    /// frames queued behind it abandoned (their outputs would follow a
    /// hole in the stream). Frames already delivered stay delivered.
    fn complete(&mut self) -> usize {
        let mut completed = 0;
        while let Some(front) = self.in_flight.front() {
            if front.frame.is_done() {
                let inf = self.in_flight.pop_front().expect("front checked above");
                let (output, arena) = inf.frame.finish(&self.renderer);
                self.arenas.push(arena);
                let latency = inf.started.elapsed();
                self.latencies.push(latency);
                self.last_completed = Some(Instant::now());
                self.ring.push_back(FrameResult {
                    frame_index: inf.index,
                    output,
                    latency,
                });
                completed += 1;
            } else if front.frame.is_failed() {
                let inf = self.in_flight.pop_front().expect("front checked above");
                let (error, arena) = inf.frame.into_failure();
                self.arenas.push(arena);
                self.failed = Some(error);
                self.in_flight.clear();
            } else {
                break;
            }
        }
        completed
    }

    fn stats(&self) -> SessionStats {
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let sustained_fps = match (self.first_started, self.last_completed) {
            (Some(start), Some(end)) if end > start && !sorted.is_empty() => {
                sorted.len() as f64 / (end - start).as_secs_f64()
            }
            _ => 0.0,
        };
        let mean = if sorted.is_empty() {
            Duration::ZERO
        } else {
            sorted.iter().sum::<Duration>() / sorted.len() as u32
        };
        SessionStats {
            id: self.id,
            frames_completed: self.latencies.len(),
            latency_p50: percentile(&sorted, 50.0),
            latency_p99: percentile(&sorted, 99.0),
            latency_mean: mean,
            sustained_fps,
        }
    }
}

/// Nearest-rank percentile over sorted samples; `Duration::ZERO` when
/// empty.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency/throughput summary of one session.
#[derive(Debug, Clone, Copy)]
pub struct SessionStats {
    /// Which session.
    pub id: SessionId,
    /// Frames finished so far.
    pub frames_completed: usize,
    /// Median admission-to-completion frame latency.
    pub latency_p50: Duration,
    /// 99th-percentile frame latency (nearest rank).
    pub latency_p99: Duration,
    /// Mean frame latency.
    pub latency_mean: Duration,
    /// Frames completed per second of session wall time (first admission
    /// to last completion); `0.0` before the first completion.
    pub sustained_fps: f64,
}

/// Server-wide aggregation of every live session's stats.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Per-session stats, in session-creation order.
    pub sessions: Vec<SessionStats>,
    /// Total frames completed across live sessions.
    pub total_frames: usize,
    /// Wall time from the earliest admission to the latest completion
    /// across sessions.
    pub wall: Duration,
    /// Total frames over `wall` — the server's aggregate throughput.
    pub aggregate_fps: f64,
    /// Lifetime traffic of the server's shared [`ChunkCache`]: hits,
    /// misses, evictions and the resident-bytes high-water mark, summed
    /// over every session and frame so far. All zeros for in-core scenes,
    /// which never touch the cache.
    pub cache: CacheStats,
}

/// Frame server: one shared scene, many pipelined sessions.
///
/// Drive it with [`step`](Self::step) (one stage of every in-flight frame
/// per call) and drain with [`take_frames`](Self::take_frames), or use
/// [`run_to_completion`](Self::run_to_completion) for batch workloads.
pub struct FrameServer {
    scene: SceneHandle,
    sessions: Vec<Session>,
    next_id: u64,
    /// Chunk cache shared by every session's renderer, so sessions
    /// streaming the same scene hit each other's decodes.
    cache: Arc<ChunkCache>,
}

impl FrameServer {
    /// Create a server for one shared in-core scene.
    pub fn new(model: Arc<GaussianModel>) -> Self {
        Self::new_scene(SceneHandle::InCore(model))
    }

    /// Create a server streaming a shared chunked source: sessions stream
    /// Project one chunk per scheduling step (one chunk buffer resident per
    /// in-flight frame), then run Bin onwards like in-core frames and
    /// interleave exactly like them, sharing one chunk cache across all
    /// sessions.
    pub fn new_chunked(source: Arc<dyn SceneSource + Send + Sync>) -> Self {
        Self::new_scene(SceneHandle::Chunked(source))
    }

    /// Create a server for any [`SceneHandle`], sharing one chunk cache of
    /// [`DEFAULT_CHUNK_CACHE_BYTES`] across its sessions; use
    /// [`new_scene_with_cache`](Self::new_scene_with_cache) to pick a
    /// budget.
    pub fn new_scene(scene: SceneHandle) -> Self {
        let cache = Arc::new(ChunkCache::new(DEFAULT_CHUNK_CACHE_BYTES));
        Self::new_scene_with_cache(scene, cache)
    }

    /// Create a server whose sessions share `cache` — also lets several
    /// servers share one cache, or tests pick an exact budget.
    pub fn new_scene_with_cache(scene: SceneHandle, cache: Arc<ChunkCache>) -> Self {
        Self {
            scene,
            sessions: Vec::new(),
            next_id: 0,
            cache,
        }
    }

    /// The shared scene.
    pub fn scene(&self) -> &SceneHandle {
        &self.scene
    }

    /// The chunk cache every session's renderer shares.
    pub fn chunk_cache(&self) -> &Arc<ChunkCache> {
        &self.cache
    }

    /// The shared in-core model, `None` when the server streams a chunked
    /// source.
    pub fn model(&self) -> Option<&Arc<GaussianModel>> {
        match &self.scene {
            SceneHandle::InCore(model) => Some(model),
            SceneHandle::Chunked(_) => None,
        }
    }

    /// Admit a session. Validates `config.options`, the prototype camera
    /// ([`check_camera`]) and the session bounds **here, once** — per-frame
    /// rendering only debug-asserts the invariant afterwards. Sessions may
    /// be added while others are mid-flight; the new session joins
    /// scheduling at the next [`step`](Self::step).
    pub fn add_session(&mut self, config: SessionConfig) -> Result<SessionId, String> {
        config.options.validate()?;
        check_camera(&config.prototype)?;
        if config.frame_count < 2 {
            return Err(format!(
                "frame_count must be >= 2 (trajectory sampling needs two endpoints), got {}",
                config.frame_count
            ));
        }
        if config.in_flight == 0 {
            return Err("in_flight window must be >= 1".into());
        }
        if config.ring_capacity == 0 {
            return Err("ring_capacity must be >= 1".into());
        }
        let id = SessionId(self.next_id);
        self.next_id += 1;
        self.sessions.push(Session {
            id,
            renderer: Renderer::with_chunk_cache(config.options, Arc::clone(&self.cache)),
            trajectory: config.trajectory,
            prototype: config.prototype,
            frame_count: config.frame_count,
            window: config.in_flight,
            ring_capacity: config.ring_capacity,
            next_frame: 0,
            in_flight: VecDeque::new(),
            ring: VecDeque::new(),
            arenas: Vec::new(),
            latencies: Vec::new(),
            first_started: None,
            last_completed: None,
            failed: None,
        });
        Ok(id)
    }

    /// The chunk-load error that killed a session, `None` while it is
    /// healthy (or for an unknown id). A failed session completes no
    /// further frames; frames it delivered before the fault remain valid.
    pub fn session_error(&self, id: SessionId) -> Option<&SourceError> {
        self.sessions
            .iter()
            .find(|s| s.id == id)
            .and_then(|s| s.failed.as_ref())
    }

    /// Remove a session mid-run, dropping its in-flight frames and
    /// undrained ring; returns its stats so far (`None` for an unknown
    /// id). Other sessions are unaffected.
    pub fn remove_session(&mut self, id: SessionId) -> Option<SessionStats> {
        let pos = self.sessions.iter().position(|s| s.id == id)?;
        let session = self.sessions.remove(pos);
        Some(session.stats())
    }

    /// Ids of live sessions, in creation order.
    pub fn session_ids(&self) -> Vec<SessionId> {
        self.sessions.iter().map(|s| s.id).collect()
    }

    /// Advance the server: admit frames into every session's window, run
    /// **one pipeline stage of every in-flight frame** concurrently on the
    /// worker pool, then move finished frames into their session rings.
    /// Returns the number of frames completed this step.
    ///
    /// Each stage task is one `rayon` scope spawn, so the pool's
    /// round-robin queue interleaves sessions fairly; stages that are
    /// internally parallel (Project/Bin/Raster) spawn their own sub-tasks
    /// from within.
    pub fn step(&mut self) -> usize {
        let scene = self.scene.as_scene_ref();
        for session in &mut self.sessions {
            session.admit(scene);
        }
        let sessions = &mut self.sessions;
        rayon::scope(|sc| {
            for session in sessions.iter_mut() {
                let Session {
                    renderer,
                    in_flight,
                    ..
                } = session;
                let renderer: &Renderer = &*renderer;
                for inf in in_flight.iter_mut() {
                    let frame = &mut inf.frame;
                    sc.spawn(move |_| {
                        frame.run_stage(renderer, scene);
                    });
                }
            }
        });
        self.sessions.iter_mut().map(Session::complete).sum()
    }

    /// Drain the session's completed frames (in frame-index order),
    /// releasing its backpressure budget. Empty for an unknown id.
    pub fn take_frames(&mut self, id: SessionId) -> Vec<FrameResult> {
        self.sessions
            .iter_mut()
            .find(|s| s.id == id)
            .map(|s| s.ring.drain(..).collect())
            .unwrap_or_default()
    }

    /// Whether every session has rendered all its frames (undrained rings
    /// do not count as work).
    pub fn is_idle(&self) -> bool {
        self.sessions.iter().all(Session::is_finished)
    }

    /// Step until every session completes, draining rings as they fill so
    /// backpressure never stalls the run. Returns each session's full
    /// frame sequence, in session-creation order.
    pub fn run_to_completion(&mut self) -> Vec<(SessionId, Vec<FrameResult>)> {
        let mut results: Vec<(SessionId, Vec<FrameResult>)> = self
            .session_ids()
            .into_iter()
            .map(|id| (id, Vec::new()))
            .collect();
        while !self.is_idle() {
            self.step();
            for (id, frames) in &mut results {
                let mut taken = self.take_frames(*id);
                frames.append(&mut taken);
            }
        }
        for (id, frames) in &mut results {
            let mut taken = self.take_frames(*id);
            frames.append(&mut taken);
        }
        results
    }

    /// Stats of one live session (`None` for an unknown id).
    pub fn session_stats(&self, id: SessionId) -> Option<SessionStats> {
        self.sessions
            .iter()
            .find(|s| s.id == id)
            .map(Session::stats)
    }

    /// Aggregate stats across live sessions.
    pub fn report(&self) -> ServerReport {
        let sessions: Vec<SessionStats> = self.sessions.iter().map(Session::stats).collect();
        let total_frames = sessions.iter().map(|s| s.frames_completed).sum();
        let start = self.sessions.iter().filter_map(|s| s.first_started).min();
        let end = self.sessions.iter().filter_map(|s| s.last_completed).max();
        let wall = match (start, end) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => Duration::ZERO,
        };
        let aggregate_fps = if wall > Duration::ZERO {
            total_frames as f64 / wall.as_secs_f64()
        } else {
            0.0
        };
        ServerReport {
            sessions,
            total_frames,
            wall,
            aggregate_fps,
            cache: self.cache.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_math::Quat;
    use ms_math::Vec3;
    use ms_scene::trajectory::orbit;
    use ms_scene::GaussianModel;

    fn test_model() -> Arc<GaussianModel> {
        let mut m = GaussianModel::new(0);
        for i in 0..30 {
            let f = i as f32;
            m.push_solid(
                Vec3::new((f * 0.31).sin(), (f * 0.17).cos() * 0.8, (f * 0.09).sin()),
                Vec3::splat(0.15),
                Quat::identity(),
                0.7,
                Vec3::new(f / 30.0, 0.4, 1.0 - f / 30.0),
            );
        }
        Arc::new(m)
    }

    fn config(radius: f32) -> SessionConfig {
        SessionConfig {
            trajectory: orbit(Vec3::zero(), radius, 1.0, 6),
            prototype: Camera::look_at(48, 32, 60.0, Vec3::new(0.0, 1.0, 4.0), Vec3::zero()),
            frame_count: 4,
            options: RenderOptions::default(),
            in_flight: 2,
            ring_capacity: 4,
        }
    }

    #[test]
    fn single_session_completes_all_frames() {
        let mut server = FrameServer::new(test_model());
        let id = server.add_session(config(4.0)).unwrap();
        let results = server.run_to_completion();
        assert_eq!(results.len(), 1);
        let (rid, frames) = &results[0];
        assert_eq!(*rid, id);
        assert_eq!(frames.len(), 4);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.frame_index, i);
        }
        let stats = server.session_stats(id).unwrap();
        assert_eq!(stats.frames_completed, 4);
        assert!(stats.sustained_fps > 0.0);
    }

    #[test]
    fn invalid_options_rejected_at_admission() {
        let mut server = FrameServer::new(test_model());
        let mut cfg = config(4.0);
        cfg.options.alpha_min = 1.0;
        assert!(server.add_session(cfg).is_err());
        let mut cfg = config(4.0);
        cfg.options.dilation = f32::NAN;
        assert!(server.add_session(cfg).is_err());
        let mut cfg = config(4.0);
        cfg.frame_count = 1;
        assert!(server.add_session(cfg).is_err());
        let mut cfg = config(4.0);
        cfg.in_flight = 0;
        assert!(server.add_session(cfg).is_err());
        let mut cfg = config(4.0);
        cfg.ring_capacity = 0;
        assert!(server.add_session(cfg).is_err());
        // Degenerate prototypes are refused here, not by a panic in the
        // next `step()`.
        let mut cfg = config(4.0);
        cfg.prototype.width = 0;
        assert_eq!(
            server.add_session(cfg).unwrap_err(),
            "degenerate camera: 0x32 image has no pixels"
        );
        let mut cfg = config(4.0);
        (cfg.prototype.width, cfg.prototype.height) = (70_000, 70_000);
        assert_eq!(
            server.add_session(cfg).unwrap_err(),
            "camera 70000x70000 exceeds u32 pixel addressing"
        );
        assert_eq!(server.step(), 0);
    }

    #[test]
    fn backpressure_stalls_without_draining() {
        let mut server = FrameServer::new(test_model());
        let mut cfg = config(4.0);
        cfg.frame_count = 8;
        cfg.in_flight = 2;
        cfg.ring_capacity = 3;
        let id = server.add_session(cfg).unwrap();
        // Without draining, at most `ring_capacity` frames can ever
        // complete.
        for _ in 0..64 {
            server.step();
        }
        assert!(!server.is_idle());
        let s = &server.sessions[0];
        assert_eq!(s.ring.len(), 3);
        assert!(s.in_flight.is_empty());
        // Draining releases the stall and the run finishes.
        let first = server.take_frames(id);
        assert_eq!(first.len(), 3);
        let rest = server.run_to_completion();
        assert_eq!(first.len() + rest[0].1.len(), 8);
    }

    #[test]
    fn sessions_add_and_remove_mid_run() {
        let mut server = FrameServer::new(test_model());
        let a = server.add_session(config(3.0)).unwrap();
        server.step();
        let b = server.add_session(config(5.0)).unwrap();
        server.step();
        let removed = server.remove_session(a).expect("a is live");
        assert_eq!(removed.id, a);
        assert!(server.remove_session(a).is_none(), "ids are not reused");
        let results = server.run_to_completion();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, b);
        assert_eq!(results[0].1.len(), 4);
        let report = server.report();
        assert_eq!(report.sessions.len(), 1);
        assert_eq!(report.total_frames, 4);
    }

    #[test]
    fn chunked_server_matches_in_core_server() {
        let model = test_model();
        let mut in_core = FrameServer::new(model.clone());
        in_core.add_session(config(4.0)).unwrap();
        let reference = in_core.run_to_completion();

        // A chunk size of 7 splits the 30-point model mid-stream (5 chunks,
        // last one ragged).
        let source: Arc<dyn SceneSource + Send + Sync> =
            Arc::new(ms_scene::InCoreSource::new((*model).clone(), 7));
        let mut chunked = FrameServer::new_chunked(source);
        assert!(chunked.model().is_none());
        assert_eq!(chunked.scene().total_points(), model.len());
        chunked.add_session(config(4.0)).unwrap();
        let streamed = chunked.run_to_completion();

        assert_eq!(reference.len(), 1);
        assert_eq!(streamed.len(), 1);
        let (_, ref_frames) = &reference[0];
        let (_, chk_frames) = &streamed[0];
        assert_eq!(ref_frames.len(), chk_frames.len());
        for (r, c) in ref_frames.iter().zip(chk_frames) {
            assert_eq!(r.frame_index, c.frame_index);
            assert_eq!(r.output, c.output, "frame {}", r.frame_index);
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 100.0), Duration::from_millis(100));
        assert_eq!(percentile(&ms[..1], 99.0), Duration::from_millis(1));
        assert_eq!(percentile(&[], 50.0), Duration::ZERO);
    }
}
