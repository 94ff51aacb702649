//! Workload inputs and the machinery the three workloads share: scene and
//! pose generation from the seed, the timed frame loop, the same-commit
//! reference check, and the end-to-end and Render-layer metrics.

use crate::stats::{self, median, ratio};
use crate::trace::Tracer;
use ms_math::Vec3;
use ms_render::{FrameProfile, Image, RenderOptions, RenderOutput, StageKind};
use ms_scene::dataset::TraceId;
use ms_scene::synth::SceneSpec;
use ms_scene::trajectory::{PoseKey, Trajectory};
use ms_scene::Camera;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The frame-producing paths a user calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Solo `Renderer::render` of a dense scene along an orbit.
    DenseOrbit,
    /// Solo `FoveatedRenderer::render` with a sweeping gaze.
    FovGaze,
    /// `FrameServer` sessions streaming an encoded chunked scene.
    ServedStream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DenseOrbit,
        Workload::FovGaze,
        Workload::ServedStream,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseOrbit => "dense-orbit",
            Workload::FovGaze => "fov-gaze",
            Workload::ServedStream => "served-stream",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; tests shrink it.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Splats of the dense-orbit and fov-gaze scene.
    pub dense_points: usize,
    /// Splats of the served scene.
    pub served_points: usize,
    /// Splats per chunk of the served scene's container.
    pub chunk_splats: usize,
    /// Frames per orbit lap and per gaze sweep. Count metrics average the
    /// first lap of a traced run, so they repeat exactly for a seed.
    pub lap_frames: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Timed frames a run needs before it may stop: enough to leave ten
    /// beyond p90.
    pub min_samples: usize,
}

impl Scale {
    /// The benchmark's inputs: the room layout at 128×96, 100k small
    /// splats solo (the overdraw regime), and 160k splats served, whose
    /// decoded size is about 1.13× the default 32 MiB chunk-cache budget.
    pub const FULL: Scale = Scale {
        width: 128,
        height: 96,
        dense_points: 100_000,
        served_points: 160_000,
        chunk_splats: 4096,
        lap_frames: 12,
        setup_reps: 5,
        min_samples: 100,
    };
}

/// One run, as given on the command line.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Which workload.
    pub workload: Workload,
    /// Seeds the scene, the orbit phases and the gaze path.
    pub seed: u64,
    /// How long the timed region lasts.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Frames attempted in the timed region.
    pub attempted: u64,
    /// Sampled frames that differ from the reference, plus frames lost to
    /// a session error.
    pub failed: u64,
    /// Metric values by registry name.
    pub values: BTreeMap<&'static str, f64>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Run one workload.
pub fn run(spec: &RunSpec, scale: &Scale) -> Result<Outcome, String> {
    match spec.workload {
        Workload::DenseOrbit => crate::dense::run(spec, scale),
        Workload::FovGaze => crate::fov::run(spec, scale),
        Workload::ServedStream => crate::served::run(spec, scale),
    }
}

/// Options of every measured frame: the defaults on all host cores, the
/// deployment setting.
pub(crate) fn deployment_options() -> RenderOptions {
    RenderOptions {
        threads: 0,
        ..RenderOptions::default()
    }
}

/// Options of the reference frames the outputs are checked against.
pub(crate) fn reference_options() -> RenderOptions {
    RenderOptions {
        threads: 1,
        ..RenderOptions::default()
    }
}

/// The room layout with `points` small splats (log-scale −4), seeded.
pub(crate) fn room_spec(points: usize, seed: u64) -> SceneSpec {
    let mut spec = TraceId::by_name("room")
        .expect("room is a built-in trace")
        .spec_with_scale(1.0);
    spec.total_points = points;
    spec.base_log_scale = -4.0;
    spec.seed = seed;
    spec
}

/// Camera intrinsics of every workload: 74° vertical field of view, a
/// VR-like width at which foveation has a periphery to relax.
pub(crate) fn prototype(scale: &Scale) -> Camera {
    Camera::look_at(scale.width, scale.height, 74.0, Vec3::one(), Vec3::zero())
}

/// A number in `[0, 1)` derived from `seed` and `salt` (splitmix64).
pub(crate) fn unit(seed: u64, salt: u64) -> f32 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

/// Laps an orbit trajectory spans: more than any run renders.
const LAPS: usize = 64;
/// Keyframes per lap of an orbit trajectory.
const KEYS_PER_LAP: usize = 8;

/// Ring `ring` of concentric orbits around the room's content, entered at
/// `phase` (a fraction of a lap) and sampled `lap_frames` times per lap.
#[derive(Debug, Clone)]
pub(crate) struct Orbit {
    trajectory: Trajectory,
    frame_count: usize,
    prototype: Camera,
}

impl Orbit {
    pub(crate) fn new(scale: &Scale, radius: f32, ring: usize, phase: f32, laps: usize) -> Self {
        let ring = ring as f32;
        let center = Vec3::new(0.0, 0.05 * radius, 0.0);
        let (r, h) = (radius * (0.9 + 0.12 * ring), radius * (0.35 + 0.05 * ring));
        let keys = (0..laps * KEYS_PER_LAP)
            .map(|k| {
                let theta = (phase + k as f32 / KEYS_PER_LAP as f32) * std::f32::consts::TAU;
                PoseKey {
                    eye: center + Vec3::new(r * theta.cos(), h, r * theta.sin()),
                    target: center,
                }
            })
            .collect();
        Self {
            trajectory: Trajectory::new(keys, true),
            frame_count: laps * scale.lap_frames + 1,
            prototype: prototype(scale),
        }
    }

    /// The orbit a run follows: long enough never to wrap.
    pub(crate) fn long(scale: &Scale, radius: f32, ring: usize, phase: f32) -> Self {
        Self::new(scale, radius, ring, phase, LAPS)
    }

    pub(crate) fn trajectory(&self) -> &Trajectory {
        &self.trajectory
    }

    /// Frames a session walking this orbit renders.
    pub(crate) fn frame_count(&self) -> usize {
        self.frame_count
    }

    pub(crate) fn prototype(&self) -> Camera {
        self.prototype
    }

    /// Camera of frame `i`: exactly the pose a `FrameServer` session over
    /// this orbit renders as frame `i`.
    pub(crate) fn camera(&self, i: usize) -> Camera {
        self.trajectory
            .camera_at(&self.prototype, i % self.frame_count, self.frame_count)
    }
}

/// Timed frames are checked at this stride, starting with the first.
const CHECK_EVERY: usize = 10;
/// At most this many frames are checked per run.
const MAX_CHECKS: usize = 12;

/// Whether timed frame `i` is sampled for the output check.
pub(crate) fn checked(i: usize) -> bool {
    i.is_multiple_of(CHECK_EVERY) && i / CHECK_EVERY < MAX_CHECKS
}

/// Bit-identity of two images (`==` on floats would let `-0.0 == 0.0`).
pub(crate) fn same_image(a: &Image, b: &Image) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.pixels()
            .iter()
            .zip(b.pixels())
            .all(|(p, q)| [p.x, p.y, p.z].map(f32::to_bits) == [q.x, q.y, q.z].map(f32::to_bits))
}

/// Bit-identical pixels and equal work counters (`RenderOutput` equality
/// compares stats without wall times).
pub(crate) fn same_output(a: &RenderOutput, b: &RenderOutput) -> bool {
    same_image(&a.image, &b.image) && a == b
}

/// Sampled frames that fail `same` against their reference.
pub(crate) fn count_failures<T>(
    kept: &[(usize, T)],
    mut same: impl FnMut(usize, &T) -> bool,
) -> u64 {
    kept.iter().filter(|(i, out)| !same(*i, out)).count() as u64
}

/// Median wall time of `reps` set-ups, keeping the last one's result. Each
/// repetition drops the previous result first, so the peak resident set
/// holds one set-up.
pub(crate) fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut kept = None;
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((median(times), kept.expect("at least one set-up ran")))
}

/// How long the timed region lasts: `seconds`, extended (by at most
/// [`Window::EXTENSION_S`]) until `min_samples` frames were timed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    seconds: f64,
    min_samples: usize,
}

impl Window {
    const EXTENSION_S: f64 = 60.0;

    pub(crate) fn new(spec: &RunSpec, min_samples: usize) -> Self {
        Self {
            seconds: spec.seconds,
            min_samples,
        }
    }

    /// Whether a region that began at `start` and timed `samples` frames
    /// goes on.
    pub(crate) fn more(&self, start: Instant, samples: usize) -> bool {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed < self.seconds
            || (samples < self.min_samples && elapsed < self.seconds + Self::EXTENSION_S)
    }
}

/// Frames timed one after another from outside.
pub(crate) struct Timed<T> {
    /// Wall time of each `frame` call, in milliseconds.
    pub(crate) latencies_ms: Vec<f64>,
    /// Wall time of the whole region.
    pub(crate) wall: Duration,
    /// Outputs of the frames sampled for the check, by frame index.
    pub(crate) kept: Vec<(usize, T)>,
}

/// Call `frame(0)`, `frame(1)`, … for the window, timing each call.
pub(crate) fn time_frames<T>(window: Window, mut frame: impl FnMut(usize) -> T) -> Timed<T> {
    let start = Instant::now();
    let (mut latencies_ms, mut kept) = (Vec::new(), Vec::new());
    while window.more(start, latencies_ms.len()) {
        let i = latencies_ms.len();
        let t0 = Instant::now();
        let out = frame(i);
        latencies_ms.push(stats::ms(t0.elapsed()));
        if checked(i) {
            kept.push((i, out));
        }
    }
    Timed {
        latencies_ms,
        wall: start.elapsed(),
        kept,
    }
}

/// Record the end-to-end metrics. Call right after the timed region: the
/// peak resident set is read here, before reference renders add to it.
pub(crate) fn end_to_end(
    values: &mut BTreeMap<&'static str, f64>,
    latencies_ms: &[f64],
    wall: Duration,
    setup_s: f64,
) -> Result<(), String> {
    let sorted = stats::sorted(latencies_ms.iter().copied());
    let n = sorted.len();
    if stats::beyond(n, 90) < stats::TAIL_MIN_BEYOND {
        eprintln!("framebench: only {n} frames timed; p90 has fewer than ten beyond it");
    }
    values.insert("fps", n as f64 / wall.as_secs_f64());
    values.insert(
        "frame_ms_p50",
        stats::percentile(&sorted, 50).unwrap_or(0.0),
    );
    values.insert(
        "frame_ms_p90",
        stats::percentile(&sorted, 90).unwrap_or(0.0),
    );
    values.insert("setup_s", setup_s);
    values.insert("rss_peak_mb", crate::host::rss_peak_mib()?);
    Ok(())
}

/// Tracing overhead: the same frames' p50 with and without spans.
pub(crate) fn trace_overhead(
    values: &mut BTreeMap<&'static str, f64>,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    tracer: &Tracer,
) {
    let untraced = median(untraced_ms.iter().copied());
    let traced = median(traced_ms.iter().copied());
    values.insert("trace.untraced_frame_ms_p50", untraced);
    values.insert("trace.traced_frame_ms_p50", traced);
    values.insert("trace.overhead_frac", ratio(traced, untraced) - 1.0);
    values.insert("trace.spans", tracer.spans().len() as f64);
}

/// The pipeline stages, in execution order.
pub(crate) const STAGES: [StageKind; 5] = [
    StageKind::Project,
    StageKind::Bin,
    StageKind::Merge,
    StageKind::Raster,
    StageKind::Composite,
];

/// One frame as the Render layer saw it: per-stage wall times (from spans
/// around `run_stage`, or from the frame profile where the call is not
/// ours to wrap) and the profile's work counters.
pub(crate) struct StageFrame {
    pub(crate) ms: [f64; 5],
    pub(crate) profile: FrameProfile,
}

impl StageFrame {
    /// Stage walls as the frame profile measured them.
    pub(crate) fn from_profile(profile: &FrameProfile) -> Self {
        Self {
            ms: STAGES.map(|k| stats::ms(profile.wall(k))),
            profile: profile.clone(),
        }
    }
}

/// Record the Render-layer metrics: stage walls and time per item as
/// medians over all `frames`, work counters as means over the first
/// `count_frames` (a fixed, seed-determined set, so they repeat exactly).
pub(crate) fn render_layer(
    values: &mut BTreeMap<&'static str, f64>,
    frames: &[StageFrame],
    count_frames: usize,
) {
    let first = &frames[..count_frames.min(frames.len())];
    let mean_items = |k: StageKind| {
        ratio(
            first.iter().map(|f| f.profile.items(k) as f64).sum(),
            first.len() as f64,
        )
    };
    let stage_ms = |s: usize| median(frames.iter().map(|f| f.ms[s]));
    let ns_per_item = |s: usize| {
        median(
            frames
                .iter()
                .map(|f| ratio(f.ms[s] * 1e6, f.profile.items(STAGES[s]) as f64)),
        )
    };
    let work = |get: fn(&ms_render::RasterWork) -> u64| -> f64 {
        first.iter().map(|f| get(&f.profile.raster) as f64).sum()
    };
    values.insert("render.project.ms", stage_ms(0));
    values.insert("render.project.splats", mean_items(StageKind::Project));
    values.insert("render.project.ns_per_splat", ns_per_item(0));
    values.insert("render.bin.ms", stage_ms(1));
    values.insert("render.bin.intersections", mean_items(StageKind::Bin));
    values.insert("render.bin.ns_per_isect", ns_per_item(1));
    values.insert("render.merge.ms", stage_ms(2));
    values.insert("render.merge.units", mean_items(StageKind::Merge));
    values.insert("render.raster.ms", stage_ms(3));
    values.insert("render.raster.blend_steps", mean_items(StageKind::Raster));
    values.insert("render.raster.ns_per_blend", ns_per_item(3));
    values.insert(
        "render.raster.splats_staged",
        ratio(work(|w| w.splats_staged), first.len() as f64),
    );
    values.insert(
        "render.raster.cull_frac",
        ratio(
            work(|w| w.splats_culled),
            work(|w| w.splats_staged + w.splats_culled),
        ),
    );
    values.insert(
        "render.raster.row_iter_ratio",
        ratio(work(|w| w.row_iterations), work(|w| w.row_iteration_bound)),
    );
    values.insert("render.composite.ms", stage_ms(4));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_and_are_valid() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::report::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("dense"), None);
    }

    #[test]
    fn full_scale_leaves_ten_beyond_p90() {
        let n = Scale::FULL.min_samples;
        assert!(stats::beyond(n, 90) >= stats::TAIL_MIN_BEYOND);
        assert!(stats::beyond(n - 1, 90) < stats::TAIL_MIN_BEYOND);
    }

    #[test]
    fn unit_is_in_range_and_seeded() {
        for seed in 0..100 {
            let u = unit(seed, 3);
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(unit(7, 1), unit(7, 1));
        assert_ne!(unit(7, 1), unit(8, 1));
        assert_ne!(unit(7, 1), unit(7, 2));
    }

    #[test]
    fn check_sampling_starts_at_zero_and_is_capped() {
        let picked: Vec<usize> = (0..1000).filter(|&i| checked(i)).collect();
        assert_eq!(picked.first(), Some(&0));
        assert_eq!(picked.len(), MAX_CHECKS);
    }

    #[test]
    fn orbit_camera_wraps_and_matches_trajectory() {
        let scale = Scale {
            lap_frames: 4,
            ..Scale::FULL
        };
        let orbit = Orbit::new(&scale, 7.0, 1, 0.25, 2);
        assert_eq!(orbit.frame_count(), 9);
        let proto = orbit.prototype();
        assert_eq!(orbit.camera(3), orbit.trajectory().camera_at(&proto, 3, 9));
        assert_eq!(orbit.camera(9 + 3), orbit.camera(3));
    }
}
