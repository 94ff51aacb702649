//! Corpus bench record: one binary sweeping **named scenarios** (scene
//! family × trajectory) × thread counts, plus the multi-session frame-server sweep and the chunked-streaming sweep (in-core vs the
//! encoded container at two chunk sizes, with the chunk cache disabled
//! and at the default budget) — the single perf record of the repo, written to
//! `BENCH_pr10.json` at the repo root (override with `MS_BENCH_OUT`).
//!
//! This replaces the PR 6 `bench_raster` and PR 7 `bench_server`
//! binaries: both sweeps are cells of the same corpus now, so one run
//! produces directly comparable numbers and a single committed record.
//!
//! Sampling discipline (unchanged from PR 6): every raster cell renders
//! one frame per repetition in round-robin order, keeping the best
//! (lowest total wall) profile, so machine-load drift hits all
//! configurations equally instead of biasing whichever ran last.
//!
//! The `dense/*` scenarios render the room layout at a realistic splat
//! population (`MS_POINTS` small splats at `MS_LOG_SCALE`), where tile
//! lists are long and the transmittance early stop ends most pixels after
//! a few splats. `foveated/headon` keeps the moderate `MS_SCALE` point
//! budget the foveated build step is sized for.
//!
//! Env knobs: `MS_POINTS`, `MS_LOG_SCALE` (dense family),
//! `MS_SCALE` (foveated family), `MS_W`, `MS_H`, `MS_FRAMES` (raster
//! best-of), `MS_THREADS`, `MS_SCENARIOS` (comma list filtering the
//! named scenarios), `MS_SESSIONS`, `MS_SERVER_FRAMES` (frames per
//! session), `MS_CHUNK_SIZES` (comma list of chunk sizes for the
//! streaming sweep), `MS_BENCH_OUT`.

use metasapiens::fov::{build_foveated, FoveatedRenderer, FrBuildConfig};
use metasapiens::math::Vec3;
use metasapiens::render::{FrameProfile, RenderOptions, Renderer, SceneRef, StageKind};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::synth::{self, Scene};
use metasapiens::scene::trajectory::{orbit, Trajectory};
use metasapiens::scene::{
    encode_model_chunked, Camera, ChunkCache, ChunkedFileSource, GaussianModel, SceneSource,
    DEFAULT_CHUNK_CACHE_BYTES,
};
use ms_bench::print_table;
use ms_serve::{FrameServer, SessionConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STAGES: [StageKind; 5] = [
    StageKind::Project,
    StageKind::Bin,
    StageKind::Merge,
    StageKind::Raster,
    StageKind::Composite,
];

fn getf(key: &str, default: f32) -> f32 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse::<f32>().ok())
        .unwrap_or(default)
}

fn get_list(key: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(key)
        .map(|v| {
            v.split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("{key}: comma-separated list"))
                })
                .collect()
        })
        .unwrap_or_else(|_| default.to_vec())
}

/// One named scenario: a scene family viewed along a trajectory, closed
/// over into a render thunk per thread count.
struct Scenario {
    /// `family/trajectory`, e.g. `dense/headon`.
    name: &'static str,
    /// Builds the render thunk for one configuration.
    make: Box<dyn Fn(RenderOptions) -> Box<dyn Fn() -> FrameProfile>>,
}

/// One benchmarked configuration and the best profile seen so far.
struct Cell {
    scenario: &'static str,
    threads: usize,
    render: Box<dyn Fn() -> FrameProfile>,
    best: Option<FrameProfile>,
}

impl Cell {
    fn sample(&mut self) {
        let p = (self.render)();
        let better = self
            .best
            .as_ref()
            .map_or(true, |b| p.total_wall() < b.total_wall());
        if better {
            self.best = Some(p);
        }
    }
}

/// A finished raster cell, flattened for the table and the JSON record.
struct Row {
    scenario: &'static str,
    threads: usize,
    walls_us: [f64; 5],
    total_us: f64,
}

fn row(cell: &Cell) -> Row {
    let best = cell.best.as_ref().expect("at least one sample");
    let walls_us: [f64; 5] = std::array::from_fn(|i| best.wall(STAGES[i]).as_secs_f64() * 1e6);
    Row {
        scenario: cell.scenario,
        threads: cell.threads,
        walls_us,
        total_us: best.total_wall().as_secs_f64() * 1e6,
    }
}

fn json_raster_row(r: &Row) -> String {
    let stages: Vec<String> = STAGES
        .iter()
        .zip(r.walls_us.iter())
        .map(|(k, us)| format!("\"{}\": {:.1}", k.name(), us))
        .collect();
    format!(
        "    {{\"scenario\": \"{}\", \"threads\": {}, \"stage_walls_us\": {{{}}}, \"total_us\": {:.1}}}",
        r.scenario,
        r.threads,
        stages.join(", "),
        r.total_us,
    )
}

/// One measured (scene, session-count) server configuration.
struct ServerRow {
    scenario: &'static str,
    sessions: usize,
    frames_total: usize,
    baseline_fps: f64,
    server_fps: f64,
    speedup: f64,
    p50_ms: f64,
    p99_ms: f64,
}

fn json_server_row(r: &ServerRow) -> String {
    format!(
        "    {{\"scenario\": \"{}\", \"sessions\": {}, \"frames_total\": {}, \"baseline_fps\": {:.2}, \"server_fps\": {:.2}, \"speedup\": {:.3}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2}}}",
        r.scenario,
        r.sessions,
        r.frames_total,
        r.baseline_fps,
        r.server_fps,
        r.speedup,
        r.p50_ms,
        r.p99_ms
    )
}

/// Trajectory for server session slot `i` (distinct orbits so sessions
/// render different frames, like a real multi-viewer deployment).
fn traj(slot: usize) -> Trajectory {
    orbit(
        Vec3::zero(),
        9.0 + (slot % 6) as f32 * 1.2,
        0.4 + (slot % 5) as f32 * 0.5,
        5 + slot % 4,
    )
}

fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].as_secs_f64() * 1e3
}

/// Serial baseline: one plain `Renderer` per session, frames rendered
/// strictly one after another. Returns aggregate FPS over the whole run.
fn serial_baseline(
    model: &GaussianModel,
    options: &RenderOptions,
    proto: &Camera,
    sessions: usize,
    frames: usize,
) -> f64 {
    let start = Instant::now();
    let mut total = 0usize;
    for s in 0..sessions {
        let renderer = Renderer::new(options.clone());
        for cam in traj(s).cameras(proto, frames) {
            let out = renderer.render(model, &cam);
            std::hint::black_box(&out.image);
            total += 1;
        }
    }
    total as f64 / start.elapsed().as_secs_f64()
}

fn run_server(
    model: &Arc<GaussianModel>,
    options: &RenderOptions,
    proto: &Camera,
    sessions: usize,
    frames: usize,
) -> (f64, Vec<Duration>) {
    let mut server = FrameServer::new(Arc::clone(model));
    for s in 0..sessions {
        server
            .add_session(SessionConfig {
                trajectory: traj(s),
                prototype: *proto,
                frame_count: frames,
                options: options.clone(),
                in_flight: 2,
                ring_capacity: frames,
            })
            .expect("valid session config");
    }
    let results = server.run_to_completion();
    let mut latencies: Vec<Duration> = results
        .iter()
        .flat_map(|(_, frames)| frames.iter().map(|f| f.latency))
        .collect();
    latencies.sort_unstable();
    (server.report().aggregate_fps, latencies)
}

fn main() {
    let scale = getf("MS_SCALE", 0.008);
    let points = getf("MS_POINTS", 100_000.0) as usize;
    let log_scale = getf("MS_LOG_SCALE", -4.0);
    let width = getf("MS_W", 128.0) as u32;
    let height = getf("MS_H", 96.0) as u32;
    let frames = getf("MS_FRAMES", 9.0) as usize;
    let thread_counts = get_list("MS_THREADS", &[1, 2, 8]);
    let session_counts = get_list("MS_SESSIONS", &[1, 4, 16]);
    // Trajectory sampling needs at least two poses per session.
    let server_frames = (getf("MS_SERVER_FRAMES", 6.0) as usize).max(2);
    let scenario_filter: Option<Vec<String>> = std::env::var("MS_SCENARIOS")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // The dense family: the room trace's layout at a realistic splat
    // population — tens of thousands of small splats (real checkpoints run
    // millions), so tile CSR lists are long and each splat covers a few rows
    // of a 16-row tile.
    let scene: Scene = {
        let mut spec = TraceId::by_name("room").unwrap().spec_with_scale(1.0);
        spec.total_points = points;
        spec.base_log_scale = log_scale;
        synth::generate(&spec).expect("dense spec is valid")
    };
    // The foveated family keeps the moderate point budget: `build_foveated`
    // cost scales with the dense model size, and the scenario measures the
    // foveated render path, not build throughput.
    let fr_scene: Scene = TraceId::by_name("room")
        .unwrap()
        .build_scene_with_scale(scale);
    let headon = Camera {
        width,
        height,
        fovy: ms_math::deg_to_rad(74.0),
        ..scene.train_cameras[0]
    };
    let fr_headon = Camera {
        width,
        height,
        fovy: ms_math::deg_to_rad(74.0),
        ..fr_scene.train_cameras[0]
    };
    // Pulled-back orbit pose: sparse periphery, the occupancy-merging sweet
    // spot.
    let orbit_cam = traj(0).camera_at(
        &Camera::look_at(width, height, 60.0, Vec3::new(0.0, 0.0, 12.0), Vec3::zero()),
        1,
        8,
    );
    let model = scene.model.clone();
    let fr_model = {
        let reference = Renderer::default()
            .render(&fr_scene.model, &fr_headon)
            .image;
        build_foveated(
            &fr_scene.model,
            std::slice::from_ref(&fr_headon),
            &[reference],
            &FrBuildConfig {
                finetune: None,
                ..FrBuildConfig::default()
            },
        )
    };

    let scenarios: Vec<Scenario> = vec![
        Scenario {
            name: "dense/headon",
            make: {
                let (m, c) = (model.clone(), headon);
                Box::new(move |o| {
                    let (m, c, r) = (m.clone(), c, Renderer::new(o));
                    Box::new(move || r.render(&m, &c).stats.profile)
                })
            },
        },
        Scenario {
            name: "dense/orbit",
            make: {
                let (m, c) = (model.clone(), orbit_cam);
                Box::new(move |o| {
                    let (m, c, r) = (m.clone(), c, Renderer::new(o));
                    Box::new(move || r.render(&m, &c).stats.profile)
                })
            },
        },
        Scenario {
            name: "foveated/headon",
            make: {
                let (m, c) = (fr_model.clone(), fr_headon);
                Box::new(move |o| {
                    let (m, c, r) = (m.clone(), c, FoveatedRenderer::new(o));
                    Box::new(move || r.render(&m, &c, None).stats.profile)
                })
            },
        },
    ];

    println!("== bench corpus: scenarios x threads, + server sessions ==");
    println!(
        "dense room: {points} pts @ log-scale {log_scale}; foveated room @ scale {scale}; \
         {width}x{height}, best of {frames} frames, {host_cores} host cores\n"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for sc in &scenarios {
        if let Some(filter) = &scenario_filter {
            if !filter.iter().any(|f| f == sc.name) {
                continue;
            }
        }
        for &threads in &thread_counts {
            let options = RenderOptions {
                threads,
                ..RenderOptions::default()
            };
            cells.push(Cell {
                scenario: sc.name,
                threads,
                render: (sc.make)(options),
                best: None,
            });
        }
    }
    for _ in 0..frames {
        for cell in cells.iter_mut() {
            cell.sample();
        }
    }
    let rows: Vec<Row> = cells.iter().map(row).collect();

    let headers = [
        "scenario",
        "threads",
        "project",
        "bin",
        "merge",
        "raster",
        "composite",
        "total",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut out = vec![r.scenario.to_string(), r.threads.to_string()];
            out.extend(r.walls_us.iter().map(|us| format!("{us:.1}")));
            out.push(format!("{:.1}", r.total_us));
            out
        })
        .collect();
    print_table(&headers, &table);

    // Server sweep: default options at all host cores.
    let model_arc = Arc::new(model);
    let server_workloads = [
        (
            "dense/orbit",
            RenderOptions {
                threads: 0,
                ..RenderOptions::default()
            },
            headon,
        ),
        (
            "merged/orbit",
            RenderOptions {
                threads: 0,
                ..RenderOptions::with_tile_merging()
            },
            Camera::look_at(width, height, 60.0, Vec3::new(0.0, 0.0, 16.0), Vec3::zero()),
        ),
    ];
    let mut server_rows: Vec<ServerRow> = Vec::new();
    for (name, options, proto) in &server_workloads {
        for &sessions in &session_counts {
            let baseline_fps = serial_baseline(&model_arc, options, proto, sessions, server_frames);
            let (server_fps, latencies) =
                run_server(&model_arc, options, proto, sessions, server_frames);
            server_rows.push(ServerRow {
                scenario: name,
                sessions,
                frames_total: sessions * server_frames,
                baseline_fps,
                server_fps,
                speedup: server_fps / baseline_fps,
                p50_ms: percentile_ms(&latencies, 50.0),
                p99_ms: percentile_ms(&latencies, 99.0),
            });
        }
    }
    let server_headers = [
        "scenario",
        "sessions",
        "frames",
        "baseline fps",
        "server fps",
        "speedup",
        "p50 ms",
        "p99 ms",
    ];
    let server_table: Vec<Vec<String>> = server_rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.sessions.to_string(),
                r.frames_total.to_string(),
                format!("{:.2}", r.baseline_fps),
                format!("{:.2}", r.server_fps),
                format!("{:.2}x", r.speedup),
                format!("{:.2}", r.p50_ms),
                format!("{:.2}", r.p99_ms),
            ]
        })
        .collect();
    println!();
    print_table(&server_headers, &server_table);

    // Chunked streaming sweep: the dense head-on frame rendered in core vs
    // streamed from the *encoded* multi-chunk container
    // (`ChunkedFileSource::from_bytes`) at two chunk sizes, per thread
    // count — and per cache budget: `nocache` (budget 0, every chunk
    // re-decodes once per frame) vs `cache` (the default budget, every
    // frame after the first hits the renderer's chunk cache).
    // The encoded container is the honest streaming scenario: each load
    // parses and validates chunk bytes — the cost the cache eliminates —
    // where an `InCoreSource` load is a memcpy the cache could only match.
    // Each cell keeps one `Renderer` across repetitions, so `cache` cells
    // measure the steady state a long-lived renderer reaches. Same
    // sampling discipline as the raster sweep (round-robin, best total
    // wall). The resident-peak counters ride along from the best profile —
    // they are deterministic per configuration, so they show what the
    // bounded budget buys while total_us shows what streaming costs.
    let chunk_sizes = get_list("MS_CHUNK_SIZES", &[4096, 33_333]);
    let chunk_sources: Vec<(usize, Arc<ChunkedFileSource>)> = chunk_sizes
        .iter()
        .map(|&cs| {
            let bytes = encode_model_chunked(&model_arc, cs).to_vec();
            let source = ChunkedFileSource::from_bytes(bytes).expect("container round-trips");
            (cs, Arc::new(source))
        })
        .collect();
    // Budget 0 disables the cache outright.
    let cache_budgets = [("nocache", 0), ("cache", DEFAULT_CHUNK_CACHE_BYTES)];
    struct ChunkedCell {
        mode: String,
        cache_mode: &'static str,
        chunk_splats: usize,
        threads: usize,
        render: Box<dyn Fn() -> FrameProfile>,
        best: Option<FrameProfile>,
    }
    let mut chunked_cells: Vec<ChunkedCell> = Vec::new();
    for &threads in &thread_counts {
        let options = RenderOptions {
            threads,
            ..RenderOptions::default()
        };
        let (m, c, r) = (
            Arc::clone(&model_arc),
            headon,
            Renderer::new(options.clone()),
        );
        chunked_cells.push(ChunkedCell {
            mode: "incore".to_string(),
            cache_mode: "n/a",
            chunk_splats: 0,
            threads,
            render: Box::new(move || r.render(&*m, &c).stats.profile),
            best: None,
        });
        for (cs, source) in &chunk_sources {
            for &(cache_mode, budget) in &cache_budgets {
                let options = RenderOptions {
                    threads,
                    ..RenderOptions::default()
                };
                let cache = Arc::new(ChunkCache::new(budget));
                let r = Renderer::with_chunk_cache(options, cache);
                let (s, c) = (Arc::clone(source), headon);
                assert!(s.chunk_count() >= 1);
                chunked_cells.push(ChunkedCell {
                    mode: format!("chunk{cs}/{cache_mode}"),
                    cache_mode,
                    chunk_splats: *cs,
                    threads,
                    render: Box::new(move || r.render(SceneRef::Chunked(&*s), &c).stats.profile),
                    best: None,
                });
            }
        }
    }
    for _ in 0..frames {
        for cell in chunked_cells.iter_mut() {
            let p = (cell.render)();
            let better = cell
                .best
                .as_ref()
                .map_or(true, |b| p.total_wall() < b.total_wall());
            if better {
                cell.best = Some(p);
            }
        }
    }
    let incore_us = |threads: usize| {
        chunked_cells
            .iter()
            .find(|c| c.mode == "incore" && c.threads == threads)
            .and_then(|c| c.best.as_ref())
            .map_or(f64::NAN, |b| b.total_wall().as_secs_f64() * 1e6)
    };
    let chunked_headers = [
        "mode",
        "threads",
        "total us",
        "fps",
        "vs incore",
        "hit rate",
        "chunk peak B",
        "projected peak B",
    ];
    let chunked_table: Vec<Vec<String>> = chunked_cells
        .iter()
        .map(|c| {
            let best = c.best.as_ref().expect("at least one sample");
            let total_us = best.total_wall().as_secs_f64() * 1e6;
            vec![
                c.mode.clone(),
                c.threads.to_string(),
                format!("{total_us:.1}"),
                format!("{:.2}", 1e6 / total_us),
                format!("{:.2}x", incore_us(c.threads) / total_us),
                format!("{:.2}", best.cache.hit_rate()),
                best.chunk_bytes_peak.to_string(),
                best.projected_bytes_peak.to_string(),
            ]
        })
        .collect();
    println!();
    print_table(&chunked_headers, &chunked_table);

    let out_path = std::env::var("MS_BENCH_OUT").unwrap_or_else(|_| "BENCH_pr10.json".to_string());
    let raster_json: Vec<String> = rows.iter().map(json_raster_row).collect();
    let server_json: Vec<String> = server_rows.iter().map(json_server_row).collect();
    let chunked_json: Vec<String> = chunked_cells
        .iter()
        .map(|c| {
            let best = c.best.as_ref().expect("at least one sample");
            let total_us = best.total_wall().as_secs_f64() * 1e6;
            format!(
                "    {{\"scenario\": \"dense/headon\", \"mode\": \"{}\", \"cache\": \"{}\", \"chunk_splats\": {}, \"threads\": {}, \"total_us\": {:.1}, \"fps\": {:.2}, \"incore_over_chunked\": {:.3}, \"cache_hit_rate\": {:.3}, \"chunk_bytes_peak\": {}, \"projected_bytes_peak\": {}}}",
                c.mode,
                c.cache_mode,
                c.chunk_splats,
                c.threads,
                total_us,
                1e6 / total_us,
                incore_us(c.threads) / total_us,
                best.cache.hit_rate(),
                best.chunk_bytes_peak,
                best.projected_bytes_peak,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"corpus\",\n  \"pr\": 10,\n  \"host_cores\": {host_cores},\n  \"config\": {{\"trace\": \"room\", \"dense_points\": {points}, \"dense_log_scale\": {log_scale}, \"foveated_scene_scale\": {scale}, \"width\": {width}, \"height\": {height}, \"frames\": {frames}, \"frames_per_session\": {server_frames}, \"in_flight\": 2}},\n  \"raster\": [\n{}\n  ],\n  \"server\": [\n{}\n  ],\n  \"chunked\": [\n{}\n  ]\n}}\n",
        raster_json.join(",\n"),
        server_json.join(",\n"),
        chunked_json.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write bench record");
    println!("\nwrote {out_path}");
}
