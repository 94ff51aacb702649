//! Tiny-scene runs of every workload, traced and untraced, plus the
//! agreement between the metric registry and `BENCHMARK.json`.

use framebench::report::{valid_name, END_TO_END, PER_LAYER};
use framebench::{run, Outcome, RunSpec, Scale, Workload};

fn tiny() -> Scale {
    Scale {
        width: 64,
        height: 48,
        dense_points: 3_000,
        served_points: 4_000,
        chunk_splats: 512,
        lap_frames: 4,
        setup_reps: 1,
        min_samples: 20,
    }
}

fn run_tiny(workload: Workload, trace: bool) -> Outcome {
    let spec = RunSpec {
        workload,
        seed: 7,
        seconds: 0.01,
        trace,
    };
    run(&spec, &tiny()).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

/// Metric-name prefixes of the layers a workload never runs.
fn absent_layers(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::DenseOrbit => &["fov.", "scene.", "serve."],
        Workload::FovGaze => &["scene.", "serve."],
        Workload::ServedStream => &["fov."],
    }
}

fn expected_spans(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::DenseOrbit => &["project", "bin", "merge", "raster", "composite", "frame"],
        Workload::FovGaze => &["foveated.render"],
        Workload::ServedStream => &[
            "serve.step",
            "serve.frame",
            "scene.load_chunk_into",
            "cache.load_into",
        ],
    }
}

/// The per-layer counters that must repeat exactly for a seed.
const EXACT_COUNTS: [&str; 5] = [
    "render.project.splats",
    "render.bin.intersections",
    "render.raster.blend_steps",
    "fov.project_repeat",
    "serve.steps_per_frame",
];

fn smoke(workload: Workload) {
    let plain = run_tiny(workload, false);
    assert!(plain.attempted >= 20, "{}", plain.attempted);
    assert_eq!(
        plain.failed, 0,
        "frames differ from the threads: 1 reference"
    );
    assert!(plain.tracer.is_none());
    for def in END_TO_END {
        let v = plain.values[def.name];
        assert!(v.is_finite() && v > 0.0, "{} = {v}", def.name);
    }

    let traced = run_tiny(workload, true);
    assert_eq!(traced.failed, 0, "traced frames differ from the reference");
    let tracer = traced
        .tracer
        .as_ref()
        .expect("a traced run keeps its spans");
    for name in expected_spans(workload) {
        assert!(
            tracer.spans().iter().any(|s| s.name == *name),
            "no {name} span"
        );
    }
    assert!(json::is_valid(&tracer.chrome_json(workload.name())));
    for (name, v) in &traced.values {
        assert!(v.is_finite(), "{name} = {v}");
        assert!(
            PER_LAYER.iter().any(|d| d.name == *name),
            "{name} unregistered"
        );
        for prefix in absent_layers(workload) {
            assert!(!name.starts_with(prefix), "{name} measured on {workload:?}");
        }
    }
    assert!(traced.values["render.raster.blend_steps"] > 0.0);

    let again = run_tiny(workload, true);
    for name in EXACT_COUNTS {
        assert_eq!(
            traced.values.get(name),
            again.values.get(name),
            "{name} differs between runs of one seed"
        );
    }
}

#[test]
fn dense_orbit_smoke() {
    smoke(Workload::DenseOrbit);
}

#[test]
fn fov_gaze_smoke() {
    smoke(Workload::FovGaze);
    let traced = run_tiny(Workload::FovGaze, true);
    assert_eq!(traced.values["fov.levels"], 4.0);
    assert!(traced.values["fov.project_repeat"] > 1.0);
}

#[test]
fn served_stream_smoke() {
    smoke(Workload::ServedStream);
    let traced = run_tiny(Workload::ServedStream, true);
    // 8 chunks per pass: 2 × 8 chunk steps + Merge, Raster, Composite per
    // frame, 8 frames in flight in lockstep.
    assert_eq!(traced.values["serve.steps_per_frame"], 19.0 / 8.0);
    assert!(traced.values["scene.decode_ms_per_chunk"] > 0.0);
}

#[test]
fn benchmark_json_lists_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(json::is_valid(&text));
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
        assert!(text.contains(&entry), "{entry} missing");
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
        assert!(text.contains(&format!("{{\"name\": \"{}\"", w.name())));
    }
    let entries = text.matches("\"name\":").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}

/// A JSON syntax check, enough to tell that a file opens as JSON.
mod json {
    pub fn is_valid(text: &str) -> bool {
        let b = text.as_bytes();
        let mut i = 0;
        value(b, &mut i) && {
            ws(b, &mut i);
            i == b.len()
        }
    }

    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> bool {
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => seq(b, i, b'}', |b, i| {
                string(b, i)
                    && {
                        ws(b, i);
                        eat(b, i, b':')
                    }
                    && value(b, i)
            }),
            Some(b'[') => seq(b, i, b']', value),
            Some(b'"') => string(b, i),
            Some(b't') => word(b, i, "true"),
            Some(b'f') => word(b, i, "false"),
            Some(b'n') => word(b, i, "null"),
            Some(_) => number(b, i),
            None => false,
        }
    }

    fn seq(b: &[u8], i: &mut usize, close: u8, item: fn(&[u8], &mut usize) -> bool) -> bool {
        *i += 1;
        ws(b, i);
        if eat(b, i, close) {
            return true;
        }
        loop {
            ws(b, i);
            if !item(b, i) {
                return false;
            }
            ws(b, i);
            if eat(b, i, close) {
                return true;
            }
            if !eat(b, i, b',') {
                return false;
            }
        }
    }

    fn eat(b: &[u8], i: &mut usize, c: u8) -> bool {
        let hit = b.get(*i) == Some(&c);
        *i += usize::from(hit);
        hit
    }

    fn word(b: &[u8], i: &mut usize, w: &str) -> bool {
        let hit = b[*i..].starts_with(w.as_bytes());
        *i += if hit { w.len() } else { 0 };
        hit
    }

    fn string(b: &[u8], i: &mut usize) -> bool {
        if !eat(b, i, b'"') {
            return false;
        }
        while let Some(&c) = b.get(*i) {
            *i += 1;
            match c {
                b'"' => return true,
                b'\\' => *i += 1,
                c if c < 0x20 => return false,
                _ => {}
            }
        }
        false
    }

    fn number(b: &[u8], i: &mut usize) -> bool {
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i]).is_ok_and(|s| s.parse::<f64>().is_ok())
    }

    #[test]
    fn accepts_json_and_rejects_garbage() {
        assert!(is_valid(
            "{\"a\": [1, -2.5e3, true, null, \"x\\\"y\"], \"b\": {}}"
        ));
        assert!(is_valid("[]"));
        for bad in ["{", "[1,]", "{\"a\" 1}", "[1] x", "nul", "\"open", "{1: 2}"] {
            assert!(!is_valid(bad), "{bad}");
        }
    }
}
