//! Shared experiment harness for the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (listed under "Reproducing the paper's figures" in
//! the README). They share the corpus loader, workload scaling, table
//! printing and the simulated user-study observer defined here.
//!
//! Experiments run on reduced-scale scenes so the whole suite completes on
//! a laptop; the `MS_SCALE`, `MS_W`, `MS_H`, `MS_CAMS` and `MS_TRACES`
//! environment variables trade fidelity for time.

#![deny(missing_docs)]

pub mod userstudy;

use metasapiens::eval::ScaleFactors;
use metasapiens::render::{Image, RenderOptions, Renderer};
use metasapiens::scene::dataset::TraceId;
use metasapiens::scene::synth::Scene;
use metasapiens::scene::Camera;
use std::str::FromStr;

/// Environment variable `key` parsed as a `T`, or `default` when unset.
///
/// # Panics
///
/// Panics naming the variable and its raw value when it is set but does
/// not parse, so a typo such as `MS_W=96px` stops the run instead of
/// silently falling back to the default.
pub fn env_or<T: FromStr>(key: &str, default: T) -> T {
    let raw = std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
    parse_env(key, raw.as_deref(), default)
}

/// [`env_or`]'s parser over an already-read raw value.
fn parse_env<T: FromStr>(key: &str, raw: Option<&str>, default: T) -> T {
    raw.map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{key}={v:?} is not a valid {}", std::any::type_name::<T>()))
    })
}

/// Configuration shared by the experiment binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Scene scale (fraction of the full point budget).
    pub scene_scale: f32,
    /// Render width.
    pub width: u32,
    /// Render height.
    pub height: u32,
    /// Vertical FOV in degrees (wide, VR-like, so all four quality regions
    /// are on screen).
    pub fovy_deg: f32,
    /// Cameras sampled per trace.
    pub cameras_per_trace: usize,
    /// Number of traces to evaluate (prefix of the 13-trace corpus).
    pub trace_cap: usize,
}

impl ExperimentConfig {
    /// Defaults tuned so each binary finishes in roughly a minute; all
    /// knobs can be overridden via environment variables.
    ///
    /// # Panics
    ///
    /// Panics when a variable is set to a value that does not parse (see
    /// [`env_or`]).
    pub fn from_env() -> Self {
        Self {
            scene_scale: env_or("MS_SCALE", 0.008),
            width: env_or("MS_W", 192),
            height: env_or("MS_H", 144),
            fovy_deg: env_or("MS_FOVY", 74.0),
            cameras_per_trace: env_or("MS_CAMS", 2),
            trace_cap: env_or("MS_TRACES", 13),
        }
    }

    /// The traces this configuration evaluates.
    pub fn traces(&self) -> Vec<TraceId> {
        TraceId::all()
            .into_iter()
            .take(self.trace_cap.max(1))
            .collect()
    }

    /// Workload scaling back to the paper's full-size configuration.
    pub fn scale_factors(&self) -> ScaleFactors {
        ScaleFactors::for_experiment(self.scene_scale as f64, self.width, self.height)
    }

    /// Shrink a scene camera to the experiment resolution/FOV.
    pub fn shrink_camera(&self, cam: &Camera) -> Camera {
        Camera {
            width: self.width,
            height: self.height,
            fovy: ms_math::deg_to_rad(self.fovy_deg),
            ..*cam
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// A loaded trace: scene + experiment cameras + dense reference renders.
#[derive(Debug, Clone)]
pub struct LoadedTrace {
    /// The trace identity.
    pub trace: TraceId,
    /// The generated scene.
    pub scene: Scene,
    /// Experiment cameras.
    pub cameras: Vec<Camera>,
    /// Dense-model reference renders for the cameras.
    pub references: Vec<Image>,
}

/// Load a trace under an experiment configuration.
pub fn load_trace(trace: TraceId, config: &ExperimentConfig) -> LoadedTrace {
    let scene = trace.build_scene_with_scale(config.scene_scale);
    let step = (scene.train_cameras.len() / config.cameras_per_trace.max(1)).max(1);
    let cameras: Vec<Camera> = scene
        .train_cameras
        .iter()
        .step_by(step)
        .take(config.cameras_per_trace.max(1))
        .map(|c| config.shrink_camera(c))
        .collect();
    let renderer = Renderer::new(RenderOptions::default());
    let references = cameras
        .iter()
        .map(|c| renderer.render(&scene.model, c).image)
        .collect();
    LoadedTrace {
        trace,
        scene,
        cameras,
        references,
    }
}

/// Print a fixed-width table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:>width$}  ", cell, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format a boxplot summary like the paper's figures report them.
pub fn boxplot_row(label: &str, xs: &[f32]) -> Vec<String> {
    match ms_math::stats::BoxplotSummary::from_samples(xs) {
        None => vec![label.to_string(); 1],
        Some(s) => vec![
            label.to_string(),
            format!("{:.1}", s.whisker_lo),
            format!("{:.1}", s.q1),
            format!("{:.1}", s.median),
            format!("{:.1}", s.q3),
            format!("{:.1}", s.whisker_hi),
            format!("{:.1}", s.mean),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            scene_scale: 0.002,
            width: 64,
            height: 48,
            fovy_deg: 74.0,
            cameras_per_trace: 2,
            trace_cap: 2,
        }
    }

    #[test]
    fn load_trace_produces_matching_cameras_and_references() {
        let cfg = tiny();
        let t = load_trace(cfg.traces()[0], &cfg);
        assert_eq!(t.cameras.len(), 2);
        assert_eq!(t.references.len(), 2);
        assert_eq!(t.references[0].width(), 64);
    }

    #[test]
    fn trace_cap_limits_corpus() {
        let cfg = tiny();
        assert_eq!(cfg.traces().len(), 2);
    }

    #[test]
    fn env_values_parse_or_default() {
        assert_eq!(parse_env::<u32>("MS_W", None, 192), 192);
        assert_eq!(parse_env::<u32>("MS_W", Some("96"), 192), 96);
        assert_eq!(parse_env::<f32>("MS_SCALE", Some("0.004"), 0.008), 0.004);
    }

    #[test]
    #[should_panic(expected = "MS_W=\"96px\" is not a valid u32")]
    fn env_typo_names_the_variable() {
        parse_env::<u32>("MS_W", Some("96px"), 192);
    }

    #[test]
    fn boxplot_row_formats() {
        let row = boxplot_row("x", &[1.0, 2.0, 3.0, 4.0, 100.0]);
        assert_eq!(row.len(), 7);
        assert_eq!(row[0], "x");
    }
}
