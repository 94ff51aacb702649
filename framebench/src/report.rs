//! The metric registry and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! `tests/smoke.rs` keeps the two in step.

use std::collections::BTreeMap;

/// A reported metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// `[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 bytes.
    pub name: &'static str,
    /// Unit as printed next to the value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the renderer sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("fps", "1/s"),
    m("frame_ms_p50", "ms"),
    m("frame_ms_p90", "ms"),
    m("setup_s", "s"),
    m("rss_peak_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not run
/// reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("failed_frac", "ratio"),
    m("render.project.ms", "ms"),
    m("render.project.splats", "count"),
    m("render.project.ns_per_splat", "ns"),
    m("render.bin.ms", "ms"),
    m("render.bin.intersections", "count"),
    m("render.bin.ns_per_isect", "ns"),
    m("render.merge.ms", "ms"),
    m("render.merge.units", "count"),
    m("render.raster.ms", "ms"),
    m("render.raster.blend_steps", "count"),
    m("render.raster.ns_per_blend", "ns"),
    m("render.raster.splats_staged", "count"),
    m("render.raster.cull_frac", "ratio"),
    m("render.raster.row_iter_ratio", "ratio"),
    m("render.composite.ms", "ms"),
    m("render.frame.overhead_ms", "ms"),
    m("fov.levels", "count"),
    m("fov.project_ms", "ms"),
    m("fov.project_repeat", "ratio"),
    m("fov.raster_ms", "ms"),
    m("fov.outside_ms", "ms"),
    m("fov.blended_pixels", "count"),
    m("scene.decode_ms_per_chunk", "ms"),
    m("scene.decode_mb_s", "MB/s"),
    m("scene.cache.hit_copy_ms", "ms"),
    m("scene.cache.hit_rate", "ratio"),
    m("scene.cache.misses", "1/frame"),
    m("scene.cache.evictions", "1/frame"),
    m("scene.cache.resident_peak_mb", "MiB"),
    m("scene.chunk_bytes_peak", "bytes"),
    m("scene.projected_bytes_peak", "bytes"),
    m("serve.step_ms_p50", "ms"),
    m("serve.step_ms_p90", "ms"),
    m("serve.steps_per_frame", "ratio"),
    m("serve.serial_ratio", "ratio"),
    m("trace.untraced_frame_ms_p50", "ms"),
    m("trace.traced_frame_ms_p50", "ms"),
    m("trace.overhead_frac", "ratio"),
    m("trace.spans", "count"),
    m("host.calib_ms", "ms"),
    m("host.cores", "count"),
];

/// Whether `name` is a valid metric or workload name: starts with a letter
/// or digit, then letters, digits, `_`, `.` and `-`, at most 64 bytes.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with one
/// entry per metric of `defs`. A metric in `defs` missing from `values` is
/// an error when `required`, else reported as 0 (a layer that did not run);
/// values outside `defs` are ignored. Non-finite values are errors.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
    required: bool,
) -> Result<String, String> {
    if attempted == 0 {
        return Err("no frame was attempted".into());
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = match values.get(def.name) {
            Some(&v) => v,
            None if required => return Err(format!("metric {} was not measured", def.name)),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", def.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated() {
        for ok in ["fps", "render.raster.ms", "dense-orbit", "0x", "a_b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "-a", ".a", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn registry_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(!def.unit.is_empty() && def.unit.len() <= 16);
        }
    }

    #[test]
    fn result_line_shape() {
        let defs = [m("fps", "1/s"), m("x.ms", "ms")];
        let mut values = BTreeMap::new();
        values.insert("fps", 9.5);
        assert!(result_line(true, 3, 0, &defs, &values, true).is_err());
        let line = result_line(true, 3, 0, &defs, &values, false).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"fps\": {\"value\": 9.5, \"unit\": \"1/s\"}, \"x.ms\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
        values.insert("x.ms", f64::NAN);
        assert!(result_line(true, 3, 0, &defs, &values, false).is_err());
        assert!(result_line(true, 0, 0, &defs, &BTreeMap::new(), false).is_err());
    }
}
