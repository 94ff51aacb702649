//! In-memory span recorder with Chrome trace-event export.
//!
//! Spans are recorded by the benchmark around the public calls it makes, and
//! written out once the run ends as trace-event JSON, which Perfetto
//! (`ui.perfetto.dev`) and `chrome://tracing` open directly.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran: a pipeline stage name or a public entry point.
    pub name: &'static str,
    /// Frame index (trajectory index on the served path, chunk index for
    /// decode probes).
    pub frame: u64,
    /// Serving session, `None` for solo frames and server-wide calls.
    pub session: Option<u32>,
    /// Start, in µs since the tracer was created.
    pub start_us: f64,
    /// End, in µs since the tracer was created.
    pub end_us: f64,
}

/// Collects spans in memory for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
        }
    }
}

impl Tracer {
    /// Record a span from `start` to `end`. Instants before the tracer was
    /// created clamp to its origin.
    pub fn record(
        &mut self,
        name: &'static str,
        frame: u64,
        session: Option<u32>,
        start: Instant,
        end: Instant,
    ) {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            frame,
            session,
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as Chrome trace-event JSON: one complete (`"ph": "X"`)
    /// event per span, the workload as category, one track per session
    /// (track 0 holds solo frames and server-wide calls).
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = s.session.map_or(0, |id| u64::from(id) + 1);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"frame\": {}}}}}{sep}",
                s.name,
                workload,
                s.start_us,
                s.end_us - s.start_us,
                s.frame,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_are_relative_to_origin_and_clamped() {
        let before = Instant::now();
        let mut t = Tracer::default();
        let later = t.origin + Duration::from_millis(3);
        t.record("step", 7, Some(2), before, later);
        let s = &t.spans()[0];
        assert_eq!(s.start_us, 0.0);
        assert!((s.end_us - 3000.0).abs() < 1e-6);
        let json = t.chrome_json("served-stream");
        assert!(json.contains("\"tid\": 3"));
        assert!(json.contains("\"frame\": 7"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
