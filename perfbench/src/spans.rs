//! Host-time spans around the benchmark's calls into each layer, written
//! as a Chrome `trace_event` document (load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>).
//!
//! Spans are kept in memory and written once the run ends. Past
//! [`MAX_SPANS`] further spans are counted but not kept, so a long traced
//! run cannot grow without bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tmi_telemetry::json;

/// Spans kept per run.
pub const MAX_SPANS: usize = 50_000;
/// Of those, sampled per-call spans kept per run, so that the spans of the
/// calls that structure the run (passes, cells, engine runs) always fit.
pub const MAX_SAMPLED_SPANS: u64 = 10_000;

/// Identifies a recorded span, so child spans can name their cause.
pub type SpanId = u64;

#[derive(Clone, Debug)]
struct Span {
    id: SpanId,
    parent: Option<SpanId>,
    layer: &'static str,
    name: String,
    start: Instant,
    end: Instant,
    thread: u64,
}

/// A run's span log. Shared by reference across the host threads of a
/// pool; each recording takes one short lock.
pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
    sampled: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// An empty log whose timestamps count from now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            sampled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records one sampled per-call span, like [`Spans::record`] with a
    /// fresh id, unless [`MAX_SAMPLED_SPANS`] were already recorded.
    pub fn record_sample(
        &self,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        thread: u64,
        parent: SpanId,
    ) {
        if self.sampled.fetch_add(1, Ordering::Relaxed) < MAX_SAMPLED_SPANS {
            self.record(self.id(), layer, name, start, end, thread, Some(parent));
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A fresh span id. Take it when a span starts, so the spans it
    /// causes can name it as their parent before it has ended.
    pub fn id(&self) -> SpanId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the finished span `id` of `layer` on host thread `thread`.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: SpanId,
        layer: &'static str,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        thread: u64,
        parent: Option<SpanId>,
    ) {
        let mut spans = self.spans.lock().expect("span log poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(Span {
                id,
                parent,
                layer,
                name: name.into(),
                start,
                end,
                thread,
            });
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The log as a Chrome `trace_event` JSON document: one complete
    /// (`"ph": "X"`) event per span, microsecond timestamps, the layer as
    /// the category and the span and parent ids under `args`.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}}}}}{}\n",
                json::string(&s.name),
                json::string(s.layer),
                json::fmt_f64(us(s.start)),
                json::fmt_f64(s.end.saturating_duration_since(s.start).as_secs_f64() * 1e6),
                s.thread,
                s.id,
                parent,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "], \"displayTimeUnit\": \"ms\", \"otherData\": {{\"dropped_spans\": {}}}}}\n",
            self.dropped.load(Ordering::Relaxed)
        ));
        out
    }
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// Checks the log before it is written: ids are unique, every span
    /// ends after it starts, and every span lies within its parent when
    /// the parent was kept. Returns the number of kept spans.
    pub fn check(&self) -> Result<usize, String> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut by_id = std::collections::HashMap::new();
        for s in spans.iter() {
            if s.end < s.start {
                return Err(format!("span {} ends before it starts", s.id));
            }
            if by_id.insert(s.id, (s.start, s.end)).is_some() {
                return Err(format!("span id {} recorded twice", s.id));
            }
        }
        for s in spans.iter() {
            // A parent past the span cap was dropped; its children stand alone.
            let Some(&(start, end)) = s.parent.and_then(|p| by_id.get(&p)) else {
                continue;
            };
            if s.start < start || s.end > end {
                return Err(format!("span {} escapes its parent", s.id));
            }
        }
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_round_trip_and_validate() {
        let spans = Spans::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(10);
        let t2 = t0 + Duration::from_micros(20);
        let t3 = t0 + Duration::from_micros(100);
        let outer = spans.id();
        let run = spans.id();
        spans.record(spans.id(), "program", "next", t1, t2, 1, Some(run));
        spans.record(run, "sim", "run", t1, t2, 1, Some(outer));
        spans.record(outer, "exec", "batch \"q\"", t0, t3, 0, None);
        assert_eq!(spans.check(), Ok(3));

        let doc = json::parse(&spans.to_chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 3);
        for e in events {
            assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("X"));
            assert!(e.get("dur").and_then(|v| v.as_f64()).unwrap() >= 0.0);
        }
        let batch = &events[2];
        assert_eq!(
            batch.get("name").and_then(|v| v.as_str()),
            Some("batch \"q\"")
        );
        let dur = batch.get("dur").and_then(|v| v.as_f64()).unwrap();
        assert!((dur - 100.0).abs() < 1e-6, "{dur}");
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(|v| v.as_f64()), Some(outer as f64));
    }

    #[test]
    fn spans_past_the_caps_are_counted_not_kept() {
        let spans = Spans::new();
        let t0 = Instant::now();
        let parent = spans.id();
        for _ in 0..MAX_SAMPLED_SPANS + 2 {
            spans.record_sample("program", "next", t0, t0, 1, parent);
        }
        assert_eq!(spans.check(), Ok(MAX_SAMPLED_SPANS as usize));
        for _ in 0..MAX_SPANS {
            spans.record(spans.id(), "sim", "run", t0, t0, 1, None);
        }
        assert_eq!(spans.check(), Ok(MAX_SPANS));
        let dropped = 2 + MAX_SAMPLED_SPANS as usize;
        assert!(spans
            .to_chrome_json()
            .contains(&format!("\"dropped_spans\": {dropped}")));
    }

    #[test]
    fn a_child_outside_its_parent_is_invalid() {
        let spans = Spans::new();
        let t0 = Instant::now();
        let p = spans.id();
        spans.record(p, "exec", "p", t0, t0 + Duration::from_micros(5), 0, None);
        spans.record(
            spans.id(),
            "sim",
            "late",
            t0 + Duration::from_millis(1),
            t0 + Duration::from_millis(2),
            0,
            Some(p),
        );
        assert!(spans.check().is_err());
    }
}
