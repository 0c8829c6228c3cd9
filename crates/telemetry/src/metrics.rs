//! The metrics registry: [`MetricSource`], [`MetricSink`] and the flat
//! [`MetricsSnapshot`] they produce.

use std::collections::BTreeMap;
use std::fmt;

use crate::json;

/// A single exported metric value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// An exact counter.
    U64(u64),
    /// A derived ratio or rate.
    F64(f64),
}

impl MetricValue {
    /// The value as `u64`, truncating an `F64`.
    pub fn as_u64(self) -> u64 {
        match self {
            MetricValue::U64(v) => v,
            MetricValue::F64(v) => v as u64,
        }
    }

    /// The value as `f64`.
    pub fn as_f64(self) -> f64 {
        match self {
            MetricValue::U64(v) => v as f64,
            MetricValue::F64(v) => v,
        }
    }
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::U64(v) => write!(f, "{v}"),
            MetricValue::F64(v) => write!(f, "{}", json::fmt_f64(*v)),
        }
    }
}

/// Anything that can report its counters into a [`MetricSink`].
///
/// Implemented by every `*Stats` struct in the workspace. Names pushed into
/// the sink must be stable across runs and releases — they are the export
/// schema that `scripts/check.sh` validates.
pub trait MetricSource {
    /// Reports this source's metrics into `out`.
    fn metrics(&self, out: &mut MetricSink);
}

/// Collects `(name, value)` pairs from [`MetricSource`]s, with dotted
/// prefix scoping.
///
/// Registering the same fully-qualified name twice panics: duplicate names
/// would silently shadow each other in the flat snapshot.
#[derive(Debug, Default)]
pub struct MetricSink {
    prefix: String,
    entries: BTreeMap<String, MetricValue>,
}

impl MetricSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a counter under the current prefix.
    pub fn u64(&mut self, name: &str, value: u64) {
        self.push(name, MetricValue::U64(value));
    }

    /// Registers a derived value under the current prefix.
    pub fn f64(&mut self, name: &str, value: f64) {
        self.push(name, MetricValue::F64(value));
    }

    /// Collects `source` with `prefix.` prepended to every name it
    /// registers.
    pub fn source(&mut self, prefix: &str, source: &dyn MetricSource) {
        let saved = self.prefix.len();
        self.prefix.push_str(prefix);
        self.prefix.push('.');
        source.metrics(self);
        self.prefix.truncate(saved);
    }

    fn push(&mut self, name: &str, value: MetricValue) {
        let full = format!("{}{}", self.prefix, name);
        assert!(
            self.entries.insert(full.clone(), value).is_none(),
            "duplicate metric name registered: {full}"
        );
    }

    /// Finalizes the sink into a snapshot.
    pub fn finish(self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self.entries,
        }
    }
}

/// One flat, deterministically-ordered `name → value` view of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Snapshots a single source (no prefix).
    pub fn of(source: &dyn MetricSource) -> Self {
        let mut sink = MetricSink::new();
        source.metrics(&mut sink);
        sink.finish()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no metrics were registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a metric up by fully-qualified name.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        self.entries.get(name).copied()
    }

    /// A counter by name, `0` if absent.
    pub fn u64(&self, name: &str) -> u64 {
        self.get(name).map(MetricValue::as_u64).unwrap_or(0)
    }

    /// A value by name as `f64`, `0.0` if absent.
    pub fn f64(&self, name: &str) -> f64 {
        self.get(name).map(MetricValue::as_f64).unwrap_or(0.0)
    }

    /// Iterates `(name, value)` in stable (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricValue)> {
        self.entries.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All registered names in stable order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Collects `source` into this snapshot under `prefix.`, after the
    /// fact. Panics on a name collision, like [`MetricSink`] does.
    pub fn absorb(&mut self, prefix: &str, source: &dyn MetricSource) {
        let mut sink = MetricSink::new();
        sink.source(prefix, source);
        for (name, value) in sink.finish().entries {
            assert!(
                self.entries.insert(name.clone(), value).is_none(),
                "duplicate metric name registered: {name}"
            );
        }
    }

    /// Renders the snapshot as a JSON object, one `"name": value` member
    /// per metric, in stable order. `indent` is prepended to every member
    /// line; pass `""` for a compact single-line object.
    pub fn to_json(&self, indent: &str) -> String {
        if self.entries.is_empty() {
            return "{}".to_string();
        }
        let (nl, pad) = if indent.is_empty() {
            ("", String::new())
        } else {
            ("\n", indent.to_string())
        };
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push_str(&json::string(name));
            out.push_str(": ");
            match value {
                MetricValue::U64(v) => out.push_str(&v.to_string()),
                MetricValue::F64(v) => out.push_str(&json::fmt_f64(*v)),
            }
        }
        out.push_str(nl);
        if !indent.is_empty() {
            // Closing brace sits one level out from the members.
            let outdent = &indent[..indent.len().saturating_sub(2)];
            out.push_str(outdent);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Inner;
    impl MetricSource for Inner {
        fn metrics(&self, out: &mut MetricSink) {
            out.u64("count", 3);
            out.f64("rate", 0.5);
        }
    }

    #[test]
    fn prefixes_nest_and_restore() {
        let mut sink = MetricSink::new();
        sink.source("a", &Inner);
        sink.source("b", &Inner);
        sink.u64("top", 1);
        let snap = sink.finish();
        let names: Vec<&str> = snap.names().collect();
        assert_eq!(names, ["a.count", "a.rate", "b.count", "b.rate", "top"]);
        assert_eq!(snap.u64("a.count"), 3);
        assert_eq!(snap.f64("b.rate"), 0.5);
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_panic() {
        let mut sink = MetricSink::new();
        sink.u64("x", 1);
        sink.u64("x", 2);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let snap = MetricsSnapshot::of(&Inner);
        let compact = snap.to_json("");
        let parsed = crate::json::parse(&compact).expect("valid JSON");
        assert_eq!(parsed.get("count").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(parsed.get("rate").and_then(|v| v.as_f64()), Some(0.5));
        let pretty = snap.to_json("    ");
        crate::json::parse(&pretty).expect("indented form is valid too");
    }
}
