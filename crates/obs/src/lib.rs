//! # jsym-obs — metrics + tracing for the jsymphony runtime
//!
//! The paper's JRS exposes ~40 *system* parameters but gives no visibility
//! into the runtime itself: its own Figure 5 anomaly ("more than 10 nodes
//! increases execution time") had to be explained by guesswork about RMI
//! overhead. This crate is the measurement substrate that removes the
//! guesswork:
//!
//! * a **metrics registry** ([`MetricsRegistry`]) of lock-cheap counters,
//!   gauges and fixed-bucket histograms, keyed by `(name, node, component)`
//!   ([`MetricKey`]), with mergeable point-in-time snapshots;
//! * a **span tracer** ([`Tracer`]) recording virtual-time start/end and
//!   parent links for runtime operations (RMIs, migration protocol steps,
//!   codebase loads, checkpoints, monitoring rounds, failover);
//! * an [`ObsRegistry`] bundling both per deployment, with JSON export and
//!   a plain-text summary table for the JS-Shell.
//!
//! Everything supports a **no-op mode** ([`ObsRegistry::disabled`]): handles
//! carry `Option<Arc<..>>` internally, so a disabled registry costs one
//! branch per record call — cheap enough to leave instrumentation compiled
//! into every hot path.
//!
//! The crate is deliberately `std`-only: it sits underneath every other
//! workspace crate and must never contribute a dependency cycle.

#![warn(missing_docs)]

pub mod json;
mod metrics;
mod trace;

pub use metrics::{
    bounds, Counter, Gauge, Histogram, HistogramSnapshot, MergeError, MetricKey, MetricsRegistry,
    MetricsSnapshot,
};
pub use trace::{render_tree, validate_spans, ActiveSpan, SpanId, SpanRecord, Tracer};

/// Default ring-buffer capacity of the span tracer.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Per-deployment observability scope: a metrics registry plus a span
/// tracer. Cloning shares the underlying storage.
#[derive(Clone)]
pub struct ObsRegistry {
    metrics: MetricsRegistry,
    tracer: Tracer,
}

impl ObsRegistry {
    /// An enabled registry with the default span capacity.
    pub fn new() -> Self {
        Self::with_span_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled registry whose tracer retains at most `capacity` finished
    /// spans (oldest evicted first).
    pub fn with_span_capacity(capacity: usize) -> Self {
        ObsRegistry {
            metrics: MetricsRegistry::new(),
            tracer: Tracer::new(capacity),
        }
    }

    /// A no-op registry: every handle it returns records nothing, at the
    /// cost of a branch per call.
    pub fn disabled() -> Self {
        ObsRegistry {
            metrics: MetricsRegistry::disabled(),
            tracer: Tracer::disabled(),
        }
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled()
    }

    /// The metrics half.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The tracing half.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Resolves (creating on first use) the counter keyed
    /// `(name, node, component)`.
    pub fn counter(&self, name: &'static str, node: Option<u32>, component: &str) -> Counter {
        self.metrics.counter(name, node, component)
    }

    /// Resolves (creating on first use) the gauge keyed
    /// `(name, node, component)`.
    pub fn gauge(&self, name: &'static str, node: Option<u32>, component: &str) -> Gauge {
        self.metrics.gauge(name, node, component)
    }

    /// Resolves (creating on first use) the histogram keyed
    /// `(name, node, component)` with the given bucket upper bounds.
    pub fn histogram(
        &self,
        name: &'static str,
        node: Option<u32>,
        component: &str,
        bucket_bounds: &[f64],
    ) -> Histogram {
        self.metrics.histogram(name, node, component, bucket_bounds)
    }

    /// A consistent-enough point-in-time copy of everything recorded.
    pub fn snapshot(&self) -> ObsSnapshot {
        ObsSnapshot {
            metrics: self.metrics.snapshot(),
            spans: self.tracer.snapshot(),
            dropped_spans: self.tracer.dropped(),
        }
    }

    /// JSON export of the current state (see [`ObsSnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// Plain-text summary table of the current state (for the JS-Shell).
    pub fn summary(&self) -> String {
        self.snapshot().summary()
    }
}

impl Default for ObsRegistry {
    fn default() -> Self {
        ObsRegistry::new()
    }
}

impl std::fmt::Debug for ObsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ObsRegistry({})",
            if self.is_enabled() {
                "enabled"
            } else {
                "no-op"
            }
        )
    }
}

/// Point-in-time copy of an [`ObsRegistry`]: all metrics plus the retained
/// span ring.
#[derive(Clone, Debug)]
pub struct ObsSnapshot {
    /// Counters, gauges and histograms.
    pub metrics: MetricsSnapshot,
    /// Finished spans, in completion order (oldest first).
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from the ring buffer since creation.
    pub dropped_spans: u64,
}

impl ObsSnapshot {
    /// Serializes the snapshot as a self-describing JSON document
    /// (`{"schema": "jsym-obs/v1", "counters": [...], "gauges": [...],
    /// "histograms": [...], "spans": [...], "dropped_spans": N}`).
    pub fn to_json(&self) -> String {
        json::snapshot_to_json(self)
    }

    /// Renders the metrics as a plain-text table plus a span tally.
    pub fn summary(&self) -> String {
        json::snapshot_summary(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let obs = ObsRegistry::disabled();
        assert!(!obs.is_enabled());
        obs.counter("c", Some(1), "x").inc();
        obs.gauge("g", None, "").set(3.0);
        obs.histogram("h", None, "", bounds::LATENCY_SECONDS)
            .observe(0.5);
        obs.tracer().span("s", 0.0).finish(1.0);
        let snap = obs.snapshot();
        assert!(snap.metrics.counters.is_empty());
        assert!(snap.metrics.gauges.is_empty());
        assert!(snap.metrics.histograms.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn enabled_registry_round_trips_through_snapshot() {
        let obs = ObsRegistry::new();
        assert!(obs.is_enabled());
        obs.counter("rmi.calls", Some(0), "sinvoke").add(3);
        obs.gauge("pool.size", None, "").set(7.5);
        obs.histogram("lat", Some(0), "lan100", &[0.1, 1.0])
            .observe(0.05);
        let s = obs.tracer().span("rmi.sinvoke", 1.0).node(0);
        s.finish(2.0);
        let snap = obs.snapshot();
        assert_eq!(
            snap.metrics.counters[&MetricKey::new("rmi.calls", Some(0), "sinvoke")],
            3
        );
        assert_eq!(
            snap.metrics.gauges[&MetricKey::new("pool.size", None, "")],
            7.5
        );
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "rmi.sinvoke");
        assert_eq!(snap.spans[0].start, 1.0);
        assert_eq!(snap.spans[0].end, 2.0);
    }

    #[test]
    fn json_export_is_parseable_shape() {
        let obs = ObsRegistry::new();
        obs.counter("c", Some(2), "a\"b").inc();
        obs.histogram("h", None, "", &[1.0]).observe(0.5);
        obs.tracer().span("s", 0.25).attr("k", "v\"w").finish(0.75);
        let j = obs.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"schema\": \"jsym-obs/v1\""));
        assert!(j.contains("a\\\"b"), "component must be escaped: {j}");
        assert!(j.contains("\"spans\""));
        // Balanced braces/brackets (cheap structural sanity check without a
        // JSON parser; the suite crate parses it with serde_json for real).
        let balance = |open: char, close: char| {
            j.chars().filter(|&c| c == open).count() == j.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}'));
        assert!(balance('[', ']'));
    }

    #[test]
    fn summary_mentions_recorded_names() {
        let obs = ObsRegistry::new();
        obs.counter("msg.sent", Some(1), "invoke").add(42);
        obs.histogram("net.latency", Some(1), "lan100", bounds::LATENCY_SECONDS)
            .observe(0.003);
        let s = obs.summary();
        assert!(s.contains("msg.sent"), "{s}");
        assert!(s.contains("net.latency"), "{s}");
        assert!(s.contains("42"), "{s}");
    }
}
