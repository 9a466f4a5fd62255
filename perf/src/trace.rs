//! Bench-side spans: one per call into the program, recorded by the adapter
//! (`sut.rs`) when the run is traced. Spans live in memory and are written to
//! `trace_<workload>.json` when the run ends; every span also feeds a
//! per-name latency histogram, which is where the per-layer p50s come from.
//! Spans inside the program are a later issue.

use crate::instruments::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept verbatim per driver; later ones still count in the histograms.
const KEEP_SPANS: usize = 50_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// 1-based index of the enclosing span in this tracer, 0 for none.
    parent: u32,
    /// The operation the span belongs to (spans of one op share it).
    op: u64,
}

/// An open span, returned by [`Tracer::begin`] and closed by [`Tracer::end`].
pub struct Open {
    name: &'static str,
    start: Instant,
    /// Slot reserved in the kept spans (0 when the buffer was full).
    id: u32,
    parent: u32,
}

/// One driver thread's span recorder. A disabled tracer costs a branch per
/// call, so untraced runs go through the same adapter code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    current: u32,
    op: u64,
    by_name: BTreeMap<&'static str, Histogram>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            dropped: 0,
            current: 0,
            op: 0,
            by_name: BTreeMap::new(),
        }
    }

    pub fn disabled() -> Self {
        Tracer::new(false, Instant::now())
    }

    /// Marks the start of the next operation: spans begun from now on carry
    /// its id.
    #[inline]
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let parent = self.current;
        let id = if self.spans.len() < KEEP_SPANS {
            // Reserve the slot now so children can name it as their parent.
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                op: self.op,
            });
            self.spans.len() as u32
        } else {
            self.dropped += 1;
            0
        };
        self.current = id;
        Some(Open {
            name,
            start: Instant::now(),
            id,
            parent,
        })
    }

    #[inline]
    pub fn end(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end = Instant::now();
        let ns = (end - open.start).as_nanos() as u64;
        self.by_name
            .entry(open.name)
            .or_insert_with(Histogram::new)
            .record(ns);
        if open.id != 0 {
            let span = &mut self.spans[open.id as usize - 1];
            span.start_ns = (open.start - self.epoch).as_nanos() as u64;
            span.end_ns = span.start_ns + ns;
        }
        self.current = open.parent;
    }

    /// The latency histogram of the spans named `name`, if any were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.by_name.get(name)
    }

    /// Median duration in µs of the spans named `name` (0 when none ran).
    pub fn p50_us(&self, name: &str) -> f64 {
        self.histogram(name).map_or(0.0, |h| h.quantile_us(0.5))
    }

    /// Folds another driver's histograms in (its spans stay in its own file
    /// section; see [`write_json`]).
    pub fn merge_histograms(&mut self, other: &Tracer) {
        for (name, h) in &other.by_name {
            self.by_name
                .entry(name)
                .or_insert_with(Histogram::new)
                .merge(h);
        }
    }

    /// `name count p50 p99` lines for the run's printed record.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for (name, h) in &self.by_name {
            let _ = writeln!(
                out,
                "span {name} n {} p50_us {:.3} p99_us {:.3}",
                h.count(),
                h.quantile_us(0.5),
                h.quantile_us(0.99)
            );
        }
        out
    }
}

/// The trace file: one section per driver, span ids local to the section
/// (`id` is the 1-based position in `spans`; `parent` 0 means a root).
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    drivers: &[&Tracer],
) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"drivers\":["
    );
    for (d, t) in drivers.iter().enumerate() {
        if d > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"driver\":{d},\"dropped\":{},\"spans\":[",
            t.dropped
        );
        for (i, s) in t.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"op\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_op_id() {
        let mut t = Tracer::new(true, Instant::now());
        t.next_op();
        let outer = t.begin("op");
        let inner = t.begin("core.sinvoke");
        t.end(inner);
        t.end(outer);
        t.next_op();
        let second = t.begin("op");
        t.end(second);
        let parents: Vec<u32> = t.spans.iter().map(|s| s.parent).collect();
        let ops: Vec<u64> = t.spans.iter().map(|s| s.op).collect();
        assert_eq!(parents, [0, 1, 0]);
        assert_eq!(ops, [1, 1, 2]);
        assert!(t.spans[0].start_ns <= t.spans[1].start_ns);
        assert!(t.spans[1].end_ns <= t.spans[0].end_ns);
        assert_eq!(t.histogram("op").unwrap().count(), 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let s = t.begin("op");
        assert!(s.is_none());
        t.end(s);
        assert!(t.spans.is_empty() && t.by_name.is_empty());
    }
}
