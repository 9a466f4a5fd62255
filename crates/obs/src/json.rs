//! Hand-rolled JSON export and plain-text summary rendering.
//!
//! Serialization is written by hand (rather than via serde) to keep this
//! crate dependency-free; the output is plain JSON that `serde_json` in the
//! integration suite parses and validates. [`ToJson`] and [`rows_to_json`] are
//! the same writer for callers that build their own rows (`jsym-bench`).

use std::fmt::Write as _;

use crate::metrics::{HistogramSnapshot, MetricKey};
use crate::trace::SpanRecord;
use crate::ObsSnapshot;

/// Schema tag stamped into every export so downstream tooling can detect
/// format drift.
const SCHEMA: &str = "jsym-obs/v1";

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// JSON has no NaN/Infinity literals; map non-finite values to null.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A scalar that writes itself as JSON text: what a crate without `serde`
/// builds its rows from (see [`rows_to_json`]).
pub trait ToJson {
    /// This value as JSON text.
    fn to_json(&self) -> String;
}

macro_rules! display_is_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
display_is_json!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> String {
        num(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> String {
        format!("\"{}\"", escape(self))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> String {
        self.as_ref().map_or_else(|| "null".to_owned(), T::to_json)
    }
}

/// An array of flat objects, one per row: each field is a key and its
/// [`ToJson`] text, written in the order given, indented two spaces per
/// level, no trailing newline.
pub fn rows_to_json(rows: &[Vec<(&str, String)>]) -> String {
    let mut out = String::from("[");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(if i > 0 { ",\n  {" } else { "\n  {" });
        for (j, (key, value)) in row.iter().enumerate() {
            let sep = if j > 0 { "," } else { "" };
            let _ = write!(out, "{sep}\n    \"{}\": {value}", escape(key));
        }
        out.push_str("\n  }");
    }
    out.push_str(if rows.is_empty() { "]" } else { "\n]" });
    out
}

fn key_fields(out: &mut String, key: &MetricKey) {
    let _ = write!(out, "\"name\": \"{}\", ", escape(&key.name));
    match key.node {
        Some(n) => {
            let _ = write!(out, "\"node\": {n}, ");
        }
        None => out.push_str("\"node\": null, "),
    }
    let _ = write!(out, "\"component\": \"{}\"", escape(&key.component));
}

fn histogram_json(out: &mut String, h: &HistogramSnapshot) {
    out.push_str("\"bounds\": [");
    for (i, b) in h.bounds.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&num(*b));
    }
    out.push_str("], \"buckets\": [");
    for (i, c) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{c}");
    }
    let _ = write!(out, "], \"count\": {}, \"sum\": {}, ", h.count, num(h.sum));
    if h.count == 0 {
        out.push_str("\"min\": null, \"max\": null");
    } else {
        let _ = write!(out, "\"min\": {}, \"max\": {}", num(h.min), num(h.max));
    }
}

fn span_json(out: &mut String, s: &SpanRecord) {
    let _ = write!(out, "{{\"id\": {}, \"parent\": ", s.id.0);
    match s.parent {
        Some(p) => {
            let _ = write!(out, "{}", p.0);
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ", \"name\": \"{}\", \"node\": ", escape(&s.name));
    match s.node {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ", \"start\": {}, \"end\": {}, \"attrs\": {{",
        num(s.start),
        num(s.end)
    );
    for (i, (k, v)) in s.attrs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": \"{}\"", escape(k), escape(v));
    }
    out.push_str("}}");
}

pub(crate) fn snapshot_to_json(snap: &ObsSnapshot) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(out, "{{\"schema\": \"{SCHEMA}\", \"counters\": [");
    for (i, (key, value)) in snap.metrics.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('{');
        key_fields(&mut out, key);
        let _ = write!(out, ", \"value\": {value}}}");
    }
    out.push_str("], \"gauges\": [");
    for (i, (key, value)) in snap.metrics.gauges.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('{');
        key_fields(&mut out, key);
        let _ = write!(out, ", \"value\": {}}}", num(*value));
    }
    out.push_str("], \"histograms\": [");
    for (i, (key, h)) in snap.metrics.histograms.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('{');
        key_fields(&mut out, key);
        out.push_str(", ");
        histogram_json(&mut out, h);
        out.push('}');
    }
    out.push_str("], \"spans\": [");
    for (i, s) in snap.spans.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        span_json(&mut out, s);
    }
    let _ = write!(out, "], \"dropped_spans\": {}}}", snap.dropped_spans);
    out
}

pub(crate) fn snapshot_summary(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    if !snap.metrics.counters.is_empty() {
        out.push_str("counters:\n");
        let width = snap
            .metrics
            .counters
            .keys()
            .map(|k| k.to_string().len())
            .max()
            .unwrap_or(0);
        for (key, value) in &snap.metrics.counters {
            let _ = writeln!(out, "  {:<width$}  {}", key.to_string(), value);
        }
    }
    if !snap.metrics.gauges.is_empty() {
        out.push_str("gauges:\n");
        let width = snap
            .metrics
            .gauges
            .keys()
            .map(|k| k.to_string().len())
            .max()
            .unwrap_or(0);
        for (key, value) in &snap.metrics.gauges {
            let _ = writeln!(out, "  {:<width$}  {}", key.to_string(), value);
        }
    }
    if !snap.metrics.histograms.is_empty() {
        out.push_str("histograms:\n");
        let width = snap
            .metrics
            .histograms
            .keys()
            .map(|k| k.to_string().len())
            .max()
            .unwrap_or(0);
        for (key, h) in &snap.metrics.histograms {
            if h.count == 0 {
                let _ = writeln!(out, "  {:<width$}  count=0", key.to_string());
            } else {
                let _ = writeln!(
                    out,
                    "  {:<width$}  count={} sum={:.6} mean={:.6} min={:.6} max={:.6}",
                    key.to_string(),
                    h.count,
                    h.sum,
                    h.mean().unwrap_or(f64::NAN),
                    h.min,
                    h.max
                );
            }
        }
    }
    if out.is_empty() {
        out.push_str("no metrics recorded\n");
    }
    let mut tally: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for s in &snap.spans {
        *tally.entry(s.name.as_ref()).or_default() += 1;
    }
    let _ = writeln!(
        out,
        "spans: {} retained, {} evicted",
        snap.spans.len(),
        snap.dropped_spans
    );
    for (name, n) in tally {
        let _ = writeln!(out, "  {name}  x{n}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsRegistry;

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\nb");
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(1.5), "1.5");
    }

    #[test]
    fn rows_keep_field_order_and_escape_keys_and_strings() {
        let row = vec![
            ("b", 7u64.to_json()),
            ("a\"", "x\"y".to_owned().to_json()),
            ("nan", Some(f64::NAN).to_json()),
            ("none", None::<f64>.to_json()),
            ("t", true.to_json()),
        ];
        assert_eq!(
            rows_to_json(&[row, vec![("max", u64::MAX.to_json())]]),
            "[\n  {\n    \"b\": 7,\n    \"a\\\"\": \"x\\\"y\",\n    \"nan\": null,\n    \"none\": null,\n    \"t\": true\n  },\n  {\n    \"max\": 18446744073709551615\n  }\n]"
        );
        assert_eq!(rows_to_json(&[]), "[]");
    }

    #[test]
    fn empty_snapshot_is_valid_shape() {
        let obs = ObsRegistry::new();
        let j = obs.to_json();
        assert!(j.contains("\"counters\": []"));
        assert!(j.contains("\"spans\": []"));
        assert!(j.contains("\"dropped_spans\": 0"));
        let s = obs.summary();
        assert!(s.contains("no metrics recorded"));
        assert!(s.contains("spans: 0 retained, 0 evicted"));
    }

    #[test]
    fn empty_histogram_exports_null_min_max() {
        let obs = ObsRegistry::new();
        let _ = obs.histogram("h", None, "", &[1.0]);
        let j = obs.to_json();
        assert!(j.contains("\"min\": null, \"max\": null"), "{j}");
    }
}
