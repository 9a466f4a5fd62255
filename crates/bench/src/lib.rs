//! # jsym-bench — the paper's experiments, in virtual time
//!
//! Regenerates the paper's evaluation (Figure 5 — the only measured result
//! in the paper) and the ablation experiments for the design choices
//! DESIGN.md calls out. Every number a bin here reports is a **virtual
//! second or a modeled count** (messages, bytes, migrations): nothing under
//! `src/` reads the wall clock. Wall-clock numbers come from `perf/` only
//! (`BENCHMARK.json`, the root `BENCH_<pr>.json` files).
//!
//! Each experiment is a binary printing the series the paper (or
//! EXPERIMENTS.md) reports, plus machine-readable JSON in `bench_results/`:
//!
//! * `fig5`, `fig5_variance` — execution time vs. nodes for several N, day
//!   and night, and its spread over seeds;
//! * `ablate_invoke` — sinvoke/ainvoke/oinvoke latency and overlap (E1);
//! * `ablate_migration` — migration cost vs. object state size (E2);
//! * `ablate_codebase` — selective vs. full classloading (E3);
//! * `ablate_automigrate` — constraint-driven rebalancing (E4);
//! * `ablate_failover` — manager failover latency vs. heartbeat period (E5);
//! * `ablate_locality`, `ablate_rmi_cost`, `ablate_wan`, `ablate_batch`,
//!   `ablate_affinity` — E7, E8, E9, E11, E13.
//!
//! Rows are written through [`jsym_core::obs::json`], the workspace's one
//! JSON writer; [`json_row!`] gives a row struct its field list.

use jsym_cluster::fig5::Fig5Row;
pub use jsym_core::obs::json::ToJson;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Where experiment outputs are written (`bench_results/` at the workspace
/// root, or `$JSYM_BENCH_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("JSYM_BENCH_DIR").unwrap_or_else(|_| {
        // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
        format!("{}/../../bench_results", env!("CARGO_MANIFEST_DIR"))
    });
    PathBuf::from(dir)
}

/// One record of an experiment's JSON artifact: its fields, in the order
/// they are written, each with its JSON text. [`json_row!`] implements it.
pub trait JsonRow {
    /// `(key, JSON text)` per field.
    fn fields(&self) -> Vec<(&'static str, String)>;
}

/// Implements [`JsonRow`] for a plain struct from its field list; the
/// artifact's key order is the order given here.
///
/// ```
/// struct Row {
///     nodes: usize,
///     virt_seconds: f64,
/// }
/// jsym_bench::json_row!(Row { nodes, virt_seconds });
/// ```
#[macro_export]
macro_rules! json_row {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::JsonRow for $ty {
            fn fields(&self) -> Vec<(&'static str, String)> {
                vec![$( (stringify!($field), $crate::ToJson::to_json(&self.$field)), )*]
            }
        }
    };
}

// `fig5`'s rows are the library's own type; the impl has to live beside the trait.
json_row!(Fig5Row {
    n,
    nodes,
    load,
    seconds,
    speedup,
    efficiency,
    messages,
    kernel
});

/// Writes `rows` as a JSON array into `bench_results/<name>.json`.
pub fn write_json<T: JsonRow>(name: &str, rows: &[T]) -> std::io::Result<PathBuf> {
    write_json_in(&results_dir(), name, rows)
}

/// As [`write_json`], into `dir`.
pub fn write_json_in<T: JsonRow>(dir: &Path, name: &str, rows: &[T]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let rows: Vec<_> = rows.iter().map(JsonRow::fields).collect();
    std::fs::write(&path, jsym_core::obs::json::rows_to_json(&rows) + "\n")?;
    Ok(path)
}

/// Linear-interpolated quantile over the histogram's buckets, clamped to the
/// observed [min, max].
pub fn percentile(h: &jsym_core::obs::HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let target = q * h.count as f64;
    let mut cum = 0u64;
    for (i, &b) in h.buckets.iter().enumerate() {
        let below = cum as f64;
        cum += b;
        if b > 0 && cum as f64 >= target {
            let lo = if i == 0 {
                h.min
            } else {
                h.bounds[i - 1].max(h.min)
            };
            let hi = if i < h.bounds.len() {
                h.bounds[i].min(h.max)
            } else {
                h.max
            };
            let frac = ((target - below) / b as f64).clamp(0.0, 1.0);
            return lo + (hi - lo).max(0.0) * frac;
        }
    }
    h.max
}

/// Formats a virtual-seconds value for table output.
pub fn fmt_secs(s: f64) -> String {
    format!("{s:9.2}")
}

/// Writes rows as CSV into `bench_results/<name>.csv` (for plotting).
/// `header` names the columns; `row_fn` renders one record.
pub fn write_csv<T>(
    name: &str,
    header: &str,
    rows: &[T],
    mut row_fn: impl FnMut(&T) -> String,
) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{header}")?;
    for row in rows {
        writeln!(f, "{}", row_fn(row))?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        x: u32,
        label: String,
    }
    json_row!(Row { x, label });

    #[test]
    fn results_dir_respects_env() {
        // Not setting the env var here (tests run in parallel); just check
        // the default points at bench_results.
        let d = results_dir();
        assert!(d.to_string_lossy().contains("bench_results"));
    }

    #[test]
    fn write_json_round_trips() {
        let dir = std::env::temp_dir().join(format!("jsym-bench-test-{}", std::process::id()));
        let rows = [
            Row {
                x: 1,
                label: "a".into(),
            },
            Row {
                x: 2,
                label: "b\"c".into(),
            },
        ];
        let path = write_json_in(&dir, "unit-test", &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "[\n  {\n    \"x\": 1,\n    \"label\": \"a\"\n  },\n  {\n    \"x\": 2,\n    \"label\": \"b\\\"c\"\n  }\n]\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fmt_secs_is_fixed_width() {
        assert_eq!(fmt_secs(1.5), "     1.50");
        assert_eq!(fmt_secs(123.456), "   123.46");
    }
}
