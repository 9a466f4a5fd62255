//! # jsym-bench — the evaluation harness
//!
//! Regenerates the paper's evaluation (Figure 5 — the only measured result
//! in the paper) and a set of ablation experiments for the design choices
//! DESIGN.md calls out. Each experiment is a binary printing the series the
//! paper (or EXPERIMENTS.md) reports, plus machine-readable JSON:
//!
//! * `fig5` — execution time vs. nodes for several N, day and night;
//! * `ablate_invoke` — sinvoke/ainvoke/oinvoke latency and overlap (E1);
//! * `ablate_migration` — migration cost vs. object state size (E2);
//! * `ablate_codebase` — selective vs. full classloading (E3);
//! * `ablate_automigrate` — constraint-driven rebalancing (E4);
//! * `ablate_failover` — manager failover latency vs. heartbeat period (E5).
//!
//! Criterion micro-benches (`cargo bench`) cover the same mechanisms at
//! statistical depth on small deployments.

use serde::Serialize;
use std::io::Write;
use std::path::PathBuf;

/// Where experiment outputs are written (`bench_results/` at the workspace
/// root, or `$JSYM_BENCH_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("JSYM_BENCH_DIR").unwrap_or_else(|_| {
        // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
        format!("{}/../../bench_results", env!("CARGO_MANIFEST_DIR"))
    });
    PathBuf::from(dir)
}

/// Serializes `rows` as JSON into `bench_results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, rows: &[T]) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    let json = serde_json::to_string_pretty(rows).expect("serialize rows");
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")?;
    Ok(path)
}

/// Writes a pre-rendered JSON string into `bench_results/<name>.json` — for
/// exports that serialize themselves, e.g. `jsym-obs` snapshots.
pub fn write_raw_json(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")?;
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

    #[test]
    fn results_dir_respects_env() {
        // Not setting the env var here (tests run in parallel); just check
        // the default points at bench_results.
        let d = results_dir();
        assert!(d.to_string_lossy().contains("bench_results"));
    }

    #[test]
    fn write_json_round_trips() {
        #[derive(serde::Serialize)]
        struct Row {
            x: u32,
        }
        std::env::set_var(
            "JSYM_BENCH_DIR",
            std::env::temp_dir().join("jsym-bench-test"),
        );
        let path = write_json("unit-test", &[Row { x: 1 }, Row { x: 2 }]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"x\": 2"));
        std::env::remove_var("JSYM_BENCH_DIR");
    }

    #[test]
    fn write_raw_json_passes_content_through() {
        std::env::set_var(
            "JSYM_BENCH_DIR",
            std::env::temp_dir().join("jsym-bench-test-raw"),
        );
        let path = write_raw_json("unit-test-raw", "{\"k\": 1}").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"k\": 1}\n");
        std::env::remove_var("JSYM_BENCH_DIR");
    }

    #[test]
    fn fmt_secs_is_fixed_width() {
        assert_eq!(fmt_secs(1.5), "     1.50");
        assert_eq!(fmt_secs(123.456), "   123.46");
    }
}
