//! Figure 5 robustness appendix: the same cells under three different load
//! seeds, reporting mean and spread. The paper ran each configuration twice
//! (once per regime) with whatever load the office happened to produce; this
//! quantifies how much our synthetic day/night streams move the curves.

use jsym_bench::{json_row, write_json};
use jsym_cluster::catalog::LoadKind;
use jsym_cluster::fig5::run_cell;

struct Row {
    n: usize,
    nodes: usize,
    load: String,
    mean_seconds: f64,
    min_seconds: f64,
    max_seconds: f64,
    spread_pct: f64,
}
json_row!(Row {
    n,
    nodes,
    load,
    mean_seconds,
    min_seconds,
    max_seconds,
    spread_pct
});

fn main() {
    const N: usize = 600;
    const SCALE: f64 = 2e-2;
    let seeds = [11u64, 22, 33];
    println!(
        "{:>5} {:>6} {:>6} {:>10} {:>10} {:>10} {:>9}",
        "N", "nodes", "load", "mean[s]", "min[s]", "max[s]", "spread%"
    );
    let mut rows = Vec::new();
    for load in [LoadKind::Night, LoadKind::Day] {
        for nodes in [1usize, 2, 6, 10, 13] {
            let times: Vec<f64> = seeds
                .iter()
                .map(|&s| run_cell(N, nodes, load, SCALE, s, false))
                .collect();
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = times.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let spread = 100.0 * (max - min) / mean;
            println!(
                "{:>5} {:>6} {:>6} {:>10.2} {:>10.2} {:>10.2} {:>9.1}",
                N,
                nodes,
                load.label(),
                mean,
                min,
                max,
                spread
            );
            rows.push(Row {
                n: N,
                nodes,
                load: load.label().to_owned(),
                mean_seconds: mean,
                min_seconds: min,
                max_seconds: max,
                spread_pct: spread,
            });
        }
    }
    // The qualitative orderings must hold for the means as well.
    let mean_of = |nodes: usize, load: &str| {
        rows.iter()
            .find(|r| r.nodes == nodes && r.load == load)
            .map(|r| r.mean_seconds)
            .unwrap()
    };
    println!("\nmean-level shape checks:");
    for load in ["night", "day"] {
        let ok1 = mean_of(6, load) < mean_of(1, load);
        let ok2 = mean_of(13, load) > mean_of(10, load);
        println!("  {load}: 6 nodes beat sequential: {ok1}; 13 worse than 10: {ok2}");
    }
    if let Ok(path) = write_json("fig5_variance", &rows) {
        eprintln!("wrote {}", path.display());
    }
}
