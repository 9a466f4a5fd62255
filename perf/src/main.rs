//! `jsym-perf`: one workload run per process.
//!
//! `jsym-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! With `--trace 0` the run is untraced (observability off) and its last
//! output line is a JSON object with the six end-to-end metrics. After its
//! own run the process starts itself [`COLD_SETUPS`] more times with
//! `--setup-only 1`, each of which sets the workload up and ends, and reports
//! as `setup_s` the median of its own set-up time and theirs; every one is a
//! fresh process, so every one is cold.
//!
//! With `--trace 1` the workload runs traced, the per-layer probes follow,
//! the spans go to `<dir>/trace_<workload>.json` and the last line carries
//! the per-layer metrics. The lines before it are the run's record for a
//! reader. Exits non-zero when a correctness check fails.

mod instruments;
mod probes;
#[cfg(test)]
mod standins;
mod sut;
mod trace;
mod workloads;

use instruments::{load_average, median, peak_rss_mb, WindowMetrics, SLICE_SECONDS};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Ctx, Outcome};

/// Set-ups in processes of their own, besides this one's; `setup_s` is the
/// median of them all.
const COLD_SETUPS: usize = 2;

struct Args {
    workload: String,
    ctx: Ctx,
    out: Option<PathBuf>,
}

fn zero_or_one(value: &str) -> Option<bool> {
    match value {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_only) = (2000u64, 15.0f64, false, false);
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("between 0 and 600 seconds"));
                }
            }
            "--trace" => trace = zero_or_one(&value).ok_or_else(|| bad("0 or 1"))?,
            "--setup-only" => setup_only = zero_or_one(&value).ok_or_else(|| bad("0 or 1"))?,
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::NAMES.join(" ")
        ));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed,
            seconds,
            trace,
            started,
            setup_only,
        },
        out,
    })
}

/// The window's four metrics over the whole of it, drain included.
fn whole_window(out: &Outcome) -> WindowMetrics {
    WindowMetrics::of(&out.latency, out.window_s, out.cpu_s)
}

/// Sets the workload up in a fresh process and returns its set-up time.
fn cold_setup(name: &str, ctx: &Ctx) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let done = Command::new(exe)
        .args(["--workload", name, "--setup-only", "1"])
        .args(["--seed", &ctx.seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    let out = String::from_utf8_lossy(&done.stdout);
    out.lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok())
        .filter(|_| done.status.success())
        .ok_or_else(|| {
            format!(
                "a set-up process failed ({}): {out}{}",
                done.status,
                String::from_utf8_lossy(&done.stderr)
            )
        })
}

/// The window's four metrics as the end-to-end list takes them: over its
/// quietest slices; of `fig5_cells`, with five operations, over the whole.
fn gated_window(out: &Outcome) -> WindowMetrics {
    out.sliced
        .as_ref()
        .map_or_else(|| whole_window(out), |sliced| sliced.quiet())
}

/// The six end-to-end metrics: `(name, unit, value)`.
///
/// The tail is `slow_half_us`, the mean latency of the slower half of the
/// operations with the slowest 1 % left out, and not a high quantile, because
/// no high quantile repeats here. Something outside the VM stops a pinned
/// thread for 100 µs or more between 10 and 300 times a second, in phases of
/// minutes; a `lifecycle` cycle or a pipelined call takes 500 µs, so between
/// 0.5 and 15 % of them are hit and their p99 reads the machine (720 µs over
/// one calibration, 1,280 µs over the next). And a quantile jumps where the
/// distribution has a step: one local call in ten takes a 20 µs path instead
/// of the 15 µs one, so `rmi_sync_local`'s p90 read 16 or 20 µs from run to
/// run (spread 28 %) while its slow-half mean moved by 4 %. A metric that
/// cannot repeat within the largest bound allowed cannot gate. `p90_us` and
/// `p99_us` are printed beside the gated metrics and kept in the baseline.
fn end_to_end(
    m: &WindowMetrics,
    out: &Outcome,
    setup_s: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    vec![
        ("setup_s", "s", setup_s),
        ("ops_per_s", "1/s", m.ops_per_s),
        ("p50_us", "us", m.p50_us),
        ("slow_half_us", "us", m.slow_half_us),
        ("cpu_us_per_op", "us", m.cpu_us_per_op),
        ("peak_rss_mb", "MB", out.peak_rss_mb),
    ]
}

/// The contract's result line.
fn result_json(correct: bool, out: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s + "}}"
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jsym-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let (name, ctx) = (args.workload.as_str(), &args.ctx);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pin = || {
        instruments::pin_to_one_cpu().map_err(|e| {
            eprintln!("jsym-perf: cannot confine the run to one CPU: {e}");
            ExitCode::FAILURE
        })
    };
    let cpus = if workloads::pinned(name, ctx.trace) {
        match pin() {
            Ok(cpu) => format!("pinned_to_cpu {cpu}"),
            Err(code) => return code,
        }
    } else {
        "not_pinned".to_string()
    };
    println!(
        "workload {name} seed {} seconds {} trace {} nproc {nproc} {cpus} loadavg_1m {:.2}",
        ctx.seed,
        ctx.seconds,
        ctx.trace as u8,
        load_average()
    );
    println!(
        "stream_hash {:016x}",
        workloads::stream_hash(name, ctx.seed)
    );

    let out = workloads::run(name, ctx).expect("workload name was checked");

    let mut setups = vec![out.setup_s];
    if !ctx.trace {
        for _ in 0..COLD_SETUPS {
            match cold_setup(name, ctx) {
                Ok(s) => setups.push(s),
                Err(e) => {
                    eprintln!("jsym-perf: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let shown: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    println!("setup_runs_s {} (this process first)", shown.join(" "));
    println!(
        "attempted {} failed {} window_s {:.3} cpu_s {:.2} latency_samples {} harness.stalls {} vm_hwm_exit_mb {:.2}",
        out.attempted,
        out.failed,
        out.window_s,
        out.cpu_s,
        out.latency.count(),
        out.latency.stalls(),
        peak_rss_mb()
    );
    let whole = whole_window(&out);
    println!(
        "whole_window ops_per_s {:.4} p50_us {:.4} slow_half_us {:.4} p90_us {:.4} p99_us {:.4} cpu_us_per_op {:.4} (drain included)",
        whole.ops_per_s,
        whole.p50_us,
        whole.slow_half_us,
        whole.p90_us,
        whole.p99_us,
        whole.cpu_us_per_op
    );
    if let Some(sliced) = &out.sliced {
        println!(
            "quiet_slices {:?} (of {SLICE_SECONDS} s each, by their place in the window)",
            sliced.quiet_slices()
        );
    }
    for note in &out.notes {
        println!("note {note}");
    }
    let gated = gated_window(&out);
    let end_to_end = end_to_end(&gated, &out, median(&setups));
    let traced = if ctx.trace { "traced " } else { "" };
    for (metric, unit, value) in &end_to_end {
        println!("{traced}{metric} {value:.4} {unit}");
    }
    println!("{traced}ungated p90_us {:.4} us", gated.p90_us);
    println!("{traced}ungated p99_us {:.4} us", gated.p99_us);
    let mut correct = true;
    for c in &out.checks {
        println!(
            "check {} {}: {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
        correct &= c.ok;
    }
    if out.failed > 0 {
        println!(
            "check no_failed_operations FAILED: {} of {}",
            out.failed, out.attempted
        );
        correct = false;
    }

    let metrics = if ctx.trace {
        let mut spans = trace::Tracer::disabled();
        out.tracers.iter().for_each(|t| spans.merge_histograms(t));
        print!("{}", spans.summary());
        if let Some(dir) = &args.out {
            let path = dir.join(format!("trace_{name}.json"));
            let drivers: Vec<&trace::Tracer> = out.tracers.iter().collect();
            match std::fs::create_dir_all(dir)
                .and_then(|()| trace::write_json(&path, name, &drivers))
            {
                Ok(()) => println!("spans written to {}", path.display()),
                Err(e) => {
                    eprintln!("jsym-perf: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        // The probes are the same whatever the workload: always on one CPU.
        if let Err(code) = pin() {
            return code;
        }
        let (metrics, report) = probes::all(&out);
        print!("{report}");
        for (metric, unit, value) in &metrics {
            println!("layer {metric} {value:.4} {unit}");
        }
        metrics
    } else {
        end_to_end
    };
    println!("loadavg_1m_end {:.2}", load_average());
    println!("{}", result_json(correct, &out, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
