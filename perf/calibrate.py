#!/usr/bin/env python3
"""Calibration and the per-pair gate.

`calibrate.py BIN PERF_DIR calibrate [runs]` runs every workload `runs` times
(default 10), each run with another seed and the order of the workloads
alternating between passes, and writes baseline/BENCH_13.json: per (workload,
metric) the median, quartiles, min, max, spread (quartile distance / median)
and the pair's own bound, plus the same for the values each run prints beside
its metrics (the window metrics over the whole window, and the ungated
`p90_us` and `p99_us`), and the machine note. One traced run per workload
gives baseline/LAYERS_13.json.

`calibrate.py BIN PERF_DIR check [runs]` measures the same way, writes
out/BENCH_check.json and compares each pair's median with the committed
baseline's: a pair worse by more than its own bound fails the check, unless
its runs spread by more than that bound (then it is unresolved). The
values printed beside the metrics are compared too and fail nothing.

A pair's bound is 3 x its spread, at least 3 %, at most 10 %; a pair whose
3 x spread is above 10 % is marked `"over_ceiling": true` (ISSUE 13 calls that
a defect of the workload). BENCHMARK.json has one bound per metric, which has
to cover the metric's noisiest workload; the rule is printed at the end.

Called by `perf/run.sh calibrate|check [runs]`.
"""
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["rmi_sync_local", "rmi_sync_remote", "rmi_pipelined", "lifecycle", "fig5_cells", "swarm"]
FIRST_SEED = 2000
FLOOR, CEILING = 0.03, 0.10


def run(binary, workload, seed, seconds, trace):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    out = done.stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 else {"correct": False, "failed": 0}
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: failed or incorrect run (exit code {done.returncode})\n{out}\n{done.stderr}")
    record = {k: v["value"] for k, v in result["metrics"].items()}
    whole, extras = {}, {}
    for line in lines:
        words = line.split()
        if words[0] == "whole_window":
            whole.update({words[i]: float(words[i + 1]) for i in range(1, 13, 2)})
        if words[0] == "ungated":
            whole["quiet_" + words[1]] = float(words[2])
        if "harness.stalls" in words:
            extras["harness.stalls"] = int(words[words.index("harness.stalls") + 1])
            extras["latency_samples"] = int(words[words.index("latency_samples") + 1])
        if words[0] == "workload":
            extras["loadavg_1m"] = float(words[words.index("loadavg_1m") + 1])
    return record, whole, extras, {k: v["unit"] for k, v in result["metrics"].items()}


def command_output(*argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med, "values": values}


def measure(binary, perf_dir, runs, seconds):
    note = {
        "nproc": os.cpu_count(),
        "rustc": command_output("rustc", "-V"),
        "commit": command_output("git", "-C", perf_dir, "rev-parse", "HEAD") or "not a git checkout",
        "loadavg_1m_at_start": os.getloadavg()[0],
        "run_seconds": seconds,
        "runs": runs,
        "seeds": [FIRST_SEED + i for i in range(runs)],
    }
    values = {w: {} for w in WORKLOADS}
    wholes = {w: {} for w in WORKLOADS}
    extras = {w: [] for w in WORKLOADS}
    units = {}
    for i in range(runs):
        order = WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]
        for w in order:
            record, whole, extra, units = run(binary, w, FIRST_SEED + i, seconds, 0)
            for metric, value in record.items():
                values[w].setdefault(metric, []).append(value)
            for metric, value in whole.items():
                wholes[w].setdefault(metric, []).append(value)
            extras[w].append(extra)
            print(f"run {i + 1}/{runs} {w}: " + " ".join(f"{m}={v:.4g}" for m, v in record.items()), flush=True)

    pairs = {}
    for w in WORKLOADS:
        pairs[w] = {}
        for metric, vs in values[w].items():
            pair = summary(vs)
            pair["unit"] = units[metric]
            pair["bound"] = min(max(3 * pair["spread"], FLOOR), CEILING)
            pair["over_ceiling"] = 3 * pair["spread"] > CEILING
            pairs[w][metric] = pair
        # The window metrics over the whole window, for comparison with the
        # quietest-slices values above, and the ungated quantiles (quiet_*).
        pairs[w]["_ungated"] = {m: summary(vs) for m, vs in wholes[w].items()}
        pairs[w]["_runs"] = extras[w]
    return {"claim": None, "machine": note, "pairs": pairs}


def metrics_of(pairs, w):
    return {m: p for m, p in pairs[w].items() if not m.startswith("_")}


def calibrate(binary, perf_dir, runs, seconds):
    bench = measure(binary, perf_dir, runs, seconds)
    os.makedirs(os.path.join(perf_dir, "baseline"), exist_ok=True)
    with open(os.path.join(perf_dir, "baseline", "BENCH_13.json"), "w") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")

    layers = {}
    for w in WORKLOADS:
        record, _, _, layer_units = run(binary, w, FIRST_SEED, seconds, 1)
        layers[w] = record
        print(f"traced {w}: {len(record)} per-layer metrics", flush=True)
    with open(os.path.join(perf_dir, "baseline", "LAYERS_13.json"), "w") as f:
        json.dump({"machine": bench["machine"], "units": layer_units, "layers": layers}, f, indent=1)
        f.write("\n")

    pairs = bench["pairs"]
    print("\nspread = (q3 - q1) / median over the runs: quietest slices (whole window)")
    worst = {}
    for w in WORKLOADS:
        cells = []
        for metric, p in metrics_of(pairs, w).items():
            whole = pairs[w]["_ungated"].get(metric)
            cells.append(f"{metric} {p['spread'] * 100:.1f}%" + (f" ({whole['spread'] * 100:.1f}%)" if whole else ""))
            worst[metric] = max(worst.get(metric, 0.0), p["spread"])
        ungated = pairs[w]["_ungated"]
        for q in ("p90_us", "p99_us"):
            if "quiet_" + q in ungated:
                cells.append(f"ungated {q} {ungated['quiet_' + q]['spread'] * 100:.1f}% ({ungated[q]['spread'] * 100:.1f}%)")
        print(f"  {w:16s} " + "  ".join(cells))
    print("\nper metric, over its noisiest workload:")
    for metric, spread in worst.items():
        over = "  ABOVE the 10 % ceiling" if 3 * spread > CEILING else ""
        print(f"  {metric:16s} worst spread {spread * 100:6.2f} %  -> 3 x spread = {3 * spread:.3f}{over}")


def check(binary, perf_dir, runs, seconds):
    with open(os.path.join(perf_dir, "baseline", "BENCH_13.json")) as f:
        base = json.load(f)["pairs"]
    with open(os.path.join(perf_dir, "..", "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    bench = measure(binary, perf_dir, runs, seconds)
    os.makedirs(os.path.join(perf_dir, "out"), exist_ok=True)
    with open(os.path.join(perf_dir, "out", "BENCH_check.json"), "w") as f:
        json.dump(bench, f, indent=1)
        f.write("\n")
    regressions = 0
    for w in WORKLOADS:
        for metric, now in metrics_of(bench["pairs"], w).items():
            was = base[w][metric]
            change = now["median"] / was["median"] - 1
            worse = -change if better[metric] == "higher" else change
            # A pair whose runs spread by more than its bound cannot tell a
            # regression from noise: unresolved, not failed.
            noisy = max(was["spread"], now["spread"]) > was["bound"]
            verdict = "ok"
            if worse > was["bound"] and not noisy:
                verdict = "REGRESSION"
                regressions += 1
            elif noisy:
                verdict = "unresolved (spread above the bound)" + (", and worse by more than it" if worse > was["bound"] else "")
            print(f"{w:16s} {metric:14s} {was['median']:12.4f} -> {now['median']:12.4f} "
                  f"{change * 100:+6.1f} %  bound {was['bound'] * 100:4.1f} %  {verdict}")
        for metric, now in bench["pairs"][w]["_ungated"].items():
            was = base[w]["_ungated"][metric]
            print(f"{w:16s} {metric:14s} {was['median']:12.4f} -> {now['median']:12.4f} "
                  f"{(now['median'] / was['median'] - 1) * 100:+6.1f} %  ungated (spread {was['spread'] * 100:.1f} %)")
    sys.exit(1 if regressions else 0)


def main():
    binary, perf_dir, mode = sys.argv[1], sys.argv[2], sys.argv[3]
    runs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
    with open(os.path.join(perf_dir, "..", "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    {"calibrate": calibrate, "check": check}[mode](binary, perf_dir, runs, seconds)


if __name__ == "__main__":
    main()
