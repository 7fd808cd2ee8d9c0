#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 benchmark/steadiness.py --runs 10 [--sets 2] [--workloads msc_solve ...]
        [--first-seed 101] [--out benchmark/out/steadiness.json]

Runs the BENCHMARK.json command untraced once per workload, set and seed,
one run at a time, with the file's ``run_seconds``. The sets of a workload
run back to back on the same seeds before the next workload starts, so
each workload's sets are minutes apart, not the length of a whole set.
For every set and metric it reports the median, the first and third
quartiles (``statistics.quantiles(n=4)``) and the spread
``(q3 - q1) / median``, next to a third of the metric's bound; with two or
more sets, also each later set's median change against the first set.
Every run's parsed result line and provenance are written to ``--out``.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_set(workload, seeds, label):
    runs = []
    for seed in seeds:
        cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        tagged = {x.split(" ", 1)[0]: json.loads(x.split(" ", 1)[1]) for x in lines
                  if x.split(" ", 1)[0] in ("table", "quality", "counts", "provenance")}
        runs.append({"seed": seed, "wall_s": wall, "result": result, **tagged})
        print(f"{workload} {label} seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    return runs


def summarize(runs, bounds):
    # the JSON result's metrics, then the readable table's
    series = {name: [r["result"]["metrics"][name]["value"] for r in runs]
              for name in runs[0]["result"]["metrics"]}
    for name in runs[0]["table"]:
        series.setdefault(name, [r["table"][name]["value"] for r in runs])
    summary = {}
    for name, values in series.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else None,
                         "bound": bounds.get(name)}
    return summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--out", default=str(BENCH_DIR / "out" / "steadiness.json"))
    args = ap.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    record = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            runs = run_set(workload, seeds, f"set {k + 1}")
            sets.append({"runs": runs, "summary": summarize(runs, bounds)})
        record["workloads"][workload] = sets
        first = sets[0]["summary"]
        for k, s in enumerate(sets):
            print(f"\n{workload} set {k + 1}: {'metric':28s} {'median':>12s} {'q1':>12s} "
                  f"{'q3':>12s} {'spread':>8s} {'bound/3':>8s} {'change':>8s}")
            for name, m in s["summary"].items():
                spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
                third = "" if m["bound"] is None else f"{m['bound'] / 3:.4f}"
                base = first[name]["median"]
                change = f"{m['median'] / base - 1:+.4f}" if k and base else ""
                print(f"{'':{len(workload) + 8}s}{name:28s} {m['median']:12.6g} "
                      f"{m['q1']:12.6g} {m['q3']:12.6g} {spread:>8s} {third:>8s} {change:>8s}")
        print(flush=True)
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
