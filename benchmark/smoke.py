#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 benchmark/smoke.py

For every workload in BENCHMARK.json it runs ``run.py --tiny`` untraced and
traced and checks that the last output line has exactly the contract keys,
that every metric named in BENCHMARK.json is present with its unit, that no
call failed, and that both runs report identical quality metrics and
iteration counts. It then checks that the benchmark refuses to run, without
printing a result, from a directory that holds only BENCHMARK.json and the
benchmark's own files. Exits 0 when every check passes.
"""

import json
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def tagged(stdout, tag):
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise AssertionError(f"no '{tag}' line in output")


def check_result(proc, names, errors, label):
    if proc.returncode != 0:
        errors.append(f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(names):
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(names) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(names))}")
    for name, unit in names.items():
        entry = metrics.get(name)
        if entry is not None and (entry.get("unit") != unit
                                  or not isinstance(entry.get("value"), (int, float))):
            errors.append(f"{label}: metric {name} is {entry}, unit should be {unit}")


def main():
    errors = []
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain, traced = run(ROOT, workload, 0), run(ROOT, workload, 1)
        check_result(plain, e2e, errors, f"{workload} --trace 0")
        check_result(traced, layers, errors, f"{workload} --trace 1")
        if plain.returncode == 0 and traced.returncode == 0:
            for tag in ("quality", "counts"):
                if tagged(plain.stdout, tag) != tagged(traced.stdout, tag):
                    errors.append(f"{workload}: {tag} differ between traced and untraced runs")
        print(f"{workload}: checked")

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: checked")

    for e in errors:
        print("FAIL", e)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
