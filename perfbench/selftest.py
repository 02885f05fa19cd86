#!/usr/bin/env python3
"""Self-test of the benchmark itself, at a tiny size (about a minute).

    python3 perfbench/selftest.py

Checks, failing loudly on the first problem class found:
  - every workload, with --trace 0 and --trace 1, reports correct=true,
    attempted >= 1, and emits exactly the metrics BENCHMARK.json names for
    that mode, each finite and with the unit BENCHMARK.json gives;
  - no workload compares zero rows: every end-to-end metric is non-zero on
    every workload, and each of the eight layers has a per-layer metric
    that is non-zero on at least one workload;
  - the traced run's "little work" predictions hold;
  - no committed benchmark file matches the repository's ignore rules
    (skipped outside a git work tree).
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layer of a per-layer metric, by name prefix (the repository's modules).
LAYERS = {
    "sim": ("sim.", "net.", "queue.net_", "prof.sim.", "prof.net."),
    "wire": ("prof.wire.",),
    "gcs": ("gcs.", "prof.gcs.", "monitor.failover"),
    "db": ("db.", "queue.lock_", "prof.db."),
    "core": ("core.", "client.", "crit.", "prof.core."),
    "check": ("check.", "prof.check."),
    "explore": ("explore.",),
    "obs": ("obs.", "trace."),
}

errors = []


def error(msg):
    errors.append(msg)
    print("FAIL: " + msg)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    out = proc.stdout.decode()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        error(f"{workload} trace {trace}: exit {proc.returncode}")
        return None, out
    return json.loads(lines[-1]), out


def check_result(workload, trace, result, specs):
    tag = f"{workload} trace {trace}"
    if result["correct"] is not True:
        error(f"{tag}: correct is not true")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        error(f"{tag}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        error(f"{tag}: attempted/failed must be whole numbers, attempted >= 1")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        error(f"{tag}: missing {sorted(set(want) - set(got))}, "
              f"unexpected {sorted(set(got) - set(want))}")
    for name, m in got.items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            error(f"{tag}: {name} is not a finite number")
        if m.get("unit") != want.get(name):
            error(f"{tag}: {name} has unit {m.get('unit')!r}, BENCHMARK.json says "
                  f"{want.get(name)!r}")
        if trace == 0 and v == 0:
            error(f"{tag}: end-to-end metric {name} is 0")


def check_ignored(bench):
    files = ["BENCHMARK.json"]
    for top in bench["paths"]:
        for d, _, names in os.walk(os.path.join(ROOT, top)):
            files += [os.path.relpath(os.path.join(d, n), ROOT) for n in names
                      if "__pycache__" not in d]
    probe = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    if probe.returncode != 0:
        print("skip: not a git work tree, ignore rules not checked")
        return
    proc = subprocess.run(["git", "check-ignore", "--no-index", "--stdin"], cwd=ROOT,
                          input="\n".join(files).encode(), stdout=subprocess.PIPE)
    ignored = proc.stdout.decode().split()
    if ignored:
        error(f"benchmark files match the ignore rules: {ignored}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_ignored(bench)
    nonzero_layers = set()
    for w in (w["name"] for w in bench["workloads"]):
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, out = run(w, trace)
            if result is None:
                continue
            check_result(w, trace, result, specs)
            if trace == 1:
                for line in out.splitlines():
                    if line.startswith("prediction:") and line.endswith("FAILS"):
                        error(f"{w}: {line}")
                for name, m in result["metrics"].items():
                    if m["value"] != 0:
                        nonzero_layers.update(
                            layer for layer, prefixes in LAYERS.items()
                            if name.startswith(prefixes))
            print(f"ok: {w} trace {trace}: {len(result['metrics'])} metrics")
    unmapped = [m["name"] for m in bench["per_layer"]
                if not any(m["name"].startswith(p) for ps in LAYERS.values() for p in ps)]
    if unmapped:
        error(f"per-layer metrics with no layer: {unmapped}")
    if nonzero_layers != set(LAYERS):
        error(f"layers with only zero metrics: {sorted(set(LAYERS) - nonzero_layers)}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
