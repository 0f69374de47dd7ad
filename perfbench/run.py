#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The harness (perfbench/harness) is
built from source with cargo, offline, into $CARGO_TARGET_DIR
(default: .bench_build). Standard output ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. The line before it
records the host and the run's arguments, so that `compare.py` can
pair runs and flag comparisons made across hosts.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARNESS = ROOT / "perfbench" / "harness"
REFS = ROOT / "perfbench" / "refs"
WORKLOADS = ("figure_sweep", "metro_torus", "campaign_journal", "reconfig_transient")
# A run ends well inside the three minutes a run is allowed.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def host_fingerprint():
    """CPU count, model, cache sizes and kernel of the machine."""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "l2": caches.get("L2", ""),
        "l3": caches.get("L3", ""),
        "kernel": platform.release(),
    }


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HARNESS / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"run.py: building the harness failed (exit {done.returncode})")
    return target / "release" / "gprs-perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        raise SystemExit("run.py: --seed must be >= 0 and --seconds in 1..120")

    binary = build()
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--refs", str(REFS),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: the harness did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"run.py: the harness printed no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"run.py: metrics do not match BENCHMARK.json: {sorted(set(got) ^ set(want))}")

    header = {
        "host": host_fingerprint(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps(header))
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
