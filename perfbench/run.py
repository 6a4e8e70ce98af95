#!/usr/bin/env python3
"""Build the benchmark binary and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload wiki_extract --seed 1 --seconds 10 --trace 0

The binary is built from source with cargo (offline) into
$CARGO_TARGET_DIR, default `.bench_build`. Its report lines are passed
through, followed by a `host` line (CPU model, nproc, rustc version, git
sha, and the share of CPU time the hypervisor stole during the run) and,
last, the result object as one JSON line. The exit code is 0
when a result was printed and non-zero when the build or the run failed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("wiki_extract", "fleet_requery", "edit_stream", "serve_mix")
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_ticks():
    """Aggregate CPU tick counters from /proc/stat (None when absent)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU ticks the hypervisor stole between two samples: a
    high value marks a run slowed by other tenants of the host."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return round(delta[7] / max(1, sum(delta)), 4)


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_sha": command_output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    ticks = cpu_ticks()
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    host = host_fingerprint()
    host["steal_share"] = steal_share(ticks, cpu_ticks())
    print("host " + json.dumps(host))
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
