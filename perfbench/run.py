#!/usr/bin/env python3
"""Builds the perfbench binary from source, runs one workload, prints the result.

    python3 perfbench/run.py --workload batch-bio --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. The build lives in .bench_build/perfbench; the
full report of every run is kept in .bench_build/reports and a traced run's
spans in .bench_build/traces. The last line of standard output is one JSON
object: correct, attempted, failed, and the metrics BENCHMARK.json lists,
end-to-end ones when --trace is 0 and per-layer ones when it is 1. The exit
code is non-zero when the build fails, a listed metric is missing, or any
answer was wrong. `--workload all` runs every workload in turn, each ending
with its own result line.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(env):
    cmake_dir = BUILD / "perfbench"
    if not (cmake_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(cmake_dir), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, env=env)
    return cmake_dir / "perfbench"


def commit_id():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def overhead_lines(report, untraced_path):
    """Traced end-to-end figures against the untraced run of the same seed."""
    if not untraced_path.exists():
        return ["trace overhead: no untraced run of this workload and seed to compare"]
    base = {m["name"]: m for m in json.loads(untraced_path.read_text())["end_to_end"]}
    lines = ["trace overhead (traced vs untraced, same seed):"]
    for m in report["end_to_end"]:
        b = base.get(m["name"])
        if b and b["value"]:
            lines.append("  %-22s %12.6g -> %12.6g %s (%+.1f%%)" % (
                m["name"], b["value"], m["value"], m["unit"],
                100.0 * (m["value"] - b["value"]) / b["value"]))
    return lines


def run_workload(binary, env, spec, args, workload, start):
    """Runs one workload, prints its summary and result line; returns the exit code."""
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    tag = "%s-seed%d" % (workload, args.seed)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id()]
    if args.trace:
        cmd += ["--trace-out", str(BUILD / "traces" / (tag + ".csv"))]
    remaining = max(10.0, DEADLINE_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %.0f s" % (workload, remaining))
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"report"'):
        log("perfbench: no report (exit code %d)" % proc.returncode)
        return 1
    report = json.loads(lines[-1])["report"]
    report_path = BUILD / "reports" / ("%s-trace%d.json" % (tag, args.trace))
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    measured = {m["name"]: m for m in
                report["per_layer" if args.trace else "end_to_end"]}
    metrics = {}
    for want in wanted:
        got = measured.get(want["name"])
        if got is None or got["value"] is None or got["unit"] != want["unit"]:
            log("perfbench: metric %s missing or in the wrong unit" % want["name"])
            return 1
        metrics[want["name"]] = {"value": got["value"], "unit": got["unit"]}

    print("workload %s, seed %d, %d s, trace %d; report: %s" % (
        workload, args.seed, args.seconds, args.trace,
        report_path.relative_to(ROOT)))
    print("attempted %d, failed %d (fail_frac %.6g), correct %s" % (
        report["attempted"], report["failed"], report["fail_frac"], report["correct"]))
    for problem in report["problems"]:
        print("  problem: " + problem)
    for m in report["end_to_end"] + report["per_layer"]:
        samples = "" if m.get("samples", -1) < 0 else " n=%d" % m["samples"]
        print("  %-34s %14.6g %-6s (%s is better)%s" % (
            m["name"], m["value"] if m["value"] is not None else float("nan"),
            m["unit"], m["better"], samples))
    for a in report["absent"]:
        print("  %-34s absent: %s" % (a["name"], a["reason"]))
    if args.trace:
        for line in overhead_lines(report, BUILD / "reports" / (tag + "-trace0.json")):
            print(line)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if report["correct"] and proc.returncode == 0 else 1


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    help="a workload named in BENCHMARK.json, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        ap.error("unknown workload %r (have %s, or all)" % (args.workload, ", ".join(names)))

    for sub in ("tmp", "reports", "traces"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    if args.workload != "all":
        return run_workload(binary, env, spec, args, args.workload, start)
    code = 0
    for workload in names:
        code |= run_workload(binary, env, spec, args, workload, time.monotonic())
    return code


if __name__ == "__main__":
    sys.exit(main())
