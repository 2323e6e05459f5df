#!/usr/bin/env python3
"""End-to-end benchmark of the nvchipkill library.

    python3 e2ebench/run.py --workload perf_sweep|rank_service|ras_lifecycle
                            --seed N --seconds S --trace 0|1

Run from the repository root. Builds the driver (e2ebench/driver.cc plus
the library sources in src/) into .bench_build/e2ebench, generates the
workload's inputs from --seed, runs the driver for --seconds, checks
its outputs and prints a report. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Exits non-zero when the build fails or a check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import metrics  # noqa: E402
import plan as planlib  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=planlib.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build(build_dir):
    """Configure once, then (re)build the driver; returns its path."""
    src = HERE
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "nvck_e2ebench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "nvck_e2ebench")


def driver_env():
    """The caller's environment minus every library knob, plus the pin."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NVCK_")}
    env["NVCK_JOBS"] = str(planlib.POOL_WORKERS)
    return env


def run_driver(exe, args, plan_lines, run_dir):
    """Run the driver to completion; returns its output document."""
    os.makedirs(run_dir, exist_ok=True)
    stem = os.path.join(run_dir, f"{args.workload}-{args.seed}-{args.trace}")
    with open(stem + ".plan", "w") as f:
        f.write(planlib.render(plan_lines))
    cmd = [exe, "--plan", stem + ".plan", "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", stem + ".json"]
    if args.trace:
        cmd += ["--spans", stem + ".spans.jsonl"]
    code = subprocess.run(cmd, env=driver_env()).returncode
    if code != 0:
        raise RuntimeError(f"driver exited with {code}")
    with open(stem + ".json") as f:
        return json.load(f)


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    out_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                 ".bench_build"), "e2ebench")
    try:
        exe = build(os.path.join(out_root, "build"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 1

    plan_lines = planlib.make_plan(args.workload, args.seed)
    try:
        doc = run_driver(exe, args, plan_lines,
                         os.path.join(out_root, "runs"))
        res = metrics.analyze(doc, args.workload)
    except (RuntimeError, OSError, ValueError,
            benchstats.SampleError) as e:
        print(f"e2ebench: {args.workload} seed {args.seed}: {e}",
              file=sys.stderr)
        return 1
    rss_mb = doc["peak_rss_kb"] / 1024.0
    res.e2e["peak_rss_mb"] = rss_mb

    print(f"== e2ebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"pool_workers={doc['pool_workers']} ==")
    print(f"  peak_rss_mb = {rss_mb:.6g} MB")
    for line in res.lines:
        print(line)
    for problem in res.problems:
        print(f"  FAILED: {problem}")

    if args.trace:
        units = metrics.LAYER_UNITS
        values = res.layer
    else:
        units = metrics.E2E_UNITS
        values = res.e2e
    out = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(out))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
