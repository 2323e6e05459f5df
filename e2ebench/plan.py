"""Workload inputs, generated from the workload seed.

Every input the driver uses comes from here: the same (workload, seed)
always gives the same plan, and the driver receives only the plan.

Each workload is a fixed unit of work the driver repeats in passes
until the time is up: the sweep's points, the rank's op list (replayed
from the same rank image) and the trial list. Equal work every pass
lets the timed metrics take the median of each item's repetitions,
which a busy shared host moves least, and lets every repetition be
checked against the first.
"""

import random

WORKLOADS = ("perf_sweep", "rank_service", "ras_lifecycle")

TECHS = ("reram", "pcm")
WHISPER_POINTS = ("echo", "ycsb", "hashmap", "btree")
SPLASH_POINTS = ("ocean", "radix")
RAS_PLANS = ("transient", "intermittent", "progressive", "chip-kill")
SPARE_PLANS = ("rebuild", "repair")

# ThreadPool workers the driver runs with (NVCK_JOBS). Only
# rank_service's boot scrub uses the pool; it is pinned to one worker
# too, because a two-worker scrub on a shared host varied by +-15%
# between runs.
POOL_WORKERS = 1

# Highest percentile of op latency printed per workload: the highest of
# p99/p90/p75 with at least ten samples beyond it in a normal run.
TAIL_PERCENTILE = {"perf_sweep": 75, "rank_service": 99, "ras_lifecycle": 90}

# benchRunControl(1.0): 30 us warmup, 100 us measured, 2.5 us occupancy
# samples; caches start empty and statistics start after the warmup.
WARMUP_NS, MEASURE_NS, SAMPLE_NS = 30000, 100000, 2500

# Passes every run completes, however slow the host: each item then has
# at least this many repetitions, and each tail percentile at least ten
# samples beyond it (test_plan checks this).
MIN_PASSES = {"perf_sweep": 3, "rank_service": 3, "ras_lifecycle": 5}

RAS_ROUNDS = 2  # trial rounds in the list; a pass runs the whole list

# Ops in rank_service's list, replayed once per pass (~0.3 s of work).
RANK_PASS_OPS = 20000

# rank_service's set-up + boot-scrub repetitions, spread through the
# run (~0.25 s each): enough for a median that one slow moment of the
# host does not move.
RANK_REPS = 25

# rank_service's access skew: the hot set of the library's own Zipf
# approximation (zipfHotFraction / zipfHotProb in
# src/workload/synthetic.cc), 80% of accesses to 1% of the blocks.
HOT_FRAC, HOT_SHARE = 0.01, 0.8


def _rng(workload, seed):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return random.Random(f"{workload}/{seed}")


def _seed(rng):
    return rng.getrandbits(63) | 1


def make_plan(workload, seed):
    """Return the plan as a list of (key, values...) tuples."""
    rng = _rng(workload, seed)
    lines = [("workload", workload)]
    if workload == "perf_sweep":
        lines += [("warmup_ns", WARMUP_NS), ("measure_ns", MEASURE_NS),
                  ("sample_ns", SAMPLE_NS)]
        for tech in TECHS:
            for name in WHISPER_POINTS + SPLASH_POINTS:
                lines.append(("point", tech, name, _seed(rng)))
    elif workload == "rank_service":
        # 1 MiB of data: on a shared host a 4 MiB rank's scrub time
        # varied by +-12% within one run, this size's by +-3%.
        lines += [("rank_blocks", 16384), ("rank_seed", _seed(rng)),
                  ("reps", RANK_REPS), ("outage_seed", _seed(rng)),
                  ("outage_rber", 1e-3),
                  ("failed_chip", rng.randrange(8)),
                  ("runtime_seed", _seed(rng)),
                  ("runtime_rber", 2e-4), ("op_seed", _seed(rng)),
                  ("pass_ops", RANK_PASS_OPS), ("samples", 50000),
                  ("sample_seed", _seed(rng)), ("read_frac", 0.7),
                  ("hot_frac", HOT_FRAC), ("hot_share", HOT_SHARE)]
    else:
        kinds = [("ras", p) for p in RAS_PLANS] + \
                [("spare", p) for p in SPARE_PLANS]
        lines += [("rank_blocks", 1024), ("rank_seed", _seed(rng)),
                  ("round_size", len(TECHS) * len(kinds))]
        for _ in range(RAS_ROUNDS):
            for tech in TECHS:
                for kind, name in kinds:
                    lines.append(("trial", kind, tech, name, _seed(rng)))
    lines.append(("min_passes", MIN_PASSES[workload]))
    return lines


def render(lines):
    """The plan file the driver reads: one 'key values...' per line."""
    return "".join(" ".join(str(v) for v in line) + "\n" for line in lines)
