"""Self-tests for seed plumbing: --seed -> plan -> driver inputs."""

import json
import os
import sys
import unittest

HERE = os.path.dirname(__file__)
sys.path.insert(0, os.path.join(HERE, ".."))

import benchstats  # noqa: E402
import metrics  # noqa: E402
import plan  # noqa: E402
import run  # noqa: E402


def seeds_of(lines):
    return [v for line in lines for v in line[1:]
            if isinstance(v, int) and v > 1 << 32]


def shape_of(lines):
    return [tuple(v for v in line if not (isinstance(v, int) and v > 1 << 32))
            for line in lines]


class PlanTest(unittest.TestCase):
    def test_same_seed_same_plan(self):
        for w in plan.WORKLOADS:
            self.assertEqual(plan.render(plan.make_plan(w, 7)),
                             plan.render(plan.make_plan(w, 7)))

    def test_seed_changes_inputs_not_shape(self):
        for w in plan.WORKLOADS:
            a, b = plan.make_plan(w, 1), plan.make_plan(w, 2)
            self.assertNotEqual(seeds_of(a), seeds_of(b))
            if w != "rank_service":  # its dead chip is drawn too
                self.assertEqual(shape_of(a), shape_of(b))

    def test_workloads_do_not_share_seeds(self):
        all_seeds = [s for w in plan.WORKLOADS
                     for s in seeds_of(plan.make_plan(w, 3))]
        self.assertEqual(len(all_seeds), len(set(all_seeds)))

    def test_plan_generation_is_pinned(self):
        # Changing these changes every input the benchmark feeds the
        # library, so the baseline must be measured again.
        lines = plan.make_plan("perf_sweep", 2018)
        self.assertIn(("point", "reram", "echo", 5124602004230229367),
                      lines)
        lines = plan.make_plan("ras_lifecycle", 2018)
        self.assertIn(("trial", "ras", "reram", "transient",
                       3727020150566701445), lines)
        lines = plan.make_plan("rank_service", 2018)
        self.assertIn(("rank_seed", 8612197787124893795), lines)

    def test_issue_coverage(self):
        points = {(l[1], l[2]) for l in plan.make_plan("perf_sweep", 0)
                  if l[0] == "point"}
        for tech in ("reram", "pcm"):
            for wl in ("echo", "ycsb", "hashmap", "btree", "ocean", "radix"):
                self.assertIn((tech, wl), points)
        kinds = {(l[1], l[3]) for l in plan.make_plan("ras_lifecycle", 0)
                 if l[0] == "trial"}
        self.assertEqual(len(kinds), 6)

    def test_work_floor_leaves_enough_beyond_tail(self):
        # The least work a run does, however slow the host, must still
        # give its tail percentile MIN_BEYOND samples beyond it, and
        # each item at least three repetitions to take the median of.
        def floor(workload, per_pass):
            lines = plan.make_plan(workload, 0)
            passes = dict((l[0], l[1:]) for l in lines)["min_passes"][0]
            self.assertGreaterEqual(passes, 3)
            n = passes * per_pass(lines)
            tail = plan.TAIL_PERCENTILE[workload]
            p = benchstats.percentile([float(i) for i in range(n)], tail)
            self.assertGreaterEqual(p.beyond, benchstats.MIN_BEYOND)

        floor("ras_lifecycle", lambda ls: sum(l[0] == "trial" for l in ls))
        floor("perf_sweep", lambda ls: 2 * sum(l[0] == "point" for l in ls))
        # Writes are the rarer rank op: 30% of a pass, less slack.
        floor("rank_service", lambda ls: plan.RANK_PASS_OPS // 4)

    def test_bad_seed_or_workload_rejected(self):
        with self.assertRaises(ValueError):
            plan.make_plan("perf_sweep", -1)
        with self.assertRaises(ValueError):
            plan.make_plan("nope", 1)

    def test_render_is_one_line_per_entry(self):
        lines = plan.make_plan("rank_service", 5)
        text = plan.render(lines)
        self.assertEqual(text.count("\n"), len(lines))
        self.assertTrue(text.startswith("workload rank_service\n"))


class RunPlumbingTest(unittest.TestCase):
    def test_args_reach_the_plan(self):
        args = run.parse_args(["--workload", "ras_lifecycle", "--seed", "42",
                               "--seconds", "3", "--trace", "1"])
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace),
                         ("ras_lifecycle", 42, 3, 1))

    def test_bad_args_rejected(self):
        for bad in (["--workload", "x", "--seed", "1", "--seconds", "1",
                     "--trace", "0"],
                    ["--workload", "perf_sweep", "--seed", "-1",
                     "--seconds", "1", "--trace", "0"],
                    ["--workload", "perf_sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "2"]):
            with self.assertRaises(SystemExit):
                run.parse_args(bad)

    def test_driver_env_drops_knobs_and_pins_pool(self):
        os.environ["NVCK_CODEC_KERNEL"] = "scalar"
        try:
            env = run.driver_env()
        finally:
            del os.environ["NVCK_CODEC_KERNEL"]
        self.assertNotIn("NVCK_CODEC_KERNEL", env)
        self.assertEqual(env["NVCK_JOBS"], str(plan.POOL_WORKERS))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        path = os.path.join(HERE, "..", "..", "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(plan.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
