"""Self-tests for metric assembly and the correctness checks, on
synthetic driver output (no build needed)."""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import metrics  # noqa: E402
import plan  # noqa: E402

RUN_KEYS = ("ipc", "perf", "c_factor", "omv_hit_rate", "dirty_pm_frac",
            "pm_reads", "pm_writes", "dram_reads", "dram_writes",
            "overhead_reads", "overhead_writes", "vlew_fetches",
            "old_data_fetches", "read_latency_ns", "write_latency_ns",
            "row_hit_rate")
REPLICA_KEYS = ("l1_hits", "l1_misses", "llc_hits",
                "llc_misses", "clean_ops", "clean_nops",
                "instructions_window", "instructions_total",
                "events_window", "events_total", "requests_window")


def perf_doc(traced):
    def point(k, i, tech, wl):
        # Pass 1 is twice as fast as pass 0 and pass 2 twice as slow:
        # pass 0 holds each call's median.
        slow = (1.0, 0.5, 2.0)[k]
        pt = {"tech": tech, "workload": wl, "digest": f"d{i}",
              "baseline_s": 0.01 * (i + 1) * slow,
              "proposal_s": 0.02 * (i + 1) * slow,
              "events": 1000 + i, "overflow": 10, "peak_pending": 7,
              "freq_ghz": 3.0, "cores": 4,
              "baseline": {k: 2.0 for k in RUN_KEYS},
              "proposal": {k: 1.0 for k in RUN_KEYS}}
        if traced and k == 0:
            pt["replica"] = {key: 5 for key in REPLICA_KEYS}
            pt["replica"]["match"] = True
        return pt

    names = [(t, w) for t in plan.TECHS
             for w in plan.WHISPER_POINTS + plan.SPLASH_POINTS]
    phase = {"setup_s": [0.001] * 3, "passes": [
        {"wall_s": (2.5, 1.5, 4.0)[k],
         "points": [point(k, i, t, w) for i, (t, w) in enumerate(names)]}
        for k in range(3)]}
    return doc_of(phase, traced)


def rank_doc(traced):
    scrub = {"seconds": 0.5, "ok": True, "digest": "s", "vlews_scanned": 90,
             "vlews_dirty": 45, "bits_corrected": 100, "chips_rebuilt": 1}
    paths = {k: {"count": 1, "us_sum": 2.0}
             for k in ("clean", "rs", "vlew", "chip_recovered", "failed")}
    phase = {"setup_s": [0.1] * 3,
             "scrubs": [dict(scrub, seconds=s) for s in (0.9, 0.5, 0.3)],
             "rank_bytes": 4 << 20, "outage_bits_flipped": 9,
             "passes": [{"wall_s": w, "reads": 2000, "writes": 1000,
                         "read_us_sum": 2000 * r, "write_us_sum": 1000 * 85.0,
                         "digest": "r"}
                        for w, r in ((0.4, 2.5), (0.3, 2.0), (0.5, 3.0))],
             "read_us": [1.0 + i / 1000 for i in range(2000)],
             "write_us": [80.0 + i / 100 for i in range(1000)],
             "read_sdc": 0, "read_ue": 0, "read_paths": paths}
    return doc_of(phase, traced)


def ras_doc(traced):
    kinds = plan.RAS_PLANS + plan.SPARE_PLANS
    trials = [{"kind": "ras", "tech": "reram", "plan": kinds[i % 6],
               "ms": 10.0 + i % 24 + 3 * (i // 24), "events": 1000,
               "overflow": 3, "peak_pending": 9, "digest": f"t{i % 24}",
               "patrol_bursts": 2,
               "patrol_yields": 1, "demand_reads": 5, "demand_writes": 2,
               "vlew_fallbacks": 0, "migrated": 0, "rebuilt_blocks": 0,
               "missed": 0, "violations": 0} for i in range(120)]
    # Pass 1 is the fastest of 5 passes over 24 trials; each trial's
    # median is in pass 2.
    for t in trials[24:48]:
        t["ms"] -= 5.0
    return doc_of({"setup_s": [0.002] * 10, "trials": trials,
                   "pass_s": [3.0, 2.5, 2.4, 3.5, 4.0],
                   "list_size": 24, "round_size": 12}, traced)


def doc_of(phase, traced):
    phases = [phase]
    if traced:
        phases.append(copy.deepcopy(phase))
    return {"pool_workers": 1, "peak_rss_kb": 1024, "phases": phases}


DOCS = {"perf_sweep": perf_doc, "rank_service": rank_doc,
        "ras_lifecycle": ras_doc}


def analyze(workload, doc):
    return metrics.analyze(doc, workload)


class CoverageTest(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        for w, make in DOCS.items():
            res = analyze(w, make(False))
            res.e2e["peak_rss_mb"] = 1.0  # run.py adds it
            self.assertEqual(set(res.e2e), set(metrics.E2E_UNITS), w)
            self.assertEqual(res.failed, 0, w)
            for name, value in res.e2e.items():
                self.assertGreater(value, 0, f"{w} {name}")
            traced = analyze(w, make(True))
            self.assertEqual(set(traced.layer), set(metrics.LAYER_UNITS), w)
            self.assertEqual(traced.failed, 0, w)

    def test_ops_take_each_items_median_repetition(self):
        res = analyze("ras_lifecycle", ras_doc(False))
        medians = [t["ms"] for t in ras_doc(False)["phases"][0]["trials"]
                   [48:72]]
        light = [m for i, m in enumerate(medians) if i % 6 < 3]
        self.assertAlmostEqual(res.e2e["light_op_ms"],
                               sum(light) / len(light))
        self.assertAlmostEqual(res.e2e["batch_s"], sum(medians) / 2e3)
        res = analyze("rank_service", rank_doc(False))
        self.assertAlmostEqual(res.e2e["light_op_ms"], 0.0025)
        self.assertAlmostEqual(res.e2e["heavy_op_ms"], 0.085)
        self.assertAlmostEqual(res.e2e["batch_s"], 0.5)
        res = analyze("perf_sweep", perf_doc(False))
        self.assertAlmostEqual(res.e2e["batch_s"],
                               sum(0.03 * (i + 1) for i in range(12)))

    def test_ops_per_s_is_over_the_median_pass_wall_time(self):
        # Ops in one pass over the median wall time of a pass, not
        # over the summed time of the calls themselves.
        res = analyze("perf_sweep", perf_doc(False))
        self.assertAlmostEqual(res.e2e["ops_per_s"], 24 / 2.5)
        res = analyze("ras_lifecycle", ras_doc(False))
        self.assertAlmostEqual(res.e2e["ops_per_s"], 24 / 3.0)
        res = analyze("rank_service", rank_doc(False))
        self.assertAlmostEqual(res.e2e["ops_per_s"], 3000 / 0.4)


class FailureTest(unittest.TestCase):
    def test_point_that_changes_between_passes_fails(self):
        doc = perf_doc(False)
        doc["phases"][0]["passes"][2]["points"][3]["digest"] = "other"
        res = analyze("perf_sweep", doc)
        self.assertEqual((res.failed, res.attempted), (1, 36))

    def test_serve_pass_or_trial_that_changes_fails(self):
        doc = rank_doc(False)
        doc["phases"][0]["passes"][1]["digest"] = "other"
        self.assertEqual(analyze("rank_service", doc).failed, 1)
        doc = ras_doc(False)
        doc["phases"][0]["trials"][30]["digest"] = "other"
        self.assertEqual(analyze("ras_lifecycle", doc).failed, 1)

    def test_traced_digest_or_replica_mismatch_fails(self):
        doc = perf_doc(True)
        doc["phases"][1]["passes"][0]["points"][0]["digest"] = "other"
        doc["phases"][1]["passes"][0]["points"][1]["replica"]["match"] = False
        self.assertEqual(analyze("perf_sweep", doc).failed, 2)

    def test_bad_reads_and_scrubs_fail(self):
        doc = rank_doc(False)
        doc["phases"][0]["read_sdc"] = 2
        doc["phases"][0]["read_ue"] = 1
        doc["phases"][0]["scrubs"][1]["ok"] = False
        self.assertEqual(analyze("rank_service", doc).failed, 4)
        traced = rank_doc(True)
        traced["phases"][1]["passes"][2]["digest"] = "other"
        self.assertEqual(analyze("rank_service", traced).failed, 1)
        traced = rank_doc(True)
        traced["phases"][1]["scrubs"][0]["digest"] = "other"
        self.assertEqual(analyze("rank_service", traced).failed, 1)

    def test_violating_or_missed_trial_fails(self):
        doc = ras_doc(False)
        doc["phases"][0]["trials"][5]["violations"] = 1
        doc["phases"][0]["trials"][6]["missed"] = 1
        res = analyze("ras_lifecycle", doc)
        self.assertEqual(res.failed, 2)
        self.assertIn("error_rate = 0.0166667  (2 / 120)",
                      "\n".join(res.lines))


if __name__ == "__main__":
    unittest.main()
