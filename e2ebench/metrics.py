"""Turn the driver's raw measurements into the benchmark's metrics.

analyze() returns a Result: the end-to-end metrics (from the untraced
phase), the per-layer metrics (from the traced phase, when there is
one), the correctness tally, and the human-readable report lines.

Every end-to-end metric is defined on every workload, over that
workload's own unit of work (an "op", light or heavy) and batch job:

  workload       light op      heavy op              batch
  perf_sweep     runBaseline   runProposal           every point once
  rank_service   readBlock     writeBlock            one boot scrub
  ras_lifecycle  transient,    chip-kill, rebuild,   one round of all
                 intermittent, repair trials         trials
                 progressive trials

The driver repeats the same work in passes (see plan.py), and the timed
metrics take the median over each item's repetitions. On a shared host
other tenants slow the same code by up to twice, in bursts of a
fraction of a second to minutes; a median over many repetitions
spread through the run moves with that least: on the same eight
30-second rank_service runs the spread (IQR / median) of each timed
metric was 6-15% with medians and 11-25% with each item's fastest
repetition. setup_s is the median of its repetitions too.

  light_op_ms, heavy_op_ms  mean over the class's items of each item's
                            median time (rank_service: the class mean
                            of the median pass)
  batch_s                   sum of the batch's items' median times
                            (rank_service: the median boot scrub)
  ops_per_s                 ops in one pass / median wall time of a
                            pass, set-ups and spread scrubs left out

Percentiles are printed over every repetition, with their sample
counts, but are not bounded: over the sweep's calls, whose host times
span 100x between points, a percentile lands on a different point from
seed to seed.

A layer a workload does not run reports 0 for its per-layer metrics.
"""

from collections import defaultdict

from benchstats import median, percentile, ratio
from plan import (MEASURE_NS, RAS_PLANS, SPARE_PLANS, TAIL_PERCENTILE,
                  TECHS)

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "batch_s": "s",
    "ops_per_s": "1/s",
    "light_op_ms": "ms",
    "heavy_op_ms": "ms",
}

LAYER_UNITS = {
    "error_rate": "ratio",
    "trace.overhead_frac": "ratio",
    "sim.run_s": "s",
    "sim.mips.reram": "Minstr/s",
    "sim.mips.pcm": "Minstr/s",
    "sim.vlew_fetch_frac": "ratio",
    "sim.old_data_fetch_frac": "ratio",
    "sim.perf_norm.reram": "ratio",
    "sim.perf_norm.pcm": "ratio",
    "event.executed": "count",
    "event.per_kinstr": "1/kinstr",
    "event.ns_per_event": "ns",
    "event.overflow_frac": "ratio",
    "event.peak_pending": "count",
    "mem.events_per_request": "ratio",
    "mem.row_hit_rate": "ratio",
    "mem.read_latency_ns": "ns",
    "mem.write_latency_ns": "ns",
    "mem.overhead_frac": "ratio",
    "eur.c_factor": "ratio",
    "cache.l1_hit_rate": "ratio",
    "cache.llc_hit_rate": "ratio",
    "cache.dirty_pm_frac": "ratio",
    "cache.clean_nop_frac": "ratio",
    "cache.omv_hit_rate": "ratio",
    "cpu.instructions": "count",
    "cpu.ipc": "instr/cycle",
    "chipkill.pool_workers": "count",
    "chipkill.init_s": "s",
    "chipkill.boot_scrub_s": "s",
    "chipkill.scrub_dirty_frac": "ratio",
    "chipkill.chips_rebuilt": "count",
    "chipkill.read_us.clean": "us",
    "chipkill.read_us.rs": "us",
    "chipkill.read_us.vlew": "us",
    "chipkill.read_frac.rs": "ratio",
    "chipkill.read_frac.vlew": "ratio",
    "chipkill.write_us": "us",
    "chipkill.sdc": "count",
    "chipkill.read_failed": "count",
    **{f"ras.trial_ms.{p}": "ms" for p in RAS_PLANS + SPARE_PLANS},
    "ras.events_per_trial": "count",
    "ras.demand_reads": "count/trial",
    "ras.demand_writes": "count/trial",
    "ras.vlew_fallbacks": "count/trial",
    "ras.patrol_yield_frac": "ratio",
    "ras.migrated_blocks": "count/trial",
    "ras.rebuilt_blocks": "count/trial",
    "ras.violations": "count",
}

# Trial plans without a chip kill; the rest kill (and rebuild) a chip.
LIGHT_TRIALS = ("transient", "intermittent", "progressive")

# Section VI / Fig 16-18 of the paper.
PAPER_PERF_NORM = {"reram": 0.986, "pcm": 0.977}
PAPER_OMV_HIT_RATE = 0.986


class Result:
    def __init__(self):
        self.e2e = {}
        self.layer = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.lines = []

    def fail(self, what, count=1):
        self.failed += count
        self.problems.append(what)

    def say(self, text):
        self.lines.append(text)

    def say_pct(self, name, unit, p):
        self.say(f"  {name} = {p.value:.6g} {unit}  "
                 f"(p{p.q} of {p.count} samples, {p.beyond} beyond)")

    def say_ratio(self, name, r, extra=""):
        self.say(f"  {name} = {r.value:.6g}  ({r.num:g} / {r.den:g}){extra}")


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _medians(samples, size):
    """Each item's median time, for samples listed pass after pass
    over the same `size` items."""
    return [median(samples[i::size]) for i in range(size)]


def _ops(res, light_ms, heavy_ms, how, count, wall_s, what):
    """ops_per_s over the median pass, and the two class means."""
    res.e2e["ops_per_s"] = count / wall_s
    res.e2e["light_op_ms"] = light_ms
    res.e2e["heavy_op_ms"] = heavy_ms
    res.say(f"  ops_per_s = {count / wall_s:.6g} 1/s  ({count} ops / "
            f"{wall_s:.6g} median wall s of {what})")
    res.say(f"  light_op_ms = {light_ms:.6g} ms  ({how})")
    res.say(f"  heavy_op_ms = {heavy_ms:.6g} ms  ({how})")


def _say_pcts(res, name, unit, samples, workload):
    """Print p50 and the workload's tail percentile of one sample set."""
    tail = TAIL_PERCENTILE[workload]
    res.say_pct(f"{name}_p50", unit, percentile(samples, 50))
    res.say_pct(f"{name}_p{tail}", unit, percentile(samples, tail))


# ---------------------------------------------------------------------
# perf_sweep


def _point_insts(point, run):
    """Measured-window instructions of one RunMetrics (IPC x cycles)."""
    return run["ipc"] * MEASURE_NS * point["freq_ghz"]


def _perf_sweep(doc, res, traced):
    phase = doc["phases"][0]
    passes = phase["passes"]

    # Correctness: each point repeats with equal statistics.
    once = passes[0]["points"]
    for k, p in enumerate(passes):
        for pt, first in zip(p["points"], once):
            res.attempted += 1
            if pt["digest"] != first["digest"]:
                res.fail(f"{pt['tech']}/{pt['workload']} changed its "
                         f"statistics in pass {k}")

    calls = [pt for p in passes for pt in p["points"]]
    light = _medians([pt["baseline_s"] * 1e3 for pt in calls], len(once))
    heavy = _medians([pt["proposal_s"] * 1e3 for pt in calls], len(once))
    batch_s = (sum(light) + sum(heavy)) / 1e3
    res.e2e["batch_s"] = batch_s
    res.say(f"  batch_s = {batch_s:.6g} s  (median baseline + median "
            f"proposal of {len(once)} points, summed; {len(passes)} "
            f"passes)")
    _ops(res, _mean(light), _mean(heavy),
         f"mean of {len(once)} points' median calls", 2 * len(once),
         median([p["wall_s"] for p in passes]),
         f"{len(passes)} passes, set-ups left out")
    all_ms = [pt[k] * 1e3 for pt in calls
              for k in ("baseline_s", "proposal_s")]
    _say_pcts(res, "call_ms", "ms", all_ms, "perf_sweep")
    host_s = sum(all_ms) / 1e3

    # The paper-facing numbers, over each point once.
    insts = sum(_point_insts(pt, pt[s]) for pt in once
                for s in ("baseline", "proposal"))
    res.say(f"  sim_mips = {insts / batch_s / 1e6:.6g} Minstr/s  "
            f"({insts:.0f} measured-window instructions of baseline + "
            f"evaluation pass / batch_s)")
    res.say("  simulated results below are calibrated to the paper's "
            "published characterization; the model is not validated "
            "against hardware")
    for tech in TECHS:
        pts = [pt for pt in once if pt["tech"] == tech]
        norm = _mean(pt["proposal"]["perf"] / pt["baseline"]["perf"]
                     for pt in pts)
        paper = PAPER_PERF_NORM[tech]
        res.say(f"  perf_norm.{tech} = {norm:.4f}  (paper {paper:.3f}, "
                f"diff {norm - paper:+.4f}; mean of {len(pts)} points)")
    omv = _mean(pt["proposal"]["omv_hit_rate"] for pt in once)
    res.say(f"  omv_hit_rate = {omv:.4f}  (paper {PAPER_OMV_HIT_RATE:.3f}, "
            f"diff {omv - PAPER_OMV_HIT_RATE:+.4f}; mean of {len(once)} "
            f"points)")
    res.say("  point digests (a simulator-speed change must keep them):")
    for pt in once:
        res.say(f"    {pt['tech']:6s} {pt['workload']:8s} {pt['digest']}")

    if not traced:
        return
    tphase = doc["phases"][1]
    tpasses = tphase["passes"]
    for p in tpasses:
        for pt, first in zip(p["points"], once):
            res.attempted += 1
            if pt["digest"] != first["digest"]:
                res.fail(f"{pt['tech']}/{pt['workload']} differs between "
                         f"traced and untraced runs")
            if "replica" in pt and not pt["replica"]["match"]:
                res.fail(f"{pt['tech']}/{pt['workload']}: System replica "
                         f"traffic differs from runProposal")
    tpts = [pt for p in tpasses for pt in p["points"]]
    call_s = sum(pt["baseline_s"] + pt["proposal_s"] for pt in tpts)
    _overhead(res, call_s, host_s)

    L = res.layer
    L["sim.run_s"] = call_s / len(tpasses)
    for tech in TECHS:
        tp = [pt for pt in tpts if pt["tech"] == tech]
        ins = sum(_point_insts(pt, pt[s]) for pt in tp
                  for s in ("baseline", "proposal"))
        sec = sum(pt["baseline_s"] + pt["proposal_s"] for pt in tp)
        L[f"sim.mips.{tech}"] = ins / sec / 1e6
        L[f"sim.perf_norm.{tech}"] = _mean(
            pt["proposal"]["perf"] / pt["baseline"]["perf"] for pt in tp)
    props = [pt["proposal"] for pt in tpts]
    runs = props + [pt["baseline"] for pt in tpts]
    reps = [pt["replica"] for pt in tpts if "replica" in pt]

    def total(rows, key):
        return sum(r[key] for r in rows)

    rat = {
        "sim.vlew_fetch_frac":
            ratio(total(props, "vlew_fetches"), total(props, "pm_reads")),
        "sim.old_data_fetch_frac":
            ratio(total(props, "old_data_fetches"),
                  total(props, "pm_writes")),
        "event.overflow_frac":
            ratio(total(tpts, "overflow"), total(tpts, "events")),
        "mem.events_per_request":
            ratio(total(reps, "events_window"),
                  total(reps, "requests_window")),
        "mem.overhead_frac":
            ratio(total(props, "overhead_reads") +
                  total(props, "overhead_writes"),
                  sum(total(props, k) for k in ("pm_reads", "pm_writes",
                                                "dram_reads",
                                                "dram_writes"))),
        "cache.l1_hit_rate":
            ratio(total(reps, "l1_hits"),
                  total(reps, "l1_hits") + total(reps, "l1_misses")),
        "cache.llc_hit_rate":
            ratio(total(reps, "llc_hits"),
                  total(reps, "llc_hits") + total(reps, "llc_misses")),
        "cache.clean_nop_frac":
            ratio(total(reps, "clean_nops"), total(reps, "clean_ops")),
    }
    events = total(tpts, "events")
    L["event.executed"] = events / len(tpasses)
    L["event.per_kinstr"] = ratio(
        total(reps, "events_total"),
        total(reps, "instructions_total") / 1e3).value
    L["event.ns_per_event"] = call_s * 1e9 / events
    L["event.peak_pending"] = max(pt["peak_pending"] for pt in tpts)
    L["mem.row_hit_rate"] = _mean(r["row_hit_rate"] for r in runs)
    L["mem.read_latency_ns"] = _mean(r["read_latency_ns"] for r in runs)
    L["mem.write_latency_ns"] = _mean(r["write_latency_ns"] for r in runs)
    L["eur.c_factor"] = _mean(r["c_factor"] for r in props)
    L["cache.dirty_pm_frac"] = _mean(r["dirty_pm_frac"] for r in props)
    L["cache.omv_hit_rate"] = _mean(r["omv_hit_rate"] for r in props)
    L["cpu.instructions"] = total(reps, "instructions_window")
    L["cpu.ipc"] = _mean(r["ipc"] for r in props)
    _layer_ratios(res, rat)


# ---------------------------------------------------------------------
# rank_service


def _rank_service(doc, res, traced):
    phase = doc["phases"][0]
    scrubs = phase["scrubs"]
    for s in scrubs:
        res.attempted += 1
        if not s["ok"]:
            res.fail("boot scrub left a block differing from golden")
        if s["digest"] != scrubs[0]["digest"]:
            res.fail("boot scrub repetitions disagree")
    passes = phase["passes"]
    for k, p in enumerate(passes):
        res.attempted += p["reads"] + p["writes"]
        if p["digest"] != passes[0]["digest"]:
            res.fail(f"serve pass {k} differs from pass 0")
    if phase["read_sdc"]:
        res.fail(f"{phase['read_sdc']} reads returned wrong data",
                 phase["read_sdc"])
    if phase["read_ue"]:
        res.fail(f"{phase['read_ue']} reads reported a UE", phase["read_ue"])

    scrub_s = median([s["seconds"] for s in scrubs])
    res.e2e["batch_s"] = scrub_s
    res.say(f"  batch_s = {scrub_s:.6g} s  (median of {len(scrubs)} boot "
            f"scrubs spread through the run)")
    mb = phase["rank_bytes"] / 1e6
    res.say(f"  scrub_mb_per_s = {mb / scrub_s:.6g} MB/s  ({mb:g} MB rank, "
            f"{phase['outage_bits_flipped']} bits flipped at RBER 1e-3 + "
            f"one dead chip)")
    first = passes[0]
    read_ms = (median([p["read_us_sum"] for p in passes]) /
               first["reads"] / 1e3)
    write_ms = (median([p["write_us_sum"] for p in passes]) /
                first["writes"] / 1e3)
    _ops(res, read_ms, write_ms, "class mean of its median pass",
         first["reads"] + first["writes"],
         median([p["wall_s"] for p in passes]),
         f"{len(passes)} passes over the op list")
    res.say(f"  latency percentiles below are over a uniform sample of "
            f"{len(phase['read_us'])} reads and {len(phase['write_us'])} "
            f"writes")
    _say_pcts(res, "read_us", "us", phase["read_us"], "rank_service")
    _say_pcts(res, "write_us", "us", phase["write_us"], "rank_service")
    res.say(f"  scrub digest {scrubs[0]['digest']}, serve digest "
            f"{first['digest']}")

    if not traced:
        return
    tphase = doc["phases"][1]
    tpasses = tphase["passes"]
    res.attempted += 1
    if (any(p["digest"] != first["digest"] for p in tpasses) or
            tphase["scrubs"][0]["digest"] != scrubs[0]["digest"]):
        res.fail("rank digests differ between traced and untraced runs")
    t_s = sum(s["seconds"] for s in tphase["scrubs"]) + \
        sum(p["wall_s"] for p in tpasses)
    u_s = sum(s["seconds"] for s in scrubs) + sum(p["wall_s"] for p in passes)
    _overhead(res, t_s, u_s)

    L = res.layer
    ts = tphase["scrubs"]
    paths = tphase["read_paths"]
    reads = sum(p["reads"] for p in tpasses)
    L["chipkill.pool_workers"] = doc["pool_workers"]
    L["chipkill.init_s"] = median(tphase["setup_s"])
    L["chipkill.boot_scrub_s"] = median([s["seconds"] for s in ts])
    L["chipkill.chips_rebuilt"] = ts[0]["chips_rebuilt"]
    for key, name in (("clean", "clean"), ("rs", "rs"), ("vlew", "vlew")):
        L[f"chipkill.read_us.{name}"] = ratio(
            paths[key]["us_sum"], paths[key]["count"]).value
    L["chipkill.write_us"] = ratio(sum(p["write_us_sum"] for p in tpasses),
                                   sum(p["writes"] for p in tpasses)).value
    L["chipkill.sdc"] = tphase["read_sdc"]
    L["chipkill.read_failed"] = tphase["read_ue"]
    _layer_ratios(res, {
        "chipkill.scrub_dirty_frac":
            ratio(ts[0]["vlews_dirty"], ts[0]["vlews_scanned"]),
        "chipkill.read_frac.rs": ratio(paths["rs"]["count"], reads),
        "chipkill.read_frac.vlew": ratio(paths["vlew"]["count"], reads),
    })


# ---------------------------------------------------------------------
# ras_lifecycle


def _ras_lifecycle(doc, res, traced):
    phase = doc["phases"][0]
    trials = phase["trials"]
    size, round_size = phase["list_size"], phase["round_size"]
    for k, t in enumerate(trials):
        res.attempted += 1
        if t["violations"] or t["missed"]:
            res.fail(f"{t['tech']}/{t['plan']} trial: {t['violations']} "
                     f"oracle violations, {t['missed']} missed "
                     f"failover/spare/repair")
        if t["digest"] != trials[k % size]["digest"]:
            res.fail(f"{t['tech']}/{t['plan']} trial {k % size} changed "
                     f"its tally in pass {k // size}")
    ms = [t["ms"] for t in trials]
    medians = _medians(ms, size)
    rounds = size // round_size
    res.e2e["batch_s"] = sum(medians) / rounds / 1e3
    res.say(f"  batch_s = {res.e2e['batch_s']:.6g} s  (median times of "
            f"a round's {round_size} trials, summed; mean of {rounds} "
            f"rounds, {len(trials) // size} passes)")
    light = [m for m, t in zip(medians, trials) if t["plan"] in LIGHT_TRIALS]
    heavy = [m for m, t in zip(medians, trials)
             if t["plan"] not in LIGHT_TRIALS]
    _ops(res, _mean(light), _mean(heavy),
         f"mean of the class's median trials, {len(light)} and "
         f"{len(heavy)} of them", size, median(phase["pass_s"]),
         f"{len(phase['pass_s'])} passes over the trial list, set-ups "
         f"left out")
    _say_pcts(res, "trial_ms", "ms", ms, "ras_lifecycle")

    if not traced:
        return
    tphase = doc["phases"][1]
    tt = tphase["trials"]
    for a, b in zip(trials, tt):
        res.attempted += 1
        if a["digest"] != b["digest"]:
            res.fail(f"{a['tech']}/{a['plan']} trial differs between "
                     f"traced and untraced runs")
    _overhead(res, sum(t["ms"] for t in tt), sum(ms))

    L = res.layer
    by_plan = defaultdict(list)
    for t in tt:
        by_plan[t["plan"]].append(t["ms"])
    for plan in RAS_PLANS + SPARE_PLANS:
        L[f"ras.trial_ms.{plan}"] = _mean(by_plan[plan])
    events = sum(t["events"] for t in tt)
    L["event.executed"] = events * round_size / len(tt)
    L["event.ns_per_event"] = sum(t["ms"] for t in tt) * 1e6 / events
    L["event.peak_pending"] = max(t["peak_pending"] for t in tt)
    L["ras.events_per_trial"] = events / len(tt)
    for name, key in (("demand_reads", "demand_reads"),
                      ("demand_writes", "demand_writes"),
                      ("vlew_fallbacks", "vlew_fallbacks"),
                      ("migrated_blocks", "migrated"),
                      ("rebuilt_blocks", "rebuilt_blocks")):
        L[f"ras.{name}"] = _mean(t[key] for t in tt)
    L["ras.violations"] = sum(t["violations"] for t in tt)
    bursts = sum(t["patrol_bursts"] for t in tt)
    yields = sum(t["patrol_yields"] for t in tt)
    _layer_ratios(res, {
        "event.overflow_frac":
            ratio(sum(t["overflow"] for t in tt), events),
        "ras.patrol_yield_frac": ratio(yields, bursts + yields),
    })


# ---------------------------------------------------------------------


def _overhead(res, traced_s, untraced_s):
    r = ratio(traced_s - untraced_s, untraced_s)
    res.layer["trace.overhead_frac"] = r.value
    res.say_ratio("trace.overhead_frac", r,
                  " (traced - untraced host s, same work)")


def _layer_ratios(res, ratios):
    for name, r in ratios.items():
        res.layer[name] = r.value
        res.say_ratio(name, r)


SETUP_WHAT = {
    "perf_sweep": "System constructions, one before each point",
    "rank_service": "PmRank constructions + initialize, spread through "
                    "the run",
    "ras_lifecycle": "trial-size PmRank constructions + initialize, one "
                     "before each trial",
}


def analyze(doc, workload):
    """Metrics for one driver output document."""
    traced = len(doc["phases"]) > 1
    res = Result()
    setup = doc["phases"][0]["setup_s"]
    res.e2e["setup_s"] = median(setup)
    res.say(f"  setup_s = {res.e2e['setup_s']:.6g} s  (median of "
            f"{len(setup)} {SETUP_WHAT[workload]})")
    if workload == "perf_sweep":
        _perf_sweep(doc, res, traced)
    elif workload == "rank_service":
        _rank_service(doc, res, traced)
    else:
        _ras_lifecycle(doc, res, traced)
    err = ratio(res.failed, res.attempted)
    res.say_ratio("error_rate", err, " failed / attempted")
    if traced:
        res.layer["error_rate"] = err.value
        for name in LAYER_UNITS:
            res.layer.setdefault(name, 0)
    return res
