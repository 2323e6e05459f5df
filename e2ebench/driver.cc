/**
 * @file
 * End-to-end benchmark driver. Runs one workload against the public
 * entry points of the library — runBaseline/runProposal/System for the
 * Section VI sweep, PmRank for the boot-then-serve rank, and
 * runRasTrial/runSpareTrial for the RAS lifecycle — and writes raw
 * measurements (host-time samples, simulated statistics, digests) as
 * one JSON document. run.py turns them into metrics.
 *
 * Usage:
 *   nvck_e2ebench --plan FILE --seconds S --trace 0|1 --out FILE
 *                 [--spans FILE]
 *
 * The plan file (written by plan.py from the workload seed) holds every
 * generated input. The workload runs untraced for S seconds. With
 * --trace 1 it then repeats exactly the same work with spans recorded
 * around each public call; both phases are reported so the caller can
 * compare their digests and host times (the tracing overhead).
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sched.h>

#include "chipkill/pm_rank.hh"
#include "chipkill/schemes.hh"
#include "common/event.hh"
#include "common/rng.hh"
#include "common/threadpool.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"
#include "sim/ras.hh"
#include "sim/spare.hh"
#include "sim/system.hh"

namespace {

using namespace nvck;
using Clock = std::chrono::steady_clock;

const Clock::time_point epoch = Clock::now();

double
nowS()
{
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "nvck_e2ebench: " << msg << "\n";
    std::exit(2);
}

// ------------------------------------------------------------------
// Plan file: "key value..." lines; repeated keys accumulate.

struct Plan
{
    std::map<std::string, std::vector<std::vector<std::string>>> lines;

    const std::vector<std::string> &
    one(const std::string &key) const
    {
        auto it = lines.find(key);
        if (it == lines.end() || it->second.size() != 1)
            die("plan needs exactly one '" + key + "' line");
        return it->second.front();
    }
    std::string str(const std::string &k) const { return one(k).at(0); }
    double num(const std::string &k) const { return std::stod(str(k)); }
    std::uint64_t
    u64(const std::string &k) const
    {
        return std::stoull(str(k));
    }
    const std::vector<std::vector<std::string>> &
    all(const std::string &key) const
    {
        auto it = lines.find(key);
        if (it == lines.end())
            die("plan has no '" + key + "' lines");
        return it->second;
    }
};

Plan
readPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        die("cannot read plan " + path);
    Plan plan;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ss(line);
        std::string key, tok;
        if (!(ss >> key))
            continue;
        std::vector<std::string> vals;
        while (ss >> tok)
            vals.push_back(tok);
        plan.lines[key].push_back(vals);
    }
    return plan;
}

PmTech
techOf(const std::string &name)
{
    if (name == "reram")
        return PmTech::Reram;
    if (name == "pcm")
        return PmTech::Pcm;
    die("unknown technology " + name);
}

// ------------------------------------------------------------------
// Spans: kept in memory, written out when the run ends.

class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled) {}

    bool enabled() const { return on; }

    std::int64_t
    open(const char *name, std::int64_t parent, std::uint64_t request)
    {
        if (!on)
            return -1;
        spans.push_back({name, parent, request, nowS(), 0.0});
        return static_cast<std::int64_t>(spans.size() - 1);
    }

    void
    close(std::int64_t id)
    {
        if (id >= 0)
            spans[static_cast<std::size_t>(id)].end = nowS();
    }

    void
    write(std::ostream &os) const
    {
        char buf[256];
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::snprintf(buf, sizeof buf,
                          "{\"id\": %zu, \"name\": \"%s\", \"parent\": "
                          "%" PRId64 ", \"request\": %" PRIu64
                          ", \"start\": %.9f, \"end\": %.9f}\n",
                          i, s.name, s.parent, s.request, s.start, s.end);
            os << buf;
        }
    }

  private:
    struct Span
    {
        const char *name;
        std::int64_t parent;
        std::uint64_t request;
        double start, end;
    };
    bool on;
    std::vector<Span> spans;
};

/** RAII span around one public call. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name, std::int64_t parent = -1,
          std::uint64_t request = 0)
        : tr(tracer), span(tracer.open(name, parent, request))
    {
    }
    ~Scope() { tr.close(span); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t id() const { return span; }

  private:
    Tracer &tr;
    std::int64_t span;
};

// ------------------------------------------------------------------
// Minimal JSON writer (objects, arrays, numbers, strings, bools).

class Json
{
  public:
    explicit Json(std::ostream &out) : os(out) {}

    Json &
    key(const char *k)
    {
        comma();
        os << '"' << k << "\": ";
        pendingKey = true;
        return *this;
    }
    Json &
    open(char c)
    {
        comma();
        os << c;
        first.push_back(true);
        return *this;
    }
    Json &
    close(char c)
    {
        os << c;
        first.pop_back();
        return *this;
    }
    Json &
    num(double v)
    {
        comma();
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        os << buf;
        return *this;
    }
    Json &
    u64(std::uint64_t v)
    {
        comma();
        os << v;
        return *this;
    }
    Json &
    str(const std::string &v)
    {
        comma();
        os << '"' << v << '"';
        return *this;
    }
    Json &
    boolean(bool v)
    {
        comma();
        os << (v ? "true" : "false");
        return *this;
    }
    Json &
    nums(const std::vector<double> &vs)
    {
        open('[');
        for (double v : vs)
            num(v);
        return close(']');
    }

  private:
    void
    comma()
    {
        if (pendingKey) {
            pendingKey = false;
            return;
        }
        if (!first.empty()) {
            if (!first.back())
                os << ", ";
            first.back() = false;
        }
    }

    std::ostream &os;
    std::vector<bool> first;
    bool pendingKey = false;
};

// ------------------------------------------------------------------
// Digests of simulated statistics (FNV-1a over exact renderings).

class Digest
{
  public:
    Digest &
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
        return *this;
    }
    Digest &
    add(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        return add(bits);
    }
    Digest &
    add(const std::uint8_t *p, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
        return *this;
    }
    std::uint64_t value() const { return h; }

    std::string
    hex() const
    {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
        return buf;
    }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/**
 * Time one set-up repetition, the same way in every workload. The sweep
 * and the trials spread their repetitions through the run, so the
 * median sees the host as the measured work does.
 */
template <typename F>
double
timeSetup(Tracer &tr, const char *name, std::uint64_t request, F &&setup)
{
    const double t0 = nowS();
    {
        Scope s(tr, name, -1, request);
        setup();
    }
    return nowS() - t0;
}

/**
 * Pins the calling thread to the allowed CPU that runs a fixed probe
 * fastest right now. On a shared host a neighbour slows some CPUs and
 * not others, for seconds to minutes (a fixed loop run on all four
 * vCPUs at once ran 25% slower on two of them for 24 s while the other
 * two kept their speed); the driver picks a CPU before each timed item,
 * so the items run where nothing is slowing them. The probe walks a
 * 64 KiB table at random, which that slowdown shows in. Placement is
 * best effort: a failed call leaves the thread where it is.
 */
class QuietCpu
{
  public:
    QuietCpu() : table(tableWords)
    {
        for (std::size_t i = 0; i < tableWords; ++i)
            table[i] = i * 0x9E3779B97F4A7C15ull;
        if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    }
    ~QuietCpu()
    {
        if (!cpus.empty())
            sched_setaffinity(0, sizeof allowed, &allowed);
    }
    QuietCpu(const QuietCpu &) = delete;
    QuietCpu &operator=(const QuietCpu &) = delete;

    void
    pick()
    {
        if (cpus.size() < 2)
            return;
        int best = cpus[0];
        double best_s = 0.0;
        for (int c : cpus) {
            if (!pin(c))
                continue;
            walk(tableWords); // fill this CPU's caches
            const double t0 = nowS();
            walk(probeSteps);
            const double took = nowS() - t0;
            if (best_s == 0.0 || took < best_s) {
                best_s = took;
                best = c;
            }
        }
        pin(best);
    }

  private:
    static constexpr std::size_t tableWords = 8192; // 64 KiB
    static constexpr unsigned probeSteps = 50000;   // ~0.15 ms

    bool
    pin(int c)
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(c, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0;
    }

    void
    walk(unsigned steps)
    {
        std::uint64_t x = 0x2545F4914F6CDD1Dull, acc = sink;
        for (unsigned i = 0; i < steps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 31 + table[x % tableWords];
        }
        sink = acc;
    }

    cpu_set_t allowed;
    std::vector<int> cpus;
    std::vector<std::uint64_t> table;
    std::uint64_t sink = 0;
};

/** How much work one phase does: a deadline or an exact count. */
struct Budget
{
    double deadline = 0.0;   //!< nowS() at which the phase stops
    std::uint64_t items = 0; //!< nonzero: run exactly this many units

    /** Start another unit (taking about @p unit_s) after @p done? A
     *  unit starts only when at least half of it fits the deadline. */
    bool
    more(std::uint64_t done, double unit_s = 0.0) const
    {
        if (items)
            return done < items;
        return nowS() + unit_s / 2 < deadline;
    }
};

// ------------------------------------------------------------------
// perf_sweep: the Section VI evaluation, baseline + two-pass proposal.

void
runMetricsJson(Json &j, const RunMetrics &m)
{
    j.open('{');
    j.key("ipc").num(m.ipc);
    j.key("perf").num(m.perf);
    j.key("c_factor").num(m.cFactor);
    j.key("omv_hit_rate").num(m.omvHitRate);
    j.key("dirty_pm_frac").num(m.dirtyPmFraction);
    j.key("pm_reads").u64(m.pmReads);
    j.key("pm_writes").u64(m.pmWrites);
    j.key("dram_reads").u64(m.dramReads);
    j.key("dram_writes").u64(m.dramWrites);
    j.key("overhead_reads").u64(m.overheadReads);
    j.key("overhead_writes").u64(m.overheadWrites);
    j.key("vlew_fetches").u64(m.vlewFetches);
    j.key("old_data_fetches").u64(m.oldDataFetches);
    j.key("read_latency_ns").num(m.avgReadLatencyNs);
    j.key("write_latency_ns").num(m.avgWriteLatencyNs);
    j.key("row_hit_rate").num(m.rowHitRate);
    j.close('}');
}

void
digestMetrics(Digest &d, const RunMetrics &m)
{
    d.add(m.ipc).add(m.mflops).add(m.perf).add(m.cFactor);
    d.add(m.omvHitRate).add(m.dirtyPmFraction).add(m.omvFraction);
    d.add(m.pmReads).add(m.pmWrites).add(m.dramReads).add(m.dramWrites);
    d.add(m.overheadReads).add(m.overheadWrites);
    d.add(m.vlewFetches).add(m.oldDataFetches);
    d.add(m.avgReadLatencyNs).add(m.avgWriteLatencyNs).add(m.rowHitRate);
}

struct SweepPoint
{
    std::string tech, workload;
    std::uint64_t seed;
};

/**
 * Re-run the proposal's evaluation pass on a System the benchmark
 * builds itself, reading the cache/cpu/event counters RunMetrics does
 * not carry. Its traffic must equal runProposal's exactly.
 */
void
replicaJson(Json &j, Tracer &tr, std::int64_t parent, std::uint64_t req,
            const SweepPoint &pt, const RunControl &rc,
            const RunMetrics &prop)
{
    const PmTech tech = techOf(pt.tech);
    SchemeTiming scheme = proposalScheme(runtimeRberFor(tech));
    applyCFactor(scheme, prop.cFactor);
    const SystemConfig cfg =
        SystemConfig::make(tech, scheme, pt.workload, pt.seed);

    std::unique_ptr<System> sys;
    {
        Scope s(tr, "System", parent, req);
        sys = std::make_unique<System>(cfg);
    }

    std::uint64_t ev_warm = 0, ev_end = 0, inst_start = 0, inst_end = 0;
    {
        Scope s(tr, "System.run", parent, req);
        sys->start();
        sys->runUntil(rc.warmup);
        sys->resetStats();
        ev_warm = sys->events().stats().executed.value();
        for (unsigned c = 0; c < sys->coreCount(); ++c)
            inst_start += sys->core(c).instructions();
        const Tick end = rc.warmup + rc.measure;
        for (Tick t = rc.warmup + rc.samplePeriod; t <= end;
             t += rc.samplePeriod)
            sys->runUntil(t);
        sys->runUntil(end);
        ev_end = sys->events().stats().executed.value();
        for (unsigned c = 0; c < sys->coreCount(); ++c)
            inst_end += sys->core(c).instructions();
    }

    const auto &ms = sys->memory().stats();
    const auto &cs = sys->caches().stats();
    const bool match =
        ms.pmReads.value() == prop.pmReads &&
        ms.pmWrites.value() == prop.pmWrites &&
        ms.dramReads.value() == prop.dramReads &&
        ms.dramWrites.value() == prop.dramWrites &&
        ms.overheadReads.value() == prop.overheadReads &&
        ms.overheadWrites.value() == prop.overheadWrites &&
        sys->stats().vlewFetches.value() == prop.vlewFetches &&
        sys->stats().oldDataFetches.value() == prop.oldDataFetches;

    j.open('{');
    j.key("match").boolean(match);
    j.key("l1_hits").u64(cs.l1Hits.value());
    j.key("l1_misses").u64(cs.l1Misses.value());
    j.key("llc_hits").u64(cs.llcHits.value());
    j.key("llc_misses").u64(cs.llcMisses.value());
    j.key("clean_ops").u64(cs.cleanOps.value());
    j.key("clean_nops").u64(cs.cleanNops.value());
    j.key("instructions_window").u64(inst_end - inst_start);
    j.key("instructions_total").u64(inst_end);
    j.key("events_window").u64(ev_end - ev_warm);
    j.key("events_total").u64(ev_end);
    j.key("requests_window")
        .u64(ms.pmReads.value() + ms.pmWrites.value() +
             ms.dramReads.value() + ms.dramWrites.value() +
             ms.overheadReads.value() + ms.overheadWrites.value());
    j.close('}');
}

std::uint64_t
perfSweep(Json &j, const Plan &plan, const Budget &budget, Tracer &tr)
{
    RunControl rc;
    rc.warmup = nsToTicks(plan.num("warmup_ns"));
    rc.measure = nsToTicks(plan.num("measure_ns"));
    rc.samplePeriod = nsToTicks(plan.num("sample_ns"));

    std::vector<SweepPoint> points;
    for (const auto &p : plan.all("point"))
        points.push_back({p.at(0), p.at(1), std::stoull(p.at(2))});

    // Whole passes over the point list: each point repeats, and its
    // digest must not change between repetitions.
    const std::uint64_t min_passes = plan.u64("min_passes");
    std::vector<double> setup_s;
    j.key("passes").open('[');
    std::uint64_t done = 0;
    double pass_s = 0.0;
    QuietCpu cpu;
    while (done < min_passes || budget.more(done, pass_s)) {
        j.open('{');
        const double pass_t0 = nowS();
        double pass_setup_s = 0.0;
        j.key("points").open('[');
        for (std::size_t i = 0; i < points.size(); ++i) {
            const SweepPoint &pt = points[i];
            cpu.pick();
            const std::uint64_t seed = pt.seed;
            const PmTech tech = techOf(pt.tech);
            const std::uint64_t req = done * points.size() + i;
            const SystemConfig cfg = SystemConfig::make(
                tech, bitErrorOnlyScheme(), pt.workload, seed);
            setup_s.push_back(timeSetup(tr, "System", req,
                                        [&] { System sys(cfg); }));
            pass_setup_s += setup_s.back();
            Scope point(tr, "point", -1, req);
            const EventKernelTotals ev0 = eventKernelTotals();

            double t0 = nowS();
            RunMetrics base;
            {
                Scope s(tr, "runBaseline", point.id(), req);
                base = runBaseline(tech, pt.workload, seed, rc);
            }
            const double base_s = nowS() - t0;
            t0 = nowS();
            RunMetrics prop;
            {
                Scope s(tr, "runProposal", point.id(), req);
                prop = runProposal(tech, pt.workload, seed, rc);
            }
            const double prop_s = nowS() - t0;
            const EventKernelTotals ev1 = eventKernelTotals();

            Digest d;
            digestMetrics(d, base);
            digestMetrics(d, prop);

            j.open('{');
            j.key("tech").str(pt.tech);
            j.key("workload").str(pt.workload);
            j.key("digest").str(d.hex());
            j.key("baseline_s").num(base_s);
            j.key("proposal_s").num(prop_s);
            j.key("events").u64(ev1.executed - ev0.executed);
            j.key("overflow").u64(ev1.overflowPromotions -
                                  ev0.overflowPromotions);
            j.key("peak_pending").u64(ev1.maxPeakPending);
            j.key("freq_ghz").num(cfg.core.freqGhz);
            j.key("baseline");
            runMetricsJson(j, base);
            j.key("proposal");
            runMetricsJson(j, prop);
            // One replica per point is enough.
            if (tr.enabled() && done == 0) {
                j.key("replica");
                replicaJson(j, tr, point.id(), req, pt, rc, prop);
            }
            j.close('}');
        }
        j.close(']');
        pass_s = nowS() - pass_t0;
        // Wall time of the pass's work: set-up constructions left out.
        j.key("wall_s").num(pass_s - pass_setup_s);
        j.close('}');
        ++done;
    }
    j.close(']');
    j.key("setup_s").nums(setup_s);
    return done;
}

// ------------------------------------------------------------------
// rank_service: boot after an outage, then serve reads and writes.

/**
 * A fixed-size uniform sample of a latency stream (Algorithm R), so the
 * driver's memory does not grow with the number of ops a faster build
 * completes.
 */
class Reservoir
{
  public:
    Reservoir(std::size_t capacity, std::uint64_t seed)
        : cap(capacity), rng(seed)
    {
        kept.reserve(capacity);
    }

    void
    add(double v)
    {
        ++seen;
        if (kept.size() < cap) {
            kept.push_back(v);
        } else {
            const std::uint64_t slot = rng.below(seen);
            if (slot < cap)
                kept[slot] = v;
        }
    }

    void
    json(Json &j, const char *samples) const
    {
        j.key(samples).nums(kept);
    }

  private:
    std::size_t cap;
    Rng rng;
    std::vector<double> kept;
    std::uint64_t seen = 0;
};

std::uint64_t
rankService(Json &j, const Plan &plan, const Budget &budget, Tracer &tr)
{
    const auto blocks = static_cast<unsigned>(plan.u64("rank_blocks"));
    const std::uint64_t rank_seed = plan.u64("rank_seed");
    const std::uint64_t reps = plan.u64("reps");
    const auto build = [&] {
        auto r = std::make_unique<PmRank>(blocks);
        Rng rng(rank_seed);
        r->initialize(rng);
        return r;
    };
    std::vector<double> setup_s;
    std::unique_ptr<PmRank> rank;
    setup_s.push_back(timeSetup(tr, "initialize", 0, [&] { rank = build(); }));

    // Shadow copy of what every block must read back as.
    std::vector<std::uint8_t> shadow(std::size_t{blocks} * blockBytes);
    for (unsigned b = 0; b < blocks; ++b)
        rank->goldenBlock(b, &shadow[std::size_t{b} * blockBytes]);

    // The outage: boot-time RBER plus one dead data chip.
    Rng outage(plan.u64("outage_seed"));
    std::uint64_t flipped = 0;
    {
        Scope s(tr, "injectErrors", -1, 0);
        flipped = rank->injectErrors(outage, plan.num("outage_rber"));
    }
    rank->failChip(static_cast<unsigned>(plan.u64("failed_chip")), outage);
    const RankSnapshot outage_image = rank->snapshot();
    j.key("rank_bytes").u64(std::uint64_t{blocks} * blockBytes);
    j.key("outage_bits_flipped").u64(flipped);

    // Boot scrubs: the first brings the serving rank up; the others run
    // on a copy restored from the outage image. Like the set-up
    // repetitions, they are spread through the serve loop, so they see
    // the host as the ops do.
    struct ScrubRun
    {
        double seconds;
        bool ok;
        ScrubReport rep;
    };
    std::vector<ScrubRun> scrubs;
    const auto scrub = [&](PmRank &target, std::uint64_t r) {
        const double t0 = nowS();
        ScrubReport rep;
        {
            Scope s(tr, "bootScrub", -1, r);
            rep = target.bootScrub();
        }
        const double seconds = nowS() - t0;
        const bool ok = !rep.uncorrectable && rep.chipsRecovered == 1 &&
                        target.isPristine();
        scrubs.push_back({seconds, ok, rep});
    };
    scrub(*rank, 0);
    PmRank copy(blocks);
    std::uint64_t reps_done = 1;
    const auto repeat = [&] {
        setup_s.push_back(
            timeSetup(tr, "initialize", reps_done, [&] { build(); }));
        copy.restore(outage_image);
        scrub(copy, reps_done);
        ++reps_done;
    };

    // Serve: runtime RBER, then one closed-loop client sending a fixed
    // seeded op list. Each pass replays the list from the same rank
    // image, so every pass does the same work and must return the same
    // data.
    Rng runtime(plan.u64("runtime_seed"));
    {
        Scope s(tr, "injectErrors", -1, 1);
        rank->injectErrors(runtime, plan.num("runtime_rber"));
    }
    const RankSnapshot serve_image = rank->snapshot();
    const std::vector<std::uint8_t> serve_shadow = shadow;
    const std::uint64_t op_seed = plan.u64("op_seed");
    const std::uint64_t pass_ops = plan.u64("pass_ops");
    const double read_frac = plan.num("read_frac");
    const double hot_share = plan.num("hot_share");
    const auto hot_blocks = static_cast<std::uint64_t>(
        std::max(1.0, plan.num("hot_frac") * blocks));

    const auto samples = static_cast<std::size_t>(plan.u64("samples"));
    Reservoir read_us(samples, plan.u64("sample_seed"));
    Reservoir write_us(samples, plan.u64("sample_seed") + 1);
    constexpr unsigned paths = 5;
    std::uint64_t path_n[paths] = {};
    double path_us[paths] = {};
    std::uint64_t read_sdc = 0, read_ue = 0;
    std::uint8_t out[blockBytes], data[blockBytes];

    const std::uint64_t min_passes = plan.u64("min_passes");
    const double start = nowS();
    const auto repeat_due = [&](std::uint64_t done) {
        if (reps_done >= reps)
            return false;
        if (budget.items)
            return done >= budget.items * reps_done / reps;
        return nowS() >= start + (budget.deadline - start) * reps_done / reps;
    };
    j.key("passes").open('[');
    std::uint64_t done = 0;
    QuietCpu cpu;
    while (done < min_passes || budget.more(done)) {
        cpu.pick();
        if (repeat_due(done))
            repeat();
        rank->restore(serve_image);
        shadow = serve_shadow;
        Rng ops(op_seed);
        // An odd stride permutes the blocks (their count is a power of
        // two).
        const std::uint64_t stride = ops.next() | 1;
        const std::uint64_t offset = ops.next();
        Digest digest;
        std::uint64_t reads = 0, writes = 0;
        double read_sum = 0.0, write_sum = 0.0;
        const double pass_t0 = nowS();
        for (std::uint64_t k = 0; k < pass_ops; ++k) {
            const std::uint64_t req = done * pass_ops + k;
            const std::uint64_t pick = ops.chance(hot_share)
                                           ? ops.below(hot_blocks)
                                           : ops.below(blocks);
            const auto block =
                static_cast<unsigned>((pick * stride + offset) % blocks);
            std::uint8_t *expect = &shadow[std::size_t{block} * blockBytes];
            if (ops.chance(read_frac)) {
                const double t0 = nowS();
                BlockReadResult res;
                {
                    Scope s(tr, "readBlock", -1, req);
                    res = rank->readBlock(block, out);
                }
                const double us = (nowS() - t0) * 1e6;
                ++reads;
                read_sum += us;
                read_us.add(us);
                const auto p = static_cast<unsigned>(res.path);
                ++path_n[p];
                path_us[p] += us;
                if (res.path == ReadPath::Failed)
                    ++read_ue;
                else if (std::memcmp(out, expect, blockBytes) != 0)
                    ++read_sdc;
                digest.add(std::uint64_t{block}).add(std::uint64_t{p});
                digest.add(std::uint64_t{res.rsCorrections});
                digest.add(std::uint64_t{res.vlewBitCorrections});
                digest.add(out, blockBytes);
            } else {
                for (auto &byte : data)
                    byte = static_cast<std::uint8_t>(ops.next());
                const double t0 = nowS();
                {
                    Scope s(tr, "writeBlock", -1, req);
                    rank->writeBlock(block, data);
                }
                const double us = (nowS() - t0) * 1e6;
                ++writes;
                write_sum += us;
                write_us.add(us);
                std::memcpy(expect, data, blockBytes);
                digest.add(std::uint64_t{block} | (std::uint64_t{1} << 40));
            }
        }
        const double wall_s = nowS() - pass_t0;
        j.open('{');
        j.key("wall_s").num(wall_s);
        j.key("reads").u64(reads);
        j.key("writes").u64(writes);
        j.key("read_us_sum").num(read_sum);
        j.key("write_us_sum").num(write_sum);
        j.key("digest").str(digest.hex());
        j.close('}');
        ++done;
    }
    j.close(']');
    while (reps_done < reps)
        repeat();
    j.key("scrubs").open('[');
    for (const ScrubRun &sr : scrubs) {
        const ScrubReport &rep = sr.rep;
        Digest d;
        d.add(rep.vlewsScanned).add(rep.vlewsWithErrors);
        d.add(rep.bitsCorrected).add(std::uint64_t{rep.chipsRecovered});
        d.add(std::uint64_t{rep.parityChipRebuilt});
        j.open('{');
        j.key("seconds").num(sr.seconds);
        j.key("ok").boolean(sr.ok);
        j.key("digest").str(d.hex());
        j.key("vlews_scanned").u64(rep.vlewsScanned);
        j.key("vlews_dirty").u64(rep.vlewsWithErrors);
        j.key("bits_corrected").u64(rep.bitsCorrected);
        j.key("chips_rebuilt").u64(rep.chipsRecovered);
        j.close('}');
    }
    j.close(']');
    j.key("setup_s").nums(setup_s);
    read_us.json(j, "read_us");
    write_us.json(j, "write_us");
    j.key("read_sdc").u64(read_sdc);
    j.key("read_ue").u64(read_ue);
    j.key("read_paths").open('{');
    static const char *const path_names[paths] = {
        "clean", "rs", "vlew", "chip_recovered", "failed"};
    for (unsigned p = 0; p < paths; ++p) {
        j.key(path_names[p]).open('{');
        j.key("count").u64(path_n[p]);
        j.key("us_sum").num(path_us[p]);
        j.close('}');
    }
    j.close('}');
    return done;
}

// ------------------------------------------------------------------
// ras_lifecycle: a seeded list of lifecycle and hot-sparing trials.

struct TrialSpec
{
    std::string kind, tech, plan;
    std::uint64_t seed;
};

RasTally
runTrial(const TrialSpec &t)
{
    Rng rng(t.seed);
    if (t.kind == "ras") {
        RasTrialConfig tc;
        tc.tech = techOf(t.tech);
        for (unsigned p = 0; p < numFaultPlans; ++p)
            if (t.plan == faultPlanName(static_cast<FaultPlan>(p)))
                tc.plan = static_cast<FaultPlan>(p);
        if (t.plan != faultPlanName(tc.plan))
            die("unknown fault plan " + t.plan);
        return runRasTrial(tc, rng);
    }
    if (t.kind == "spare") {
        SpareTrialConfig tc;
        tc.tech = techOf(t.tech);
        for (unsigned p = 0; p < numSparePlans; ++p)
            if (t.plan == sparePlanName(static_cast<SparePlan>(p)))
                tc.plan = static_cast<SparePlan>(p);
        if (t.plan != sparePlanName(tc.plan))
            die("unknown spare plan " + t.plan);
        return runSpareTrial(tc, rng);
    }
    die("unknown trial kind " + t.kind);
}

std::uint64_t
rasLifecycle(Json &j, const Plan &plan, const Budget &budget, Tracer &tr)
{
    const auto blocks = static_cast<unsigned>(plan.u64("rank_blocks"));
    const std::uint64_t rank_seed = plan.u64("rank_seed");
    std::vector<TrialSpec> trials;
    for (const auto &t : plan.all("trial"))
        trials.push_back({t.at(0), t.at(1), t.at(2), std::stoull(t.at(3))});
    const std::uint64_t round = plan.u64("round_size");
    if (round == 0 || trials.size() % round != 0)
        die("trial list is not whole rounds");

    // Whole passes over the trial list, at least min_passes of them,
    // so each trial repeats (its tally must not change) and every run
    // holds the same plan mix. A trial builds its own rank; one
    // trial-size rank set-up is timed before each trial, outside the
    // pass's wall time.
    const std::uint64_t list = trials.size();
    const std::uint64_t min_trials = plan.u64("min_passes") * list;
    std::vector<double> setup_s, pass_s;
    j.key("trials").open('[');
    std::uint64_t done = 0;
    double pass_t0 = 0.0, pass_setup_s = 0.0, last_pass_s = 0.0;
    QuietCpu cpu;
    while (done < min_trials || done % list != 0 ||
           budget.more(done, last_pass_s)) {
        if (done % list == 0) {
            pass_t0 = nowS();
            pass_setup_s = 0.0;
        }
        cpu.pick();
        setup_s.push_back(timeSetup(tr, "initialize", done, [&] {
            PmRank rank(blocks);
            Rng rng(rank_seed);
            rank.initialize(rng);
        }));
        pass_setup_s += setup_s.back();
        const TrialSpec &t = trials[done % list];
        const EventKernelTotals ev0 = eventKernelTotals();
        const double t0 = nowS();
        RasTally r;
        {
            Scope s(tr, t.kind == "ras" ? "runRasTrial" : "runSpareTrial",
                    -1, done);
            r = runTrial(t);
        }
        const double ms = (nowS() - t0) * 1e3;
        const EventKernelTotals ev1 = eventKernelTotals();

        const std::uint64_t fields[] = {
            r.trials,          r.patrolBursts,   r.patrolYields,
            r.scrubBits,       r.demandReads,    r.demandWrites,
            r.rsFixes,         r.vlewFallbacks,  r.chipRecovered,
            r.rowAlarms,       r.targetedScrubs, r.kills,
            r.failovers,       r.migrated,       r.degradedReads,
            r.degradedWrites,  r.drainedAtFailover,
            r.detectAccessesMax, r.sdc,          r.lostDurable,
            r.ue,              r.falseKills,     r.missedFailovers,
            r.engageOverruns,  r.rebuilds,       r.rebuiltBlocks,
            r.spared,          r.spareAbandons,  r.repairs,
            r.survivorBits,    r.missedSpares,   r.missedRepairs,
            r.violations};
        Digest d;
        for (std::uint64_t f : fields)
            d.add(f);

        j.open('{');
        j.key("kind").str(t.kind);
        j.key("tech").str(t.tech);
        j.key("plan").str(t.plan);
        j.key("ms").num(ms);
        j.key("events").u64(ev1.executed - ev0.executed);
        j.key("overflow").u64(ev1.overflowPromotions -
                              ev0.overflowPromotions);
        j.key("peak_pending").u64(ev1.maxPeakPending);
        j.key("digest").str(d.hex());
        j.key("patrol_bursts").u64(r.patrolBursts);
        j.key("patrol_yields").u64(r.patrolYields);
        j.key("demand_reads").u64(r.demandReads);
        j.key("demand_writes").u64(r.demandWrites);
        j.key("vlew_fallbacks").u64(r.vlewFallbacks);
        j.key("migrated").u64(r.migrated);
        j.key("rebuilt_blocks").u64(r.rebuiltBlocks);
        j.key("missed").u64(r.missedFailovers + r.missedSpares +
                            r.missedRepairs);
        j.key("violations").u64(r.violations);
        j.close('}');
        if (++done % list == 0) {
            last_pass_s = nowS() - pass_t0;
            pass_s.push_back(last_pass_s - pass_setup_s);
        }
    }
    j.close(']');
    j.key("setup_s").nums(setup_s);
    j.key("pass_s").nums(pass_s);
    j.key("list_size").u64(list);
    j.key("round_size").u64(round);
    return done;
}

/** Peak resident set of this process (VmHWM), in KiB. */
std::uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    die("no VmHWM in /proc/self/status");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string plan_path, out_path, spans_path;
    double seconds = 0.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i], val = argv[i + 1];
        if (flag == "--plan")
            plan_path = val;
        else if (flag == "--out")
            out_path = val;
        else if (flag == "--spans")
            spans_path = val;
        else if (flag == "--seconds")
            seconds = std::stod(val);
        else if (flag == "--trace")
            trace = std::stoi(val);
        else
            die("unknown flag " + flag);
    }
    if (plan_path.empty() || out_path.empty() || seconds <= 0.0 ||
        (trace != 0 && trace != 1) || (trace == 1 && spans_path.empty()))
        die("usage: --plan FILE --seconds S --trace 0|1 --out FILE "
            "[--spans FILE]");

    const Plan plan = readPlan(plan_path);
    const std::string workload = plan.str("workload");
    using Fn = std::uint64_t (*)(Json &, const Plan &, const Budget &,
                                 Tracer &);
    Fn fn = nullptr;
    if (workload == "perf_sweep")
        fn = perfSweep;
    else if (workload == "rank_service")
        fn = rankService;
    else if (workload == "ras_lifecycle")
        fn = rasLifecycle;
    else
        die("unknown workload " + workload);

    std::ofstream out(out_path);
    if (!out)
        die("cannot write " + out_path);
    Json j(out);
    j.open('{');
    j.key("workload").str(workload);
    j.key("pool_workers").u64(ThreadPool::global().workers());
    j.key("phases").open('[');

    Tracer untraced(false);
    j.open('{');
    j.key("traced").boolean(false);
    const double t0 = nowS();
    const std::uint64_t items =
        fn(j, plan, Budget{t0 + seconds, 0}, untraced);
    j.key("items").u64(items);
    j.key("elapsed_s").num(nowS() - t0);
    j.close('}');

    if (trace) {
        // Same work again, traced: digests must match the first phase.
        Tracer traced(true);
        j.open('{');
        j.key("traced").boolean(true);
        const double t1 = nowS();
        fn(j, plan, Budget{0.0, items}, traced);
        j.key("items").u64(items);
        j.key("elapsed_s").num(nowS() - t1);
        j.close('}');
        std::ofstream spans(spans_path);
        if (!spans)
            die("cannot write " + spans_path);
        traced.write(spans);
    }
    j.close(']');
    j.key("peak_rss_kb").u64(peakRssKb());
    j.close('}');
    out << "\n";
    out.flush();
    return out ? 0 : 1;
}
