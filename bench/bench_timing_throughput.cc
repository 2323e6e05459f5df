/**
 * @file
 * Throughput benchmark for the discrete-event timing kernel
 * (common/event.hh), the pooled two-tier calendar queue.
 *
 * Three scenarios:
 *   - churn_ring:  self-rescheduling event sources whose delays all
 *     land inside the calendar window — the tCAS/tBurst/step-quantum
 *     regime that dominates every timing sweep.
 *   - churn_mixed: same churn with ~1.6% of delays beyond the window,
 *     exercising the overflow tier and its promotions.
 *   - fig16_reram: one fig16-shaped proposal run (ReRAM latencies,
 *     WHISPER workload) end to end, reporting both events/sec and
 *     simulated-ticks/sec.
 *
 * Drain order is pinned elsewhere: tests/common/test_event_queue.cc
 * drains random scripts against a (when, seq) heap reference, and
 * tests/golden/perf_points_full.txt pins every RunMetrics field of the
 * Section VI points. "mbps" in the JSON is Mevents/s so
 * scripts/check_bench.py gates it unchanged; rows keep the
 * "calendar" path label their baselines are keyed by.
 *
 * Usage: bench_timing_throughput [--points N] [--seed S] [--quick]
 *                                [--json PATH]
 *   --points N  scenarios to run (default all 3).
 *   --seed S    base RNG seed (default 2018).
 *   --quick     shorter timing windows and churn runs (CI smoke);
 *               fig16 keeps its simulated window.
 *   --json P    output path (default BENCH_timing_throughput.json).
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "chipkill/schemes.hh"
#include "common/event.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "sim/configs.hh"
#include "sim/experiment.hh"

namespace {

using namespace nvck;

/** Defeats dead-code elimination across timed calls. */
volatile std::uint64_t g_sink = 0;

struct OpResult
{
    double mevents = 0.0; //!< million executed events per second
    double mticks = 0.0;  //!< million simulated ticks per second
    double seconds = 0.0;
    std::uint64_t iters = 0;
    std::uint64_t events = 0;     //!< executed per op
    std::uint64_t promotions = 0; //!< overflow promotions per op
    std::uint64_t peakPending = 0;
    std::uint64_t poolHighWater = 0;
};

/** One timing record per scenario. */
struct Record
{
    std::string scenario;
    std::string path;
    OpResult res;
};

/**
 * Self-rescheduling event sources: each handler draws the next delay
 * and requeues itself until @p horizon. Delays stay inside the
 * calendar window except every ~@p longEvery-th draw, which jumps past
 * ringSpan into the overflow tier (0 disables long jumps). The handler
 * captures {state pointer, source id} — 16 bytes, well inside
 * InlineAction's budget, so no event allocates and the measurement is
 * pure queue mechanics.
 */
struct ChurnScript
{
    EventQueue &eq;
    Rng rng;
    Tick horizon;
    unsigned longEvery;

    ChurnScript(EventQueue &queue, std::uint64_t seed, Tick limit,
                unsigned long_every)
        : eq(queue), rng(seed), horizon(limit), longEvery(long_every)
    {}

    void
    fire(unsigned id)
    {
        Tick delta = 1 + rng.below(64);
        if (longEvery && rng.below(longEvery) == 0)
            delta = EventQueue::ringSpan + rng.below(1024);
        const Tick next = eq.now() + delta;
        if (next <= horizon)
            eq.schedule(next, [this, id] { fire(id); });
    }
};

/** One full churn drain; returns the queue's counters. */
OpResult
runChurn(std::uint64_t seed, Tick horizon, unsigned long_every)
{
    constexpr unsigned sources = 1024;
    EventQueue eq;
    ChurnScript script(eq, seed, horizon, long_every);
    for (unsigned id = 0; id < sources; ++id)
        eq.schedule(1 + id % 64, [&script, id] { script.fire(id); });
    eq.run();
    OpResult out;
    out.events = eq.stats().executed.value();
    out.promotions = eq.stats().overflowPromotions.value();
    out.peakPending = eq.stats().peakPending;
    out.poolHighWater = eq.stats().poolHighWater;
    g_sink = g_sink + eq.now();
    return out;
}

/** Repeat @p op until @p min_seconds accumulate; fill in the rates. */
template <typename F>
OpResult
measure(double min_seconds, double ticks_per_op, F &&op)
{
    using clock = std::chrono::steady_clock;
    OpResult out = op(); // warmup: faults tables in, primes caches
    std::uint64_t iters = 0;
    double seconds = 0.0;
    const auto start = clock::now();
    do {
        out = op();
        ++iters;
        seconds =
            std::chrono::duration<double>(clock::now() - start).count();
    } while (seconds < min_seconds);
    out.iters = iters;
    out.seconds = seconds;
    // The scripts are deterministic, so per-op counters are identical
    // across iterations; scale only the rates.
    const double per_op = out.seconds / static_cast<double>(out.iters);
    out.mevents = static_cast<double>(out.events) / per_op / 1e6;
    out.mticks = ticks_per_op / per_op / 1e6;
    return out;
}

void
benchChurn(std::vector<Record> &records, const std::string &scenario,
           std::uint64_t seed, Tick horizon, unsigned long_every,
           double min_seconds)
{
    records.push_back({scenario, "calendar",
                       measure(min_seconds, 0.0, [&] {
                           return runChurn(seed, horizon, long_every);
                       })});
}

/** One fig16-shaped proposal run. */
OpResult
runFig16(const std::string &workload, std::uint64_t seed,
         const RunControl &rc)
{
    const SystemConfig cfg = SystemConfig::make(
        PmTech::Reram, proposalScheme(runtimeRberFor(PmTech::Reram)),
        workload, seed);
    const EventKernelTotals before = eventKernelTotals();
    const RunMetrics m = runOnce(cfg, rc);
    const EventKernelTotals after = eventKernelTotals();
    OpResult out;
    out.events = after.executed - before.executed;
    out.promotions = after.overflowPromotions - before.overflowPromotions;
    out.peakPending = after.maxPeakPending;
    out.poolHighWater = after.maxPoolHighWater;
    g_sink = g_sink + m.pmReads;
    return out;
}

void
benchFig16(std::vector<Record> &records, std::uint64_t seed,
           double min_seconds)
{
    // The same window under --quick: the row's Mev/s depends on the
    // window, so a shorter one would not be comparable to the baseline.
    const RunControl rc = benchRunControl(0.25);
    const double ticks_per_op =
        static_cast<double>(rc.warmup + rc.measure);
    const std::string workload = "ycsb"; // WHISPER, fig16's left half
    records.push_back({"fig16_reram", "calendar",
                       measure(min_seconds, ticks_per_op, [&] {
                           return runFig16(workload, seed, rc);
                       })});
}

void
writeJson(const std::vector<Record> &records, const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    os << "{\n  \"benchmark\": \"timing_throughput\",\n"
       << "  \"results\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &r = records[i];
        os << "    {\"scenario\": \"" << r.scenario << "\", \"path\": \""
           << r.path << "\", \"mbps\": " << r.res.mevents
           << ", \"mticks_per_s\": " << r.res.mticks
           << ", \"events\": " << r.res.events
           << ", \"overflow_promotions\": " << r.res.promotions
           << ", \"peak_pending\": " << r.res.peakPending
           << ", \"pool_high_water\": " << r.res.poolHighWater
           << ", \"iters\": " << r.res.iters
           << ", \"seconds\": " << r.res.seconds << "}"
           << (i + 1 < records.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    double min_seconds = 0.25;
    unsigned points = 3;
    std::uint64_t seed = 2018;
    bool quick = false;
    std::string json_path = "BENCH_timing_throughput.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
            min_seconds = 0.04;
        } else if (arg == "--points" && i + 1 < argc) {
            points = static_cast<unsigned>(std::stoul(argv[++i]));
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = std::stoull(argv[++i]);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--points N] [--seed S] [--quick]"
                      << " [--json PATH]\n";
            return 2;
        }
    }

    banner("Event kernel", "calendar-queue timing-kernel throughput");

    std::vector<Record> records;
    if (points >= 1) {
        benchChurn(records, "churn_ring", seed,
                   quick ? 20000 : 100000, 0, min_seconds);
    }
    if (points >= 2) {
        // The horizon must span several ring windows or the long jumps
        // would sail past it and never reach the overflow tier.
        benchChurn(records, "churn_mixed", seed ^ 0x16,
                   (quick ? 2 : 6) * EventQueue::ringSpan, 64,
                   min_seconds);
    }
    if (points >= 3)
        benchFig16(records, seed, min_seconds);

    Table table({"scenario", "Mev/s", "Mticks/s", "events/op"});
    for (const auto &r : records) {
        table.row()
            .cell(r.scenario)
            .cell(r.res.mevents)
            .cell(r.res.mticks)
            .cell(static_cast<double>(r.res.events), 0);
    }
    table.print(std::cout);

    writeJson(records, json_path);
    return 0;
}
