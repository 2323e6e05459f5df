/**
 * @file
 * Full-scale timing-path golden: every RunMetrics field of runBaseline
 * and runProposal for ReRAM/PCM x the WHISPER and SPLASH points the
 * end-to-end benchmark sweeps, at benchRunControl(1.0) windows with a
 * fixed seed, printed at %.17g and diffed against
 * tests/golden/perf_points_full.txt byte for byte.
 *
 * The sweep goldens (test_bench_golden.cc) run at goldenScale() time
 * 0.25, which is too short for some scheduler-timing differences to
 * surface (the write queue's age-bound flush, for one). This file pins
 * the full windows, so a simulator-speed change that claims identical
 * results has to produce them here.
 *
 * Regenerate after an intentional model change with
 *
 *   NVCK_REGEN_GOLDEN=1 ./test_bench_golden
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hh"

namespace nvck {
namespace {

void
field(std::ostream &os, const char *name, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%.17g", name, v);
    os << buf;
}

void
field(std::ostream &os, const char *name, std::uint64_t v)
{
    os << ' ' << name << '=' << v;
}

void
printMetrics(std::ostream &os, const char *run, const RunMetrics &m)
{
    os << m.tech << ' ' << m.workload << ' ' << run
       << " scheme=" << m.scheme;
    field(os, "ipc", m.ipc);
    field(os, "mflops", m.mflops);
    field(os, "perf", m.perf);
    field(os, "cFactor", m.cFactor);
    field(os, "omvHitRate", m.omvHitRate);
    field(os, "dirtyPmFraction", m.dirtyPmFraction);
    field(os, "omvFraction", m.omvFraction);
    field(os, "pmReads", m.pmReads);
    field(os, "pmWrites", m.pmWrites);
    field(os, "dramReads", m.dramReads);
    field(os, "dramWrites", m.dramWrites);
    field(os, "overheadReads", m.overheadReads);
    field(os, "overheadWrites", m.overheadWrites);
    field(os, "vlewFetches", m.vlewFetches);
    field(os, "oldDataFetches", m.oldDataFetches);
    field(os, "avgReadLatencyNs", m.avgReadLatencyNs);
    field(os, "avgWriteLatencyNs", m.avgWriteLatencyNs);
    field(os, "rowHitRate", m.rowHitRate);
    os << '\n';
}

TEST(BenchGolden, PerfPointsFullScaleMatchGolden)
{
    const RunControl rc = benchRunControl(1.0);
    const std::uint64_t seed = 1;
    std::ostringstream out;
    for (PmTech tech : {PmTech::Reram, PmTech::Pcm}) {
        for (const char *name :
             {"echo", "ycsb", "hashmap", "btree", "ocean", "radix"}) {
            printMetrics(out, "baseline",
                         runBaseline(tech, name, seed, rc));
            printMetrics(out, "proposal",
                         runProposal(tech, name, seed, rc));
        }
    }

    const std::string path =
        std::string(NVCK_GOLDEN_DIR) + "/perf_points_full.txt";
    if (std::getenv("NVCK_REGEN_GOLDEN")) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(f) << "cannot write " << path;
        f << out.str();
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " — run with NVCK_REGEN_GOLDEN=1 to create it";
    std::ostringstream golden;
    golden << in.rdbuf();

    // Line by line, so a failure names the point and field that moved.
    std::istringstream g(golden.str()), a(out.str());
    std::string gl, al;
    for (unsigned line = 1;; ++line) {
        const bool gok = static_cast<bool>(std::getline(g, gl));
        const bool aok = static_cast<bool>(std::getline(a, al));
        if (!gok && !aok)
            break;
        ASSERT_EQ(gok ? gl : "<eof>", aok ? al : "<eof>")
            << "line " << line << " of " << path;
    }
}

} // namespace
} // namespace nvck
