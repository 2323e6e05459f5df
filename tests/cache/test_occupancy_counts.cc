/**
 * @file
 * The cache directories keep their dirty-PM and OMV line counts as the
 * lines change, so occupancy sampling is O(1). These tests hold the
 * counts against the reference, a full scan of every line, after
 * every operation of seeded random access/clean/power-cut sequences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "cache/hierarchy.hh"
#include "common/rng.hh"

namespace nvck {
namespace {

struct NullSink : MemSink
{
    std::size_t writes = 0;

    void
    writeBlock(Addr, bool, bool) override
    {
        ++writes;
    }
};

/** Reference: count the occupancy of one directory line by line. */
struct ScanCounts
{
    std::size_t dirtyPm = 0;
    std::size_t omv = 0;
};

ScanCounts
scan(const SetAssocCache &cache)
{
    ScanCounts counts;
    for (std::size_t i = 0; i < cache.lines(); ++i) {
        const CacheLine &line = cache.lineAt(i);
        if (line.valid && line.dirty && line.isPm)
            ++counts.dirtyPm;
        if (line.valid && line.omv)
            ++counts.omv;
    }
    return counts;
}

/** Reference dirtyPmFraction(): LLC plus every L1, scanned. */
double
scanDirtyPmFraction(const CacheHierarchy &caches, unsigned cores)
{
    std::size_t dirty_pm = scan(caches.llcDirectory()).dirtyPm;
    std::size_t total = caches.llcDirectory().lines();
    for (unsigned c = 0; c < cores; ++c) {
        total += caches.l1Directory(c).lines();
        dirty_pm += scan(caches.l1Directory(c)).dirtyPm;
    }
    return total ? static_cast<double>(dirty_pm) / total : 0.0;
}

/** Reference omvFraction(): LLC OMV lines, scanned. */
double
scanOmvFraction(const CacheHierarchy &caches)
{
    return static_cast<double>(scan(caches.llcDirectory()).omv) /
           static_cast<double>(caches.llcDirectory().lines());
}

/** Every directory's counts and both fractions equal the scan. */
void
expectCountsMatchScan(const CacheHierarchy &caches, unsigned cores)
{
    for (unsigned c = 0; c < cores; ++c) {
        const ScanCounts l1 = scan(caches.l1Directory(c));
        ASSERT_EQ(caches.l1Directory(c).dirtyPmLines(), l1.dirtyPm);
        ASSERT_EQ(caches.l1Directory(c).omvLines(), l1.omv);
    }
    const ScanCounts llc = scan(caches.llcDirectory());
    ASSERT_EQ(caches.llcDirectory().dirtyPmLines(), llc.dirtyPm);
    ASSERT_EQ(caches.llcDirectory().omvLines(), llc.omv);
    // Bit-identical, not merely close: same integers, same division.
    ASSERT_EQ(caches.dirtyPmFraction(), scanDirtyPmFraction(caches, cores));
    ASSERT_EQ(caches.omvFraction(), scanOmvFraction(caches));
}

/**
 * Drive @p cfg's hierarchy with @p ops seeded random operations over a
 * small pool of blocks that all collide in a few sets (so L1 and LLC
 * evictions, OMV creation and OMV consumption all happen), checking
 * the counts against the scan after each one.
 */
void
runDifferential(const CacheConfig &cfg, std::uint64_t seed, int ops)
{
    NullSink sink;
    CacheHierarchy caches(cfg, sink);
    const std::size_t llc_sets = cfg.llcBytes / blockBytes / cfg.llcWays;
    const Addr stride = static_cast<Addr>(llc_sets) * blockBytes;
    Rng rng(seed);
    std::size_t max_dirty_pm = 0, max_omv = 0, discards = 0;

    for (int op = 0; op < ops; ++op) {
        const unsigned core = static_cast<unsigned>(rng.below(cfg.cores));
        // Two sets, 3x as many tags per set as LLC ways; a block's
        // memory (PM or DRAM) is a function of its address, as in the
        // simulated system.
        const std::uint64_t tag = rng.below(3 * cfg.llcWays);
        const Addr addr = rng.below(2) * blockBytes + tag * stride;
        const bool is_pm = tag % 4 != 0;
        const std::uint64_t kind = rng.below(1000);
        if (kind < 450)
            caches.access(core, addr, false, is_pm);
        else if (kind < 800)
            caches.access(core, addr, true, is_pm);
        else if (kind < 997)
            caches.clean(core, addr, is_pm);
        else {
            caches.discardVolatile();
            ++discards;
        }
        ASSERT_NO_FATAL_FAILURE(expectCountsMatchScan(caches, cfg.cores))
            << "after op " << op;
        std::size_t dirty_pm = caches.llcDirectory().dirtyPmLines();
        for (unsigned c = 0; c < cfg.cores; ++c)
            dirty_pm += caches.l1Directory(c).dirtyPmLines();
        max_dirty_pm = std::max(max_dirty_pm, dirty_pm);
        max_omv = std::max(max_omv, caches.llcDirectory().omvLines());
    }

    // The sequence reached the states the counts must follow.
    EXPECT_GT(max_dirty_pm, 0u);
    EXPECT_GT(discards, 0u);
    EXPECT_GT(sink.writes, 0u);
    if (cfg.omvEnabled) {
        EXPECT_GT(max_omv, 0u);
        EXPECT_GT(caches.stats().omvHits.value(), 0u);
    } else {
        EXPECT_EQ(max_omv, 0u);
    }
}

CacheConfig
tableIConfig(bool omv_enabled)
{
    CacheConfig cfg;
    cfg.omvEnabled = omv_enabled;
    return cfg;
}

/** Two cores, one-set 2-way L1s, a 2-set 4-way LLC. */
CacheConfig
tinyConfig(bool omv_enabled)
{
    CacheConfig cfg;
    cfg.cores = 2;
    cfg.l1Bytes = 2 * blockBytes;
    cfg.l1Ways = 2;
    cfg.llcBytes = 8 * blockBytes;
    cfg.llcWays = 4;
    cfg.omvEnabled = omv_enabled;
    return cfg;
}

TEST(OccupancyCounts, MatchScanTableIOmvOn)
{
    runDifferential(tableIConfig(true), 11, 3000);
}

TEST(OccupancyCounts, MatchScanTableIOmvOff)
{
    runDifferential(tableIConfig(false), 12, 3000);
}

TEST(OccupancyCounts, MatchScanTinyOmvOn)
{
    runDifferential(tinyConfig(true), 13, 20000);
}

TEST(OccupancyCounts, MatchScanTinyOmvOff)
{
    runDifferential(tinyConfig(false), 14, 20000);
}

TEST(OccupancyCounts, FillOverDirtyPmVictimDropsItsCount)
{
    SetAssocCache c(2 * blockBytes, 2); // one set, 2 ways
    CacheLine &line = c.victim(0);
    c.fill(line, 0, /*is_pm=*/true, /*dirty=*/true);
    EXPECT_EQ(c.dirtyPmLines(), 1u);
    // Overwrite without invalidating, as the hierarchy does with a
    // dirty L1 victim after writing it back.
    c.fill(line, 2 * blockBytes, /*is_pm=*/false, /*dirty=*/false);
    EXPECT_EQ(c.dirtyPmLines(), 0u);
    c.fill(line, 4 * blockBytes, /*is_pm=*/true, /*dirty=*/true);
    EXPECT_EQ(c.dirtyPmLines(), 1u);
}

TEST(OccupancyCounts, InvalidateOmvLine)
{
    SetAssocCache c(8 * blockBytes, 4);
    CacheLine &line = c.victim(0x40);
    c.fill(line, 0x40, true, false);
    c.makeOmv(line);
    EXPECT_EQ(c.omvLines(), 1u);
    c.invalidate(line);
    EXPECT_EQ(c.omvLines(), 0u);
    EXPECT_EQ(c.dirtyPmLines(), 0u);
}

TEST(OccupancyCounts, SetDirtyCountsOnlyPmLines)
{
    SetAssocCache c(8 * blockBytes, 4);
    CacheLine &dram = c.victim(0);
    c.fill(dram, 0, /*is_pm=*/false, /*dirty=*/false);
    c.setDirty(dram, true);
    EXPECT_TRUE(dram.dirty);
    EXPECT_EQ(c.dirtyPmLines(), 0u);

    CacheLine &pm = c.victim(0);
    ASSERT_NE(&pm, &dram);
    c.fill(pm, 4 * blockBytes, /*is_pm=*/true, /*dirty=*/false);
    c.setDirty(pm, true);
    c.setDirty(pm, true); // idempotent
    EXPECT_EQ(c.dirtyPmLines(), 1u);
    c.setDirty(pm, false);
    EXPECT_EQ(c.dirtyPmLines(), 0u);
}

TEST(OccupancyCounts, MakeOmvCountsOnce)
{
    SetAssocCache c(8 * blockBytes, 4);
    CacheLine &line = c.victim(0);
    c.fill(line, 0, true, false);
    c.makeOmv(line);
    c.makeOmv(line); // idempotent
    EXPECT_EQ(c.omvLines(), 1u);
    EXPECT_EQ(c.dirtyPmLines(), 0u);
    EXPECT_EQ(c.lookup(0), nullptr);
    // Refilling the way turns it back into a normal line.
    c.fill(line, 0, true, true);
    EXPECT_EQ(c.omvLines(), 0u);
    EXPECT_EQ(c.dirtyPmLines(), 1u);
}

TEST(OccupancyCounts, DiscardVolatileZeroesCounts)
{
    NullSink sink;
    const CacheConfig cfg = tableIConfig(true);
    CacheHierarchy caches(cfg, sink);
    // A dirty PM block pushed into the LLC over its clean copy leaves
    // an OMV there; two more dirty PM blocks stay in L1.
    caches.access(0, 0x8000, true, true);
    caches.access(0, 0x8000 + 32 * 1024, true, true);
    caches.access(0, 0x8000 + 64 * 1024, true, true);
    ASSERT_GT(caches.llcDirectory().omvLines(), 0u);
    ASSERT_GT(caches.dirtyPmFraction(), 0.0);

    caches.discardVolatile();
    EXPECT_EQ(caches.llcDirectory().dirtyPmLines(), 0u);
    EXPECT_EQ(caches.llcDirectory().omvLines(), 0u);
    for (unsigned c = 0; c < cfg.cores; ++c)
        EXPECT_EQ(caches.l1Directory(c).dirtyPmLines(), 0u);
    EXPECT_EQ(caches.dirtyPmFraction(), 0.0);
    EXPECT_EQ(caches.omvFraction(), 0.0);
}

} // namespace
} // namespace nvck
