#include <gtest/gtest.h>

#include <vector>

#include "common/event.hh"
#include "mem/controller.hh"

namespace nvck {
namespace {

MemControllerConfig
hybridConfig()
{
    MemControllerConfig cfg;
    cfg.dram = ddr4_2400();
    cfg.pm = reramTiming();
    return cfg;
}

struct Fixture
{
    EventQueue eq;
    MemController ctrl;

    explicit Fixture(const MemControllerConfig &cfg = hybridConfig())
        : ctrl(eq, cfg)
    {}

    /** Enqueue and return completion tick once run. */
    Tick
    access(Addr addr, MemOp op, bool is_pm)
    {
        Tick done = 0;
        MemRequest req;
        req.addr = addr;
        req.op = op;
        req.isPm = is_pm;
        req.onComplete = [&done](Tick t) { done = t; };
        EXPECT_TRUE(ctrl.enqueue(req));
        eq.run();
        return done;
    }
};

TEST(MemController, SingleDramReadLatency)
{
    Fixture f;
    const Tick done = f.access(0x1000, MemOp::Read, false);
    // Closed bank: tRCD + tCAS + burst = 13.32 + 13.32 + 3.33 ns.
    EXPECT_NEAR(ticksToNs(done), 29.97, 0.5);
}

TEST(MemController, SinglePmReadUsesNvramLatency)
{
    Fixture f;
    const Tick done = f.access(0x1000, MemOp::Read, true);
    // ReRAM tRCD 120ns + tCAS + burst.
    EXPECT_NEAR(ticksToNs(done), 120.0 + 13.32 + 3.33, 0.5);
}

TEST(MemController, RowHitIsFasterThanRowMiss)
{
    Fixture f;
    const Tick first = f.access(0x0, MemOp::Read, false);
    const Tick start_second = f.eq.now();
    const Tick second = f.access(64, MemOp::Read, false); // same row
    EXPECT_LT(second - start_second, first);
    EXPECT_EQ(f.ctrl.stats().rowHits.value(), 1u);
}

TEST(MemController, RowClosesAfterIdleWindow)
{
    Fixture f;
    f.access(0x0, MemOp::Read, false);
    // Wait well past the 50ns idle close, then access the same row:
    // must be a row miss (closed), not a hit.
    f.eq.runUntil(f.eq.now() + nsToTicks(500));
    f.access(64, MemOp::Read, false);
    EXPECT_EQ(f.ctrl.stats().rowHits.value(), 0u);
    EXPECT_EQ(f.ctrl.stats().rowMisses.value(), 2u);
}

TEST(MemController, ConflictPaysPrechargePlusActivate)
{
    Fixture f;
    f.access(0x0, MemOp::Read, false);
    // Same bank, different row, immediately: conflict.
    const unsigned bpr = f.ctrl.blocksPerRow(false);
    const unsigned banks = 16;
    const Addr other_row =
        static_cast<Addr>(bpr) * banks * blockBytes; // row + 1, bank 0
    const Tick start = f.eq.now();
    const Tick done = f.access(other_row, MemOp::Read, false);
    EXPECT_EQ(f.ctrl.stats().rowConflicts.value(), 1u);
    // tRP + tRCD + tCAS + burst.
    EXPECT_NEAR(ticksToNs(done - start), 13.32 * 3 + 3.33, 1.0);
}

TEST(MemController, PmWriteScaleInflatesWriteLatency)
{
    auto cfg = hybridConfig();
    Fixture base(cfg);
    const Tick base_done = base.access(0x40, MemOp::Write, true);

    cfg.pmWriteScale = 2.0;
    cfg.pmWriteExtra = nsToTicks(20);
    Fixture scaled(cfg);
    const Tick scaled_done = scaled.access(0x40, MemOp::Write, true);

    // Extra = tWR (300ns) + 20ns.
    EXPECT_NEAR(ticksToNs(scaled_done - base_done), 320.0, 1.0);
}

TEST(MemController, DramWritesUnaffectedByPmScale)
{
    // A lone write is held until the age bound, then serviced with
    // DDR4 timing: the PM write scale must not affect the DRAM rank.
    auto cfg = hybridConfig();
    cfg.pmWriteScale = 4.0;
    cfg.writeMaxAge = nsToTicks(100);
    Fixture f(cfg);
    const Tick done = f.access(0x40, MemOp::Write, false);
    // Age bound + tRCD + tCWD + burst + tWR.
    EXPECT_NEAR(ticksToNs(done), 100.0 + 13.32 + 10.0 + 3.33 + 15.0,
                2.0);
}

TEST(MemController, QueueCapacityEnforced)
{
    auto cfg = hybridConfig();
    cfg.readQueueCap = 4;
    EventQueue eq;
    MemController ctrl(eq, cfg);
    MemRequest req;
    req.op = MemOp::Read;
    int accepted = 0;
    for (int i = 0; i < 10; ++i) {
        req.addr = static_cast<Addr>(i) * 64;
        if (ctrl.enqueue(req))
            ++accepted;
    }
    // The scheduler may have issued some as they were enqueued at tick
    // 0 (no run() yet), but acceptance can never exceed cap + issued.
    EXPECT_LE(accepted, 10);
    EXPECT_GE(accepted, 4);
    eq.run();
    EXPECT_TRUE(ctrl.idle());
}

TEST(MemController, BankParallelismOverlapsAccesses)
{
    // Two reads to different banks should overlap; two to the same
    // bank+row-conflict serialize.
    Fixture f;
    std::vector<Tick> done(2, 0);
    const unsigned bpr = f.ctrl.blocksPerRow(false);
    for (int i = 0; i < 2; ++i) {
        MemRequest req;
        req.addr = static_cast<Addr>(bpr) * blockBytes *
                   static_cast<Addr>(i + 1); // banks 1 and 2
        req.op = MemOp::Read;
        req.onComplete = [&done, i](Tick t) { done[i] = t; };
        ASSERT_TRUE(f.ctrl.enqueue(req));
    }
    f.eq.run();
    const Tick parallel_span = std::max(done[0], done[1]);

    Fixture g;
    std::vector<Tick> done2(2, 0);
    const unsigned banks = 16;
    for (int i = 0; i < 2; ++i) {
        MemRequest req;
        req.addr = static_cast<Addr>(bpr) * blockBytes * banks *
                   static_cast<Addr>(i + 1); // bank 0, rows 1 and 2
        req.op = MemOp::Read;
        req.onComplete = [&done2, i](Tick t) { done2[i] = t; };
        ASSERT_TRUE(g.ctrl.enqueue(req));
    }
    g.eq.run();
    const Tick serial_span = std::max(done2[0], done2[1]);
    EXPECT_LT(parallel_span, serial_span);
}

TEST(MemController, FrFcfsPrefersRowHit)
{
    // Open a row in bank0; enqueue (a) a conflict to bank0-row1 and
    // then (b) a hit to bank0-row0 while the bank is busy. The hit
    // must complete first despite arriving later.
    Fixture f;
    const unsigned bpr = f.ctrl.blocksPerRow(false);
    const unsigned banks = 16;
    f.access(0, MemOp::Read, false); // opens row 0 of bank 0

    Tick conflict_done = 0, hit_done = 0;
    MemRequest conflict;
    conflict.addr =
        static_cast<Addr>(bpr) * blockBytes * banks; // row 1 bank 0
    conflict.op = MemOp::Read;
    conflict.onComplete = [&](Tick t) { conflict_done = t; };
    MemRequest hit;
    hit.addr = 2 * blockBytes; // row 0 bank 0
    hit.op = MemOp::Read;
    hit.onComplete = [&](Tick t) { hit_done = t; };
    ASSERT_TRUE(f.ctrl.enqueue(conflict));
    ASSERT_TRUE(f.ctrl.enqueue(hit));
    f.eq.run();
    EXPECT_LT(hit_done, conflict_done);
}

TEST(MemController, EurCountsCoalescedCodeWrites)
{
    auto cfg = hybridConfig();
    cfg.eurEnabled = true;
    Fixture f(cfg);
    // Three writes into the same VLEW (32-block span) of one row: one
    // coalesced code write when the row closes.
    for (Addr a : {Addr{0}, Addr{64}, Addr{128}}) {
        MemRequest req;
        req.addr = a;
        req.op = MemOp::Write;
        req.isPm = true;
        ASSERT_TRUE(f.ctrl.enqueue(req));
    }
    f.eq.run();
    // Force the row to close by idling past the window and touching a
    // different row of the same bank.
    f.eq.runUntil(f.eq.now() + nsToTicks(1000));
    const unsigned bpr = f.ctrl.blocksPerRow(true);
    MemRequest probe;
    probe.addr = static_cast<Addr>(bpr) * blockBytes * 16;
    probe.op = MemOp::Write;
    probe.isPm = true;
    ASSERT_TRUE(f.ctrl.enqueue(probe));
    f.eq.run();
    EXPECT_NEAR(f.ctrl.cFactor(), 1.0 / 3.0, 0.1);
}

TEST(MemController, EurDistinctVlewsDrainSeparately)
{
    auto cfg = hybridConfig();
    cfg.eurEnabled = true;
    Fixture f(cfg);
    // Writes to two different VLEW slots of the same bank 0 row: with
    // VLEW-granular interleaving over 16 banks, chunk 0 (addr 0) and
    // chunk 16 (addr 16 * 2KB) share bank 0, slots 0 and 1.
    for (Addr a : {Addr{0}, Addr{16 * 32 * 64}}) {
        MemRequest req;
        req.addr = a;
        req.op = MemOp::Write;
        req.isPm = true;
        ASSERT_TRUE(f.ctrl.enqueue(req));
    }
    f.eq.run();
    f.eq.runUntil(f.eq.now() + nsToTicks(1000));
    MemRequest probe;
    probe.addr = 64; // same row: hit, no drain
    probe.op = MemOp::Read;
    probe.isPm = true;
    Tick done = 0;
    probe.onComplete = [&](Tick t) { done = t; };
    ASSERT_TRUE(f.ctrl.enqueue(probe));
    f.eq.run();
    // The idle close drained both registers: 2 code writes / 2 data.
    EXPECT_NEAR(f.ctrl.cFactor(), 1.0, 0.01);
}

TEST(MemController, OverheadTrafficTrackedSeparately)
{
    Fixture f;
    MemRequest req;
    req.addr = 0x100;
    req.op = MemOp::Read;
    req.isPm = true;
    req.isOverhead = true;
    ASSERT_TRUE(f.ctrl.enqueue(req));
    f.eq.run();
    EXPECT_EQ(f.ctrl.stats().overheadReads.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().pmReads.value(), 0u);
}

TEST(MemController, WriteDrainEventuallyServicesWrites)
{
    Fixture f;
    int completed = 0;
    for (int i = 0; i < 40; ++i) {
        MemRequest req;
        req.addr = static_cast<Addr>(i) * 64;
        req.op = MemOp::Write;
        req.isPm = true;
        req.onComplete = [&completed](Tick) { ++completed; };
        ASSERT_TRUE(f.ctrl.enqueue(req));
    }
    f.eq.run();
    EXPECT_EQ(completed, 40);
    EXPECT_TRUE(f.ctrl.idle());
}

TEST(MemController, OneWakePendingPerTick)
{
    // PCM reads to one bank arrive one per ns while that bank serves
    // the first. Each arrival wakes the scheduler at once; that wake
    // finds the bank busy and asks again for the bank's ready tick.
    // All those requests name the same tick, so exactly one wake may
    // be queued for it: the first read's completion plus that wake.
    MemControllerConfig cfg = hybridConfig();
    cfg.pm = pcmTiming();
    Fixture f(cfg);
    const Addr same_bank_stride = Addr{cfg.pm.banks} *
                                  (cfg.vlewDataBytes / chipBeatBytes) *
                                  blockBytes;
    const unsigned burst = 32;
    unsigned completed = 0;
    for (unsigned i = 0; i < burst; ++i) {
        MemRequest req;
        req.addr = i * same_bank_stride;
        req.op = MemOp::Read;
        req.isPm = true;
        req.onComplete = [&completed](Tick) { ++completed; };
        ASSERT_TRUE(f.ctrl.enqueue(std::move(req)));
        f.eq.runUntil(f.eq.now()); // this tick's wake
        EXPECT_EQ(f.eq.pending(), i == 0 ? 1u : 2u) << "arrival " << i;
        f.eq.runUntil(f.eq.now() + nsToTicks(1));
    }
    ASSERT_EQ(completed, 0u); // still inside the first read
    f.eq.run();
    EXPECT_EQ(completed, burst);
    EXPECT_EQ(f.ctrl.stats().pmReads.value(), burst);
    EXPECT_TRUE(f.ctrl.idle());
}

} // namespace
} // namespace nvck
