/**
 * @file
 * Property suite for the calendar event queue. Every test that pins
 * ordering runs against both the production calendar queue and a
 * test-side reference — a (when, seq) binary heap of std::function
 * entries, the simplest queue with the required order — so the
 * reference is held to the same contract it is used to check. A
 * randomized differential drain then compares the two event for event.
 * The pool tests assert the calendar queue's zero-steady-state-
 * allocation claim through the pool high-water counter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/event.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace nvck {
namespace {

/**
 * Reference event queue: one std::priority_queue ordered by
 * (when, seq), with EventQueue's scheduling surface (schedule,
 * recurring events, run/runUntil, halt, the executed counter).
 */
class HeapQueue
{
  public:
    struct Recurring
    {
        std::size_t idx = 0;
    };

    Tick now() const { return currentTick; }
    bool empty() const { return heap.empty(); }
    std::size_t pending() const { return heap.size(); }
    const EventQueueStats &stats() const { return statistics; }
    void halt() { halted = true; }

    template <typename F>
    void
    schedule(Tick when, F &&action)
    {
        NVCK_ASSERT(when >= currentTick,
                    "HeapQueue::schedule into the past: event at tick ",
                    when, " but now() is ", currentTick);
        heap.push(Entry{when, nextSeq++,
                        std::function<void()>(std::forward<F>(action))});
    }

    template <typename F>
    Recurring
    makeRecurring(F &&action)
    {
        recurring.emplace_back(std::forward<F>(action));
        return Recurring{recurring.size() - 1};
    }

    void
    rearm(Recurring ev, Tick when)
    {
        schedule(when, [this, idx = ev.idx] { recurring[idx](); });
    }

    void
    run()
    {
        halted = false;
        while (!heap.empty() && !halted)
            executeNext();
    }

    void
    runUntil(Tick limit)
    {
        halted = false;
        while (!heap.empty() && !halted && heap.top().when <= limit)
            executeNext();
        if (!halted && currentTick < limit)
            currentTick = limit;
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> action;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    void
    executeNext()
    {
        Entry entry = heap.top();
        heap.pop();
        currentTick = entry.when;
        statistics.executed.inc();
        entry.action();
    }

    std::priority_queue<Entry, std::vector<Entry>, Later> heap;
    std::deque<std::function<void()>> recurring; //!< stable addresses
    Tick currentTick = 0;
    std::uint64_t nextSeq = 0;
    bool halted = false;
    EventQueueStats statistics;
};

/** Which queue a property test runs against. */
enum class Kernel
{
    Calendar, //!< the production EventQueue
    Heap,     //!< the HeapQueue reference
};

/** Run @p body on a fresh queue of the requested kind. */
template <typename Body>
void
withQueue(Kernel kernel, Body &&body)
{
    if (kernel == Kernel::Calendar) {
        EventQueue eq;
        body(eq);
    } else {
        HeapQueue eq;
        body(eq);
    }
}

class EventQueueKernels : public ::testing::TestWithParam<Kernel>
{};

INSTANTIATE_TEST_SUITE_P(Kernels, EventQueueKernels,
                         ::testing::Values(Kernel::Calendar, Kernel::Heap),
                         [](const auto &info) -> std::string {
                             return info.param == Kernel::Calendar
                                        ? "calendar"
                                        : "heap";
                         });

TEST_P(EventQueueKernels, FifoTieOrderAtOneTick)
{
    withQueue(GetParam(), [](auto &eq) {
        std::vector<int> order;
        for (int i = 0; i < 16; ++i)
            eq.schedule(100, [&order, i] { order.push_back(i); });
        eq.run();
        ASSERT_EQ(order.size(), 16u);
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    });
}

TEST_P(EventQueueKernels, FifoTiesInterleavedWithOtherTicks)
{
    // Ties at tick 50 are declared between events at other ticks; the
    // tie-break must follow declaration order, not bucket/heap layout.
    withQueue(GetParam(), [](auto &eq) {
        std::vector<int> order;
        eq.schedule(50, [&] { order.push_back(0); });
        eq.schedule(10, [&] { order.push_back(100); });
        eq.schedule(50, [&] { order.push_back(1); });
        eq.schedule(90, [&] { order.push_back(200); });
        eq.schedule(50, [&] { order.push_back(2); });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{100, 0, 1, 2, 200}));
    });
}

TEST_P(EventQueueKernels, ScheduleDuringExecuteRunsInOrder)
{
    withQueue(GetParam(), [](auto &eq) {
        std::vector<int> order;
        eq.schedule(10, [&] {
            order.push_back(1);
            // Same-tick insert during execution: runs after already-queued
            // same-tick events (larger seq), before later ticks.
            eq.schedule(10, [&] { order.push_back(3); });
            eq.schedule(20, [&] { order.push_back(4); });
        });
        eq.schedule(10, [&] { order.push_back(2); });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
        EXPECT_EQ(eq.stats().executed.value(), 4u);
    });
}

TEST_P(EventQueueKernels, HaltStopsAfterCurrentEventAndResumes)
{
    // The crash-injector contract: halt() inside an event freezes the
    // queue at that event's tick with everything else still pending; a
    // later run picks up exactly where the machine died.
    withQueue(GetParam(), [](auto &eq) {
        std::vector<int> order;
        eq.schedule(10, [&] { order.push_back(1); });
        eq.schedule(20, [&] {
            order.push_back(2);
            eq.halt();
        });
        eq.schedule(30, [&] { order.push_back(3); });
        eq.runUntil(100);
        EXPECT_EQ(order, (std::vector<int>{1, 2}));
        EXPECT_EQ(eq.now(), 20u); // not advanced to the limit
        EXPECT_EQ(eq.pending(), 1u);

        eq.runUntil(100);
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
        EXPECT_EQ(eq.now(), 100u);
        EXPECT_TRUE(eq.empty());
    });
}

TEST_P(EventQueueKernels, RunUntilIdleAdvanceThenScheduleKeepsOrder)
{
    // Regression for the calendar tier's window advance: an idle
    // runUntil() moves now() forward without executing anything. An
    // event E far in the future (overflow tier) followed by a direct
    // schedule F at the same tick after the advance must still run
    // E-before-F (E has the smaller seq).
    withQueue(GetParam(), [](auto &eq) {
        std::vector<int> order;
        const Tick far = EventQueue::ringSpan + 500;
        eq.schedule(far, [&] { order.push_back(1); }); // E: overflow
        eq.runUntil(far - 100); // idle advance; window now covers far
        eq.schedule(far, [&] { order.push_back(2); }); // F: direct bucket
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2}));
    });
}

TEST_P(EventQueueKernels, OverflowPromotionPreservesSeqOrder)
{
    // Events straddling the ring window at the same far tick, declared
    // alternately before (overflow) and after (bucket) the window
    // advance, must drain in declaration order.
    withQueue(GetParam(), [](auto &eq) {
        using Queue = std::decay_t<decltype(eq)>;
        std::vector<int> order;
        const Tick far = 2 * EventQueue::ringSpan + 7;
        eq.schedule(far, [&] { order.push_back(0); });
        eq.schedule(far + 1, [&] { order.push_back(10); });
        // Advance time by executing an early event so the window slides.
        eq.schedule(EventQueue::ringSpan + 100, [&, far] {
            eq.schedule(far, [&] { order.push_back(1); });
            eq.schedule(far + 1, [&] { order.push_back(11); });
        });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11}));
        if constexpr (std::is_same_v<Queue, EventQueue>) {
            EXPECT_GE(eq.stats().overflowPromotions.value(), 2u);
        }
    });
}

TEST_P(EventQueueKernels, RecurringRearmRunsAndReuses)
{
    withQueue(GetParam(), [](auto &eq) {
        using Queue = std::decay_t<decltype(eq)>;
        int fired = 0;
        typename Queue::Recurring ev;
        ev = eq.makeRecurring([&] {
            ++fired;
            if (fired < 5)
                eq.rearm(ev, eq.now() + 10);
        });
        eq.rearm(ev, 10);
        eq.run();
        EXPECT_EQ(fired, 5);
        EXPECT_EQ(eq.now(), 50u);
        EXPECT_EQ(eq.stats().executed.value(), 5u);
    });
}

TEST_P(EventQueueKernels, RecurringInterleavesWithPlainEventsBySeq)
{
    withQueue(GetParam(), [](auto &eq) {
        using Queue = std::decay_t<decltype(eq)>;
        std::vector<int> order;
        typename Queue::Recurring ev =
            eq.makeRecurring([&] { order.push_back(0); });
        eq.schedule(10, [&] { order.push_back(1); });
        eq.rearm(ev, 10); // same tick, later seq: runs after
        eq.schedule(10, [&] { order.push_back(2); });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
    });
}

TEST_P(EventQueueKernels, SchedulingIntoThePastDies)
{
    withQueue(GetParam(), [](auto &eq) {
        eq.schedule(100, [] {});
        eq.run();
        ASSERT_EQ(eq.now(), 100u);
        EXPECT_DEATH(eq.schedule(99, [] {}), "schedule into the past");
    });
}

TEST_P(EventQueueKernels, RearmIntoThePastDies)
{
    withQueue(GetParam(), [](auto &eq) {
        using Queue = std::decay_t<decltype(eq)>;
        typename Queue::Recurring ev = eq.makeRecurring([] {});
        eq.schedule(100, [] {});
        eq.run();
        EXPECT_DEATH(eq.rearm(ev, 99), "schedule into the past");
    });
}

TEST(EventQueuePool, ChurnReusesNodesWithoutGrowth)
{
    // Steady-state churn: after warm-up, scheduling must never grow
    // the pool — the high-water mark is the zero-allocation assertion.
    EventQueue eq;
    const int depth = 64;
    std::uint64_t executed = 0;
    for (int i = 0; i < depth; ++i) {
        eq.schedule(static_cast<Tick>(i + 1),
                    [&executed] { ++executed; });
    }
    const std::size_t highWater = eq.stats().poolHighWater;
    EXPECT_GE(highWater, static_cast<std::size_t>(depth));

    // 100k reschedules at the same steady depth.
    EventQueue::Recurring churn;
    std::uint64_t rounds = 0;
    churn = eq.makeRecurring([&] {
        for (int i = 0; i < depth; ++i)
            eq.schedule(eq.now() + static_cast<Tick>(i + 1),
                        [&executed] { ++executed; });
        if (++rounds < 1000)
            eq.rearm(churn, eq.now() + depth + 1);
    });
    eq.rearm(churn, depth + 1);
    eq.run();

    EXPECT_EQ(executed, static_cast<std::uint64_t>(depth) * 1001);
    // +1 allows the recurring node itself, allocated after warm-up.
    EXPECT_LE(eq.stats().poolHighWater, highWater + 1);
    EXPECT_EQ(eq.stats().peakPending,
              static_cast<std::size_t>(depth) + 1);
}

TEST(EventQueuePool, OverflowChurnStaysFlatToo)
{
    // Far-future scheduling exercises the overflow heap + promotion
    // path; nodes must still recycle once the window catches up.
    EventQueue eq;
    std::uint64_t executed = 0;
    EventQueue::Recurring churn;
    std::uint64_t rounds = 0;
    churn = eq.makeRecurring([&] {
        for (int i = 0; i < 8; ++i) {
            eq.schedule(eq.now() + EventQueue::ringSpan +
                            static_cast<Tick>(i),
                        [&executed] { ++executed; });
        }
        if (++rounds < 200)
            eq.rearm(churn, eq.now() + EventQueue::ringSpan / 2);
    });
    eq.rearm(churn, 1);
    eq.run();
    EXPECT_EQ(executed, 8u * 200u);
    EXPECT_GT(eq.stats().overflowPromotions.value(), 0u);
    // 8 in-flight plain events + recurring node + slack for the rounds
    // where two batches overlap; far below one node per schedule.
    EXPECT_LE(eq.stats().poolHighWater, 32u);
}

/**
 * Randomized differential drain: the same schedule script must execute
 * in the same order, at the same ticks, on the calendar queue and on
 * the HeapQueue reference. The script
 * mixes same-tick ties, short and beyond-window delays, reentrant
 * scheduling from inside events, and occasional halts.
 */
TEST(EventQueueDifferential, RandomScriptsDrainIdentically)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        auto runScript = [seed](auto &eq) {
            Rng rng(seed * 977 + 13);
            std::vector<std::pair<Tick, int>> trace;
            int nextId = 0;

            // Each firing schedules 0-2 follow-ons up to depth 3,
            // covering schedule-during-execute on both tiers. The
            // std::function outlives the drain, so the scheduled
            // closures' references stay valid.
            std::function<void(int, int)> fire;
            fire = [&](int id, int depth) {
                trace.emplace_back(eq.now(), id);
                if (depth >= 3)
                    return;
                const std::uint64_t kids = rng.below(3);
                for (std::uint64_t k = 0; k < kids; ++k) {
                    const Tick delay =
                        rng.chance(0.2)
                            ? EventQueue::ringSpan + rng.below(5000)
                            : rng.below(300);
                    const int kid = nextId++;
                    eq.schedule(eq.now() + delay,
                                [&fire, kid, depth] {
                                    fire(kid, depth + 1);
                                });
                }
            };

            for (int i = 0; i < 200; ++i) {
                const Tick when =
                    rng.chance(0.15)
                        ? EventQueue::ringSpan + rng.below(50000)
                        : rng.below(2000);
                const int id = nextId++;
                eq.schedule(when, [&fire, id] { fire(id, 0); });
            }
            // Drain through a couple of runUntil windows (idle advance
            // + resume) before finishing.
            eq.runUntil(1000);
            eq.runUntil(EventQueue::ringSpan + 1000);
            eq.run();
            return std::make_pair(trace, eq.stats().executed.value());
        };

        EventQueue calendarQueue;
        HeapQueue heapQueue;
        const auto calendar = runScript(calendarQueue);
        const auto heap = runScript(heapQueue);
        ASSERT_EQ(calendar.second, heap.second) << "seed " << seed;
        ASSERT_EQ(calendar.first.size(), heap.first.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < calendar.first.size(); ++i) {
            ASSERT_EQ(calendar.first[i], heap.first[i])
                << "seed " << seed << " event " << i;
        }
    }
}

TEST(EventQueueDifferential, LambdaCapturesUpTo48BytesFitInline)
{
    // Compile-time contract: a 48-byte capture is accepted. (A larger
    // one is a static_assert failure — cannot be a runtime test.)
    EventQueue eq;
    struct Fat
    {
        std::uint64_t a[5];
        std::uint32_t b;
        void operator()() const {}
    };
    static_assert(sizeof(Fat) <= InlineAction::capacity);
    eq.schedule(10, Fat{});
    eq.run();
    EXPECT_EQ(eq.now(), 10u);
}

} // namespace
} // namespace nvck
