#include "event.hh"

#include <algorithm>
#include <atomic>
#include <bit>

#include "common/log.hh"

namespace nvck {

namespace {

// Process-wide roll-up, merged by ~EventQueue. Plain relaxed atomics:
// per-worker queues retire at arbitrary times and sums/maxima are
// order-insensitive.
std::atomic<std::uint64_t> g_queues{0};
std::atomic<std::uint64_t> g_executed{0};
std::atomic<std::uint64_t> g_promotions{0};
std::atomic<std::uint64_t> g_maxPeak{0};
std::atomic<std::uint64_t> g_maxPool{0};

void
atomicMax(std::atomic<std::uint64_t> &slot, std::uint64_t value)
{
    std::uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

EventKernelTotals
eventKernelTotals()
{
    EventKernelTotals t;
    t.queues = g_queues.load(std::memory_order_relaxed);
    t.executed = g_executed.load(std::memory_order_relaxed);
    t.overflowPromotions = g_promotions.load(std::memory_order_relaxed);
    t.maxPeakPending = g_maxPeak.load(std::memory_order_relaxed);
    t.maxPoolHighWater = g_maxPool.load(std::memory_order_relaxed);
    return t;
}

EventQueue::EventQueue()
    : buckets(ringSize), bitsL0(ringSize / 64, 0),
      bitsL1(ringSize / 64 / 64, 0)
{
}

EventQueue::~EventQueue()
{
    g_queues.fetch_add(1, std::memory_order_relaxed);
    g_executed.fetch_add(statistics.executed.value(),
                         std::memory_order_relaxed);
    g_promotions.fetch_add(statistics.overflowPromotions.value(),
                           std::memory_order_relaxed);
    atomicMax(g_maxPeak, statistics.peakPending);
    atomicMax(g_maxPool, statistics.poolHighWater);
}

EventQueue::Node &
EventQueue::node(std::uint32_t idx) const
{
    return chunks[idx >> chunkShift][idx & ((1u << chunkShift) - 1)];
}

void
EventQueue::checkNotPast(Tick when) const
{
    NVCK_ASSERT(when >= currentTick,
                "EventQueue::schedule into the past: event at tick ", when,
                " but now() is ", currentTick,
                " -- completion callbacks must schedule at or after the "
                "tick they run at");
}

void
EventQueue::bumpPending()
{
    ++sizeCount;
    if (sizeCount > statistics.peakPending)
        statistics.peakPending = sizeCount;
}

std::uint32_t
EventQueue::poolAlloc()
{
    if (freeHead != nil) {
        const std::uint32_t idx = freeHead;
        freeHead = node(idx).next;
        return idx;
    }
    const std::uint32_t idx = allocated++;
    if ((idx >> chunkShift) == chunks.size())
        chunks.push_back(
            std::make_unique<Node[]>(std::size_t{1} << chunkShift));
    node(idx).self = idx;
    statistics.poolHighWater = allocated;
    return idx;
}

EventQueue::Node &
EventQueue::acquireNode(Tick when)
{
    checkNotPast(when);
    Node &n = node(poolAlloc());
    n.when = when;
    n.seq = nextSeq++;
    n.next = nil;
    n.recurring = false;
    n.queued = true;
    bumpPending();
    return n;
}

EventQueue::Node &
EventQueue::allocRecurring()
{
    Node &n = node(poolAlloc());
    n.next = nil;
    n.recurring = true;
    n.queued = false;
    return n;
}

void
EventQueue::releaseNode(Node &n)
{
    n.action.reset();
    n.next = freeHead;
    freeHead = n.self;
}

void
EventQueue::rearm(Recurring ev, Tick when)
{
    NVCK_ASSERT(ev.valid(), "rearm of an invalid recurring event");
    Node &n = node(ev.idx);
    NVCK_ASSERT(n.recurring && !n.queued,
                "rearm of a non-recurring or already-pending event");
    checkNotPast(when);
    n.when = when;
    n.seq = nextSeq++;
    n.next = nil;
    n.queued = true;
    bumpPending();
    insertCalendar(n);
}

void
EventQueue::markBucket(std::uint32_t idx)
{
    bitsL0[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    bitsL1[idx >> 12] |= std::uint64_t{1} << ((idx >> 6) & 63);
    bitsL2 |= std::uint64_t{1} << (idx >> 12);
}

void
EventQueue::clearBucket(std::uint32_t idx)
{
    bitsL0[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    if (bitsL0[idx >> 6] == 0) {
        bitsL1[idx >> 12] &= ~(std::uint64_t{1} << ((idx >> 6) & 63));
        if (bitsL1[idx >> 12] == 0)
            bitsL2 &= ~(std::uint64_t{1} << (idx >> 12));
    }
}

std::uint32_t
EventQueue::findSetFrom(std::uint32_t pos) const
{
    // Two-segment search over the logical window: [pos, ringSize) is the
    // near half, [0, pos) holds the wrapped-around far half. Each
    // segment resolves through the three bitmap levels in O(1) word ops.
    auto firstInSegment = [this](std::uint32_t from,
                                 std::uint32_t to) -> std::uint32_t {
        if (from >= to)
            return nil;
        const std::uint32_t w0 = from >> 6;
        std::uint64_t word = bitsL0[w0] & (~std::uint64_t{0} << (from & 63));
        std::uint32_t bit;
        if (word) {
            bit = (w0 << 6) +
                  static_cast<std::uint32_t>(std::countr_zero(word));
            return bit < to ? bit : nil;
        }
        // No hit in the first L0 word; climb to L1 for words > w0.
        const std::uint32_t next = w0 + 1;
        std::uint32_t l0w = nil;
        if ((next >> 6) < bitsL1.size()) {
            std::uint64_t l1word =
                bitsL1[next >> 6] & (~std::uint64_t{0} << (next & 63));
            if (l1word) {
                l0w = ((next >> 6) << 6) +
                      static_cast<std::uint32_t>(std::countr_zero(l1word));
            } else {
                const std::uint32_t l1next = (next >> 6) + 1;
                std::uint64_t l2word =
                    l1next >= 64
                        ? 0
                        : bitsL2 & (~std::uint64_t{0} << l1next);
                if (l2word) {
                    const std::uint32_t l1w = static_cast<std::uint32_t>(
                        std::countr_zero(l2word));
                    l0w = (l1w << 6) +
                          static_cast<std::uint32_t>(
                              std::countr_zero(bitsL1[l1w]));
                }
            }
        }
        if (l0w == nil)
            return nil;
        bit = (l0w << 6) +
              static_cast<std::uint32_t>(std::countr_zero(bitsL0[l0w]));
        return bit < to ? bit : nil;
    };

    std::uint32_t hit = firstInSegment(pos, ringSize);
    if (hit != nil)
        return hit;
    return firstInSegment(0, pos);
}

void
EventQueue::bucketPush(Node &n)
{
    const std::uint32_t idx =
        static_cast<std::uint32_t>(n.when) & ringMask;
    Bucket &b = buckets[idx];
    n.next = nil;
    if (b.head == nil) {
        b.head = b.tail = n.self;
        markBucket(idx);
    } else {
        node(b.tail).next = n.self;
        b.tail = n.self;
    }
    ++ringCount;
}

std::uint32_t
EventQueue::bucketPop(std::uint32_t idx)
{
    Bucket &b = buckets[idx];
    const std::uint32_t head = b.head;
    b.head = node(head).next;
    if (b.head == nil) {
        b.tail = nil;
        clearBucket(idx);
    }
    --ringCount;
    return head;
}

void
EventQueue::overflowPush(std::uint32_t idx)
{
    overflow.push_back(idx);
    std::push_heap(overflow.begin(), overflow.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                       const Node &na = node(a);
                       const Node &nb = node(b);
                       if (na.when != nb.when)
                           return na.when > nb.when;
                       return na.seq > nb.seq;
                   });
}

std::uint32_t
EventQueue::overflowPopMin()
{
    std::pop_heap(overflow.begin(), overflow.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      const Node &na = node(a);
                      const Node &nb = node(b);
                      if (na.when != nb.when)
                          return na.when > nb.when;
                      return na.seq > nb.seq;
                  });
    const std::uint32_t idx = overflow.back();
    overflow.pop_back();
    return idx;
}

void
EventQueue::insertCalendar(Node &n)
{
    if (n.when - currentTick < ringSpan)
        bucketPush(n);
    else
        overflowPush(n.self);
}

void
EventQueue::promote()
{
    // Popping the overflow heap yields (when, seq) order, so each
    // bucket receives its promoted events already FIFO-sorted — and any
    // later direct schedule at the same tick necessarily carries a
    // larger seq (the window covers the tick from this point on).
    while (!overflow.empty() &&
           node(overflow.front()).when - currentTick < ringSpan) {
        const std::uint32_t idx = overflowPopMin();
        bucketPush(node(idx));
        statistics.overflowPromotions.inc();
    }
}

Tick
EventQueue::nextWhen() const
{
    if (ringCount > 0) {
        const std::uint32_t pos =
            static_cast<std::uint32_t>(currentTick) & ringMask;
        const std::uint32_t idx = findSetFrom(pos);
        return node(buckets[idx].head).when;
    }
    return node(overflow.front()).when;
}

void
EventQueue::executeNext()
{
    if (ringCount == 0) {
        // Every pending event sits beyond the window: jump time to the
        // overflow minimum, re-cover the window, and fall through to
        // the normal bucket pop.
        currentTick = node(overflow.front()).when;
        promote();
    }
    const std::uint32_t pos =
        static_cast<std::uint32_t>(currentTick) & ringMask;
    const std::uint32_t bucketIdx = findSetFrom(pos);
    const std::uint32_t idx = bucketPop(bucketIdx);
    Node &n = node(idx);
    if (n.when != currentTick) {
        currentTick = n.when;
        // The window advanced with time: promote before running the
        // action, so anything it schedules inside the new window can
        // never leapfrog an earlier-seq overflow event at the same tick.
        promote();
    }
    --sizeCount;
    statistics.executed.inc();
    n.queued = false;
    if (n.recurring) {
        n.action();
    } else {
        n.action();
        releaseNode(n);
    }
}

void
EventQueue::run()
{
    halted = false;
    while (sizeCount > 0 && !halted)
        executeNext();
}

void
EventQueue::runUntil(Tick limit)
{
    halted = false;
    while (sizeCount > 0 && !halted && nextWhen() <= limit)
        executeNext();
    // A halted run stops at the cutting event's timestamp; advancing
    // to the limit would skip time the dead machine never lived.
    if (!halted && currentTick < limit) {
        currentTick = limit;
        // The idle advance moves the window too: promote now, or a
        // direct schedule after this runUntil could land in a bucket
        // ahead of an earlier-seq overflow event at the same tick.
        promote();
    }
}

} // namespace nvck
