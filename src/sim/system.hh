/**
 * @file
 * The full simulated system: cores -> cache hierarchy (SAM/OMV) ->
 * protection scheme hooks -> hybrid DRAM+NVRAM memory controller. Glues
 * the components through the CoreContext and MemSink interfaces and
 * injects the scheme's overhead traffic (VLEW fetches, old-data reads)
 * with the probabilities the analytical models supply — the same
 * methodology the paper uses in gem5 (Section VI).
 */

#ifndef NVCK_SIM_SYSTEM_HH
#define NVCK_SIM_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/event.hh"
#include "common/rng.hh"
#include "cpu/core.hh"
#include "mem/controller.hh"
#include "sim/configs.hh"
#include "workload/synthetic.hh"

namespace nvck {

/** System-level statistics beyond the per-component groups. */
struct SystemStats
{
    Counter vlewFetches;      //!< reads that triggered VLEW correction
    Counter oldDataFetches;   //!< writes that fetched old data off-chip
    Counter persists;         //!< PM writes with persist semantics
};

/** Everything a power cut destroyed across the machine. */
struct PowerFailReport
{
    PowerCutReport controller;
    VolatileDiscard caches;
    /** Persist acknowledgements that were pending at the cut. */
    std::size_t persistsInFlight = 0;
};

/** The simulated machine. */
class System : public CoreContext, public MemSink
{
  public:
    explicit System(const SystemConfig &config);

    /**
     * Build the system around an externally supplied workload (e.g. a
     * TraceReplayWorkload carrying real application traces) instead of
     * the named synthetic generator in @p config.
     */
    System(const SystemConfig &config,
           std::unique_ptr<Workload> external_workload);

    /** Start all cores. */
    void start();

    /** Advance simulation to absolute time @p until. */
    void runUntil(Tick until) { eq.runUntil(until); }

    /**
     * Stop the current runUntil() after the executing event returns —
     * the machine dies mid-event. Crash campaigns call this from a
     * CrashHooks callback at the chosen cut site so no simulated time
     * passes between the cut and powerFail().
     */
    void requestHalt() { eq.halt(); }

    Tick now() const { return eq.now(); }

    // CoreContext interface ------------------------------------------
    bool access(unsigned core, Addr addr, bool is_write, bool is_pm,
                Tick when, Cycle *latency_cycles,
                Core &requester) override;
    void clean(unsigned core, Addr addr, bool is_pm, Tick when) override;
    bool persistsPending(unsigned core) const override;
    void onPersistDrain(unsigned core, Core &requester) override;

    // MemSink interface ----------------------------------------------
    void writeBlock(Addr addr, bool is_pm, bool omv_hit) override;

    // Accessors -------------------------------------------------------
    MemController &memory() { return mem; }
    CacheHierarchy &caches() { return hierarchy; }
    Core &core(unsigned i) { return *cores.at(i); }
    unsigned coreCount() const
    {
        return static_cast<unsigned>(cores.size());
    }
    Workload &workload() { return *bench; }
    const SystemStats &stats() const { return sysStats; }
    const SystemConfig &config() const { return cfg; }
    /** The system's event queue (per-queue counters). */
    const EventQueue &events() const { return eq; }
    /** Mutable queue access for co-scheduled engines (sim/ras.hh). */
    EventQueue &events() { return eq; }

    /** Persist acks still owed to writes orphaned by a power cut. */
    std::size_t pendingStaleAcks() const { return stalePersistAcks; }

    void resetStats();

    /**
     * Power failure across the whole machine: the cache hierarchy
     * (including OMV lines) and the controller's volatile state are
     * dropped; queued PM writes flush inside the ADR domain; pending
     * persist acknowledgements and drain waiters die with the cores.
     * The event queue itself is untouched — after this the system can
     * be driven again as the "rebooted" machine, with the bit-level
     * rank recovery handled by the chipkill layer's crashRecovery().
     */
    PowerFailReport powerFail();

  private:
    /** Test seam: drives persistDone() directly to pin the
     *  stale-persist-ack underflow guard with a death test. */
    friend class SystemTestPeer;

    /**
     * A parked controller transaction: a request waiting for its issue
     * time or retrying a full queue. The request and its acceptance
     * callback live in this pooled slot so the retry events capture
     * only {this, slot index} — small enough for the event queue's
     * InlineAction, and recycled without heap traffic. Slots survive a
     * power cut exactly like the retry events that reference them, so
     * stranded chains still complete against the rebooted machine.
     */
    struct IssueSlot
    {
        MemRequest req;
        std::function<void(Tick)> onAccept;
        std::uint32_t next = 0; //!< free-list link
    };

    /** One in-flight VLEW over-fetch's join state (pooled like above). */
    struct VlewFetch
    {
        unsigned remaining = 0;
        Tick decodeLat = 0;
        std::function<void(Tick)> onComplete;
        std::uint32_t next = 0; //!< free-list link
    };

    static constexpr std::uint32_t noSlot = UINT32_MAX;

    /**
     * Enqueue a controller transaction at time >= when; @p on_accept
     * fires when the controller admits the request (ADR persistence
     * domain: an accepted PM write is durable).
     */
    void issueAt(Tick when, MemRequest req,
                 std::function<void(Tick)> on_accept = nullptr);
    std::uint32_t parkIssue(MemRequest req,
                            std::function<void(Tick)> on_accept);
    /** Try to enqueue slot @p s now; reschedules itself on a full
     *  queue, frees the slot and fires onAccept on admission. */
    void retryIssue(std::uint32_t s);
    /** Launch the VLEW over-fetch for a rejected RS correction. */
    void launchVlewFetch(Addr addr, Tick when,
                         std::function<void(Tick)> on_complete);
    void vlewBlockDone(std::uint32_t v, Tick t);
    void persistIssued(unsigned core);
    void persistDone(unsigned core, Tick when);

    SystemConfig cfg;
    EventQueue eq;
    MemController mem;
    CacheHierarchy hierarchy;
    std::unique_ptr<Workload> bench;
    std::vector<std::unique_ptr<Core>> cores;
    Rng rng;
    SystemStats sysStats;

    /** Core whose clean() is currently executing (persist routing). */
    int cleaningCore = -1;
    /** Issue time of the clean currently executing. */
    Tick cleaningWhen = 0;
    std::vector<unsigned> persistsInFlight;
    /** Per-core fenced waiter; resumed via Core::fenceResume(). */
    std::vector<Core *> drainWaiters;
    /** Persist acks owed to writes orphaned by a power cut. */
    std::size_t stalePersistAcks = 0;

    std::vector<IssueSlot> issueSlots;
    std::uint32_t freeIssueSlot = noSlot;
    std::vector<VlewFetch> vlewFetches;
    std::uint32_t freeVlewFetch = noSlot;
};

} // namespace nvck

#endif // NVCK_SIM_SYSTEM_HH
