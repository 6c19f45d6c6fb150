/**
 * @file
 * The replay pipeline: one System owns a complete simulated machine
 * (address space, TLBs, caches, memory, protection scheme) and
 * consumes a trace, accumulating cycles. It is a TraceSink, so one
 * captured trace can be fanned out to several Systems — one per
 * scheme — in a single pass, the way the paper replays one Pin trace
 * under every mechanism.
 */

#ifndef PMODV_CORE_SYSTEM_HH
#define PMODV_CORE_SYSTEM_HH

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/factory.hh"
#include "arch/shootdown_bus.hh"
#include "core/config.hh"
#include "mem/hierarchy.hh"
#include "stats/slow_digest.hh"
#include "stats/stats.hh"
#include "stats/timeseries.hh"
#include "tlb/hierarchy.hh"
#include "trace/event_ring.hh"
#include "trace/sinks.hh"

namespace pmodv::core
{

/**
 * Private replay state of one core: its own TLB hierarchy, caches,
 * running thread and cycle attribution. The PMO/domain registry, page
 * tables, DTT/DRT, key-allocation state and shootdown bus stay
 * shared, inside the scheme / System.
 *
 * Every machine has at least one core. A one-core machine lays its
 * only core out flat: the TLB hierarchy and caches register directly
 * under the System and the core's own scalars stay out of the stats
 * tree, so K=1 trees keep the shape the golden-replay tests pin down.
 * On a K-core machine each core is a `core<k>` group.
 */
class CoreContext : public stats::Group
{
  public:
    CoreContext(stats::Group *machine, unsigned idx,
                const SimConfig &config, tlb::AddressSpace &space);

    stats::Scalar cycles;        ///< Cycles accumulated on this core.
    stats::Scalar instructions;  ///< Instructions issued here.
    stats::Scalar memAccesses;   ///< Loads + stores replayed here.
    stats::Scalar ctxSwitches;   ///< Context switches taken here.
    stats::Scalar ipisResponded; ///< Shootdown IPIs answered w/ stale entries.
    stats::Scalar ipisFiltered;  ///< Shootdown IPIs with nothing to flush.

    std::unique_ptr<tlb::TlbHierarchy> tlb;
    std::unique_ptr<mem::CacheHierarchy> caches;

    /**
     * Counts not yet added to the Scalars above: the replay loop
     * bumps these, and System drains them into both this core's and
     * the machine-wide Scalars. The `cycles` Scalar lags cycleCount
     * by cycleCount - flushedCycles.
     */
    std::uint64_t pendInstructions = 0;
    std::uint64_t pendMemAccesses = 0;
    Cycles flushedCycles = 0;

    /** This core's id (== its position in System's core list). */
    const arch::CoreId index;
    /** The thread currently scheduled on this core. */
    ThreadId curTid = 0;
    /** This core's private cycle counter (makespan input). */
    Cycles cycleCount = 0;
    /**
     * Open-loop idle offset: cycles this core's virtual clock jumped
     * forward waiting for the next stamped arrival (request-latency
     * tracking only; never charged to any attribution bucket).
     */
    Cycles idleSkew = 0;
};

/** A full machine replaying a trace under one protection scheme. */
class System : public stats::Group, public trace::TraceSink
{
  public:
    /**
     * Build a pipeline. @p name becomes the stats prefix; @p scheme
     * selects the protection mechanism.
     */
    System(const SimConfig &config, arch::SchemeKind scheme,
           std::string name = "");
    ~System() override;

    // -- TraceSink --
    /** Replay one record: the same step replayBatch() runs. */
    void put(const trace::TraceRecord &rec) override;
    /** Ends the replay: closes the timeline's trailing epoch. */
    void finish() override;

    /**
     * Replay a whole batch of records through the devirtualized hot
     * loop. Produces exactly the same cycles, stats tree, event ring
     * and timeline as feeding each record through put(): both run
     * the same record step, which skips or devirtualizes the
     * per-access protection check (ProtectionScheme::fastCheck) and
     * defers the System's and the cores' own Scalar updates into
     * plain integer accumulators, flushing them before every
     * timeline epoch boundary and at the end of the call. A batch
     * also defers the components' (TLBs, caches, scheme) counters
     * the same way. All deferred quantities are integers well below
     * 2^53, so the batched double adds are bit-identical to
     * per-record ones.
     *
     * Call finish() after the last batch, exactly as with put().
     */
    void replayBatch(std::span<const trace::TraceRecord> records);

    /** Total cycles accumulated so far (summed over all cores). */
    Cycles totalCycles() const { return cycleCount_; }

    /** Wall-clock makespan in cycles: the busiest core's counter. */
    Cycles makespanCycles() const;

    /** Simulated seconds of makespan at the configured clock. */
    double seconds() const { return config_.secondsFor(makespanCycles()); }

    const SimConfig &config() const { return config_; }
    arch::SchemeKind schemeKind() const { return schemeKind_; }
    arch::ProtectionScheme &scheme() { return *scheme_; }
    const arch::ProtectionScheme &scheme() const { return *scheme_; }
    /** Core 0's TLB hierarchy and caches (the whole machine's at K=1). */
    tlb::TlbHierarchy &tlbs() { return *cores_.front()->tlb; }
    mem::CacheHierarchy &caches() { return *cores_.front()->caches; }
    tlb::AddressSpace &addressSpace() { return space_; }

    /** Core count of this machine. */
    unsigned numCores() const { return config_.topology.numCores; }

    /** Core @p k's private state (core 0 is the only one at K=1). */
    CoreContext &coreAt(arch::CoreId k) { return *cores_.at(k); }

    /**
     * The IPI broadcast fabric, or null on a one-core machine: its bus
     * has no remote core to interrupt and stays out of the stats tree.
     */
    arch::ShootdownBus *shootdownBus()
    {
        return numCores() == 1 ? nullptr : bus_.get();
    }
    const arch::ShootdownBus *shootdownBus() const
    {
        return numCores() == 1 ? nullptr : bus_.get();
    }

    /** The protection layer's flight recorder. */
    trace::EventRing &events() { return events_; }
    const trace::EventRing &events() const { return events_; }

    /** Drain the event ring (oldest first; the ring empties). */
    std::vector<trace::Event> drainEvents() { return events_.drain(); }

    // Replay statistics.
    stats::Scalar cycles;
    stats::Scalar instructions;
    stats::Scalar memAccesses;
    stats::Scalar pmoAccesses;
    stats::Scalar operations;
    stats::Scalar deniedAccesses;

    // Where the cycles went. These buckets partition `cycles`: every
    // addCycles() call names exactly one of them, so their sum always
    // equals the total (asserted by tools/check_stats_schema.py).
    stats::Scalar cycIssue;     ///< Instruction issue (InstBlock).
    stats::Scalar cycMem;       ///< Visible load/store latency.
    stats::Scalar cycProtFill;  ///< Protection fill work on TLB misses.
    stats::Scalar cycProtCheck; ///< Per-access protection checks.
    stats::Scalar cycPermInstr; ///< SETPERM/WRPKRU instructions.
    stats::Scalar cycSyscall;   ///< Attach/detach paths.
    stats::Scalar cycCtxSwitch; ///< Context-switch processing.

    stats::Formula ipc;
    /** Cycles per workload operation (OpBegin..OpEnd), log2 buckets. */
    stats::Histogram opCycles;

    /**
     * Request-latency histograms, created only when
     * config.opClasses > 0 (open-loop server replays); null
     * otherwise, so legacy stats trees keep their pinned shape.
     * op_lat measures stamped arrival -> completion (service time
     * plus queueing), op_queue measures arrival -> service start.
     */
    const stats::Histogram *opLatHist() const { return opLat_.get(); }
    const stats::Histogram *opQueueHist() const { return opQueue_.get(); }
    /** Per-class variants (class i < config.opClasses, else null). */
    const stats::Histogram *
    opLatClassHist(unsigned i) const
    {
        return i < opLatClass_.size() ? opLatClass_[i].get() : nullptr;
    }
    const stats::Histogram *
    opQueueClassHist(unsigned i) const
    {
        return i < opQueueClass_.size() ? opQueueClass_[i].get()
                                        : nullptr;
    }

    /**
     * True when the per-request tail-forensics layer is active
     * (config.slowRequestK > 0 and opClasses > 0). When off, stats
     * trees, event rings and JSON exports are bit-identical to a
     * build without the layer.
     */
    bool forensicsEnabled() const { return opForensics_; }

    /** Aggregate top-K slow-request digest (null unless forensics). */
    const stats::SlowRequestDigest *slowDigest() const
    {
        return slowDigest_.get();
    }
    /** Per-class digest (class i < config.opClasses, else null). */
    const stats::SlowRequestDigest *
    slowDigestClass(unsigned i) const
    {
        return i < slowDigestClass_.size() ? slowDigestClass_[i].get()
                                           : nullptr;
    }

    /**
     * Epoch-sampled counter trajectory (config.samplingEpochCycles; off
     * by default). Tracks the replay counters, the cycle-attribution
     * buckets, L1 TLB misses and the scheme's eviction/shootdown
     * counters — plus whatever the scheme adds via its
     * registerTimelineTracks() hook (DTTLB/PTLB misses).
     */
    stats::TimeSeries timeline;

  private:
    /**
     * Integer accumulators for the System's own counters, filled by
     * the replay loop instead of bumping the Scalars per record
     * (instructions and memory accesses are counted per core). The
     * one instance, batch_, is all zero between replay calls.
     */
    struct BatchCounters
    {
        std::uint64_t pmoAccesses = 0;
        std::uint64_t operations = 0;
        std::uint64_t denied = 0;
        std::uint64_t cycIssue = 0;
        std::uint64_t cycMem = 0;
        std::uint64_t cycProtFill = 0;
        std::uint64_t cycProtCheck = 0;
        std::uint64_t cycPermInstr = 0;
        std::uint64_t cycSyscall = 0;
        std::uint64_t cycCtxSwitch = 0;
    };

    /**
     * The record step behind put() and replayBatch(): replay
     * @p records in order, each on the core its thread is pinned to
     * (thread t runs on core t % K).
     */
    void replayRecords(std::span<const trace::TraceRecord> records);

    /** Drain batch_ and every core's pending counts into the Scalars
     *  (and reset them). */
    void flushBatch();

    /**
     * Switch every owned component (TLBs, caches, memory, scheme) in
     * or out of deferred-stats mode. Disabling flushes any pending
     * counts, so toggling is always exact.
     */
    void setComponentStatsDeferred(bool defer);

    /**
     * Flush the components' deferred counters into their Scalars
     * without leaving deferred mode. Must run before every
     * timeline.tick() so epoch snapshots see exact values.
     */
    void flushComponentStats();

    /** The visible-latency formula (slow path / table filler). */
    Cycles visibleCycles(Cycles lat) const;

    /**
     * Request-latency tracking on a stamped OpBegin: advance the
     * serving core's virtual clock (@p cycle_now + @p idle_skew) to
     * the stamped arrival if the core is ahead of the arrival
     * process (the jump moves only the idle offset — no attribution
     * bucket is charged), then sample the queueing delay.
     */
    void beginTrackedOp(const trace::TraceRecord &rec, Cycles cycle_now,
                        Cycles &idle_skew);

    /** Sample arrival->completion latency at a stamped op's OpEnd. */
    void endTrackedOp(Cycles cycle_now, Cycles idle_skew);

    /** Current values of the 7 attribution buckets, digest order. */
    std::array<std::uint64_t, stats::kSlowDigestBuckets>
    bucketCycles() const;

    /** Fold @p d's not-yet-flushed bucket cycles into @p snap (the
     *  replay loop's Scalars lag behind by exactly these). */
    static void addPendingBuckets(
        std::array<std::uint64_t, stats::kSlowDigestBuckets> &snap,
        const BatchCounters &d);

    /**
     * Open a request blame window at a stamped OpBegin (forensics
     * only): assign the request id, mark the event ring so in-window
     * events can be identified, tag subsequently posted events with
     * the id, and remember the bucket snapshot @p snap.
     */
    void beginForensics(const trace::TraceRecord &rec,
                        const std::array<std::uint64_t,
                                         stats::kSlowDigestBuckets> &snap);

    /**
     * Close the blame window at the op's OpEnd: compute the request's
     * bucket breakdown (snap - the OpBegin snapshot), its latency
     * partition (queue + service + residue), collect the in-window
     * event chain from the ring, and offer the entry to the digests.
     */
    void endForensics(const trace::TraceRecord &rec, Cycles cycle_now,
                      Cycles idle_skew,
                      const std::array<std::uint64_t,
                                       stats::kSlowDigestBuckets> &snap);

    SimConfig config_;
    arch::SchemeKind schemeKind_;
    trace::EventRing events_;
    tlb::AddressSpace space_;
    /** One CoreContext per core (flat at K=1). */
    std::vector<std::unique_ptr<CoreContext>> cores_;
    std::unique_ptr<arch::ShootdownBus> bus_;
    std::unique_ptr<arch::ProtectionScheme> scheme_;
    Cycles cycleCount_ = 0;
    BatchCounters batch_;
    /** visTable_[lat] = visible cycles for translate+mem latency lat. */
    std::vector<Cycles> visTable_;
    /** Cycle count at the most recent OpBegin (op in flight if set). */
    Cycles opStart_ = 0;
    bool opInFlight_ = false;

    // ---- request-latency tracking (config.opClasses > 0) ----
    /** True when the op_lat/op_queue histograms exist. */
    bool opTrack_ = false;
    /** Arrival stamp / class of the in-flight tracked op. */
    Cycles opArrival_ = 0;
    std::uint32_t opClassCur_ = 0;
    bool opHasArrival_ = false;
    /**
     * Virtual-clock origin of the arrival process, latched at the
     * first stamped OpBegin: capture-time stamps are relative to the
     * moment the server finishes setup and starts serving, so the
     * (scheme-dependent) setup cost does not masquerade as queueing.
     */
    Cycles opArrivalBase_ = 0;
    bool opBaseSet_ = false;
    std::unique_ptr<stats::Histogram> opLat_;
    std::unique_ptr<stats::Histogram> opQueue_;
    std::vector<std::unique_ptr<stats::Histogram>> opLatClass_;
    std::vector<std::unique_ptr<stats::Histogram>> opQueueClass_;

    // ---- tail forensics (config.slowRequestK > 0, opClasses > 0) ----
    /** True when the slow-request digests exist. */
    bool opForensics_ = false;
    /** Queueing delay of the in-flight tracked op (beginTrackedOp). */
    Cycles opQueueCur_ = 0;
    /** Monotone tracked-request counter (ids are 1-based). */
    std::uint64_t reqNextId_ = 0;
    /** Id of the open blame window (0 = none). */
    std::uint64_t reqId_ = 0;
    /** Global cycle count at the window's OpBegin. */
    Cycles reqBegin_ = 0;
    /** Primary domain stamped on the window's OpBegin (aux field). */
    std::uint64_t reqDomain_ = 0;
    /** Ring lastId() at OpBegin: in-window events have larger ids. */
    std::uint64_t reqRingMark_ = 0;
    /** Attribution-bucket snapshot taken at OpBegin. */
    std::array<std::uint64_t, stats::kSlowDigestBuckets> reqSnap_{};
    std::unique_ptr<stats::SlowRequestDigest> slowDigest_;
    std::vector<std::unique_ptr<stats::SlowRequestDigest>>
        slowDigestClass_;
};

} // namespace pmodv::core

#endif // PMODV_CORE_SYSTEM_HH
