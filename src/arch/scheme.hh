/**
 * @file
 * The ProtectionScheme interface: the contract every evaluated
 * mechanism (no-protection, lowerbound, stock MPK, libmpk, HW MPK
 * virtualization, HW domain virtualization) implements.
 *
 * A scheme is both *functional* (it decides whether each access is
 * legal, maintaining real PKRU/DTT/DTTLB/PT/PTLB state) and *timing*
 * (it reports the extra cycles its structures consumed, bucketed into
 * the overhead categories of the paper's Table VII).
 */

#ifndef PMODV_ARCH_SCHEME_HH
#define PMODV_ARCH_SCHEME_HH

#include <string>
#include <vector>

#include "arch/domain_profile.hh"
#include "arch/params.hh"
#include "common/types.hh"
#include "stats/stats.hh"
#include "tlb/hierarchy.hh"
#include "trace/event_ring.hh"

namespace pmodv::arch
{

class ShootdownBus;

/** Why an access was denied. */
enum class FaultKind : std::uint8_t
{
    None = 0,
    PagePermission,   ///< Page-level permission insufficient.
    DomainPermission, ///< Thread lacks domain permission.
    NotAttached,      ///< VA belongs to no attached PMO mapping.
};

/** Outcome of a per-access protection check. */
struct CheckResult
{
    bool allowed = true;
    Cycles extraCycles = 0;
    FaultKind fault = FaultKind::None;
};

/** The context of one memory access being checked. */
struct AccessContext
{
    ThreadId tid = 0;
    Addr va = 0;
    AccessType type = AccessType::Read;
    /** The translation the access resolved to (never null). */
    const tlb::TlbEntry *entry = nullptr;
};

/**
 * Base class of all protection schemes.
 *
 * Lifecycle: the System constructs the scheme with the shared
 * AddressSpace and core topology, then attaches each core's private
 * TLB hierarchy via attachCore() (core 0 first) — a single-core
 * machine is simply a one-core topology. Schemes that stamp
 * keys/domains into TLB entries, or keep per-core translation caches
 * (DTTLB/PTLB), hook onCoreAttached(). Every machine then connects
 * the shared ShootdownBus, the one path key-evicting schemes
 * invalidate through; on one core its broadcast is the local flush.
 */
class ProtectionScheme : public stats::Group
{
  public:
    ProtectionScheme(stats::Group *parent, std::string name,
                     const ProtParams &params, const CoreTopology &topo,
                     const tlb::AddressSpace &space);
    ~ProtectionScheme() override = default;

    /**
     * A devirtualized per-access check entry point. Concrete schemes
     * register a thunk that calls their checkAccess() non-virtually
     * (see fastCheckThunk), letting the batch replay loop skip the
     * vtable dispatch on the hottest call in the simulator.
     */
    using FastCheckFn = CheckResult (*)(ProtectionScheme &,
                                        const AccessContext &);

    /** The registered fast check, or nullptr (callers fall back to
     *  the virtual checkAccess()). */
    FastCheckFn fastCheck() const { return fastCheck_; }

    /**
     * True when checkAccess() unconditionally allows at zero cost
     * (no-protection/lowerbound). The batch replay loop skips the
     * check — and the AccessContext construction — entirely.
     */
    bool alwaysAllows() const { return alwaysAllows_; }

    /** Scheme display name. */
    const std::string &schemeLabel() const { return label_; }

    const ProtParams &params() const { return params_; }

    /**
     * The scheme's statistics subtree. Every scheme IS a
     * stats::Group; this accessor is the uniform way consumers reach
     * it (arch::makeScheme attaches it under the owning System, so
     * the subtree shows up in the System's dumps automatically).
     */
    stats::Group &statsGroup() { return *this; }
    const stats::Group &statsGroup() const { return *this; }

    /**
     * Connect the event flight recorder (not owned; typically the
     * owning System's ring). Schemes post key evictions, shootdowns
     * and buffer refills to it; a null ring disables posting.
     */
    void setEventRing(trace::EventRing *ring) { events_ = ring; }

    /**
     * Connect core @p core's private data TLB (not owned). Calls
     * onCoreAttached() so schemes can install their fill policy and
     * build per-core structures.
     */
    void attachCore(CoreId core, tlb::TlbHierarchy *tlb);

    /**
     * Connect the shared shootdown fabric (not owned; required before
     * replay, at every core count). Schemes that evict keys route
     * their charged invalidations through it.
     */
    void setShootdownBus(ShootdownBus *bus) { bus_ = bus; }

    /**
     * Tell the scheme which core issues the next calls. The replay
     * step sets this from each record's core before calling the
     * scheme; a one-core machine leaves it at core 0, the default.
     */
    void setActiveCore(CoreId core) { activeCore_ = core; }

    CoreId activeCore() const { return activeCore_; }

    const CoreTopology &topology() const { return topo_; }

    /**
     * Check one memory access against the domain permissions. Page
     * permission is checked here too (strictest-of-both rule).
     */
    virtual CheckResult checkAccess(const AccessContext &ctx) = 0;

    /**
     * Execute SETPERM (or the scheme's equivalent): set thread
     * @p tid's permission for @p domain. Returns the cycles consumed.
     */
    virtual Cycles setPerm(ThreadId tid, DomainId domain, Perm perm) = 0;

    /**
     * Execute a raw WRPKRU (legacy MPK PKRU programming). Key-based
     * schemes override to actually update PKRU state; the default
     * charges the instruction cost only.
     */
    virtual Cycles wrpkruRaw(ThreadId tid, ProtKey key, Perm perm);

    /**
     * Attach notification: domain @p domain was mapped at
     * [base, base+size) (already present in the AddressSpace).
     * Returns cycles charged to the attach syscall path.
     */
    virtual Cycles attach(ThreadId tid, DomainId domain, Addr base,
                          Addr size, Perm max_perm) = 0;

    /** Detach notification. */
    virtual Cycles detach(ThreadId tid, DomainId domain) = 0;

    /** The core context-switched from @p from to @p to. */
    virtual Cycles contextSwitch(ThreadId from, ThreadId to) = 0;

    /**
     * Query the *effective* permission thread @p tid currently holds
     * for @p domain (functional oracle used by tests and the PMO
     * runtime).
     */
    virtual Perm effectivePerm(ThreadId tid, DomainId domain) const = 0;

    /**
     * Per-domain attribution: which PMOs the scheme's protection work
     * (fills, evictions, shootdowns, SETPERMs) landed on. Reports
     * rank this into the "hot domains" table.
     */
    const DomainProfile &domainProfile() const { return profile_; }

    /**
     * Add the scheme's counters to the System's timeline sampler.
     * The base registers the cross-scheme event counters (key
     * evictions, shootdowns, shootdown pages, permission changes);
     * schemes with private buffers override to add their miss
     * counters (DTTLB/PTLB) and must call the base first.
     */
    virtual void registerTimelineTracks(stats::TimeSeries &timeline);

    /**
     * Defer the scheme's hot-path counters (per-access cycle buckets,
     * per-core buffer hit/miss counts) into packed locals. Schemes
     * with private buffers (DTTLB/PTLB) override to cascade, calling
     * the base. Disabling flushes.
     */
    virtual void setStatsDeferred(bool defer);

    /** Flush deferred counters into the stats tree now. */
    virtual void flushDeferredStats();

    // ---- Table VII overhead buckets (cycles) ----
    stats::Scalar cycPermissionChange; ///< SETPERM/WRPKRU instructions.
    stats::Scalar cycEntryChange;      ///< DTTLB/PTLB entry operations.
    stats::Scalar cycTableMiss;        ///< DTT walks / PT lookups.
    stats::Scalar cycTlbInvalidation;  ///< Shootdown costs (direct).
    stats::Scalar cycAccessLatency;    ///< Per-access adders (PTLB).
    stats::Scalar cycSoftware;         ///< Syscall/PTE-rewrite (libmpk).

    // ---- event counters ----
    stats::Scalar permChanges;     ///< SETPERM/WRPKRU executed.
    stats::Scalar setperms;        ///< SETPERM instructions executed.
    stats::Scalar wrpkrus;         ///< Raw WRPKRU instructions executed.
    stats::Scalar keyRemaps;       ///< Domain->key (re)assignments.
    stats::Scalar keyEvictions;    ///< Victim domains that lost a key.
    stats::Scalar shootdowns;      ///< Ranged TLB invalidations issued.
    stats::Scalar shootdownPages;  ///< TLB entries shot down by them.
    stats::Scalar protectionFaults; ///< Accesses denied.

  protected:
    /** Register the devirtualized check (from a scheme constructor). */
    void setFastCheck(FastCheckFn fn) { fastCheck_ = fn; }

    /** Declare that checkAccess() always allows at zero cost. */
    void setAlwaysAllows() { alwaysAllows_ = true; }

    /** Helper: combine page and domain permission, build the result. */
    CheckResult judge(const AccessContext &ctx, Perm domain_perm,
                      Cycles extra) const;

    /**
     * Charge one SETPERM instruction: bumps permChanges/setperms,
     * attributes the WRPKRU latency to the permission-change bucket
     * and returns it. Every scheme's setPerm starts here.
     */
    Cycles chargeSetPerm();

    /** As chargeSetPerm(), for a raw WRPKRU. */
    Cycles chargeWrpkru();

    /** Charge @p c to the access-latency bucket (deferral-aware). */
    void chargeAccessLatencyCyc(Cycles c)
    {
        if (statsDeferred_)
            pendCycAccessLatency_ += c;
        else
            cycAccessLatency += c;
    }

    /** Charge @p c to the table-miss bucket (deferral-aware). */
    void chargeTableMissCyc(Cycles c)
    {
        if (statsDeferred_)
            pendCycTableMiss_ += c;
        else
            cycTableMiss += c;
    }

    /** True while hot counters are being deferred. */
    bool statsDeferred() const { return statsDeferred_; }

    /**
     * Hook for attachCore(): @p tlb is core @p core's hierarchy,
     * already recorded in coreTlbs_. Default does nothing.
     */
    virtual void onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb);

    /** Core @p core's TLB hierarchy (fatal if unattached). */
    tlb::TlbHierarchy &tlbAt(CoreId core) const;

    /** Number of cores whose TLBs have been attached. */
    unsigned
    numAttachedCores() const
    {
        return static_cast<unsigned>(coreTlbs_.size());
    }

    /**
     * Functionally flush [base, base+size) from EVERY core's TLB,
     * uncharged — the munmap/detach coherence path, not a modelled
     * shootdown. Returns the total entries flushed.
     */
    std::uint64_t flushRangeAllCores(Addr base, Addr size);

    /** As flushRangeAllCores(), for a protection key. */
    void flushKeyAllCores(ProtKey key);

    /** Post to the event ring (no-op when none is connected). */
    void
    postEvent(trace::EventKind kind, ThreadId tid,
              std::uint32_t arg = 0, std::uint64_t value = 0)
    {
        if (events_)
            events_->post(kind, tid, arg, value);
    }

    ProtParams params_;
    CoreTopology topo_;
    const tlb::AddressSpace &space_;
    /** All attached cores' TLBs, indexed by CoreId. */
    std::vector<tlb::TlbHierarchy *> coreTlbs_;
    ShootdownBus *bus_ = nullptr;
    CoreId activeCore_ = 0;
    trace::EventRing *events_ = nullptr;
    DomainProfile profile_;

    /** Deferred-cycle accumulators (see setStatsDeferred). */
    bool statsDeferred_ = false;
    std::uint64_t pendCycAccessLatency_ = 0;
    std::uint64_t pendCycTableMiss_ = 0;

  private:
    std::string label_;
    FastCheckFn fastCheck_ = nullptr;
    bool alwaysAllows_ = false;
};

/**
 * The canonical fast-check thunk: forwards to @p SchemeT's
 * checkAccess with a qualified (non-virtual) call, so the check body
 * inlines into the thunk. Scheme constructors pass
 * `setFastCheck(&fastCheckThunk<MyScheme>)`.
 */
template <typename SchemeT>
CheckResult
fastCheckThunk(ProtectionScheme &self, const AccessContext &ctx)
{
    return static_cast<SchemeT &>(self).SchemeT::checkAccess(ctx);
}

/** The unprotected baseline: every access allowed, zero cost. */
class NoProtectionScheme : public ProtectionScheme
{
  public:
    NoProtectionScheme(stats::Group *parent, const ProtParams &params,
                       const CoreTopology &topo,
                       const tlb::AddressSpace &space)
        : ProtectionScheme(parent, "none", params, topo, space)
    {
        setAlwaysAllows();
    }

    CheckResult
    checkAccess(const AccessContext &) override
    {
        return {};
    }

    Cycles setPerm(ThreadId, DomainId, Perm) override { return 0; }
    Cycles attach(ThreadId, DomainId, Addr, Addr, Perm) override
    {
        return 0;
    }
    Cycles detach(ThreadId, DomainId) override { return 0; }
    Cycles contextSwitch(ThreadId, ThreadId) override { return 0; }

    Perm
    effectivePerm(ThreadId, DomainId) const override
    {
        return Perm::ReadWrite;
    }
};

/**
 * The ideal lowerbound: permission-change instructions cost their
 * WRPKRU latency but protection structures are free and every access
 * is (correctly, by construction of the workloads) allowed.
 */
class LowerboundScheme : public ProtectionScheme
{
  public:
    LowerboundScheme(stats::Group *parent, const ProtParams &params,
                     const CoreTopology &topo,
                     const tlb::AddressSpace &space)
        : ProtectionScheme(parent, "lowerbound", params, topo, space)
    {
        setAlwaysAllows();
    }

    CheckResult
    checkAccess(const AccessContext &) override
    {
        return {};
    }

    Cycles
    setPerm(ThreadId, DomainId, Perm) override
    {
        return chargeSetPerm();
    }

    Cycles attach(ThreadId, DomainId, Addr, Addr, Perm) override
    {
        return 0;
    }
    Cycles detach(ThreadId, DomainId) override { return 0; }
    Cycles contextSwitch(ThreadId, ThreadId) override { return 0; }

    Perm
    effectivePerm(ThreadId, DomainId) const override
    {
        return Perm::ReadWrite;
    }
};

} // namespace pmodv::arch

#endif // PMODV_ARCH_SCHEME_HH
