#include "arch/scheme.hh"

#include "common/logging.hh"
#include "stats/timeseries.hh"

namespace pmodv::arch
{

const char *
schemeName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::NoProtection:
        return "none";
      case SchemeKind::Lowerbound:
        return "lowerbound";
      case SchemeKind::Mpk:
        return "mpk";
      case SchemeKind::LibMpk:
        return "libmpk";
      case SchemeKind::MpkVirt:
        return "mpk_virt";
      case SchemeKind::DomainVirt:
        return "domain_virt";
    }
    return "unknown";
}

SchemeKind
schemeFromName(const std::string &name)
{
    if (name == "none")
        return SchemeKind::NoProtection;
    if (name == "lowerbound")
        return SchemeKind::Lowerbound;
    if (name == "mpk")
        return SchemeKind::Mpk;
    if (name == "libmpk")
        return SchemeKind::LibMpk;
    if (name == "mpk_virt")
        return SchemeKind::MpkVirt;
    if (name == "domain_virt")
        return SchemeKind::DomainVirt;
    fatal("unknown protection scheme '%s'", name.c_str());
}

ProtectionScheme::ProtectionScheme(stats::Group *parent, std::string name,
                                   const ProtParams &params,
                                   const CoreTopology &topo,
                                   const tlb::AddressSpace &space)
    : stats::Group(parent, name),
      cycPermissionChange(this, "cyc_permission_change",
                          "cycles in SETPERM/WRPKRU instructions"),
      cycEntryChange(this, "cyc_entry_change",
                     "cycles adding/removing/modifying buffer entries"),
      cycTableMiss(this, "cyc_table_miss",
                   "cycles in DTT walks / PT lookups"),
      cycTlbInvalidation(this, "cyc_tlb_invalidation",
                         "direct cycles in TLB shootdowns"),
      cycAccessLatency(this, "cyc_access_latency",
                       "per-access lookup cycles (PTLB)"),
      cycSoftware(this, "cyc_software",
                  "software path cycles (syscalls, PTE rewrites)"),
      permChanges(this, "perm_changes", "SETPERM/WRPKRU executed"),
      setperms(this, "setperms", "SETPERM instructions executed"),
      wrpkrus(this, "wrpkrus", "raw WRPKRU instructions executed"),
      keyRemaps(this, "key_remaps", "domain-to-key (re)assignments"),
      keyEvictions(this, "key_evictions",
                   "victim domains that lost their protection key"),
      shootdowns(this, "shootdowns", "ranged TLB invalidations issued"),
      shootdownPages(this, "shootdown_pages",
                     "TLB entries invalidated by shootdowns"),
      protectionFaults(this, "protection_faults", "accesses denied"),
      params_(params), topo_(topo), space_(space),
      label_(std::move(name))
{
    topo_.validate();
    profile_.setNumCores(topo_.numCores);
}

void
ProtectionScheme::attachCore(CoreId core, tlb::TlbHierarchy *tlb)
{
    fatal_if(core >= topo_.numCores,
             "attachCore: core %u out of range (topology has %u)", core,
             topo_.numCores);
    if (core >= coreTlbs_.size())
        coreTlbs_.resize(core + 1, nullptr);
    fatal_if(coreTlbs_[core] != nullptr,
             "attachCore: core %u attached twice", core);
    coreTlbs_[core] = tlb;
    onCoreAttached(core, tlb);
}

void
ProtectionScheme::onCoreAttached(CoreId, tlb::TlbHierarchy *)
{
}

tlb::TlbHierarchy &
ProtectionScheme::tlbAt(CoreId core) const
{
    fatal_if(core >= coreTlbs_.size() || !coreTlbs_[core],
             "no TLB attached for core %u", core);
    return *coreTlbs_[core];
}

std::uint64_t
ProtectionScheme::flushRangeAllCores(Addr base, Addr size)
{
    std::uint64_t flushed = 0;
    for (tlb::TlbHierarchy *tlb : coreTlbs_) {
        if (tlb)
            flushed += tlb->flushRange(base, size);
    }
    return flushed;
}

void
ProtectionScheme::flushKeyAllCores(ProtKey key)
{
    for (tlb::TlbHierarchy *tlb : coreTlbs_) {
        if (tlb)
            tlb->flushKey(key);
    }
}

void
ProtectionScheme::registerTimelineTracks(stats::TimeSeries &timeline)
{
    timeline.track(keyEvictions, "key_evictions");
    timeline.track(shootdowns, "shootdowns");
    timeline.track(shootdownPages, "shootdown_pages");
    timeline.track(permChanges, "perm_changes");
}

void
ProtectionScheme::setStatsDeferred(bool defer)
{
    if (!defer && statsDeferred_)
        ProtectionScheme::flushDeferredStats();
    statsDeferred_ = defer;
}

void
ProtectionScheme::flushDeferredStats()
{
    if (pendCycAccessLatency_) {
        cycAccessLatency += pendCycAccessLatency_;
        pendCycAccessLatency_ = 0;
    }
    if (pendCycTableMiss_) {
        cycTableMiss += pendCycTableMiss_;
        pendCycTableMiss_ = 0;
    }
}

Cycles
ProtectionScheme::chargeSetPerm()
{
    ++permChanges;
    ++setperms;
    cycPermissionChange += static_cast<double>(params_.wrpkruCycles);
    return params_.wrpkruCycles;
}

Cycles
ProtectionScheme::chargeWrpkru()
{
    ++permChanges;
    ++wrpkrus;
    cycPermissionChange += static_cast<double>(params_.wrpkruCycles);
    return params_.wrpkruCycles;
}

Cycles
ProtectionScheme::wrpkruRaw(ThreadId, ProtKey, Perm)
{
    return chargeWrpkru();
}

CheckResult
ProtectionScheme::judge(const AccessContext &ctx, Perm domain_perm,
                        Cycles extra) const
{
    CheckResult res;
    res.extraCycles = extra;
    const Perm need = permForAccess(ctx.type);
    const Perm page = ctx.entry ? ctx.entry->pagePerm : Perm::ReadWrite;
    // The strictest of page and domain permission governs.
    const Perm effective = permIntersect(page, domain_perm);
    if (!permAllows(effective, need)) {
        res.allowed = false;
        res.fault = permAllows(page, need) ? FaultKind::DomainPermission
                                           : FaultKind::PagePermission;
    }
    return res;
}

} // namespace pmodv::arch
