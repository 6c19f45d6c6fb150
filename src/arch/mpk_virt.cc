#include "arch/mpk_virt.hh"

#include "arch/shootdown_bus.hh"
#include "common/logging.hh"
#include "stats/timeseries.hh"

namespace pmodv::arch
{

MpkVirtScheme::MpkVirtScheme(stats::Group *parent,
                             const ProtParams &params,
                             const CoreTopology &topo,
                             const tlb::AddressSpace &space)
    : ProtectionScheme(parent, "mpk_virt", params, topo, space),
      dttWalks(this, "dtt_walks", "DTT walks on DTTLB misses"),
      dttlbWritebacks(this, "dttlb_writebacks",
                      "dirty DTTLB entries written back to the DTT"),
      contextSwitches(this, "context_switches",
                      "context switches processed")
{
    dttlbs_.push_back(std::make_unique<Dttlb>(this,
                                              params_.dttlbEntries));
    keyHolder_.fill(kNullDomain);
    keyStamp_.fill(0);
    setFastCheck(&fastCheckThunk<MpkVirtScheme>);
}

void
MpkVirtScheme::registerTimelineTracks(stats::TimeSeries &timeline)
{
    ProtectionScheme::registerTimelineTracks(timeline);
    timeline.track(dttlbs_[0]->misses, "dttlb_misses");
    timeline.track(dttWalks, "dtt_walks");
}

void
MpkVirtScheme::setStatsDeferred(bool defer)
{
    ProtectionScheme::setStatsDeferred(defer);
    if (!defer && pendDttWalks_) {
        dttWalks += pendDttWalks_;
        pendDttWalks_ = 0;
    }
    for (auto &d : dttlbs_)
        d->setStatsDeferred(defer);
}

void
MpkVirtScheme::flushDeferredStats()
{
    ProtectionScheme::flushDeferredStats();
    if (pendDttWalks_) {
        dttWalks += pendDttWalks_;
        pendDttWalks_ = 0;
    }
    for (auto &d : dttlbs_)
        d->flushDeferredStats();
}

void
MpkVirtScheme::onCoreAttached(CoreId core, tlb::TlbHierarchy *tlb)
{
    if (!fillPolicyStorage_)
        fillPolicyStorage_ = std::make_unique<FillPolicy>(*this);
    tlb->setFillPolicy(fillPolicyStorage_.get());
    // Core 0's DTTLB is built in the constructor ("dttlb"); each
    // further core gets a private one.
    while (dttlbs_.size() <= core) {
        dttlbs_.push_back(std::make_unique<Dttlb>(
            this, params_.dttlbEntries,
            "dttlb_core" + std::to_string(dttlbs_.size())));
    }
}

void
MpkVirtScheme::invalidateDomainAllDttlbs(DomainId domain)
{
    for (auto &d : dttlbs_)
        d->invalidateDomain(domain);
}

Perm
MpkVirtScheme::permOf(const DttInfo &info, ThreadId tid) const
{
    auto it = info.perms.find(tid);
    return it == info.perms.end() ? Perm::None : it->second;
}

void
MpkVirtScheme::touchKey(ProtKey key)
{
    keyStamp_[key] = ++keyClock_;
}

ProtKey
MpkVirtScheme::victimKey() const
{
    ProtKey best = kInvalidKey;
    for (ProtKey k = 1; k < kNumProtKeys; ++k) {
        if (keyHolder_[k] == kNullDomain)
            continue;
        if (best == kInvalidKey || keyStamp_[k] < keyStamp_[best])
            best = k;
    }
    panic_if(best == kInvalidKey,
             "victimKey() called with no key holders");
    return best;
}

void
MpkVirtScheme::bindKey(ThreadId tid, DttInfo &info, ProtKey key)
{
    info.key = key;
    keyHolder_[key] = info.domain;
    touchKey(key);
    if (topo_.numCores > 1) {
        // Threads on other cores keep running without a context
        // switch, so the remap must be made globally coherent now:
        // the key's old grants are wiped and every thread's stored
        // permission for the new holder is reloaded from the DTT.
        pkrus_.resetKey(key);
        for (const auto &[t, p] : info.perms)
            pkrus_.forThread(t).setPerm(key, p);
    } else {
        // PKRU of the running thread reflects the new domain
        // immediately; other threads reconstruct on their next
        // context switch in.
        pkrus_.forThread(tid).setPerm(key, permOf(info, tid));
    }
    ++keyRemaps;
}

Cycles
MpkVirtScheme::cacheInDttlb(DttInfo &info)
{
    DttlbEntry entry;
    entry.used = true;
    entry.base = info.base;
    entry.size = info.size;
    entry.domain = info.domain;
    entry.key = info.key == kInvalidKey ? kNullKey : info.key;
    entry.valid = info.key != kInvalidKey;
    entry.dirty = true;
    // Host-perf memo: a later DTTLB hit reaches the payload without
    // the domain-map lookup. Invalidation paths drop the whole entry,
    // so the pointer can never outlive the DttInfo it names.
    entry.payload = &info;

    DttlbEntry evicted;
    bool had_eviction = false;
    dttlbs_[activeCore_]->insert(entry, evicted, had_eviction);

    Cycles cycles = params_.dttlbEntryOpCycles;
    cycEntryChange += static_cast<double>(params_.dttlbEntryOpCycles);
    if (had_eviction && evicted.dirty) {
        // Lazy DTT update: the dirty mapping is written back now.
        ++dttlbWritebacks;
        cycles += params_.dttlbEntryOpCycles;
        cycEntryChange += static_cast<double>(params_.dttlbEntryOpCycles);
    }
    return cycles;
}

Cycles
MpkVirtScheme::resolveKey(ThreadId tid, DttInfo &info)
{
    Cycles cycles = 0;

    if (info.key != kInvalidKey) {
        touchKey(info.key);
        return cycles;
    }

    // Check the free-key structure.
    cycles += params_.freeKeyCheckCycles;
    cycEntryChange += static_cast<double>(params_.freeKeyCheckCycles);
    ProtKey key = keyAlloc_.alloc();
    if (key == kInvalidKey) {
        // No free key: reassign the LRU victim's key.
        const ProtKey victim = victimKey();
        const DomainId victim_domain = keyHolder_[victim];
        auto vit = domains_.find(victim_domain);
        panic_if(vit == domains_.end(),
                 "victim domain %u has no DTT payload", victim_domain);
        DttInfo &vinfo = *vit->second;

        // Unmap the victim: DTT payload updated, DTTLB entry marked
        // invalid + dirty.
        vinfo.key = kInvalidKey;
        keyHolder_[victim] = kNullDomain;
        for (auto &d : dttlbs_) {
            if (DttlbEntry *ve = d->findDomain(victim_domain)) {
                ve->valid = false;
                ve->key = kNullKey;
                ve->dirty = true;
            }
        }
        cycles += params_.dttlbEntryOpCycles;
        cycEntryChange += static_cast<double>(params_.dttlbEntryOpCycles);

        // Ranged TLB shootdown of the victim's pages, so no stale
        // VA->key mapping survives. The broadcast charges the
        // initiator plus each responding core that actually held
        // stale entries.
        ++keyEvictions;
        ++shootdowns;
        const ShootdownResult res =
            bus_->broadcast(activeCore_, tid, vinfo.base, vinfo.size);
        cycles += res.cycles;
        cycTlbInvalidation += static_cast<double>(res.cycles);
        shootdownPages += static_cast<double>(res.pages);
        profile_.eviction(victim_domain, res.pages, activeCore_);
        postEvent(trace::EventKind::KeyEviction, tid, victim_domain,
                  victim);
        postEvent(trace::EventKind::Shootdown, tid, victim_domain,
                  res.pages);

        key = victim;
    }

    bindKey(tid, info, key);
    cycles += params_.pkruUpdateCycles;
    cycEntryChange += static_cast<double>(params_.pkruUpdateCycles);
    return cycles;
}

Cycles
MpkVirtScheme::FillPolicy::fill(ThreadId tid, Addr va,
                                const tlb::Region *region,
                                tlb::TlbEntry &entry)
{
    if (!region || region->domain == kNullDomain) {
        entry.key = kNullKey;
        return 0;
    }

    MpkVirtScheme &s = owner_;
    Cycles cycles = 0;

    Dttlb &dttlb = *s.dttlbs_[s.activeCore_];
    DttInfo *info = nullptr;
    if (DttlbEntry *hit = dttlb.lookupVa(va)) {
        // DTTLB hit: its 1-cycle CAM lookup overlaps the page walk,
        // so no extra latency is charged (DESIGN.md §5).
        info = static_cast<DttInfo *>(hit->payload);
        if (!info) {
            auto it = s.domains_.find(hit->domain);
            panic_if(it == s.domains_.end(),
                     "DTTLB caches unknown domain");
            info = it->second.get();
            hit->payload = info;
        }
    } else {
        // DTTLB miss: walk the DTT (Table II: 30 cycles).
        if (s.statsDeferred())
            ++s.pendDttWalks_;
        else
            ++s.dttWalks;
        cycles += s.params_.dttWalkCycles;
        s.profile_.fillMiss(region->domain);
        s.chargeTableMissCyc(s.params_.dttWalkCycles);
        dttlb.missLatency.sample(s.params_.dttWalkCycles);
        auto walk = s.dtt_.walk(va);
        panic_if(!walk.found,
                 "mapped PMO region missing from the DTT");
        info = walk.payload;
        s.postEvent(trace::EventKind::DttlbRefill, tid, info->domain,
                    s.params_.dttWalkCycles);
    }

    cycles += s.resolveKey(tid, *info);
    cycles += s.cacheInDttlb(*info);

    entry.key = info->key == kInvalidKey ? kNullKey : info->key;
    return cycles;
}

CheckResult
MpkVirtScheme::checkAccess(const AccessContext &ctx)
{
    const ProtKey key = ctx.entry->key;
    Perm domain_perm = Perm::ReadWrite; // Domainless: page perm only.
    if (key != kNullKey) {
        touchKey(key);
        if (keyHolder_[key] != kNullDomain)
            profile_.access(keyHolder_[key], activeCore_);
        domain_perm = pkrus_.forThread(ctx.tid).permFor(key);
    }
    CheckResult res = judge(ctx, domain_perm, 0);
    if (!res.allowed)
        ++protectionFaults;
    return res;
}

Cycles
MpkVirtScheme::setPerm(ThreadId tid, DomainId domain, Perm perm)
{
    perm = permNormalizeHw(perm);
    Cycles cycles = chargeSetPerm();

    auto it = domains_.find(domain);
    if (it == domains_.end())
        return cycles; // SETPERM on an unattached domain: no-op.

    profile_.setPerm(domain);
    DttInfo &info = *it->second;
    info.perms[tid] = perm;

    // The DTTLB entry (if cached) is invalidated so the next fill
    // re-reads the DTT, and a key-holding domain is reflected in PKRU
    // immediately (or TLB-hit accesses would use stale permission).
    // Both micro-ops complete within SETPERM's own 27-cycle latency —
    // this is what makes the single-PMO case perform *identically* to
    // stock MPK (paper §VI-A).
    invalidateDomainAllDttlbs(domain);
    if (info.key != kInvalidKey)
        pkrus_.forThread(tid).setPerm(info.key, perm);
    return cycles;
}

Cycles
MpkVirtScheme::attach(ThreadId, DomainId domain, Addr base, Addr size,
                      Perm)
{
    panic_if(domains_.count(domain), "domain %u attached twice", domain);
    auto info = std::make_shared<DttInfo>();
    info->domain = domain;
    info->base = base;
    info->size = size;
    domains_[domain] = info;
    dtt_.insert(base, size, domain, info);
    return 0;
}

Cycles
MpkVirtScheme::detach(ThreadId, DomainId domain)
{
    auto it = domains_.find(domain);
    if (it == domains_.end())
        return 0;
    DttInfo &info = *it->second;
    if (info.key != kInvalidKey) {
        keyHolder_[info.key] = kNullDomain;
        keyAlloc_.free(info.key);
        // The munmap behind detach invalidates every core's stale
        // translations; functional, so no IPI cost is charged.
        flushRangeAllCores(info.base, info.size);
    }
    invalidateDomainAllDttlbs(domain);
    dtt_.remove(domain);
    domains_.erase(it);
    return 0;
}

Cycles
MpkVirtScheme::contextSwitch(ThreadId, ThreadId to)
{
    ++contextSwitches;
    currentThread_ = to;
    Cycles cycles = 0;

    // Dirty DTTLB entries are written back to the DTT, then the
    // switching core's (thread-specific) DTTLB is flushed.
    std::vector<DttlbEntry> dirty;
    dttlbs_[activeCore_]->flushAll(dirty);
    for (const DttlbEntry &e : dirty) {
        (void)e; // DTT payloads are kept in sync eagerly; charge only.
        ++dttlbWritebacks;
        cycles += params_.contextSwitchWritebackCycles;
        cycEntryChange +=
            static_cast<double>(params_.contextSwitchWritebackCycles);
    }

    // Reconstruct the incoming thread's PKRU from the DTT: for every
    // key-holding domain, load the domain's permission for `to`.
    Pkru &pkru = pkrus_.forThread(to);
    for (ProtKey k = 1; k < kNumProtKeys; ++k) {
        if (keyHolder_[k] == kNullDomain)
            continue;
        auto it = domains_.find(keyHolder_[k]);
        if (it != domains_.end())
            pkru.setPerm(k, permOf(*it->second, to));
    }
    return cycles;
}

Perm
MpkVirtScheme::effectivePerm(ThreadId tid, DomainId domain) const
{
    auto it = domains_.find(domain);
    if (it == domains_.end())
        return Perm::ReadWrite; // Not a domain: page permission rules.
    return permOf(*it->second, tid);
}

DomainId
MpkVirtScheme::domainOfKey(ProtKey key) const
{
    return key < kNumProtKeys ? keyHolder_[key] : kNullDomain;
}

ProtKey
MpkVirtScheme::keyOf(DomainId domain) const
{
    auto it = domains_.find(domain);
    return it == domains_.end() ? kInvalidKey : it->second->key;
}

std::uint64_t
MpkVirtScheme::dttMemoryBytes() const
{
    // Each radix node is 512 slots x 8 bytes, as in a page table.
    return dtt_.nodeCount() * kRadixFanout * 8;
}

} // namespace pmodv::arch
