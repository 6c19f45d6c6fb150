#include "arch/libmpk.hh"

#include "arch/shootdown_bus.hh"
#include "common/logging.hh"

namespace pmodv::arch
{

LibMpkScheme::LibMpkScheme(stats::Group *parent, const ProtParams &params,
                           const CoreTopology &topo,
                           const tlb::AddressSpace &space)
    : ProtectionScheme(parent, "libmpk", params, topo, space),
      ptePatches(this, "pte_patches", "PTE pkey fields rewritten")
{
    keyHolder_.fill(kNullDomain);
    keyStamp_.fill(0);
    setFastCheck(&fastCheckThunk<LibMpkScheme>);
}

void
LibMpkScheme::onCoreAttached(CoreId, tlb::TlbHierarchy *tlb)
{
    if (!fillPolicyStorage_)
        fillPolicyStorage_ = std::make_unique<FillPolicy>(*this);
    tlb->setFillPolicy(fillPolicyStorage_.get());
}

Cycles
LibMpkScheme::FillPolicy::fill(ThreadId tid, Addr,
                               const tlb::Region *region,
                               tlb::TlbEntry &entry)
{
    if (!region || region->domain == kNullDomain) {
        entry.key = kNullKey;
        return 0;
    }
    // An access to a domain whose key was evicted traps; libmpk's
    // exception handler runs the software remap (paper §I: "if it
    // accesses an unmapped domain, an exception is triggered, and the
    // exception handler selects a domain to unmap and reassigns the
    // key to the new domain").
    Cycles cycles = 0;
    auto it = owner_.domains_.find(region->domain);
    if (it != owner_.domains_.end()) {
        DomainState &st = it->second;
        if (st.key == kInvalidKey)
            cycles = owner_.mapDomain(tid, st, region->domain);
        entry.key = st.key;
    } else {
        entry.key = kNullKey;
    }
    return cycles;
}

ProtKey
LibMpkScheme::victimKey() const
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

Cycles
LibMpkScheme::mapDomain(ThreadId tid, DomainState &st, DomainId domain)
{
    Cycles cycles = 0;

    // The remap trap is the incoming domain's protection-fill miss.
    profile_.fillMiss(domain);

    ProtKey key = keyAlloc_.alloc();
    std::uint64_t patched_pages = 0;

    if (key == kInvalidKey) {
        // Evict the LRU key holder: pkey_mprotect() strips the key
        // from every page of the victim domain.
        ++keyEvictions;
        const ProtKey victim = victimKey();
        const DomainId victim_domain = keyHolder_[victim];
        DomainState &vst = domains_.at(victim_domain);
        vst.key = kInvalidKey;
        keyHolder_[victim] = kNullDomain;

        patched_pages += vst.size / 4096;
        // The kernel's PTE rewrites invalidate stale translations of
        // both ranges on every core: the two ranges go out as one
        // broadcast, and responding cores that held stale entries
        // each add an invalidation charge.
        ++shootdowns;
        const std::array<ShootdownRange, 2> ranges{
            ShootdownRange{vst.base, vst.size},
            ShootdownRange{st.base, st.size}};
        const ShootdownResult res =
            bus_->broadcast(activeCore_, tid, ranges);
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

    // Trap + pkey_mprotect syscall path, with per-PTE pkey rewrites
    // proportional to the *victim* domain size — the cost that makes
    // libmpk unscalable (constants calibrated per DESIGN.md §6; the
    // incoming domain's pages keep their lazily cached pkey).
    cycles += params_.libmpkSyscallCycles;
    cycSoftware += static_cast<double>(params_.libmpkSyscallCycles);

    ptePatches += static_cast<double>(patched_pages);
    const Cycles patch_cycles =
        params_.libmpkPtePatchCycles * patched_pages;
    cycles += patch_cycles;
    cycSoftware += static_cast<double>(patch_cycles);

    st.key = key;
    keyHolder_[key] = domain;
    touchKey(key);
    ++keyRemaps;
    // The key changed hands: clear its bits in every thread's PKRU
    // (the victim's grants must not leak to the incoming domain),
    // then restore each thread's recorded permission for the new
    // holder — libmpk has no context-switch hook to fix them lazily.
    pkrus_.resetKey(key);
    for (const auto &[t, p] : st.perms)
        pkrus_.forThread(t).setPerm(key, p);
    return cycles;
}

CheckResult
LibMpkScheme::checkAccess(const AccessContext &ctx)
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
LibMpkScheme::setPerm(ThreadId tid, DomainId domain, Perm perm)
{
    perm = permNormalizeHw(perm);
    Cycles cycles = chargeSetPerm();

    // libmpk's user-level bookkeeping (domain hash lookup) runs on
    // every mpk_begin/end call.
    cycles += params_.libmpkFastPathCycles;
    cycSoftware += static_cast<double>(params_.libmpkFastPathCycles);

    auto it = domains_.find(domain);
    if (it == domains_.end())
        return cycles;
    profile_.setPerm(domain);
    DomainState &st = it->second;
    st.perms[tid] = perm;

    // Granting access to an unmapped domain triggers the slow path.
    if (st.key == kInvalidKey && perm != Perm::None)
        cycles += mapDomain(tid, st, domain);

    if (st.key != kInvalidKey) {
        pkrus_.forThread(tid).setPerm(st.key, perm);
        touchKey(st.key);
    }
    return cycles;
}

Cycles
LibMpkScheme::attach(ThreadId, DomainId domain, Addr base, Addr size,
                     Perm)
{
    panic_if(domains_.count(domain), "domain %u attached twice", domain);
    DomainState st;
    st.base = base;
    st.size = size;
    domains_[domain] = st;
    return 0;
}

Cycles
LibMpkScheme::detach(ThreadId, DomainId domain)
{
    auto it = domains_.find(domain);
    if (it == domains_.end())
        return 0;
    DomainState &st = it->second;
    if (st.key != kInvalidKey) {
        keyHolder_[st.key] = kNullDomain;
        keyAlloc_.free(st.key);
        // Functional munmap invalidation on every core; no IPI cost.
        flushRangeAllCores(st.base, st.size);
    }
    domains_.erase(it);
    return 0;
}

Cycles
LibMpkScheme::contextSwitch(ThreadId, ThreadId)
{
    // PKRU save/restore is part of normal thread state.
    return 0;
}

Perm
LibMpkScheme::effectivePerm(ThreadId tid, DomainId domain) const
{
    auto it = domains_.find(domain);
    if (it == domains_.end())
        return Perm::ReadWrite;
    const DomainState &st = it->second;
    if (st.key != kInvalidKey)
        return pkrus_.forThread(tid).permFor(st.key);
    auto p = st.perms.find(tid);
    return p == st.perms.end() ? Perm::None : p->second;
}

ProtKey
LibMpkScheme::keyOf(DomainId domain) const
{
    auto it = domains_.find(domain);
    return it == domains_.end() ? kInvalidKey : it->second.key;
}

} // namespace pmodv::arch
