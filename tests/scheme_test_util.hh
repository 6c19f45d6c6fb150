/**
 * @file
 * Shared fixture utilities for protection-scheme tests: a miniature
 * one-core machine (address space + TLB hierarchy + shootdown bus +
 * scheme) with helpers to attach PMOs and issue checked accesses.
 */

#ifndef PMODV_TESTS_SCHEME_TEST_UTIL_HH
#define PMODV_TESTS_SCHEME_TEST_UTIL_HH

#include <memory>

#include "arch/factory.hh"
#include "arch/shootdown_bus.hh"
#include "stats/stats.hh"
#include "tlb/hierarchy.hh"

namespace pmodv::test
{

/** Verdict plus every cycle charge of one checked access. */
struct AccessOutcome
{
    bool allowed = false;
    arch::FaultKind fault = arch::FaultKind::None;
    Cycles checkCycles = 0; ///< Charged by the scheme's checkAccess().
    Cycles fillCycles = 0;  ///< Charged by the TLB fill (scheme extra).

    /** Total protection-attributable cycles of the access. */
    Cycles charged() const { return checkCycles + fillCycles; }
};

/** A miniature machine for driving a protection scheme directly. */
class SchemeHarness
{
  public:
    explicit SchemeHarness(arch::SchemeKind kind,
                           arch::ProtParams params = {},
                           arch::CoreTopology topo = {})
        : root_(nullptr, "test")
    {
        tlb_ = std::make_unique<tlb::TlbHierarchy>(
            &root_, tlb::TlbHierarchyParams{}, space_);
        scheme_ = arch::makeScheme(kind, &root_, params, topo, space_);
        scheme_->attachCore(0, tlb_.get());
        bus_ = std::make_unique<arch::ShootdownBus>(nullptr, topo);
        bus_->attachCore(0, tlb_.get(), nullptr, nullptr);
        scheme_->setShootdownBus(bus_.get());
    }

    /** Attach a PMO: map the region and notify the scheme. */
    void
    attach(DomainId domain, Addr base, Addr size,
           Perm page_perm = Perm::ReadWrite, ThreadId tid = 0)
    {
        tlb::Region region;
        region.base = base;
        region.size = size;
        region.domain = domain;
        region.pagePerm = page_perm;
        region.memClass = MemClass::Nvm;
        space_.map(region);
        scheme_->attach(tid, domain, base, size, page_perm);
    }

    void
    detach(DomainId domain, ThreadId tid = 0)
    {
        scheme_->detach(tid, domain);
        space_.unmapDomain(domain);
    }

    /** Attach a PMO and immediately grant @p perm to @p tid. */
    void
    attachGranted(DomainId domain, Addr base, Addr size,
                  Perm perm = Perm::ReadWrite, ThreadId tid = 0,
                  Perm page_perm = Perm::ReadWrite)
    {
        attach(domain, base, size, page_perm, tid);
        scheme_->setPerm(tid, domain, perm);
    }

    /** Translate + protection-check one access. */
    arch::CheckResult
    access(ThreadId tid, Addr va, AccessType type)
    {
        auto xlate = tlb_->translate(tid, va);
        lastFillExtra = xlate.fillExtra;
        arch::AccessContext ctx;
        ctx.tid = tid;
        ctx.va = va;
        ctx.type = type;
        ctx.entry = xlate.entry;
        return scheme_->checkAccess(ctx);
    }

    /** One access with its full outcome: verdict + charged cycles. */
    AccessOutcome
    accessOutcome(ThreadId tid, Addr va, AccessType type)
    {
        const arch::CheckResult res = access(tid, va, type);
        return {res.allowed, res.fault, res.extraCycles, lastFillExtra};
    }

    bool
    canRead(ThreadId tid, Addr va)
    {
        return access(tid, va, AccessType::Read).allowed;
    }

    bool
    canWrite(ThreadId tid, Addr va)
    {
        return access(tid, va, AccessType::Write).allowed;
    }

    arch::ProtectionScheme &scheme() { return *scheme_; }
    tlb::TlbHierarchy &tlbs() { return *tlb_; }
    tlb::AddressSpace &space() { return space_; }

    Cycles lastFillExtra = 0;

  private:
    stats::Group root_;
    tlb::AddressSpace space_;
    std::unique_ptr<tlb::TlbHierarchy> tlb_;
    std::unique_ptr<arch::ShootdownBus> bus_;
    std::unique_ptr<arch::ProtectionScheme> scheme_;
};

/** A convenient PMO base address generator (16 MB spacing). */
inline Addr
pmoBase(unsigned idx)
{
    return (Addr{1} << 33) + Addr{idx} * (Addr{16} << 20);
}

} // namespace pmodv::test

#endif // PMODV_TESTS_SCHEME_TEST_UTIL_HH
