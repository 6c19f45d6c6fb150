/**
 * @file
 * The differential runner: replays one op sequence through a fleet of
 * per-scheme machines plus the ReferenceModel and checks the
 * equivalence oracles the paper's claims rest on —
 *
 *  - verdict:        every protected scheme returns the reference's
 *                    allow/deny for every access (stock `mpk` gets the
 *                    key-exhaustion carve-out);
 *  - effective-perm: after every SETPERM, each scheme's
 *                    effectivePerm() matches the reference;
 *  - cycle-order:    scheme-attributable cycles obey
 *                    none <= lowerbound <= each protected scheme;
 *  - bucket-sum:     the six Table VII buckets sum exactly to the
 *                    scheme-attributable cycles;
 *  - events:         the event ring carries only kinds the scheme can
 *                    legitimately post (domain_virt never records a
 *                    shootdown), eviction/shootdown counts match the
 *                    stats, and nothing was dropped;
 *  - tail-latency:   the per-op cycle totals the KV server's latency
 *                    histograms are built from are deterministic — a
 *                    second fleet replaying the same ops in two
 *                    batches lands on the same cycle totals at the
 *                    batch split and at the end, and the per-op
 *                    deltas sum exactly to the machine total (no
 *                    cycles charged between requests).
 *
 * Machines flush the TLB range on attach/detach uniformly (the
 * mmap/munmap shootdown every real scheme inherits from the kernel),
 * so stale-translation behavior cannot masquerade as a scheme
 * divergence.
 */

#ifndef PMODV_TESTING_DIFFER_HH
#define PMODV_TESTING_DIFFER_HH

#include <memory>
#include <string>
#include <vector>

#include "arch/factory.hh"
#include "arch/shootdown_bus.hh"
#include "testing/ops.hh"
#include "testing/reference.hh"
#include "trace/event_ring.hh"

namespace pmodv::testing
{

/** Deliberate defects the harness can plant to prove it catches them. */
enum class BugInjection
{
    None,
    /** Stock mpk silently ignores SETPERM(None) — a dropped revoke. */
    MpkDropRevoke,
};

/** Parse "none" / "mpk-drop-revoke"; fatal() on anything else. */
BugInjection injectionFromName(const std::string &name);

/**
 * One scheme's private machine: stats root + address space + TLB
 * hierarchy + scheme + event ring, with cycle accounting split into
 * scheme-attributable cycles (attach/detach/SETPERM returns, fill
 * extras, check extras) and total cycles (those plus translation
 * latency).
 */
class Machine
{
  public:
    Machine(arch::SchemeKind kind, const arch::ProtParams &params,
            const arch::CoreTopology &topo = {},
            BugInjection inject = BugInjection::None);

    arch::SchemeKind kind() const { return kind_; }
    const char *name() const { return arch::schemeName(kind_); }

    void attach(ThreadId tid, DomainId domain, Addr base, Addr size,
                Perm page_perm);
    void detach(ThreadId tid, DomainId domain);
    void setPerm(ThreadId tid, DomainId domain, Perm perm);
    arch::CheckResult access(ThreadId tid, Addr va, AccessType type);
    /** Schedule thread @p to on its home core (to % K). */
    void contextSwitch(ThreadId to);

    arch::ProtectionScheme &scheme() { return *scheme_; }
    const arch::ProtectionScheme &scheme() const { return *scheme_; }
    trace::EventRing &events() { return *ring_; }

    /** The IPI fabric (one core's broadcast is its local flush). */
    arch::ShootdownBus &bus() { return *bus_; }
    const arch::ShootdownBus &bus() const { return *bus_; }

    /** Cycles attributable to the protection scheme itself. */
    Cycles schemeCycles() const { return schemeCycles_; }
    /** schemeCycles() plus TLB translation latency. */
    Cycles totalCycles() const { return totalCycles_; }

  private:
    void addSchemeCycles(Cycles c)
    {
        schemeCycles_ += c;
        totalCycles_ += c;
    }

    arch::SchemeKind kind_;
    arch::CoreTopology topo_;
    BugInjection inject_;
    stats::Group root_;
    tlb::AddressSpace space_;
    /** Per-core stats groups (avoid "dtlb" clashes between cores). */
    std::vector<std::unique_ptr<stats::Group>> coreGroups_;
    /** One TLB hierarchy per core. */
    std::vector<std::unique_ptr<tlb::TlbHierarchy>> tlbs_;
    std::unique_ptr<trace::EventRing> ring_;
    std::unique_ptr<arch::ShootdownBus> bus_;
    std::unique_ptr<arch::ProtectionScheme> scheme_;
    /** Per core: the thread it currently runs (tid % K pinning). */
    std::vector<ThreadId> curTid_;
    Cycles schemeCycles_ = 0;
    Cycles totalCycles_ = 0;
};

/** One oracle violation. */
struct Violation
{
    std::string oracle; ///< "verdict", "effective-perm", ...
    std::string scheme; ///< Scheme label, or "" for cross-scheme.
    std::size_t opIndex = 0; ///< Op being executed (ops.size() = end).
    std::string detail;

    std::string toString() const;
};

/** Outcome of one differential run. */
struct DiffResult
{
    std::vector<Violation> violations;

    bool ok() const { return violations.empty(); }
    /** Oracle name of the first violation ("" when ok). */
    std::string firstOracle() const
    {
        return violations.empty() ? std::string{} : violations[0].oracle;
    }
    std::string summary() const;
};

/** Configuration of a differential run. */
struct DiffConfig
{
    arch::ProtParams params;
    /** Core count + invalidation cost; 1 core = legacy machines. */
    arch::CoreTopology topology;
    /** Schemes to fleet up; empty = all six. */
    std::vector<arch::SchemeKind> schemes;
    BugInjection inject = BugInjection::None;
    /** Stop at the first violation (shrinking wants this). */
    bool stopAtFirst = true;
    /** Run the tail-latency oracle (replays the episode once more). */
    bool checkTailLatency = true;
};

/** The six kinds in canonical order (none, lowerbound, protected x4). */
std::vector<arch::SchemeKind> allSchemeKinds();

/** Replay @p ops through every configured scheme; check all oracles. */
DiffResult runDifferential(const std::vector<Op> &ops,
                           const DiffConfig &cfg = {});

} // namespace pmodv::testing

#endif // PMODV_TESTING_DIFFER_HH
