/**
 * @file
 * A set-associative TLB model. Entries carry, besides the usual
 * translation metadata, the 4-bit MPK protection key (MPK and MPK
 * virtualization schemes) or the 10-bit domain id (domain
 * virtualization scheme) — the distinguishing state the two designs
 * keep per TLB entry.
 */

#ifndef PMODV_TLB_TLB_HH
#define PMODV_TLB_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/plru.hh"
#include "common/simd.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace pmodv::tlb
{

/** One TLB entry. */
struct TlbEntry
{
    bool valid = false;
    Addr vpn = 0; ///< Virtual page number (va >> pageShift).
    PageSize pageSize = PageSize::Size4K;
    Perm pagePerm = Perm::ReadWrite;
    MemClass memClass = MemClass::Dram;
    /** MPK protection key cached with the translation (kNullKey when
     *  the page is domainless). */
    ProtKey key = kNullKey;
    /** Domain id cached with the translation (domain-virtualization
     *  design only; kNullDomain otherwise). */
    DomainId domain = kNullDomain;
};

/** Static configuration of one TLB level. */
struct TlbParams
{
    std::string name = "tlb";
    unsigned entries = 64;
    unsigned assoc = 4;
    /** Cycles added to the translation when this level must be read
     *  (the L1 lookup is folded into the load pipeline → 0). */
    Cycles accessLatency = 0;
};

/**
 * One level of set-associative TLB.
 *
 * All ways live in one flat vector (set-major) and the per-set
 * replacement trackers are stored by value, so a lookup touches two
 * contiguous arrays instead of chasing per-set heap blocks. A per
 * page-size count of valid entries lets lookups skip the 2M/1G index
 * probes entirely when no entry of that size is cached — the common
 * case for 4K-only traces.
 */
class Tlb : public stats::Group
{
  public:
    Tlb(stats::Group *parent, const TlbParams &params);

    const TlbParams &params() const { return params_; }
    unsigned numSets() const { return numSets_; }

    /**
     * Look up the translation of @p va; nullptr on miss. Hit updates
     * replacement state and statistics. The returned pointer stays
     * valid until the next insert/flush.
     */
    TlbEntry *lookup(Addr va);

    /** Probe without touching stats or replacement state. */
    const TlbEntry *probe(Addr va) const;

    /**
     * Insert @p entry (evicting pseudo-LRU within the set if full).
     * Returns a reference to the installed entry.
     */
    TlbEntry &insert(const TlbEntry &entry);

    /**
     * insert() for callers that just took a miss on the same page:
     * skips the duplicate-tag probe, which a preceding failed lookup
     * has already proven fruitless. Behaviour is otherwise identical.
     */
    TlbEntry &insertFresh(const TlbEntry &entry);

    /** Invalidate everything; returns the number of valid entries. */
    unsigned flushAll();

    /** Invalidate translations inside [base, base+size). */
    unsigned flushRange(Addr base, Addr size);

    /** Invalidate translations carrying protection key @p key. */
    unsigned flushKey(ProtKey key);

    /** Invalidate translations carrying domain @p domain. */
    unsigned flushDomain(DomainId domain);

    /** Number of currently valid entries (O(entries)). */
    unsigned validCount() const;

    /**
     * Defer hot counters (hits/misses/evictions/flushed) into packed
     * locals instead of the stats tree; disabling flushes. The final
     * Scalar values are identical either way (exact integer sums).
     */
    void setStatsDeferred(bool defer);

    /** Flush deferred counters into the stats tree now. */
    void flushDeferredStats();

    /** Lookups answered by the one-entry L0 filter (raw, unregistered
     *  host-perf counter — never part of the dumped stats tree). */
    std::uint64_t l0Hits() const { return l0Hits_; }

    /** Monotonic structure generation; bumped on any insert/flush so
     *  the L0 filter self-invalidates. Exposed for regression tests. */
    std::uint64_t generation() const { return gen_; }

    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions; ///< Valid entries displaced by capacity.
    stats::Scalar flushedEntries;
    stats::Formula missRate;

  private:
    std::size_t setIndexFor(Addr vpn) const
    {
        return vpn & (numSets_ - 1);
    }

    /**
     * Packed probe tag mirrored per way in tags_: vpn | page-size
     * index | valid bit. Zero always means "invalid slot", so the
     * SIMD row probe needs no separate valid mask and the padding
     * tail never matches.
     */
    static std::uint64_t packTag(Addr vpn, PageSize ps)
    {
        return (vpn << 3) |
               (static_cast<std::uint64_t>(ps) << 1) | 1;
    }

    void dropEntry(std::size_t flat, std::size_t si)
    {
        ways_[flat].valid = false;
        tags_[flat] = 0;
        --sizeValid_[static_cast<unsigned>(ways_[flat].pageSize)];
        --setValid_[si];
    }

    /** Shared body of insert() (@p dedupe) and insertFresh(). */
    TlbEntry &fill(const TlbEntry &entry, bool dedupe);

    void touchWay(std::size_t si, unsigned way)
    {
        if (!touchLut_.empty())
            plru_[si].touchMasked(touchLut_[way]);
        else
            plru_[si].touch(way);
    }

    void bumpHit()
    {
        if (defer_)
            ++pend_.hits;
        else
            ++hits;
    }

    template <typename Pred>
    unsigned flushIf(Pred pred);

    TlbParams params_;
    unsigned numSets_;
    std::vector<TlbEntry> ways_; ///< numSets_ x assoc, set-major.
    /** Packed tag per way (+simd::kTagPad zero slots), set-major. */
    std::vector<std::uint64_t> tags_;
    std::vector<TreePlru> plru_; ///< One tracker per set, by value.
    /** Branchless touch ops shared by every set (same way count). */
    std::vector<TreePlru::TouchOp> touchLut_;
    /** Table-driven victim() shared by every set. */
    TreePlru::VictimLut victimLut_;
    /** Valid-entry count per PageSize (indexed by the enum value). */
    unsigned sizeValid_[3] = {0, 0, 0};
    /** Valid-way count per set: a full set skips the free-way probe. */
    std::vector<std::uint8_t> setValid_;

    /**
     * L0 filter: the last 4K translation, keyed by (generation,
     * packed tag). Only 4K entries are cached — the full lookup
     * probes 4K first and at most one valid 4K entry exists per vpn,
     * so an L0 hit provably returns what the full probe would.
     */
    std::uint64_t gen_ = 1;
    std::uint64_t l0Gen_ = 0;
    std::uint64_t l0Tag_ = 0;
    std::size_t l0Flat_ = 0;
    std::size_t l0Si_ = 0;
    unsigned l0Way_ = 0;
    std::uint64_t l0Hits_ = 0;

    /** Packed deferred counters (see setStatsDeferred). */
    struct Pending
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t flushed = 0;
    };
    Pending pend_;
    bool defer_ = false;
};

} // namespace pmodv::tlb

#endif // PMODV_TLB_TLB_HH
