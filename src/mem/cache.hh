/**
 * @file
 * A set-associative cache tag model with exact LRU replacement (up to
 * 16 ways), write-back write-allocate policy and full statistics. Only
 * tags are tracked (no data): the timing core needs hit/miss outcomes
 * and the paper's fixed per-level latencies.
 */

#ifndef PMODV_MEM_CACHE_HH
#define PMODV_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "common/types.hh"
#include "stats/stats.hh"

namespace pmodv::mem
{

/** Static configuration of one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
    Cycles hitLatency = 1;
};

/** Outcome of one cache access. */
struct CacheResult
{
    bool hit = false;
    bool writeback = false; ///< A dirty line was evicted by the fill.
};

/**
 * One level of set-associative cache. Thread-safe only for
 * single-threaded replay (each replay pipeline owns its own caches).
 *
 * All lines live in one flat vector (set-major) and the replacement
 * state is flat too — one packed LRU rank word per set — so the
 * replay hot loop walks contiguous arrays with no per-set heap
 * indirection.
 */
class Cache : public stats::Group
{
  public:
    Cache(stats::Group *parent, const CacheParams &params);

    const CacheParams &params() const { return params_; }
    unsigned numSets() const { return numSets_; }

    /**
     * Access the line containing @p addr. Misses allocate; stores mark
     * the line dirty.
     */
    CacheResult access(Addr addr, AccessType type);

    /** True when the line containing @p addr is present. */
    bool probe(Addr addr) const;

    /** Invalidate every line (counts into stats). */
    void invalidateAll();

    /** Invalidate the line containing @p addr if present. */
    bool invalidate(Addr addr);

    /** Defer hot counters into packed locals; disabling flushes. */
    void setStatsDeferred(bool defer);

    /** Flush deferred counters into the stats tree now. */
    void flushDeferredStats();

    /** Accesses answered by the one-entry L0 filter (raw counter). */
    std::uint64_t l0Hits() const { return l0Hits_; }

    /** Monotonic structure generation (L0 self-invalidation). */
    std::uint64_t generation() const { return gen_; }

    // Stats (public so formulas above can reference them).
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar evictions; ///< Valid lines displaced by a fill.
    stats::Scalar writebacks;
    stats::Scalar invalidations;
    stats::Formula missRate;

  private:
    // The line tag itself lives only in the packed tags_ array (the
    // probe path's working set); per-line state is just two flags, so
    // the flat line array stays tiny and host-cache friendly.
    struct Line
    {
        bool valid = false;
        bool dirty = false;
    };

    Addr lineTag(Addr addr) const { return addr >> lineShift_; }
    std::size_t setIndex(Addr addr) const
    {
        return (addr >> lineShift_) & (numSets_ - 1);
    }

    /** Packed probe tag mirrored per way in tags_ (0 = invalid). */
    static std::uint64_t packTag(Addr tag) { return (tag << 1) | 1; }

    unsigned victimWay(std::size_t si) const;
    void touchWay(std::size_t si, unsigned way);

    CacheParams params_;
    unsigned numSets_;
    unsigned lineShift_;
    std::vector<Line> lines_; ///< numSets_ x assoc, set-major.
    /** Packed tag per way (+simd::kTagPad zero slots), set-major. */
    std::vector<std::uint64_t> tags_;
    // Exact LRU keeps one packed word per set: a 4-bit recency rank
    // per way (assoc - 1 = MRU, 0 = LRU). This is victim-for-victim
    // identical to per-way timestamp scans — victims are only
    // consulted when the set is full, by which point every way has
    // been touched and the ranks are exactly the recency permutation
    // of last-touch order — but costs one cache line per eight sets.
    std::vector<std::uint64_t> lruRank_;
    /** Forces unused high nibbles non-zero in the victim search. */
    std::uint64_t lruHighMask_ = 0;
    /** Valid-way count per set: a full set skips the free-way probe. */
    std::vector<std::uint8_t> setValid_;

    /**
     * L0 filter: the last line hit or filled, keyed by (generation,
     * packed tag). The packed tag embeds the full line tag — which
     * includes the set bits — so tag equality implies same line.
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
        std::uint64_t writebacks = 0;
    };
    Pending pend_;
    bool defer_ = false;
};

} // namespace pmodv::mem

#endif // PMODV_MEM_CACHE_HH
