#include "mem/cache.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/lrurank.hh"

namespace pmodv::mem
{

Cache::Cache(stats::Group *parent, const CacheParams &params)
    : stats::Group(parent, params.name),
      hits(this, "hits", "accesses that hit"),
      misses(this, "misses", "accesses that missed"),
      evictions(this, "evictions", "valid lines displaced by fills"),
      writebacks(this, "writebacks", "dirty lines evicted"),
      invalidations(this, "invalidations", "lines invalidated"),
      missRate(this, "miss_rate", "misses / accesses",
               [this]() {
                   const double total = hits.value() + misses.value();
                   return total == 0 ? 0.0 : misses.value() / total;
               }),
      params_(params)
{
    fatal_if(!isPowerOfTwo(params_.lineBytes),
             "cache '%s': line size must be a power of two",
             params_.name.c_str());
    fatal_if(params_.assoc == 0, "cache '%s': associativity must be > 0",
             params_.name.c_str());
    fatal_if(params_.assoc > lru::kMaxPackedWays,
             "cache '%s': LRU supports at most %u ways (got %u)",
             params_.name.c_str(), lru::kMaxPackedWays, params_.assoc);
    const std::uint64_t lines = params_.sizeBytes / params_.lineBytes;
    fatal_if(lines < params_.assoc || lines % params_.assoc != 0,
             "cache '%s': size/assoc/line geometry is inconsistent",
             params_.name.c_str());
    numSets_ = static_cast<unsigned>(lines / params_.assoc);
    fatal_if(!isPowerOfTwo(numSets_),
             "cache '%s': set count must be a power of two",
             params_.name.c_str());
    lineShift_ = floorLog2(params_.lineBytes);

    lines_.resize(std::size_t{numSets_} * params_.assoc);
    tags_.assign(lines_.size() + simd::kTagPad, 0);
    setValid_.assign(numSets_, 0);
    lruRank_.assign(numSets_, 0);
    lruHighMask_ = lru::rankHighMask(params_.assoc);
}

unsigned
Cache::victimWay(std::size_t si) const
{
    // Prefer an invalid way before consulting the replacement state;
    // a full set (the steady state) skips the probe outright.
    if (setValid_[si] < params_.assoc) {
        const int invalid = simd::findU64(
            tags_.data() + si * params_.assoc, params_.assoc, 0);
        if (invalid >= 0)
            return static_cast<unsigned>(invalid);
    }
    // The packed rank word names the least-recent way in a couple of
    // ALU ops.
    return lru::victimRank(lruRank_[si], lruHighMask_);
}

void
Cache::touchWay(std::size_t si, unsigned way)
{
    lruRank_[si] = lru::touchRank(lruRank_[si], way, params_.assoc);
}

CacheResult
Cache::access(Addr addr, AccessType type)
{
    const Addr tag = lineTag(addr);
    const std::uint64_t ptag = packTag(tag);

    // L0 fast path: same line as the previous access. The packed tag
    // carries the set bits, so equality pins the exact line; gen_
    // guards against any intervening fill/invalidate.
    if (l0Gen_ == gen_ && l0Tag_ == ptag) {
        ++l0Hits_;
        if (defer_)
            ++pend_.hits;
        else
            ++hits;
        if (type == AccessType::Write)
            lines_[l0Flat_].dirty = true;
        touchWay(l0Si_, l0Way_);
        return {true, false};
    }

    const std::size_t si = setIndex(addr);
    const int w = simd::findU64(tags_.data() + si * params_.assoc,
                                params_.assoc, ptag);
    if (w >= 0) {
        if (defer_)
            ++pend_.hits;
        else
            ++hits;
        const std::size_t flat = si * params_.assoc + w;
        if (type == AccessType::Write)
            lines_[flat].dirty = true;
        touchWay(si, static_cast<unsigned>(w));
        l0Gen_ = gen_;
        l0Tag_ = ptag;
        l0Flat_ = flat;
        l0Si_ = si;
        l0Way_ = static_cast<unsigned>(w);
        return {true, false};
    }

    if (defer_)
        ++pend_.misses;
    else
        ++misses;
    const unsigned victim = victimWay(si);
    const std::size_t flat = si * params_.assoc + victim;
    Line &line = lines_[flat];
    if (line.valid) {
        if (defer_)
            ++pend_.evictions;
        else
            ++evictions;
    }
    const bool wb = line.valid && line.dirty;
    if (wb) {
        if (defer_)
            ++pend_.writebacks;
        else
            ++writebacks;
    }
    if (!line.valid)
        ++setValid_[si];
    line.valid = true;
    line.dirty = (type == AccessType::Write);
    tags_[flat] = ptag;
    touchWay(si, victim);
    ++gen_;
    l0Gen_ = gen_;
    l0Tag_ = ptag;
    l0Flat_ = flat;
    l0Si_ = si;
    l0Way_ = victim;
    return {false, wb};
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t si = setIndex(addr);
    return simd::findU64(tags_.data() + si * params_.assoc,
                         params_.assoc, packTag(lineTag(addr))) >= 0;
}

void
Cache::invalidateAll()
{
    for (std::size_t flat = 0; flat < lines_.size(); ++flat) {
        Line &line = lines_[flat];
        if (line.valid) {
            line.valid = false;
            line.dirty = false;
            tags_[flat] = 0;
            --setValid_[flat / params_.assoc];
            ++invalidations;
        }
    }
    ++gen_;
}

bool
Cache::invalidate(Addr addr)
{
    const std::size_t si = setIndex(addr);
    const int w = simd::findU64(tags_.data() + si * params_.assoc,
                                params_.assoc, packTag(lineTag(addr)));
    if (w < 0)
        return false;
    const std::size_t flat = si * params_.assoc + w;
    lines_[flat].valid = false;
    lines_[flat].dirty = false;
    tags_[flat] = 0;
    --setValid_[si];
    ++invalidations;
    ++gen_;
    return true;
}

void
Cache::setStatsDeferred(bool defer)
{
    if (!defer && defer_)
        flushDeferredStats();
    defer_ = defer;
}

void
Cache::flushDeferredStats()
{
    if (pend_.hits) {
        hits += pend_.hits;
        pend_.hits = 0;
    }
    if (pend_.misses) {
        misses += pend_.misses;
        pend_.misses = 0;
    }
    if (pend_.evictions) {
        evictions += pend_.evictions;
        pend_.evictions = 0;
    }
    if (pend_.writebacks) {
        writebacks += pend_.writebacks;
        pend_.writebacks = 0;
    }
}

} // namespace pmodv::mem
