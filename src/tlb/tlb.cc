#include "tlb/tlb.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pmodv::tlb
{

Tlb::Tlb(stats::Group *parent, const TlbParams &params)
    : stats::Group(parent, params.name),
      hits(this, "hits", "translations that hit"),
      misses(this, "misses", "translations that missed"),
      evictions(this, "evictions",
                "valid entries displaced by capacity replacement"),
      flushedEntries(this, "flushed_entries",
                     "entries dropped by invalidations"),
      missRate(this, "miss_rate", "misses / lookups",
               [this]() {
                   const double total = hits.value() + misses.value();
                   return total == 0 ? 0.0 : misses.value() / total;
               }),
      params_(params)
{
    fatal_if(params_.assoc == 0, "tlb '%s': associativity must be > 0",
             params_.name.c_str());
    fatal_if(params_.entries % params_.assoc != 0,
             "tlb '%s': entries must divide evenly into ways",
             params_.name.c_str());
    numSets_ = params_.entries / params_.assoc;
    fatal_if(!isPowerOfTwo(numSets_),
             "tlb '%s': set count must be a power of two",
             params_.name.c_str());
    ways_.resize(std::size_t{numSets_} * params_.assoc);
    tags_.assign(ways_.size() + simd::kTagPad, 0);
    plru_.assign(numSets_, TreePlru(params_.assoc));
    touchLut_ = TreePlru::makeTouchLut(params_.assoc);
    victimLut_ = TreePlru::makeVictimLut(params_.assoc);
    setValid_.assign(numSets_, 0);
}

TlbEntry *
Tlb::lookup(Addr va)
{
    const unsigned assoc = params_.assoc;
    // L0 fast path: repeated access to the last-translated 4K page
    // skips the set probes. Any structural change bumps gen_, so a
    // stale filter can never hit.
    const Addr vpn4k = va >> pageShift(PageSize::Size4K);
    const std::uint64_t tag4k = packTag(vpn4k, PageSize::Size4K);
    if (l0Gen_ == gen_ && l0Tag_ == tag4k) {
        ++l0Hits_;
        bumpHit();
        // Replacement state must still be modeled: another way may
        // have been touched since the filter was last refreshed.
        touchWay(l0Si_, l0Way_);
        return &ways_[l0Flat_];
    }

    // Pages of different sizes index differently; try each supported
    // size (smallest first — by far the common case). Sizes with no
    // valid entry anywhere are skipped outright.
    for (PageSize ps :
         {PageSize::Size4K, PageSize::Size2M, PageSize::Size1G}) {
        if (sizeValid_[static_cast<unsigned>(ps)] == 0)
            continue;
        const Addr vpn = va >> pageShift(ps);
        const std::size_t si = setIndexFor(vpn);
        const int w = simd::findU64(tags_.data() + si * assoc, assoc,
                                    packTag(vpn, ps));
        if (w >= 0) {
            bumpHit();
            touchWay(si, static_cast<unsigned>(w));
            const std::size_t flat = si * assoc + w;
            if (ps == PageSize::Size4K) {
                l0Gen_ = gen_;
                l0Tag_ = tag4k;
                l0Flat_ = flat;
                l0Si_ = si;
                l0Way_ = static_cast<unsigned>(w);
            }
            return &ways_[flat];
        }
    }
    if (defer_)
        ++pend_.misses;
    else
        ++misses;
    return nullptr;
}

const TlbEntry *
Tlb::probe(Addr va) const
{
    for (PageSize ps :
         {PageSize::Size4K, PageSize::Size2M, PageSize::Size1G}) {
        if (sizeValid_[static_cast<unsigned>(ps)] == 0)
            continue;
        const Addr vpn = va >> pageShift(ps);
        const std::size_t si = setIndexFor(vpn);
        const int w = simd::findU64(tags_.data() + si * params_.assoc,
                                    params_.assoc, packTag(vpn, ps));
        if (w >= 0)
            return &ways_[si * params_.assoc + w];
    }
    return nullptr;
}

TlbEntry &
Tlb::fill(const TlbEntry &entry, bool dedupe)
{
    const unsigned assoc = params_.assoc;
    const std::size_t si = setIndexFor(entry.vpn);
    const std::uint64_t *row = tags_.data() + si * assoc;
    // Reuse an existing entry for the same page, else an invalid way,
    // else the pseudo-LRU victim. A full set (the steady state) skips
    // the free-way probe via the per-set valid count.
    int victim = dedupe ? simd::findU64(row, assoc,
                                        packTag(entry.vpn, entry.pageSize))
                        : -1;
    if (victim < 0 && setValid_[si] < assoc)
        victim = simd::findU64(row, assoc, 0);
    if (victim < 0) {
        victim = static_cast<int>(victimLut_.valid()
                                      ? plru_[si].victimMasked(victimLut_)
                                      : plru_[si].victim());
        if (defer_)
            ++pend_.evictions;
        else
            ++evictions;
    }
    const std::size_t flat = si * assoc + victim;
    // Overwriting a valid way: only the per-size count needs fixing
    // (the slot stays valid, the set count is unchanged); the full
    // dropEntry stores would be overwritten right below anyway.
    TlbEntry &slot = ways_[flat];
    if (slot.valid)
        --sizeValid_[static_cast<unsigned>(slot.pageSize)];
    else
        ++setValid_[si];
    slot = entry;
    slot.valid = true;
    tags_[flat] = packTag(entry.vpn, entry.pageSize);
    ++sizeValid_[static_cast<unsigned>(entry.pageSize)];
    touchWay(si, static_cast<unsigned>(victim));
    ++gen_;
    if (entry.pageSize == PageSize::Size4K) {
        // The freshly filled page is the likeliest next lookup.
        l0Gen_ = gen_;
        l0Tag_ = tags_[flat];
        l0Flat_ = flat;
        l0Si_ = si;
        l0Way_ = static_cast<unsigned>(victim);
    }
    return ways_[flat];
}

TlbEntry &
Tlb::insert(const TlbEntry &entry)
{
    return fill(entry, true);
}

TlbEntry &
Tlb::insertFresh(const TlbEntry &entry)
{
    return fill(entry, false);
}

template <typename Pred>
unsigned
Tlb::flushIf(Pred pred)
{
    unsigned n = 0;
    for (std::size_t flat = 0; flat < ways_.size(); ++flat) {
        if (ways_[flat].valid && pred(ways_[flat])) {
            dropEntry(flat, flat / params_.assoc);
            ++n;
        }
    }
    if (defer_)
        pend_.flushed += n;
    else
        flushedEntries += n;
    ++gen_;
    return n;
}

unsigned
Tlb::flushAll()
{
    return flushIf([](const TlbEntry &) { return true; });
}

unsigned
Tlb::flushRange(Addr base, Addr size)
{
    return flushIf([base, size](const TlbEntry &e) {
        const Addr page = pageBytes(e.pageSize);
        const Addr va = e.vpn << pageShift(e.pageSize);
        return va + page > base && va < base + size;
    });
}

unsigned
Tlb::flushKey(ProtKey key)
{
    return flushIf([key](const TlbEntry &e) { return e.key == key; });
}

unsigned
Tlb::flushDomain(DomainId domain)
{
    return flushIf(
        [domain](const TlbEntry &e) { return e.domain == domain; });
}

unsigned
Tlb::validCount() const
{
    unsigned n = 0;
    for (const TlbEntry &e : ways_) {
        if (e.valid)
            ++n;
    }
    return n;
}

void
Tlb::setStatsDeferred(bool defer)
{
    if (!defer && defer_)
        flushDeferredStats();
    defer_ = defer;
}

void
Tlb::flushDeferredStats()
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
    if (pend_.flushed) {
        flushedEntries += pend_.flushed;
        pend_.flushed = 0;
    }
}

} // namespace pmodv::tlb
