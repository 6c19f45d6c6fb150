/**
 * @file
 * Randomized property tests that pit the timing structures against
 * simple reference oracles:
 *
 *  - the set-associative cache vs a per-set LRU list,
 *  - the TLB vs an exact map (presence after flush sequences),
 *  - the VA radix tree vs an interval map.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <set>

#include "arch/radix.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "stats/stats.hh"
#include "tlb/tlb.hh"

namespace pmodv
{
namespace
{

// ---------------------------------------------------------------
// Cache vs per-set LRU oracle.
// ---------------------------------------------------------------

class CacheOracle
{
  public:
    CacheOracle(unsigned sets, unsigned ways) : sets_(sets), ways_(ways)
    {
        lists_.resize(sets);
    }

    /** Returns true on hit, mirroring an LRU cache. */
    bool
    access(Addr line)
    {
        auto &list = lists_[line % sets_];
        auto it = std::find(list.begin(), list.end(), line);
        if (it != list.end()) {
            list.erase(it);
            list.push_front(line);
            return true;
        }
        list.push_front(line);
        if (list.size() > ways_)
            list.pop_back();
        return false;
    }

  private:
    unsigned sets_, ways_;
    std::vector<std::list<Addr>> lists_;
};

class CacheFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(CacheFuzz, MatchesLruOracle)
{
    // 4 ways, plus the two configured widths: 8-way L1D, 16-way L2.
    for (unsigned ways : {4u, 8u, 16u}) {
        stats::Group root(nullptr, "");
        mem::CacheParams params;
        params.sizeBytes = 16 * ways * 64; // 16 sets.
        params.assoc = ways;
        params.lineBytes = 64;
        mem::Cache cache(&root, params);
        CacheOracle oracle(16, ways);

        Rng rng(GetParam());
        const std::uint64_t lines = 4 * 16 * ways; // 4x capacity.
        for (int i = 0; i < 20000; ++i) {
            const Addr line = rng.next(lines); // Heavy churn.
            const Addr addr = line * 64 + rng.next(64);
            const bool hit =
                cache.access(addr, AccessType::Read).hit;
            ASSERT_EQ(hit, oracle.access(line))
                << "ways " << ways << ", iteration " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzz,
                         ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------
// TLB vs presence oracle under random insert/flush interleavings.
// ---------------------------------------------------------------

class TlbFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TlbFuzz, FlushSemanticsExact)
{
    stats::Group root(nullptr, "");
    tlb::TlbParams params;
    params.entries = 1024; // Big enough that capacity never evicts
    params.assoc = 4;      // in this test, so presence is exact.
    tlb::Tlb tlb(&root, params);

    std::map<Addr, std::pair<ProtKey, DomainId>> oracle; // by vpn.
    Rng rng(GetParam());

    for (int i = 0; i < 5000; ++i) {
        switch (rng.next(5)) {
          case 0:
          case 1: { // Insert.
            const Addr vpn = rng.next(200);
            tlb::TlbEntry e;
            e.vpn = vpn;
            e.key = static_cast<ProtKey>(rng.next(16));
            e.domain = static_cast<DomainId>(rng.next(32));
            tlb.insert(e);
            oracle[vpn] = {e.key, e.domain};
            break;
          }
          case 2: { // Ranged flush.
            const Addr base = rng.next(200) * 4096;
            const Addr size = (1 + rng.next(16)) * 4096;
            tlb.flushRange(base, size);
            for (auto it = oracle.begin(); it != oracle.end();) {
                const Addr va = it->first * 4096;
                if (va + 4096 > base && va < base + size)
                    it = oracle.erase(it);
                else
                    ++it;
            }
            break;
          }
          case 3: { // Key flush.
            const auto key = static_cast<ProtKey>(rng.next(16));
            tlb.flushKey(key);
            for (auto it = oracle.begin(); it != oracle.end();) {
                if (it->second.first == key)
                    it = oracle.erase(it);
                else
                    ++it;
            }
            break;
          }
          case 4: { // Probe a random page.
            const Addr vpn = rng.next(200);
            const auto *e = tlb.probe(vpn * 4096);
            const auto it = oracle.find(vpn);
            ASSERT_EQ(e != nullptr, it != oracle.end())
                << "presence mismatch at iteration " << i;
            if (e) {
                ASSERT_EQ(e->key, it->second.first);
                ASSERT_EQ(e->domain, it->second.second);
            }
            break;
          }
        }
    }
    ASSERT_EQ(tlb.validCount(), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TlbFuzz,
                         ::testing::Values(5u, 55u, 555u));

// ---------------------------------------------------------------
// Radix tree vs interval-map oracle.
// ---------------------------------------------------------------

class RadixFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RadixFuzz, WalkMatchesIntervalMap)
{
    struct Payload
    {
    };
    arch::VaRadixTree<Payload> tree;
    std::map<Addr, std::pair<Addr, DomainId>> oracle; // base->(end,dom)

    Rng rng(GetParam());
    DomainId next_domain = 1;
    const Addr region = Addr{1} << 36;

    for (int i = 0; i < 300; ++i) {
        if (rng.chance(0.6) || oracle.empty()) {
            // Insert a random non-overlapping range.
            const Addr base =
                region + rng.next(1 << 12) * (Addr{4} << 20);
            const Addr size = (1 + rng.next(512)) * 4096;
            bool overlaps = false;
            for (const auto &[b, es] : oracle)
                overlaps |= base < es.first && b < base + size;
            if (overlaps)
                continue;
            tree.insert(base, size, next_domain,
                        std::make_shared<Payload>());
            oracle[base] = {base + size, next_domain};
            ++next_domain;
        } else {
            // Remove a random domain.
            auto it = oracle.begin();
            std::advance(it, rng.next(oracle.size()));
            EXPECT_GT(tree.remove(it->second.second), 0u);
            oracle.erase(it);
        }

        // Probe random addresses.
        for (int p = 0; p < 20; ++p) {
            const Addr va =
                region + rng.next(1 << 12) * (Addr{4} << 20) +
                rng.next(Addr{4} << 20);
            DomainId expect = kNullDomain;
            for (const auto &[b, es] : oracle) {
                if (va >= b && va < es.first)
                    expect = es.second;
            }
            const auto walk = tree.walk(va);
            ASSERT_EQ(walk.found ? walk.domain : kNullDomain, expect)
                << "va 0x" << std::hex << va;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixFuzz,
                         ::testing::Values(3u, 14u, 159u));

} // namespace
} // namespace pmodv
