#include "probes.hh"

#include <algorithm>
#include <memory>

#include "arch/shootdown_bus.hh"
#include "mem/hierarchy.hh"
#include "tlb/hierarchy.hh"

namespace perfbench
{

namespace
{

namespace tlb = pmodv::tlb;
using pmodv::trace::RecordType;
using pmodv::trace::TraceRecord;

/** Accesses each probe walks; bounds the probes' run time. */
constexpr std::size_t kMaxAccesses = 1'000'000;
/** Timed passes of the translate and cache probes (median taken). */
constexpr int kPasses = 3;

/** The trace's address space, rebuilt from its Attach records. */
tlb::AddressSpace
spaceOf(const pmodv::trace::TraceBuffer &trace)
{
    tlb::AddressSpace space;
    for (const TraceRecord &rec : trace.records()) {
        if (rec.type != RecordType::Attach || space.find(rec.addr))
            continue;
        tlb::Region region;
        region.base = rec.addr;
        region.size = rec.value;
        region.domain = rec.aux;
        region.memClass = pmodv::MemClass::Nvm;
        region.pageSize = pmodv::trace::decodePageSizeFlags(rec.flags);
        space.map(region);
    }
    return space;
}

std::vector<TraceRecord>
accessesOf(const pmodv::trace::TraceBuffer &trace)
{
    std::vector<TraceRecord> out;
    for (const TraceRecord &rec : trace.records()) {
        if (rec.isMemAccess())
            out.push_back(rec);
        if (out.size() == kMaxAccesses)
            break;
    }
    return out;
}

/** Median of @p passes timed runs of @p fn, in seconds. */
template <typename F>
double
medianPass(F &&fn)
{
    std::vector<double> t;
    for (int i = 0; i < kPasses; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(secondsBetween(t0, Clock::now()));
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

/**
 * Walk @p accesses through @p translate and call @p flush on the next
 * eviction range every @p interval accesses; returns the flush calls'
 * total seconds.
 */
template <typename Translate, typename Flush>
double
interleaved(const std::vector<TraceRecord> &accesses,
            const std::vector<tlb::Region> &ranges, std::size_t interval,
            Translate &&translate, Flush &&flush)
{
    double seconds = 0;
    std::size_t next = 0;
    for (std::size_t i = 0; i < accesses.size(); ++i) {
        translate(i, accesses[i]);
        if ((i + 1) % interval != 0)
            continue;
        const tlb::Region &r = ranges[next++ % ranges.size()];
        const auto t0 = Clock::now();
        flush(accesses[i], r);
        seconds += secondsBetween(t0, Clock::now());
    }
    return seconds;
}

} // namespace

ProbeResult
runProbes(const WorkloadSpec &spec, const PointResult &point,
          SpanRecorder &spans)
{
    ProbeResult res;
    const tlb::AddressSpace space = spaceOf(*point.trace);
    const std::vector<TraceRecord> accesses = accessesOf(*point.trace);
    if (accesses.empty())
        return res;
    const double n = static_cast<double>(accesses.size());

    {
        ScopedSpan span(spans, "tlb.translate_probe");
        pmodv::stats::Group root;
        tlb::TlbHierarchy tlbs(&root, spec.config.tlb, space);
        res.translateNs = medianPass([&] {
                              for (const TraceRecord &a : accesses)
                                  tlbs.translate(a.tid, a.addr);
                          }) / n * 1e9;
    }
    {
        ScopedSpan span(spans, "mem.access_probe");
        pmodv::stats::Group root;
        pmodv::mem::CacheHierarchy caches(&root, spec.config.memory);
        res.accessNs =
            medianPass([&] {
                for (const TraceRecord &a : accesses) {
                    caches.access(a.addr,
                                  a.type == RecordType::Store
                                      ? pmodv::AccessType::Write
                                      : pmodv::AccessType::Read,
                                  a.isPmoAccess() ? pmodv::MemClass::Nvm
                                                  : pmodv::MemClass::Dram);
                }
            }) / n * 1e9;
    }

    // Eviction ranges in libmpk's order, at libmpk's rate.
    std::vector<tlb::Region> ranges;
    for (const pmodv::trace::Event &ev : point.libmpkEvictions) {
        if (const tlb::Region *r = space.findDomain(ev.arg))
            ranges.push_back(*r);
    }
    const SchemeOutput &lib = point.outputs[schemeIndex(SchemeKind::LibMpk)];
    if (ranges.empty() || lib.keyEvictions == 0)
        return res;
    const std::uint64_t mem_accesses =
        point.trace->summary().count(RecordType::Load) +
        point.trace->summary().count(RecordType::Store);
    const std::size_t interval =
        std::max<std::uint64_t>(1, mem_accesses / lib.keyEvictions);
    const double calls = static_cast<double>(accesses.size() / interval);
    if (calls == 0)
        return res;

    {
        ScopedSpan span(spans, "tlb.flush_range_probe");
        pmodv::stats::Group root;
        tlb::TlbHierarchy tlbs(&root, spec.config.tlb, space);
        const double s = interleaved(
            accesses, ranges, interval,
            [&](std::size_t, const TraceRecord &a) {
                tlbs.translate(a.tid, a.addr);
            },
            [&](const TraceRecord &, const tlb::Region &r) {
                res.flushUseful.den += 1;
                if (tlbs.flushRange(r.base, r.size) > 0)
                    res.flushUseful.num += 1;
            });
        res.flushRangeNs = s / calls * 1e9;
    }
    {
        // Four cores; a single-thread trace is spread round-robin so
        // every core's TLB is warm.
        ScopedSpan span(spans, "arch.bus_broadcast_probe");
        constexpr unsigned kCores = 4;
        pmodv::stats::Group root;
        pmodv::arch::CoreTopology topo;
        topo.numCores = kCores;
        pmodv::arch::ShootdownBus bus(&root, topo);
        std::vector<std::unique_ptr<tlb::TlbHierarchy>> tlbs;
        for (unsigned k = 0; k < kCores; ++k) {
            tlbs.push_back(std::make_unique<tlb::TlbHierarchy>(
                &root, spec.config.tlb, space));
            bus.attachCore(k, tlbs.back().get(), nullptr, nullptr);
        }
        const bool multi_thread = spec.micro.numThreads > 1 ||
                                  spec.kv.numThreads > 1;
        const double s = interleaved(
            accesses, ranges, interval,
            [&](std::size_t i, const TraceRecord &a) {
                const std::size_t core =
                    (multi_thread ? a.tid : i) % kCores;
                tlbs[core]->translate(a.tid, a.addr);
            },
            [&](const TraceRecord &a, const tlb::Region &r) {
                bus.broadcast(a.tid % kCores, a.tid, r.base, r.size);
            });
        res.broadcastNs = s / calls * 1e9;
    }
    return res;
}

} // namespace perfbench
