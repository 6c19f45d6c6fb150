#include "point.hh"

#include <filesystem>

#include "arch/domain_virt.hh"
#include "common/rng.hh"
#include "arch/mpk_virt.hh"
#include "core/system.hh"
#include "exp/trace_export.hh"
#include "stats/export.hh"
#include "trace/sinks.hh"
#include "trace/trace_file.hh"
#include "workloads/trace_ctx.hh"

namespace perfbench
{

namespace core = pmodv::core;
namespace trace = pmodv::trace;
namespace wl = pmodv::workloads;

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"avl-1024", "avl-256-k4",
                                                "kv-1024"};
    return names;
}

std::optional<WorkloadSpec>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.name = name;
    if (name == "avl-1024") {
        // Figure 7's headline point: one core, SimConfig defaults.
        spec.micro.numPmos = 1024;
        spec.micro.initialNodes = 1024;
        spec.micro.numOps = 8'000;
    } else if (name == "avl-256-k4") {
        // fig7_scale's shape: one worker thread per simulated core.
        spec.micro.numPmos = 256;
        spec.micro.initialNodes = 1024;
        spec.micro.numOps = 4'000;
        spec.micro.numThreads = 4;
        spec.config.topology.numCores = 4;
    } else if (name == "kv-1024") {
        // fig_tail's observability: latency classes, the slow-request
        // digest and timeline sampling.
        spec.server = true;
        spec.kv.numTenants = 1024;
        spec.kv.numRequests = 80'000;
        spec.config.opClasses = wl::ServerWorkload::kNumTenantClasses;
        spec.config.slowRequestK = 8;
        spec.config.samplingEpochCycles = 65536;
        spec.config.samplingMaxEpochs = 256;
    } else {
        return std::nullopt;
    }
    spec.micro.seed = seed;
    spec.kv.seed = seed;
    return spec;
}

std::array<std::uint64_t, kTracesPerRun>
traceSeeds(std::uint64_t seed)
{
    std::array<std::uint64_t, kTracesPerRun> seeds{seed};
    pmodv::Rng rng(seed);
    for (unsigned j = 1; j < kTracesPerRun; ++j)
        seeds[j] = rng.raw();
    return seeds;
}

std::size_t
schemeIndex(SchemeKind kind)
{
    for (std::size_t i = 0; i < kSchemes.size(); ++i) {
        if (kSchemes[i] == kind)
            return i;
    }
    return kSchemes.size();
}

namespace
{

std::uint64_t
u64(double v)
{
    return static_cast<std::uint64_t>(v);
}

void
addLookups(Ratio &miss, Ratio &l0, double hits, double misses,
           std::uint64_t l0_hits)
{
    miss.num += misses;
    miss.den += hits + misses;
    l0.num += static_cast<double>(l0_hits);
    l0.den += hits + misses;
}

SchemeOutput
outputOf(core::System &sys)
{
    SchemeOutput out;
    out.kind = sys.schemeKind();
    out.cycles = sys.totalCycles();
    out.makespan = sys.makespanCycles();
    out.instructions = u64(sys.instructions.value());
    out.buckets = {u64(sys.cycIssue.value()),     u64(sys.cycMem.value()),
                   u64(sys.cycProtFill.value()),  u64(sys.cycProtCheck.value()),
                   u64(sys.cycPermInstr.value()), u64(sys.cycSyscall.value()),
                   u64(sys.cycCtxSwitch.value())};
    if (sys.numCores() > 1) {
        for (unsigned k = 0; k < sys.numCores(); ++k)
            out.coreCycles.push_back(sys.coreAt(k).cycleCount);
    }
    out.keyEvictions = u64(sys.scheme().keyEvictions.value());
    if (const auto *lat = sys.opLatHist())
        out.latencySamples = lat->samples();
    return out;
}

SchemeCounts
countsOf(core::System &sys)
{
    SchemeCounts c;
    c.shootdownPages = sys.scheme().shootdownPages.value();
    for (unsigned k = 0; k < sys.numCores(); ++k) {
        pmodv::tlb::TlbHierarchy &tlbs =
            sys.numCores() == 1 ? sys.tlbs() : *sys.coreAt(k).tlb;
        pmodv::mem::CacheHierarchy &caches =
            sys.numCores() == 1 ? sys.caches() : *sys.coreAt(k).caches;
        Ratio unused;
        addLookups(c.tlbL1Miss, c.tlbL0Hit, tlbs.l1().hits.value(),
                   tlbs.l1().misses.value(), tlbs.l1().l0Hits());
        addLookups(unused, c.tlbL0Hit, tlbs.l2().hits.value(),
                   tlbs.l2().misses.value(), tlbs.l2().l0Hits());
        addLookups(c.l1dMiss, c.cacheL0Hit, caches.l1().hits.value(),
                   caches.l1().misses.value(), caches.l1().l0Hits());
        addLookups(c.l2Miss, c.cacheL0Hit, caches.l2().hits.value(),
                   caches.l2().misses.value(), caches.l2().l0Hits());
        if (auto *mv = dynamic_cast<pmodv::arch::MpkVirtScheme *>(
                &sys.scheme())) {
            auto &d = mv->dttlbAt(k);
            addLookups(c.dttlbMiss, c.dttlbL0Hit, d.hits.value(),
                       d.misses.value(), d.l0Hits());
        }
        if (auto *dv = dynamic_cast<pmodv::arch::DomainVirtScheme *>(
                &sys.scheme())) {
            auto &p = dv->ptlbAt(k);
            addLookups(c.ptlbMiss, c.ptlbL0Hit, p.hits.value(),
                       p.misses.value(), p.l0Hits());
        }
    }
    if (const auto *bus = sys.shootdownBus()) {
        c.ipiUseful.num = bus->ipisResponded.value();
        c.ipiUseful.den =
            bus->ipisResponded.value() + bus->ipisFiltered.value();
    }
    return c;
}

/** Run the workload generator into an in-memory sink. */
std::vector<trace::TraceRecord>
capture(const WorkloadSpec &spec)
{
    trace::VectorSink sink;
    wl::TraceCtx ctx(sink, spec.server ? spec.kv.seed : spec.micro.seed);
    if (spec.server) {
        wl::ServerWorkload workload(spec.kv);
        workload.run(ctx);
    } else {
        wl::makeMicro("avl", spec.micro)->run(ctx);
    }
    return sink.take();
}

/** Time one call and record it as a span. */
template <typename F>
double
timed(SpanRecorder &spans, std::string name, F &&fn)
{
    ScopedSpan span(spans, std::move(name));
    const auto t0 = Clock::now();
    fn();
    return secondsBetween(t0, Clock::now());
}

} // namespace

PointResult
runPoint(const WorkloadSpec &spec, const std::string &trace_path,
         SpanRecorder &spans, bool keep_trace)
{
    PointResult res;
    const auto t_start = Clock::now();
    ScopedSpan point_span(spans, "bench.point");

    // ---- setup: capture, build, write v2, map back ----
    std::vector<trace::TraceRecord> recs;
    res.capture = timed(spans, "workloads.capture",
                        [&] { recs = capture(spec); });
    std::shared_ptr<const trace::TraceBuffer> built;
    res.build = timed(spans, "trace.build", [&] {
        built = trace::TraceBuffer::fromRecords(std::move(recs));
    });
    res.write = timed(spans, "trace.write", [&] {
        trace::TraceFileWriter writer(trace_path);
        for (const trace::TraceRecord &rec : built->records())
            writer.put(rec);
        writer.finish();
    });
    built.reset();
    std::shared_ptr<const trace::TraceBuffer> mapped;
    res.view = timed(spans, "trace.view", [&] {
        trace::TraceFileReader reader(trace_path);
        mapped = reader.view();
    });
    res.setup = res.capture + res.build + res.write + res.view;
    res.records = mapped->size();
    res.traceBytes = std::filesystem::file_size(trace_path);
    // The mapping outlives the directory entry.
    std::filesystem::remove(trace_path);

    // ---- replay: six schemes, one after another ----
    std::vector<std::unique_ptr<core::System>> systems;
    const auto t_replay = Clock::now();
    for (std::size_t i = 0; i < kSchemes.size(); ++i) {
        const std::string sname = pmodv::arch::schemeName(kSchemes[i]);
        SchemeTiming &t = res.timing[i];
        t.init = timed(spans, "core.init." + sname, [&] {
            systems.push_back(
                std::make_unique<core::System>(spec.config, kSchemes[i]));
        });
        core::System &sys = *systems.back();
        t.replay = timed(spans, "core.replay." + sname,
                         [&] { sys.replayBatch(mapped->records()); });
        t.finish = timed(spans, "core.finish." + sname,
                         [&] { sys.finish(); });
    }
    res.replay = secondsBetween(t_replay, Clock::now());

    // ---- export: stats trees, event rings, hot-domain tables ----
    res.statsJson = timed(spans, "stats.json", [&] {
        for (const auto &sys : systems)
            res.reportBytes += pmodv::stats::toJsonString(*sys).size();
    });
    res.eventsJson = timed(spans, "stats.events_json", [&] {
        trace::PerfettoExporter exporter =
            pmodv::exp::makeExporter(spec.config);
        for (const auto &sys : systems) {
            pmodv::exp::appendSystemTrack(
                exporter, *sys, pmodv::arch::schemeName(sys->schemeKind()));
        }
        res.reportBytes += exporter.toString().size();
    });
    res.hotDomains = timed(spans, "exp.hot_domains", [&] {
        for (const auto &sys : systems) {
            res.reportBytes += pmodv::exp::hotDomainsJson(
                                   sys->scheme().domainProfile())
                                   .size();
        }
    });

    // ---- model outputs and per-layer counts ----
    for (std::size_t i = 0; i < systems.size(); ++i) {
        res.outputs[i] = outputOf(*systems[i]);
        res.counts[i] = countsOf(*systems[i]);
    }
    if (keep_trace) {
        res.trace = mapped;
        core::System &lib = *systems[schemeIndex(SchemeKind::LibMpk)];
        for (const trace::Event &ev : lib.drainEvents()) {
            if (ev.kind == trace::EventKind::KeyEviction)
                res.libmpkEvictions.push_back(ev);
        }
    }
    systems.clear();
    mapped.reset();
    res.wall = secondsBetween(t_start, Clock::now());
    return res;
}

} // namespace perfbench
