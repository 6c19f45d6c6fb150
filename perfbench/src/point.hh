/**
 * @file
 * One benchmark point: capture a workload's trace once, write it as a
 * v2 file, map it back, replay it under all six schemes one after
 * another on the calling thread, export every System's reports, and
 * collect the model outputs the checks compare.
 *
 * Everything here goes through the pmodv modules' public functions.
 */

#ifndef PERFBENCH_POINT_HH
#define PERFBENCH_POINT_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arch/params.hh"
#include "core/config.hh"
#include "spans.hh"
#include "trace/buffer.hh"
#include "trace/event_ring.hh"
#include "workloads/micro/micro.hh"
#include "workloads/server/server.hh"

namespace perfbench
{

using pmodv::arch::SchemeKind;

/** The six schemes, in replay order. */
inline constexpr std::array<SchemeKind, 6> kSchemes{
    SchemeKind::NoProtection, SchemeKind::Lowerbound, SchemeKind::Mpk,
    SchemeKind::LibMpk,       SchemeKind::MpkVirt,    SchemeKind::DomainVirt};

/** A workload: which generator, its parameters, the machine. */
struct WorkloadSpec
{
    std::string name;
    bool server = false; ///< kv server (else the avl microbenchmark).
    pmodv::workloads::MicroParams micro;
    pmodv::workloads::ServerParams kv;
    pmodv::core::SimConfig config;
};

/**
 * Traces one run rotates over, one per repetition. The workload's
 * throughput depends on the trace (libmpk's key evictions per record
 * differ by about +-12% between seeds), so a run's medians cover
 * several traces rather than one.
 */
inline constexpr unsigned kTracesPerRun = 8;

/**
 * Generator seeds of a run at @p seed: the seed itself first, then
 * seeds drawn from it.
 */
std::array<std::uint64_t, kTracesPerRun> traceSeeds(std::uint64_t seed);

/** The benchmark's workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Workload @p name generated from @p seed; nullopt when unknown. */
std::optional<WorkloadSpec> makeWorkload(const std::string &name,
                                         std::uint64_t seed);

/** Model outputs of one scheme's replay (what the checks compare). */
struct SchemeOutput
{
    SchemeKind kind = SchemeKind::NoProtection;
    std::uint64_t cycles = 0;
    std::uint64_t makespan = 0;
    std::uint64_t instructions = 0;
    /** issue, mem, prot_fill, prot_check, perm_instr, syscall,
     *  ctx_switch. */
    std::array<std::uint64_t, 7> buckets{};
    /** Per-core cycle counters (multi-core machines only). */
    std::vector<std::uint64_t> coreCycles;
    std::uint64_t keyEvictions = 0;
    /** Request-latency samples (open-loop server replays only). */
    std::uint64_t latencySamples = 0;

    bool operator==(const SchemeOutput &) const = default;
};

/** Ratio as (numerator, denominator) counts, summed over instances. */
struct Ratio
{
    double num = 0;
    double den = 0;
    double value() const { return den == 0 ? 0.0 : num / den; }
};

/** Per-layer counts read from one scheme's System after its replay. */
struct SchemeCounts
{
    double shootdownPages = 0;
    Ratio tlbL1Miss;  ///< L1 TLB misses / L1 lookups.
    Ratio tlbL0Hit;   ///< L0-filter hits / lookups, both TLB levels.
    Ratio l1dMiss;
    Ratio l2Miss;
    Ratio cacheL0Hit; ///< L0-filter hits / lookups, both cache levels.
    Ratio dttlbMiss;  ///< mpk_virt only.
    Ratio dttlbL0Hit;
    Ratio ptlbMiss;   ///< domain_virt only.
    Ratio ptlbL0Hit;
    Ratio ipiUseful;  ///< IPIs responded / (responded + filtered).
};

/** Host seconds spent in one scheme's System calls. */
struct SchemeTiming
{
    double init = 0;   ///< System constructor.
    double replay = 0; ///< System::replayBatch.
    double finish = 0; ///< System::finish.
};

/** Everything one point produced. */
struct PointResult
{
    std::uint64_t records = 0;
    std::uint64_t traceBytes = 0; ///< Bytes of the v2 trace file.

    // Host seconds by stage.
    double capture = 0; ///< Workload run into a VectorSink.
    double build = 0;   ///< TraceBuffer::fromRecords.
    double write = 0;   ///< TraceFileWriter.
    double view = 0;    ///< TraceFileReader::view (checksum verified).
    double setup = 0;   ///< capture + build + write + view.
    double replay = 0;  ///< All six schemes, construction to finish().
    double statsJson = 0;  ///< stats::toJsonString, six Systems.
    double eventsJson = 0; ///< Event rings as a Perfetto document.
    double hotDomains = 0; ///< exp::hotDomainsJson, six Systems.
    double wall = 0;       ///< The whole point.
    std::uint64_t reportBytes = 0; ///< Bytes of all three exports.

    std::array<SchemeOutput, kSchemes.size()> outputs{};
    std::array<SchemeTiming, kSchemes.size()> timing{};
    std::array<SchemeCounts, kSchemes.size()> counts{};

    /** The mapped trace (kept only when asked, for the probes). */
    std::shared_ptr<const pmodv::trace::TraceBuffer> trace;
    /** libmpk's key-eviction events left in its ring, oldest first. */
    std::vector<pmodv::trace::Event> libmpkEvictions;
};

/** Index of @p kind in kSchemes. */
std::size_t schemeIndex(SchemeKind kind);

/**
 * Run one point of @p spec. The trace file lives at @p trace_path
 * while the point runs and is removed before it returns. Spans go to
 * @p spans (a disabled recorder records none). With @p keep_trace the
 * mapped trace and libmpk's eviction events are returned too.
 */
PointResult runPoint(const WorkloadSpec &spec,
                     const std::string &trace_path, SpanRecorder &spans,
                     bool keep_trace);

} // namespace perfbench

#endif // PERFBENCH_POINT_HH
