/**
 * @file
 * The full simulation configuration — the paper's Table II in code.
 * One SimConfig describes a complete replay pipeline (core, caches,
 * TLBs, memory, protection scheme).
 */

#ifndef PMODV_CORE_CONFIG_HH
#define PMODV_CORE_CONFIG_HH

#include <cstddef>
#include <ostream>
#include <string>

#include "arch/params.hh"
#include "mem/hierarchy.hh"
#include "tlb/hierarchy.hh"

namespace pmodv::core
{

/** Complete pipeline configuration. */
struct SimConfig
{
    /** Core clock in GHz (Table II: 2.2 GHz). */
    double freqGhz = 2.2;

    /** Issue width of the out-of-order core abstraction (4-way). */
    unsigned issueWidth = 4;

    /**
     * Fraction of above-L1 memory latency hidden by out-of-order
     * overlap (128-entry ROB abstraction). Applied identically to
     * every scheme, so relative overheads are insensitive to it.
     */
    double memOverlap = 0.75;

    tlb::TlbHierarchyParams tlb{};
    mem::HierarchyParams memory{};
    arch::ProtParams prot{};

    /**
     * Core count and cross-core invalidation cost. Each core has a
     * private TLB/cache/PTLB state, and shootdowns go over an IPI
     * broadcast bus; one core (the default) is the single-pipeline
     * model, whose broadcasts are local flushes.
     */
    arch::CoreTopology topology{};

    /**
     * Epoch width of the System's timeline sampler in cycles; 0 (the
     * default) disables sampling entirely, reducing the hot-path cost
     * to one compare per trace record (bench/gbench_sim.cc).
     */
    Cycles samplingEpochCycles = 0;

    /** Row bound of the timeline sampler; adjacent epochs coalesce
     *  (doubling the epoch width) once this many rows exist. */
    unsigned samplingMaxEpochs = 64;

    /** Capacity of the System's event flight recorder. Raise it when
     *  exporting Perfetto traces so transaction spans survive. */
    std::size_t eventRingCapacity = 256;

    /**
     * Number of request latency classes for open-loop workloads; 0
     * (the default) disables request-latency tracking entirely, so
     * existing stats trees are untouched. When > 0 the System keeps
     * aggregate op_lat/op_queue histograms plus one
     * op_lat_class<i>/op_queue_class<i> pair per class, fed by
     * OpBegin records carrying arrival stamps (the server workload's
     * hot/warm/cold tenant classes): latency is measured from the
     * stamped *arrival* cycle — not service start — against a
     * virtual clock that idles forward when the server catches up
     * with the arrival process, so queueing (convoy) delay is
     * included and separately histogrammed.
     */
    unsigned opClasses = 0;

    /**
     * Top-K bound of the per-request tail-forensics digest; 0 (the
     * default) disables per-request capture entirely — no digest
     * stats, no per-event request tags, no extra fields in JSON
     * reports — so golden stats trees and the batch fast path stay
     * bit-identical. When > 0 (and opClasses > 0, since blame rides
     * on the tracked-op machinery) the System keeps a deterministic
     * top-K slow-request digest: each tracked request's 7-bucket
     * cycle breakdown (which provably partitions its
     * arrival-to-completion latency together with its queueing delay)
     * plus the EventRing events that landed inside its window.
     */
    unsigned slowRequestK = 0;

    /** Cycles for @p seconds of wall-clock at the configured clock. */
    double
    cyclesPerSecond() const
    {
        return freqGhz * 1e9;
    }

    /** Seconds represented by @p cycles at the configured clock. */
    double
    secondsFor(Cycles cycles) const
    {
        return static_cast<double>(cycles) / cyclesPerSecond();
    }
};

/** Print the configuration in the layout of the paper's Table II. */
void printConfig(std::ostream &os, const SimConfig &config);

} // namespace pmodv::core

#endif // PMODV_CORE_CONFIG_HH
