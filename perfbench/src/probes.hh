/**
 * @file
 * Stand-alone probes of single layers, driven by a captured trace:
 * TLB translation, cache access, ranged TLB flushes and shootdown-bus
 * broadcasts, each on its own structures outside any System.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include "point.hh"

namespace perfbench
{

struct ProbeResult
{
    double translateNs = 0; ///< TlbHierarchy::translate, per call.
    double accessNs = 0;    ///< CacheHierarchy::access, per call.
    double flushRangeNs = 0; ///< TlbHierarchy::flushRange, per call.
    Ratio flushUseful;       ///< Flushes that invalidated >= 1 entry.
    double broadcastNs = 0;  ///< ShootdownBus::broadcast, per call.
};

/**
 * Probe the layers with the trace and libmpk eviction events kept by
 * @p point (runPoint with keep_trace). Flushes and broadcasts are
 * interleaved with the access stream at libmpk's eviction rate, over
 * the PMO ranges of the evicted domains in eviction order, so each
 * call meets a TLB warmed the way the replay warmed it.
 */
ProbeResult runProbes(const WorkloadSpec &spec, const PointResult &point,
                      SpanRecorder &spans);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
