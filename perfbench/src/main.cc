/**
 * @file
 * pmodv-perfbench: the repo benchmark's single-process runner.
 *
 *   pmodv-perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   --out DIR [--git-describe STR] [--source-sha STR]
 *   pmodv-perfbench --self-test
 *
 * Repeats one point of the workload (see point.hh) until S seconds
 * have passed, checks every replay, and prints medians over the
 * repetitions. With --trace 0 it prints the end-to-end metrics. With
 * --trace 1 it alternates untraced and traced repetitions, runs the
 * stand-alone layer probes, and prints the per-layer metrics; the
 * spans go to DIR. Every run writes its result, with a manifest of
 * the build, host, seed and workload parameters, to DIR. The last
 * line of stdout is the result as one JSON object.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hh"
#include "common/simd.hh"
#include "point.hh"
#include "probes.hh"
#include "spans.hh"

namespace perfbench
{
namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = kPinnedSeed;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".";
    std::string gitDescribe = "unknown";
    std::string sourceSha = "unknown";
    bool selfTest = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pmodv-perfbench: %s\nusage: pmodv-perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 --out DIR "
                 "[--git-describe STR] [--source-sha STR] | --self-test\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            o.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--out") {
            o.outDir = v;
        } else if (a == "--git-describe") {
            o.gitDescribe = v;
        } else if (a == "--source-sha") {
            o.sourceSha = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
        if (end && *end != '\0')
            usage(("bad number for " + a).c_str());
    }
    if (!o.selfTest && (o.workload.empty() || !(o.seconds > 0)))
        usage("--workload and a positive --seconds are required");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Shortest round-trip decimal form of @p v (valid JSON). */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Insertion-ordered metric table. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Metrics
{
  public:
    void
    add(std::string name, double value, std::string unit)
    {
        list_.push_back({std::move(name), value, std::move(unit)});
    }
    const std::vector<Metric> &list() const { return list_; }

    std::string
    json() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < list_.size(); ++i) {
            s += (i ? ", " : "") + quoted(list_[i].name) +
                 ": {\"value\": " + num(list_[i].value) +
                 ", \"unit\": " + quoted(list_[i].unit) + "}";
        }
        return s + "}";
    }

  private:
    std::vector<Metric> list_;
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** The run manifest: build, host, seed and workload parameters. */
std::string
manifest(const Options &o, const WorkloadSpec &spec,
         const std::array<std::uint64_t, kTracesPerRun> &seeds,
         unsigned reps)
{
    const auto &m = spec.micro;
    const auto &kv = spec.kv;
    const auto &c = spec.config;
    std::ostringstream s;
    s << "{\"git_describe\": " << quoted(o.gitDescribe)
      << ", \"source_sha256\": " << quoted(o.sourceSha)
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << quoted(PERFBENCH_CXX_FLAGS)
      << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
      << ", \"simd\": " << quoted(pmodv::simd::activeImpl())
      << ", \"cpu_model\": " << quoted(cpuModel())
      << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"workload\": " << quoted(spec.name) << ", \"seed\": " << o.seed
      << ", \"trace_seeds\": [";
    for (unsigned j = 0; j < kTracesPerRun; ++j)
        s << (j ? ", " : "") << seeds[j];
    s << "], \"seconds\": " << num(o.seconds)
      << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"repetitions\": " << reps
      << ", \"params\": {";
    if (spec.server) {
        s << "\"generator\": \"kv\", \"tenants\": " << kv.numTenants
          << ", \"tenant_bytes\": " << kv.tenantBytes
          << ", \"requests\": " << kv.numRequests
          << ", \"keys_per_tenant\": " << kv.keysPerTenant
          << ", \"buckets\": " << kv.numBuckets
          << ", \"read_ratio\": " << num(kv.readRatio)
          << ", \"zipf_theta\": " << num(kv.zipfTheta)
          << ", \"mean_inter_arrival_cycles\": "
          << num(kv.meanInterArrivalCycles)
          << ", \"app_insts\": " << kv.appInsts
          << ", \"threads\": " << kv.numThreads
          << ", \"page_size\": " << static_cast<int>(kv.pageSize);
    } else {
        s << "\"generator\": \"avl\", \"pmos\": " << m.numPmos
          << ", \"pmo_bytes\": " << m.pmoBytes << ", \"ops\": " << m.numOps
          << ", \"initial_nodes\": " << m.initialNodes
          << ", \"insert_ratio\": " << num(m.insertRatio)
          << ", \"threads\": " << m.numThreads
          << ", \"page_size\": " << static_cast<int>(m.pageSize);
    }
    s << ", \"cores\": " << c.topology.numCores
      << ", \"op_classes\": " << c.opClasses
      << ", \"slow_request_k\": " << c.slowRequestK
      << ", \"sampling_epoch_cycles\": " << c.samplingEpochCycles
      << ", \"sampling_max_epochs\": " << c.samplingMaxEpochs
      << ", \"event_ring_capacity\": " << c.eventRingCapacity << "}}";
    return s.str();
}

/** The pinned model outputs of one repetition, per scheme. */
std::string
outputsJson(const std::array<SchemeOutput, kSchemes.size()> &outputs)
{
    std::string s = "{";
    for (const SchemeOutput &out : outputs) {
        s += (out.kind == kSchemes.front() ? "" : ", ") +
             quoted(pmodv::arch::schemeName(out.kind)) +
             ": {\"cycles\": " + std::to_string(out.cycles) +
             ", \"makespan\": " + std::to_string(out.makespan) +
             ", \"instructions\": " + std::to_string(out.instructions) +
             ", \"key_evictions\": " + std::to_string(out.keyEvictions) +
             ", \"latency_samples\": " +
             std::to_string(out.latencySamples) + "}";
    }
    return s + "}";
}

/** Medians over repetitions of one flavour (untraced or traced). */
struct Reps
{
    std::vector<PointResult> points; ///< Without the kept trace.

    template <typename F>
    double
    med(F &&f) const
    {
        std::vector<double> v;
        for (const PointResult &p : points)
            v.push_back(f(p));
        return median(v);
    }
};

/**
 * traced/untraced - 1 of @p f, in percent, for each (untraced,
 * traced) pair of repetitions, sorted.
 */
template <typename F>
std::vector<double>
pairedGapsPct(const Reps &u, const Reps &t, F &&f)
{
    std::vector<double> gaps;
    for (std::size_t k = 0; k < std::min(u.points.size(), t.points.size());
         ++k)
        gaps.push_back((f(t.points[k]) / f(u.points[k]) - 1) * 100);
    std::sort(gaps.begin(), gaps.end());
    return gaps;
}

double
schemeSeconds(const PointResult &p, std::size_t i)
{
    return p.timing[i].init + p.timing[i].replay + p.timing[i].finish;
}

/** Per-repetition host seconds by stage and by scheme. */
std::string
repsJson(const Reps &reps)
{
    std::string s = "[";
    for (const PointResult &p : reps.points) {
        s += (s.size() > 1 ? ", " : "") + std::string("{\"setup\": ") +
             num(p.setup) + ", \"replay\": " + num(p.replay) +
             ", \"wall\": " + num(p.wall) + ", \"schemes\": [";
        for (std::size_t i = 0; i < kSchemes.size(); ++i)
            s += (i ? ", " : "") + num(schemeSeconds(p, i));
        s += "]}";
    }
    return s + "]";
}

void
endToEndMetrics(const Reps &u, double rss, Metrics &m)
{
    m.add("setup_s", u.med([](const PointResult &p) { return p.setup; }),
          "s");
    m.add("replay_s", u.med([](const PointResult &p) { return p.replay; }),
          "s");
    m.add("wall_s", u.med([](const PointResult &p) { return p.wall; }), "s");
    for (std::size_t i = 0; i < kSchemes.size(); ++i) {
        m.add(std::string("mrec_s.") + pmodv::arch::schemeName(kSchemes[i]),
              u.med([i](const PointResult &p) {
                  return static_cast<double>(p.records) / 1e6 /
                         schemeSeconds(p, i);
              }),
              "Mrec/s");
    }
    m.add("peak_rss_mb", rss, "MB");
}

void
perLayerMetrics(const Reps &u, const Reps &t, const ProbeResult &probe,
                const std::map<std::string, double> &self_ms,
                std::vector<std::string> &notes, Metrics &m)
{
    // Counts and ratios: the first traced repetition, the seed's own
    // trace. Times: medians over the traced repetitions.
    const PointResult &p0 = t.points.front();
    const double recs = static_cast<double>(p0.records);
    auto ns_per_rec = [&](auto seconds) {
        return t.med([&](const PointResult &p) {
            return seconds(p) / static_cast<double>(p.records) * 1e9;
        });
    };
    auto name = [](std::size_t i) {
        return std::string(pmodv::arch::schemeName(kSchemes[i]));
    };
    auto lib = schemeIndex(SchemeKind::LibMpk);
    auto mv = schemeIndex(SchemeKind::MpkVirt);
    auto dv = schemeIndex(SchemeKind::DomainVirt);
    auto none = schemeIndex(SchemeKind::NoProtection);

    // workloads / trace
    m.add("workloads.capture_ns_per_rec",
          ns_per_rec([](const PointResult &p) { return p.capture; }), "ns");
    m.add("trace.build_ns_per_rec",
          ns_per_rec([](const PointResult &p) { return p.build; }), "ns");
    m.add("trace.write_ns_per_rec",
          ns_per_rec([](const PointResult &p) { return p.write; }), "ns");
    m.add("trace.view_ns_per_rec",
          ns_per_rec([](const PointResult &p) { return p.view; }), "ns");
    m.add("trace.bytes_per_rec", static_cast<double>(p0.traceBytes) / recs,
          "B");

    // core
    std::vector<double> replay_ns(kSchemes.size());
    for (std::size_t i = 0; i < kSchemes.size(); ++i) {
        replay_ns[i] = ns_per_rec(
            [i](const PointResult &p) { return p.timing[i].replay; });
        m.add("core.init_ms." + name(i),
              t.med([i](const PointResult &p) { return p.timing[i].init; }) *
                  1e3,
              "ms");
        m.add("core.replay_ns_per_rec." + name(i), replay_ns[i], "ns");
        m.add("core.finish_ms." + name(i),
              t.med([i](const PointResult &p) {
                  return p.timing[i].finish;
              }) * 1e3,
              "ms");
    }

    // arch
    for (std::size_t i = 0; i < kSchemes.size(); ++i) {
        if (i != none)
            m.add("arch.extra_ns_per_rec." + name(i),
                  replay_ns[i] - replay_ns[none], "ns");
    }
    for (std::size_t i : {lib, mv}) {
        m.add("arch.evictions_per_krec." + name(i),
              static_cast<double>(p0.outputs[i].keyEvictions) / recs * 1e3,
              "count/krec");
        m.add("arch.shot_pages_per_krec." + name(i),
              p0.counts[i].shootdownPages / recs * 1e3, "count/krec");
    }
    m.add("arch.dttlb_miss_ratio", p0.counts[mv].dttlbMiss.value(), "ratio");
    m.add("arch.dttlb_l0_hit_ratio", p0.counts[mv].dttlbL0Hit.value(),
          "ratio");
    m.add("arch.ptlb_miss_ratio", p0.counts[dv].ptlbMiss.value(), "ratio");
    m.add("arch.ptlb_l0_hit_ratio", p0.counts[dv].ptlbL0Hit.value(),
          "ratio");
    for (std::size_t i : {lib, mv})
        m.add("arch.ipi_useful_ratio." + name(i),
              p0.counts[i].ipiUseful.value(), "ratio");
    m.add("arch.bus_broadcast_ns", probe.broadcastNs, "ns");

    // tlb
    m.add("tlb.translate_ns", probe.translateNs, "ns");
    for (std::size_t i = 0; i < kSchemes.size(); ++i) {
        m.add("tlb.l1_miss_ratio." + name(i), p0.counts[i].tlbL1Miss.value(),
              "ratio");
        m.add("tlb.l0_hit_ratio." + name(i), p0.counts[i].tlbL0Hit.value(),
              "ratio");
    }
    m.add("tlb.flush_range_ns", probe.flushRangeNs, "ns");
    m.add("tlb.flush_useful_ratio", probe.flushUseful.value(), "ratio");

    // mem (the unprotected machine's caches)
    m.add("mem.access_ns", probe.accessNs, "ns");
    m.add("mem.l1d_miss_ratio", p0.counts[none].l1dMiss.value(), "ratio");
    m.add("mem.l2_miss_ratio", p0.counts[none].l2Miss.value(), "ratio");
    m.add("mem.l0_hit_ratio", p0.counts[none].cacheL0Hit.value(), "ratio");

    // stats / exp
    m.add("stats.json_us",
          t.med([](const PointResult &p) { return p.statsJson; }) * 1e6,
          "us");
    m.add("stats.events_json_us",
          t.med([](const PointResult &p) { return p.eventsJson; }) * 1e6,
          "us");
    m.add("stats.report_bytes", static_cast<double>(p0.reportBytes), "B");
    m.add("exp.hot_domains_us",
          t.med([](const PointResult &p) { return p.hotDomains; }) * 1e6,
          "us");

    // bench: tracing cost, and traced vs untraced replay per scheme,
    // each compared within (untraced, traced) pairs on one trace.
    const double overhead = median(
        pairedGapsPct(u, t, [](const PointResult &p) { return p.wall; }));
    m.add("bench.trace_overhead_pct", overhead, "%");
    double gap_max = 0;
    for (std::size_t i = 0; i < kSchemes.size(); ++i) {
        const std::vector<double> gaps = pairedGapsPct(
            u, t, [i](const PointResult &p) { return p.timing[i].replay; });
        const double gap = median(gaps);
        const double q1 = gaps[gaps.size() / 4];
        const double q3 = gaps[(3 * gaps.size()) / 4];
        gap_max = std::max(gap_max, std::fabs(gap));
        const bool agrees = std::fabs(gap) <= std::fabs(overhead) ||
                            (q1 <= overhead && overhead <= q3);
        char line[256];
        std::snprintf(line, sizeof(line),
                      "traced vs untraced replay %-11s %+7.2f%% (pair "
                      "quartiles %+.2f%%..%+.2f%%, trace overhead "
                      "%+.2f%%): %s",
                      name(i).c_str(), gap, q1, q3, overhead,
                      agrees ? "agrees" : "differs");
        notes.push_back(line);
    }
    m.add("bench.replay_gap_pct_max", gap_max, "%");

    for (const char *layer : {"bench", "workloads", "trace", "core", "stats",
                              "exp", "tlb", "mem", "arch"}) {
        const auto it = self_ms.find(layer);
        m.add(std::string("self_ms.") + layer,
              it == self_ms.end() ? 0.0 : it->second, "ms");
    }
}

int
run(const Options &o)
{
    const auto spec = makeWorkload(o.workload, o.seed);
    if (!spec) {
        std::fprintf(stderr, "pmodv-perfbench: unknown workload '%s'\n",
                     o.workload.c_str());
        return 2;
    }
    const std::string tag =
        o.workload + "-seed" + std::to_string(o.seed) + "-trace" +
        (o.trace ? "1" : "0");
    const std::string trace_path =
        o.outDir + "/trace-" + tag + "-" + std::to_string(getpid()) + ".trc";

    SpanRecorder off(false);
    SpanRecorder on(true);
    Reps untraced;
    Reps traced;
    PointResult probe_input;
    std::vector<std::map<std::string, double>> self_by_rep;
    CheckReport checks;
    unsigned pinned_replays = 0;
    // Peak RSS after the first repetition: one point in a fresh process,
    // as a bench binary runs it. Later repetitions reuse freed heap
    // differently depending on the traces' sizes, which moves the
    // whole-run peak by about 15% between seeds.
    double first_rss_mb = 0;
    const auto seeds = traceSeeds(o.seed);
    // Outputs of each trace's first repetition; later ones must match.
    std::array<std::optional<std::array<SchemeOutput, kSchemes.size()>>,
               kTracesPerRun>
        first;

    const auto t0 = Clock::now();
    for (unsigned rep = 0;; ++rep) {
        // With tracing, repetitions come in (untraced, traced) pairs on
        // one trace; the pairs alternate which side runs first.
        const bool tr = o.trace && (rep % 2 == 1) != (rep / 2 % 2 == 1);
        const unsigned j = (o.trace ? rep / 2 : rep) % kTracesPerRun;
        const WorkloadSpec spec_j = *makeWorkload(o.workload, seeds[j]);
        SpanRecorder &spans = tr ? on : off;
        const int root = spans.open("bench.rep");
        const bool keep = tr && !probe_input.trace;
        PointResult p = runPoint(spec_j, trace_path, spans, keep);

        const auto tc = Clock::now();
        CheckReport rep_checks;
        {
            ScopedSpan span(spans, "bench.check");
            rep_checks =
                checkOutputs(spec_j, seeds[j], p.outputs,
                             first[j] ? &*first[j] : nullptr);
        }
        p.wall += secondsBetween(tc, Clock::now());
        spans.close(root);
        checks.attempted += rep_checks.attempted;
        checks.failed += rep_checks.failed;
        if (rep_checks.pinned)
            pinned_replays += rep_checks.attempted;
        for (const std::string &msg : rep_checks.messages)
            checks.messages.push_back("seed " + std::to_string(seeds[j]) +
                                      " " + msg);
        if (!first[j])
            first[j] = p.outputs;
        if (rep == 0)
            first_rss_mb = peakRssMb();

        const double last = p.wall;
        if (tr) {
            self_by_rep.push_back(on.selfSecondsByLayer(root));
            if (keep) {
                probe_input.trace = std::move(p.trace);
                probe_input.libmpkEvictions = std::move(p.libmpkEvictions);
                probe_input.outputs = p.outputs;
            }
            traced.points.push_back(std::move(p));
        } else {
            untraced.points.push_back(std::move(p));
        }

        const double elapsed = secondsBetween(t0, Clock::now());
        // A traced run stops only after a complete pair.
        const bool enough =
            untraced.points.size() >= 3 &&
            (!o.trace || (rep % 2 == 1 && traced.points.size() >= 3));
        const double next = o.trace ? 2 * last : last;
        if (enough && elapsed + next > o.seconds)
            break;
    }
    const unsigned reps =
        static_cast<unsigned>(untraced.points.size() + traced.points.size());

    Metrics metrics;
    std::vector<std::string> notes;
    if (o.trace) {
        const int probe_root = on.open("bench.probes");
        const ProbeResult probe = runProbes(*spec, probe_input, on);
        on.close(probe_root);
        std::map<std::string, double> self_ms;
        for (const char *layer : {"bench", "workloads", "trace", "core",
                                  "stats", "exp"}) {
            std::vector<double> v;
            for (const auto &s : self_by_rep) {
                const auto it = s.find(layer);
                v.push_back(it == s.end() ? 0.0 : it->second);
            }
            self_ms[layer] = median(v) * 1e3;
        }
        for (const auto &[layer, s] : on.selfSecondsByLayer(probe_root)) {
            if (layer != "bench")
                self_ms[layer] = s * 1e3;
        }
        perLayerMetrics(untraced, traced, probe, self_ms, notes, metrics);
        std::ofstream spans_out(o.outDir + "/spans-" + tag + ".json");
        on.writeJson(spans_out);
    } else {
        endToEndMetrics(untraced, first_rss_mb, metrics);
    }

    // ---- human-readable report ----
    const std::string man = manifest(o, *spec, seeds, reps);
    std::printf("manifest %s\n", man.c_str());
    std::printf("%s: %u repetitions in %.1f s\n", o.workload.c_str(), reps,
                secondsBetween(t0, Clock::now()));
    for (const Metric &mt : metrics.list())
        std::printf("  %-36s %16.6g %s\n", mt.name.c_str(), mt.value,
                    mt.unit.c_str());
    const double failed_share =
        static_cast<double>(checks.failed) / checks.attempted;
    std::printf("  %-36s %16.6g %s\n", "failed_share", failed_share,
                "ratio");
    for (const std::string &n : notes)
        std::printf("%s\n", n.c_str());
    std::printf("output check: %u of %u replays failed; ", checks.failed,
                checks.attempted);
    if (pinned_replays) {
        std::printf("pinned values compared on the %u replays of seed "
                    "%llu\n",
                    pinned_replays,
                    static_cast<unsigned long long>(kPinnedSeed));
    } else {
        std::printf("pinned values skipped (seed %llu is not pinned), "
                    "invariants only\n",
                    static_cast<unsigned long long>(o.seed));
    }
    for (std::size_t i = 0; i < checks.messages.size() && i < 20; ++i)
        std::printf("  FAIL %s\n", checks.messages[i].c_str());

    const std::string result =
        std::string("{\"correct\": ") + (checks.failed ? "false" : "true") +
        ", \"attempted\": " + std::to_string(checks.attempted) +
        ", \"failed\": " + std::to_string(checks.failed) +
        ", \"metrics\": " + metrics.json() + "}";
    std::ofstream(o.outDir + "/result-" + tag + ".json")
        << "{\"manifest\": " << man << ",\n \"failed_share\": "
        << num(failed_share) << ",\n \"outputs\": " << outputsJson(*first[0])
        << ",\n \"repetitions\": {\"untraced\": " << repsJson(untraced)
        << ", \"traced\": " << repsJson(traced) << "}"
        << ",\n \"result\": " << result << "}\n";
    std::printf("%s\n", result.c_str());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    const perfbench::Options o = perfbench::parseArgs(argc, argv);
    if (o.selfTest)
        return perfbench::selfTest() ? 0 : 1;
    return perfbench::run(o);
}
