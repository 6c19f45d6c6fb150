#include "checks.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace perfbench
{

namespace
{

/** Model outputs of one (workload, scheme) pair at kPinnedSeed. */
struct Pin
{
    const char *workload;
    SchemeKind kind;
    std::uint64_t cycles;
    std::uint64_t makespan;
    std::uint64_t instructions;
    std::uint64_t keyEvictions;
    std::uint64_t latencySamples;
};

using K = SchemeKind;

// Recorded from the program at kPinnedSeed; see README.md for how to
// re-record them when a change is meant to move a model output.
constexpr Pin kPins[] = {
    // workload, scheme, cycles, makespan, instructions, key evictions,
    // request-latency samples
    {"avl-1024", K::NoProtection, 8912815, 8912815, 1951788, 0, 0},
    {"avl-1024", K::Lowerbound, 9372463, 9372463, 1951788, 0, 0},
    {"avl-1024", K::Mpk, 9372463, 9372463, 1951788, 0, 0},
    {"avl-1024", K::LibMpk, 189817953, 189817953, 1951788, 55747, 0},
    {"avl-1024", K::MpkVirt, 24413899, 24413899, 1951788, 46775, 0},
    {"avl-1024", K::DomainVirt, 11529130, 11529130, 1951788, 0, 0},
    {"avl-256-k4", K::NoProtection, 3914252, 985817, 936274, 0, 0},
    {"avl-256-k4", K::Lowerbound, 4157900, 1046729, 936274, 0, 0},
    {"avl-256-k4", K::Mpk, 4157900, 1046729, 936274, 0, 0},
    {"avl-256-k4", K::LibMpk, 87873546, 22095603, 936274, 24481, 0},
    {"avl-256-k4", K::MpkVirt, 14198939, 3567038, 936274, 19655, 0},
    {"avl-256-k4", K::DomainVirt, 5096142, 1283716, 936274, 0, 0},
    {"kv-1024", K::NoProtection, 13931503, 13931503, 5531785, 0, 80000},
    {"kv-1024", K::Lowerbound, 18279151, 18279151, 5531785, 0, 80000},
    {"kv-1024", K::Mpk, 18279151, 18279151, 5531785, 0, 80000},
    {"kv-1024", K::LibMpk, 107421049, 107421049, 5531785, 60429, 80000},
    {"kv-1024", K::MpkVirt, 37675810, 37675810, 5531785, 59405, 80000},
    {"kv-1024", K::DomainVirt, 18750784, 18750784, 5531785, 0, 80000},
};

const Pin *
findPin(const std::string &workload, SchemeKind kind)
{
    for (const Pin &p : kPins) {
        if (workload == p.workload && kind == p.kind)
            return &p;
    }
    return nullptr;
}

/** Collects the mismatches of one replay. */
class Checker
{
  public:
    Checker(const std::string &workload, SchemeKind kind,
            std::vector<std::string> &messages)
        : prefix_(workload + "/" + pmodv::arch::schemeName(kind) + ": "),
          messages_(messages)
    {
    }

    void
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            failed_ = true;
            messages_.push_back(prefix_ + what);
        }
    }

    void
    expectEq(std::uint64_t got, std::uint64_t want, const char *what)
    {
        expect(got == want, std::string(what) + " is " +
                                std::to_string(got) + ", expected " +
                                std::to_string(want));
    }

    bool failed() const { return failed_; }

  private:
    std::string prefix_;
    std::vector<std::string> &messages_;
    bool failed_ = false;
};

} // namespace

CheckReport
checkOutputs(const WorkloadSpec &spec, std::uint64_t seed,
             const std::array<SchemeOutput, kSchemes.size()> &outputs,
             const std::array<SchemeOutput, kSchemes.size()> *reference)
{
    CheckReport report;
    report.pinned = seed == kPinnedSeed;
    const SchemeOutput &none = outputs[schemeIndex(K::NoProtection)];
    const SchemeOutput &lowerbound = outputs[schemeIndex(K::Lowerbound)];
    const unsigned cores = spec.config.topology.numCores;

    for (std::size_t i = 0; i < outputs.size(); ++i) {
        const SchemeOutput &out = outputs[i];
        Checker c(spec.name, kSchemes[i], report.messages);
        ++report.attempted;

        c.expect(out.kind == kSchemes[i], "replayed the wrong scheme");
        c.expectEq(std::accumulate(out.buckets.begin(), out.buckets.end(),
                                   std::uint64_t{0}),
                   out.cycles, "attribution bucket sum");
        if (cores > 1) {
            c.expect(out.coreCycles.size() == cores,
                     "per-core counter count differs from the topology");
            c.expectEq(std::accumulate(out.coreCycles.begin(),
                                       out.coreCycles.end(),
                                       std::uint64_t{0}),
                       out.cycles, "per-core cycle sum");
            c.expectEq(out.coreCycles.empty()
                           ? 0
                           : *std::max_element(out.coreCycles.begin(),
                                               out.coreCycles.end()),
                       out.makespan, "busiest core's cycles");
        } else {
            c.expectEq(out.makespan, out.cycles, "single-core makespan");
        }
        c.expectEq(out.instructions, none.instructions,
                   "instructions (vs the unprotected replay)");
        if (kSchemes[i] == K::NoProtection || kSchemes[i] == K::Lowerbound)
            c.expectEq(out.keyEvictions, 0, "key evictions");
        if (spec.server)
            c.expectEq(out.latencySamples, spec.kv.numRequests,
                       "request-latency samples");
        if (kSchemes[i] == K::Lowerbound) {
            c.expect(none.cycles <= lowerbound.cycles,
                     "lowerbound is faster than the unprotected machine");
        }
        if (reference)
            c.expect(out == (*reference)[i],
                     "outputs differ from an earlier repetition");

        if (report.pinned) {
            const Pin *pin = findPin(spec.name, kSchemes[i]);
            c.expect(pin != nullptr, "no pinned values for this pair");
            if (pin) {
                c.expectEq(out.cycles, pin->cycles, "pinned cycles");
                c.expectEq(out.makespan, pin->makespan, "pinned makespan");
                c.expectEq(out.instructions, pin->instructions,
                           "pinned instructions");
                c.expectEq(out.keyEvictions, pin->keyEvictions,
                           "pinned key evictions");
                c.expectEq(out.latencySamples, pin->latencySamples,
                           "pinned request-latency samples");
            }
        }
        if (c.failed())
            ++report.failed;
    }
    return report;
}

namespace
{

/** Outputs of @p workload rebuilt from the pinned table. */
std::array<SchemeOutput, kSchemes.size()>
pinnedOutputs(const WorkloadSpec &spec)
{
    std::array<SchemeOutput, kSchemes.size()> outs{};
    for (std::size_t i = 0; i < kSchemes.size(); ++i) {
        const Pin *pin = findPin(spec.name, kSchemes[i]);
        SchemeOutput &o = outs[i];
        o.kind = kSchemes[i];
        if (!pin)
            continue;
        o.cycles = pin->cycles;
        o.makespan = pin->makespan;
        o.instructions = pin->instructions;
        o.keyEvictions = pin->keyEvictions;
        o.latencySamples = pin->latencySamples;
        o.buckets[0] = pin->cycles;
        // Any split with the pinned sum and maximum will do.
        const unsigned cores = spec.config.topology.numCores;
        std::uint64_t left = pin->cycles;
        for (unsigned k = 0; cores > 1 && k < cores; ++k) {
            o.coreCycles.push_back(std::min(left, pin->makespan));
            left -= o.coreCycles.back();
        }
    }
    return outs;
}

/**
 * True when @p r failed exactly @p failed of the six replays and, if
 * @p message is set, some mismatch line contains it.
 */
bool
expectReport(const char *what, const CheckReport &r, unsigned failed,
             const char *message = nullptr)
{
    bool ok = r.failed == failed && r.attempted == kSchemes.size();
    if (message) {
        ok &= std::any_of(r.messages.begin(), r.messages.end(),
                          [&](const std::string &m) {
                              return m.find(message) != std::string::npos;
                          });
    }
    std::printf("self-test %-44s failed %u of %u, expected %u: %s\n", what,
                r.failed, r.attempted, failed, ok ? "ok" : "WRONG");
    for (const std::string &m : r.messages)
        std::printf("  %s\n", m.c_str());
    return ok;
}

} // namespace

bool
selfTest()
{
    bool ok = true;
    for (const std::string &name : workloadNames()) {
        const WorkloadSpec spec = *makeWorkload(name, kPinnedSeed);
        const auto base = pinnedOutputs(spec);
        ok &= expectReport((name + " as pinned").c_str(),
                           checkOutputs(spec, kPinnedSeed, base, nullptr),
                           0);

        // Each pinned field of one protected scheme, off by one.
        const std::size_t victim = schemeIndex(K::MpkVirt);
        using Field = std::uint64_t SchemeOutput::*;
        const std::pair<const char *, Field> fields[] = {
            {"cycles", &SchemeOutput::cycles},
            {"makespan", &SchemeOutput::makespan},
            {"instructions", &SchemeOutput::instructions},
            {"key evictions", &SchemeOutput::keyEvictions},
            {"request-latency samples", &SchemeOutput::latencySamples},
        };
        for (const auto &[label, field] : fields) {
            auto perturbed = base;
            perturbed[victim].*field += 1;
            ok &= expectReport(
                (name + " " + label + " + 1").c_str(),
                checkOutputs(spec, kPinnedSeed, perturbed, nullptr), 1,
                (std::string("pinned ") + label).c_str());
        }
        // Unpinned seeds skip the table but still catch a broken
        // invariant.
        auto broken = base;
        broken[victim].buckets[1] += 1;
        ok &= expectReport((name + " bucket sum, unpinned seed").c_str(),
                           checkOutputs(spec, kPinnedSeed + 1, broken,
                                        nullptr),
                           1);
    }
    return ok;
}

} // namespace perfbench
