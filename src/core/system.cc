#include "core/system.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pmodv::core
{

namespace
{

/**
 * Visible-latency lookup-table reach. Translate+memory latency sums
 * beyond this (never seen with the shipped configs) fall back to the
 * identical formula.
 */
constexpr std::size_t kVisTableSize = 1024;

/**
 * Per-entry cap on denormalized blamed events in the slow-request
 * digest; in-window events beyond it are counted in eventsDropped.
 * The chains of interest (a handful of evictions/IPIs per request)
 * fit comfortably.
 */
constexpr std::size_t kMaxBlamedEvents = 16;

/** Fallback fast-check: plain virtual dispatch. */
arch::CheckResult
virtualCheck(arch::ProtectionScheme &scheme,
             const arch::AccessContext &ctx)
{
    return scheme.checkAccess(ctx);
}

} // namespace

CoreContext::CoreContext(stats::Group *machine, unsigned idx,
                         const SimConfig &config,
                         tlb::AddressSpace &space)
    : stats::Group(config.topology.numCores == 1 ? nullptr : machine,
                   "core" + std::to_string(idx)),
      cycles(this, "cycles", "cycles accumulated on this core"),
      instructions(this, "instructions",
                   "instructions issued on this core"),
      memAccesses(this, "mem_accesses", "loads + stores on this core"),
      ctxSwitches(this, "ctx_switches", "context switches on this core"),
      ipisResponded(this, "ipis_responded",
                    "shootdown IPIs answered with stale entries"),
      ipisFiltered(this, "ipis_filtered",
                   "shootdown IPIs with nothing to flush"),
      index(idx)
{
    // Flat layout on a one-core machine (see the class comment).
    stats::Group *owner = config.topology.numCores == 1 ? machine : this;
    tlb = std::make_unique<tlb::TlbHierarchy>(owner, config.tlb, space);
    caches = std::make_unique<mem::CacheHierarchy>(owner, config.memory);
}

System::System(const SimConfig &config, arch::SchemeKind scheme,
               std::string name)
    : stats::Group(nullptr,
                   name.empty() ? std::string(arch::schemeName(scheme))
                                : std::move(name)),
      cycles(this, "cycles", "total simulated cycles"),
      instructions(this, "instructions", "dynamic instructions replayed"),
      memAccesses(this, "mem_accesses", "loads + stores replayed"),
      pmoAccesses(this, "pmo_accesses", "loads + stores to PMO memory"),
      operations(this, "operations", "workload operations completed"),
      deniedAccesses(this, "denied_accesses",
                     "accesses denied by protection"),
      cycIssue(this, "cyc_issue", "cycles issuing instruction blocks"),
      cycMem(this, "cyc_mem", "visible load/store latency cycles"),
      cycProtFill(this, "cyc_prot_fill",
                  "serializing protection-fill cycles on TLB misses"),
      cycProtCheck(this, "cyc_prot_check",
                   "per-access protection check cycles"),
      cycPermInstr(this, "cyc_perm_instr",
                   "cycles in SETPERM/WRPKRU instructions"),
      cycSyscall(this, "cyc_syscall", "cycles in attach/detach paths"),
      cycCtxSwitch(this, "cyc_ctx_switch",
                   "cycles processing context switches"),
      ipc(this, "ipc", "instructions per cycle",
          [this]() {
              return cycles.value() == 0
                         ? 0.0
                         : instructions.value() / cycles.value();
          }),
      opCycles(this, "op_cycles", "cycles per workload operation"),
      timeline(this, "timeline",
               "per-epoch counter deltas (cycles per epoch in "
               "epoch_cycles)"),
      config_(config), schemeKind_(scheme),
      events_(this, "events", config.eventRingCapacity)
{
    config_.topology.validate();
    events_.bindClock(&cycleCount_);
    const unsigned num_cores = config_.topology.numCores;
    for (unsigned k = 0; k < num_cores; ++k)
        cores_.push_back(
            std::make_unique<CoreContext>(this, k, config_, space_));
    scheme_ = arch::makeScheme(scheme, this, config_.prot,
                               config_.topology, space_);
    // A one-core bus stays out of the stats tree: its broadcast is
    // just the local flush, so K=1 trees keep their pinned shape.
    bus_ = std::make_unique<arch::ShootdownBus>(
        num_cores == 1 ? nullptr : this, config_.topology);
    for (const auto &core : cores_) {
        scheme_->attachCore(core->index, core->tlb.get());
        bus_->attachCore(core->index, core->tlb.get(),
                         &core->ipisResponded, &core->ipisFiltered);
    }
    bus_->setEventRing(&events_);
    scheme_->setShootdownBus(bus_.get());
    scheme_->setEventRing(&events_);

    // The visible-latency formula depends only on the (integer)
    // translate+memory latency sum; precompute it so the hot loop
    // replaces an fp multiply + llround with a table load. Index 0 is
    // unreachable (L1 hit latency is at least one cycle).
    visTable_.resize(kVisTableSize);
    for (std::size_t lat = 1; lat < kVisTableSize; ++lat)
        visTable_[lat] = visibleCycles(static_cast<Cycles>(lat));

    if (config_.opClasses > 0) {
        // Request-latency tracking for open-loop server replays.
        // Queueing can push tail latencies far beyond the default
        // 24-bucket reach (2^22 cycles), so these histograms get 40
        // buckets (reach 2^38). They are created only on demand, so
        // legacy configs keep their pinned golden stats trees.
        opTrack_ = true;
        constexpr unsigned kLatBuckets = 40;
        opLat_ = std::make_unique<stats::Histogram>(
            this, "op_lat",
            "request latency: open-loop arrival to completion",
            kLatBuckets);
        opQueue_ = std::make_unique<stats::Histogram>(
            this, "op_queue",
            "queueing delay: arrival to service start", kLatBuckets);
        opLatClass_.reserve(config_.opClasses);
        opQueueClass_.reserve(config_.opClasses);
        for (unsigned i = 0; i < config_.opClasses; ++i) {
            opLatClass_.push_back(std::make_unique<stats::Histogram>(
                this, "op_lat_class" + std::to_string(i),
                "request latency of class " + std::to_string(i),
                kLatBuckets));
            opQueueClass_.push_back(std::make_unique<stats::Histogram>(
                this, "op_queue_class" + std::to_string(i),
                "queueing delay of class " + std::to_string(i),
                kLatBuckets));
        }
    }

    if (config_.slowRequestK > 0 && opTrack_) {
        // The tail-forensics layer rides on the tracked-op machinery,
        // so it exists only when both knobs are on. Like the latency
        // histograms, the digests are created on demand so legacy
        // configs keep their pinned golden stats trees.
        opForensics_ = true;
        slowDigest_ = std::make_unique<stats::SlowRequestDigest>(
            this, "slow_requests",
            "top-K slowest requests with per-bucket blame",
            config_.slowRequestK);
        slowDigestClass_.reserve(config_.opClasses);
        for (unsigned i = 0; i < config_.opClasses; ++i)
            slowDigestClass_.push_back(
                std::make_unique<stats::SlowRequestDigest>(
                    this, "slow_requests_class" + std::to_string(i),
                    "top-K slowest requests of class " +
                        std::to_string(i),
                    config_.slowRequestK));
    }

    if (config_.samplingEpochCycles != 0) {
        timeline.configure(config_.samplingEpochCycles,
                           config_.samplingMaxEpochs);
        timeline.track(cycles, "cycles");
        timeline.track(instructions, "instructions");
        timeline.track(memAccesses, "mem_accesses");
        timeline.track(operations, "operations");
        timeline.track(cycMem, "cyc_mem");
        timeline.track(cycProtFill, "cyc_prot_fill");
        timeline.track(cycProtCheck, "cyc_prot_check");
        timeline.track(cycPermInstr, "cyc_perm_instr");
        timeline.track(tlbs().l1().misses, "dtlb_l1_misses");
        scheme_->registerTimelineTracks(timeline);
    }
}

System::~System() = default;

void
System::finish()
{
    timeline.finalize(cycleCount_);
}

Cycles
System::makespanCycles() const
{
    Cycles makespan = 0;
    for (const auto &core : cores_)
        makespan = std::max(makespan, core->cycleCount);
    return makespan;
}

void
System::beginTrackedOp(const trace::TraceRecord &rec, Cycles cycle_now,
                       Cycles &idle_skew)
{
    Cycles virt = cycle_now + idle_skew;
    if (!opBaseSet_) {
        opBaseSet_ = true;
        opArrivalBase_ = virt;
    }
    const Cycles arrival = opArrivalBase_ + rec.addr;
    if (virt < arrival) {
        // The server caught up with the arrival process: the core
        // idles until the stamped arrival. The jump lives only in the
        // idle offset — cycleCount_ and the attribution buckets are
        // untouched, so cycle sums and bit-identity with untracked
        // replays are preserved.
        idle_skew += arrival - virt;
        virt = arrival;
    }
    opArrival_ = arrival;
    opHasArrival_ = true;
    opClassCur_ = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        rec.value, config_.opClasses - 1));
    const Cycles qdelay = virt - arrival;
    opQueueCur_ = qdelay;
    opQueue_->sample(qdelay);
    opQueueClass_[opClassCur_]->sample(qdelay);
}

std::array<std::uint64_t, stats::kSlowDigestBuckets>
System::bucketCycles() const
{
    // Bucket values are integer cycle counts held in double Scalars;
    // they stay far below 2^53, so the casts are exact.
    return {static_cast<std::uint64_t>(cycIssue.value()),
            static_cast<std::uint64_t>(cycMem.value()),
            static_cast<std::uint64_t>(cycProtFill.value()),
            static_cast<std::uint64_t>(cycProtCheck.value()),
            static_cast<std::uint64_t>(cycPermInstr.value()),
            static_cast<std::uint64_t>(cycSyscall.value()),
            static_cast<std::uint64_t>(cycCtxSwitch.value())};
}

void
System::addPendingBuckets(
    std::array<std::uint64_t, stats::kSlowDigestBuckets> &snap,
    const BatchCounters &d)
{
    snap[0] += d.cycIssue;
    snap[1] += d.cycMem;
    snap[2] += d.cycProtFill;
    snap[3] += d.cycProtCheck;
    snap[4] += d.cycPermInstr;
    snap[5] += d.cycSyscall;
    snap[6] += d.cycCtxSwitch;
}

void
System::beginForensics(
    const trace::TraceRecord &rec,
    const std::array<std::uint64_t, stats::kSlowDigestBuckets> &snap)
{
    reqId_ = ++reqNextId_;
    reqBegin_ = cycleCount_;
    reqDomain_ = rec.aux;
    reqRingMark_ = events_.lastId();
    reqSnap_ = snap;
    // Every event posted until endForensics() carries this request's
    // id — the causal tag the blame layer and Perfetto flows use.
    events_.setCurrentRequest(reqId_);
}

void
System::endForensics(
    const trace::TraceRecord &rec, Cycles cycle_now, Cycles idle_skew,
    const std::array<std::uint64_t, stats::kSlowDigestBuckets> &snap)
{
    stats::SlowRequestEntry e;
    e.id = reqId_;
    e.tid = rec.tid;
    e.domain = reqDomain_;
    e.cls = opClassCur_;
    e.arrival = opArrival_;
    e.latency = cycle_now + idle_skew - opArrival_;
    e.queue = opQueueCur_;
    e.begin = reqBegin_;
    e.commit = cycleCount_;
    std::uint64_t service = 0;
    for (unsigned b = 0; b < stats::kSlowDigestBuckets; ++b) {
        e.buckets[b] = snap[b] - reqSnap_[b];
        service += e.buckets[b];
    }
    // latency = queue + service exactly (the idle skew is constant
    // while an op is in flight, so the virtual-clock delta equals the
    // attribution-bucket delta); residue stays 0 unless that
    // partition invariant is ever violated — then it shows up here
    // instead of being silently absorbed.
    e.residue = e.latency - e.queue - service;

    // Collect the causal chain: ring events posted inside the window
    // have ids above the OpBegin mark. Scan newest-first so the cost
    // is O(window), not O(ring capacity), then restore chronological
    // order. The request's own commit marker is not blame.
    std::vector<stats::SlowBlamedEvent> chain;
    for (std::size_t i = events_.size(); i-- > 0;) {
        const trace::Event &ev = events_.at(i);
        if (ev.id <= reqRingMark_)
            break;
        if (ev.kind == trace::EventKind::TxnCommit)
            continue;
        stats::SlowBlamedEvent b;
        b.id = ev.id;
        b.kind = trace::eventKindName(ev.kind);
        b.cycle = ev.cycle;
        b.tid = ev.tid;
        b.arg = ev.arg;
        b.value = ev.value;
        chain.push_back(std::move(b));
    }
    std::reverse(chain.begin(), chain.end());
    if (chain.size() > kMaxBlamedEvents) {
        e.eventsDropped = chain.size() - kMaxBlamedEvents;
        chain.resize(kMaxBlamedEvents);
    }
    e.events = std::move(chain);

    slowDigest_->offer(e);
    slowDigestClass_[e.cls]->offer(e);
    events_.setCurrentRequest(0);
    reqId_ = 0;
}

void
System::endTrackedOp(Cycles cycle_now, Cycles idle_skew)
{
    const Cycles lat = cycle_now + idle_skew - opArrival_;
    opLat_->sample(lat);
    opLatClass_[opClassCur_]->sample(lat);
    opHasArrival_ = false;
}

Cycles
System::visibleCycles(Cycles lat) const
{
    const double visible =
        1.0 + (1.0 - config_.memOverlap) * static_cast<double>(lat - 1);
    return static_cast<Cycles>(std::llround(visible));
}

void
System::flushBatch()
{
    BatchCounters &d = batch_;
    const std::uint64_t total_cycles =
        d.cycIssue + d.cycMem + d.cycProtFill + d.cycProtCheck +
        d.cycPermInstr + d.cycSyscall + d.cycCtxSwitch;
    cycles += static_cast<double>(total_cycles);
    // Drain counter by counter: put() flushes after every record, and
    // a whole-struct reset compiles to a slow string store here.
    const auto drain = [](stats::Scalar &stat, std::uint64_t &count) {
        stat += static_cast<double>(count);
        count = 0;
    };
    drain(cycIssue, d.cycIssue);
    drain(cycMem, d.cycMem);
    drain(cycProtFill, d.cycProtFill);
    drain(cycProtCheck, d.cycProtCheck);
    drain(cycPermInstr, d.cycPermInstr);
    drain(cycSyscall, d.cycSyscall);
    drain(cycCtxSwitch, d.cycCtxSwitch);
    drain(pmoAccesses, d.pmoAccesses);
    drain(operations, d.operations);
    drain(deniedAccesses, d.denied);
    for (auto &core : cores_) {
        instructions += static_cast<double>(core->pendInstructions);
        memAccesses += static_cast<double>(core->pendMemAccesses);
        drain(core->instructions, core->pendInstructions);
        drain(core->memAccesses, core->pendMemAccesses);
        core->cycles +=
            static_cast<double>(core->cycleCount - core->flushedCycles);
        core->flushedCycles = core->cycleCount;
    }
}

void
System::setComponentStatsDeferred(bool defer)
{
    for (auto &core : cores_) {
        core->tlb->setStatsDeferred(defer);
        core->caches->setStatsDeferred(defer);
    }
    scheme_->setStatsDeferred(defer);
}

void
System::flushComponentStats()
{
    for (auto &core : cores_) {
        core->tlb->flushDeferredStats();
        core->caches->flushDeferredStats();
    }
    scheme_->flushDeferredStats();
}

void
System::put(const trace::TraceRecord &rec)
{
    replayRecords(std::span(&rec, 1));
}

void
System::replayBatch(std::span<const trace::TraceRecord> records)
{
    setComponentStatsDeferred(true);
    replayRecords(records);
    setComponentStatsDeferred(false);
}

void
System::replayRecords(std::span<const trace::TraceRecord> records)
{
    using trace::RecordType;

    // Invariants hoisted out of the record loop.
    arch::ProtectionScheme *const scheme = scheme_.get();
    CoreContext &core0 = *cores_.front();
    const unsigned num_cores = numCores();
    const bool single_core = num_cores == 1;
    const Cycles l1_hit = config_.memory.l1.hitLatency;
    const std::uint32_t issue_width = config_.issueWidth;
    const bool trivial_check = scheme->alwaysAllows();
    const arch::ProtectionScheme::FastCheckFn check_fn =
        scheme->fastCheck() ? scheme->fastCheck() : &virtualCheck;

    // Threads are pinned: thread t runs on core t % K and never
    // migrates, so every record is core-affine by its tid. The core
    // becomes the scheme's active core, for the record's scheme calls.
    // A one-core machine skips the division; its active core is
    // always core 0.
    const auto coreOf = [&](ThreadId tid) -> CoreContext & {
        if (single_core)
            return core0;
        CoreContext &core = *cores_[tid % num_cores];
        scheme->setActiveCore(core.index);
        return core;
    };
    // Advance the machine's and the core's clocks; the caller charges
    // the same cycles to one attribution bucket.
    const auto advance = [this](CoreContext &core, Cycles c) {
        cycleCount_ += c;
        core.cycleCount += c;
    };

    BatchCounters &d = batch_;
    std::uint64_t boundary = timeline.nextBoundary();

    for (const trace::TraceRecord &rec : records) {
        switch (rec.type) {
          case RecordType::Load:
          case RecordType::Store: {
            CoreContext &core = coreOf(rec.tid);
            const auto type = rec.type == RecordType::Load
                                  ? AccessType::Read
                                  : AccessType::Write;
            const bool pmo = rec.flags & trace::kFlagPmo;
            ++core.pendMemAccesses;
            ++core.pendInstructions;
            d.pmoAccesses += pmo ? 1 : 0;

            // 1. Translate (TLB hierarchy; protection fill runs inside).
            const auto xlate = core.tlb->translate(rec.tid, rec.addr);

            // 2. Domain permission check (parallel with the tag check
            //    on a real machine; serialized costs surface via
            //    extraCycles).
            bool allowed = true;
            Cycles check_extra = 0;
            if (!trivial_check) {
                arch::AccessContext ctx;
                ctx.tid = rec.tid;
                ctx.va = rec.addr;
                ctx.type = type;
                ctx.entry = xlate.entry;
                const auto check = check_fn(*scheme, ctx);
                allowed = check.allowed;
                check_extra = check.extraCycles;
                if (!allowed)
                    ++d.denied;
            }

            // 3. Data access. Denied accesses raise an exception
            //    instead of touching the cache; workloads are well
            //    behaved, so model the fault as a fixed pipeline-flush
            //    cost.
            Cycles mem_latency = l1_hit;
            if (allowed) {
                const MemClass cls =
                    pmo ? MemClass::Nvm : xlate.entry->memClass;
                mem_latency =
                    core.caches->access(rec.addr, type, cls).latency;
            }

            // The OoO core hides part of the above-L1 latency;
            // protection extras (walks, remaps, shootdowns, PTLB
            // lookups) serialize.
            const Cycles lat = xlate.latency + mem_latency;
            const Cycles vis = lat < kVisTableSize ? visTable_[lat]
                                                   : visibleCycles(lat);
            advance(core, vis + xlate.fillExtra + check_extra);
            d.cycMem += vis;
            d.cycProtFill += xlate.fillExtra;
            d.cycProtCheck += check_extra;
            break;
          }
          case RecordType::InstBlock: {
            CoreContext &core = coreOf(rec.tid);
            core.pendInstructions += rec.aux;
            const Cycles c = (rec.aux + issue_width - 1) / issue_width;
            advance(core, c);
            d.cycIssue += c;
            break;
          }
          case RecordType::SetPerm:
          case RecordType::Wrpkru: {
            CoreContext &core = coreOf(rec.tid);
            ++core.pendInstructions;
            const Cycles c =
                rec.type == RecordType::SetPerm
                    ? scheme->setPerm(rec.tid, rec.aux, rec.perm())
                    : scheme->wrpkruRaw(rec.tid,
                                        static_cast<ProtKey>(rec.aux),
                                        rec.perm());
            advance(core, c);
            d.cycPermInstr += c;
            break;
          }
          case RecordType::Attach: {
            CoreContext &core = coreOf(rec.tid);
            tlb::Region region;
            region.base = rec.addr;
            region.size = rec.value;
            region.domain = rec.aux;
            region.pagePerm = rec.perm();
            region.memClass = MemClass::Nvm;
            region.pageSize = rec.pageSize();
            space_.map(region);
            const Cycles c = scheme->attach(rec.tid, rec.aux, rec.addr,
                                            rec.value, rec.perm());
            advance(core, c);
            d.cycSyscall += c;
            break;
          }
          case RecordType::Detach: {
            CoreContext &core = coreOf(rec.tid);
            const Cycles c = scheme->detach(rec.tid, rec.aux);
            advance(core, c);
            d.cycSyscall += c;
            space_.unmapDomain(rec.aux);
            break;
          }
          case RecordType::ThreadSwitch: {
            // A thread-switch marker (re)schedules the named thread on
            // its home core. A one-core machine charges every marker,
            // even one naming the running thread; on a K-core machine
            // such a marker is a no-op and the other cores keep
            // executing undisturbed.
            const ThreadId to = rec.aux;
            CoreContext &core = coreOf(to);
            if (single_core || core.curTid != to) {
                ++core.ctxSwitches;
                const Cycles c = scheme->contextSwitch(core.curTid, to);
                advance(core, c);
                d.cycCtxSwitch += c;
                core.curTid = to;
            }
            break;
          }
          case RecordType::OpBegin:
            opStart_ = cycleCount_;
            opInFlight_ = true;
            if (opTrack_ && rec.hasArrival()) {
                CoreContext &core = coreOf(rec.tid);
                beginTrackedOp(rec, core.cycleCount, core.idleSkew);
                if (opForensics_) {
                    // The Scalars lag behind by the deferred counters;
                    // fold them in so the snapshot is exact.
                    auto snap = bucketCycles();
                    addPendingBuckets(snap, d);
                    beginForensics(rec, snap);
                }
            }
            break;
          case RecordType::OpEnd:
            ++d.operations;
            if (opInFlight_) {
                opCycles.sample(cycleCount_ - opStart_);
                events_.post(trace::EventKind::TxnCommit, rec.tid,
                             static_cast<std::uint32_t>(rec.aux),
                             cycleCount_ - opStart_);
                opInFlight_ = false;
            }
            if (opHasArrival_) {
                CoreContext &core = coreOf(rec.tid);
                if (opForensics_) {
                    auto snap = bucketCycles();
                    addPendingBuckets(snap, d);
                    endForensics(rec, core.cycleCount, core.idleSkew,
                                 snap);
                }
                endTrackedOp(core.cycleCount, core.idleSkew);
            }
            break;
        }

        // The timeline only samples once cycleCount_ passes the next
        // epoch boundary; flush every deferred counter first, so the
        // epoch snapshot sees exactly the per-record Scalar values.
        if (cycleCount_ >= boundary) [[unlikely]] {
            flushBatch();
            flushComponentStats();
            timeline.tick(cycleCount_);
            boundary = timeline.nextBoundary();
        }
    }
    flushBatch();
}

} // namespace pmodv::core
