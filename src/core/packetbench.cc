/**
 * @file
 * PacketBench framework implementation.
 */

#include "packetbench.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "common/shutdown.hh"
#include "sim/memmap.hh"
#include "sim/simerror.hh"

namespace pb::core
{

uint32_t
defaultHeartbeatMs()
{
    static const uint32_t cached = [] {
        const char *env = std::getenv("PB_HEARTBEAT_MS");
        if (!env)
            return 5000u;
        char *end = nullptr;
        unsigned long v = std::strtoul(env, &end, 10);
        if (!end || *end != '\0' || v > UINT32_MAX) {
            warn("ignoring malformed PB_HEARTBEAT_MS='%s'", env);
            return 5000u;
        }
        return static_cast<uint32_t>(v);
    }();
    return cached;
}

namespace
{

/** net::FiveTuple -> obs::FlowId (obs sits below net and mirrors). */
obs::FlowId
toFlowId(const net::FiveTuple &tuple)
{
    obs::FlowId id;
    id.src = tuple.src;
    id.dst = tuple.dst;
    id.srcPort = tuple.srcPort;
    id.dstPort = tuple.dstPort;
    id.proto = tuple.proto;
    return id;
}

/** Detaches a per-packet observer on every exit path. */
struct ScopedObserver
{
    sim::FanoutObserver &fanout;
    sim::ExecObserver *observer;

    ScopedObserver(sim::FanoutObserver &fanout_,
                   sim::ExecObserver *observer_)
        : fanout(fanout_), observer(observer_)
    {
        if (observer)
            fanout.add(observer);
    }

    ~ScopedObserver()
    {
        if (observer)
            fanout.remove(observer);
    }
};

} // namespace

PacketBench::PacketBench(Application &app_, BenchConfig cfg_)
    : app(app_), cpu(mem), scrambler(cfg_.scrambleKey)
{
    cfg = cfg_;
    cpu.setDispatchMode(cfg.dispatch);
    // init(): application builds its tables (unaccounted).
    isa::Program prog = app.setup(mem);
    cpu.loadProgram(prog);
    entry = prog.entry("main");

    blockMap = std::make_unique<sim::BlockMap>(prog);
    rec = std::make_unique<sim::PacketRecorder>(prog, *blockMap,
                                                cfg.recorder);
    fanout.add(rec.get());
    if (cfg.microArch) {
        uarch = std::make_unique<sim::MicroArchModel>();
        fanout.add(uarch.get());
    }
    if (cfg.profile) {
        prof = std::make_unique<obs::HotSpotProfiler>(cpu.program(),
                                                      *blockMap);
        fanout.add(prof.get());
    }
    if (cfg.timing) {
        timer = std::make_unique<sim::PipelineTimer>(cfg.timingParams);
        fanout.add(timer.get());
        if (prof)
            prof->attachTimer(timer.get());
    }

    obs::Registry &reg = obs::defaultRegistry();
    interpMipsGauge = &reg.gauge("sim.interp.mips");
    interpBlocksGauge = &reg.gauge("sim.interp.blocks");
    interpBlockLenGauge = &reg.gauge("sim.interp.block_len");
    instHist = &reg.histogram("pb.insts_per_packet");
    uniqueHist = &reg.histogram("pb.unique_insts_per_packet");
    if (cfg.timing)
        cycleHist = &reg.histogram("pb.cycles_per_packet");
    if (cfg.microArch) {
        uarchIcacheHitsCtr = &reg.counter("uarch.icache.hits");
        uarchIcacheMissesCtr = &reg.counter("uarch.icache.misses");
        uarchDcacheHitsCtr = &reg.counter("uarch.dcache.hits");
        uarchDcacheMissesCtr = &reg.counter("uarch.dcache.misses");
        uarchBranchLookupsCtr = &reg.counter("uarch.branch.lookups");
        uarchBranchMispredictsCtr =
            &reg.counter("uarch.branch.mispredicts");
        uarchIcacheRateGauge = &reg.gauge("uarch.icache.miss_rate");
        uarchDcacheRateGauge = &reg.gauge("uarch.dcache.miss_rate");
        uarchBranchRateGauge =
            &reg.gauge("uarch.branch.mispredict_rate");
    }
    reg.gauge("pb.static_blocks")
        .set(static_cast<double>(blockMap->numBlocks()));
    reg.gauge("pb.program_bytes")
        .set(static_cast<double>(cpu.program().sizeBytes()));

    // Interned once: span annotation needs a pointer that stays valid
    // for the tracer's lifetime, not the app's std::string buffer.
    tracedAppName = obs::Tracer::instance().intern(app.name());

    // Last, so a constructor that throws leaves nothing attached:
    // from here on the hub (and with it pb.*) reads this record.
    telem = &obs::Telemetry::instance().attach(cfg.engineId, tally);
}

PacketBench::~PacketBench()
{
    obs::Telemetry::instance().retire(cfg.engineId, tally);
}

void
PacketBench::publishUarchMetrics()
{
    UarchSnapshot now;
    now.icacheAccesses = uarch->icache().accesses();
    now.icacheMisses = uarch->icache().misses();
    now.dcacheAccesses = uarch->dcache().accesses();
    now.dcacheMisses = uarch->dcache().misses();
    now.branchLookups = uarch->predictor().lookups();
    now.branchMispredicts = uarch->predictor().mispredicts();

    // The models count cumulatively; publish deltas so the global
    // counters stay correct with several PacketBench instances.
    uarchIcacheHitsCtr->add(
        (now.icacheAccesses - prevUarch.icacheAccesses) -
        (now.icacheMisses - prevUarch.icacheMisses));
    uarchIcacheMissesCtr->add(now.icacheMisses -
                              prevUarch.icacheMisses);
    uarchDcacheHitsCtr->add(
        (now.dcacheAccesses - prevUarch.dcacheAccesses) -
        (now.dcacheMisses - prevUarch.dcacheMisses));
    uarchDcacheMissesCtr->add(now.dcacheMisses -
                              prevUarch.dcacheMisses);
    uarchBranchLookupsCtr->add(now.branchLookups -
                               prevUarch.branchLookups);
    uarchBranchMispredictsCtr->add(now.branchMispredicts -
                                   prevUarch.branchMispredicts);
    prevUarch = now;

    uarchIcacheRateGauge->set(uarch->icache().missRate());
    uarchDcacheRateGauge->set(uarch->dcache().missRate());
    uarchBranchRateGauge->set(uarch->predictor().mispredictRate());
}

void
PacketBench::publishInterpMetrics()
{
    // Interpreter-level view of the same run: simulated MIPS plus the
    // block-stepped loop's shape (straight-line runs entered and mean
    // instructions per run).  blocks stays 0 in Reference mode.
    obs::EngineCounts::Reading counts = tally.read();
    if (counts.runNs > 0)
        interpMipsGauge->set(static_cast<double>(counts.insts) * 1e3 /
                             static_cast<double>(counts.runNs));
    uint64_t blocks = cpu.totalBlockCount();
    interpBlocksGauge->set(static_cast<double>(blocks));
    interpBlockLenGauge->set(
        blocks ? static_cast<double>(cpu.totalInstCount()) /
                     static_cast<double>(blocks)
               : 0.0);
}

PacketOutcome
PacketBench::recordFault(const net::Packet &capture, FaultKind kind,
                         std::string message, sim::PacketStats stats,
                         uint64_t cycles, uint64_t sim_ns,
                         bool flow_valid, const net::FiveTuple &flow)
{
    PacketOutcome outcome;
    outcome.stats = stats;
    outcome.cycles = cycles;
    outcome.verdict = isa::SysCode::Drop;
    outcome.fault = kind;
    outcome.faultMessage = std::move(message);

    // A faulted packet counts as a packet, by its kind (and any
    // partial work the handler did counts as instructions and
    // simulation time), but it is neither sent nor dropped and stays
    // out of the per-packet histograms that characterize the
    // workload.
    switch (kind) {
      case FaultKind::MalformedPacket:
        tally.malformed.add();
        break;
      case FaultKind::SimFault:
        tally.simFaults.add();
        break;
      case FaultKind::BudgetExceeded:
        tally.budget.add();
        break;
      case FaultKind::None:
        break;
    }
    tally.insts.add(outcome.stats.instCount);
    tally.bytes.add(capture.l3Len());
    tally.runNs.add(sim_ns);
    if (uarch)
        publishUarchMetrics();

    // A faulted packet is traffic too: while a pump runs it counts
    // against its flow, so a flow of poison packets surfaces in the
    // live top-K table.
    if (obs::statsEnabled() && flow_valid)
        telem->topk.observe(net::flowHash(flow), toFlowId(flow),
                            capture.l3Len(), true);

    PB_LOG(Debug, "%s: packet fault (%s): %s", app.name().c_str(),
           faultKindName(kind), outcome.faultMessage.c_str());

    if (cfg.faultPolicy == FaultPolicy::Quarantine &&
        cfg.quarantine) {
        cfg.quarantine->write(capture);
        tally.quarantined.add();
    }
    return outcome;
}

PacketOutcome
PacketBench::processPacket(net::Packet &packet)
{
    // One span per packet.  When tracing is off the constructor is a
    // single relaxed load and the arg() calls are dead branches.
    PB_TRACE_SPAN_NAMED(span, "pb", "packet");
    span.arg("app", tracedAppName);
    span.arg("engine", static_cast<uint64_t>(cfg.engineId));
    // The packet's ordinal costs a read of the whole record, so it is
    // read only while the span records.
    if (span.active())
        span.arg("packet", tally.read().packets());

    // Per-flow live accounting keys on the *dispatcher's* view of
    // the packet — the 5-tuple before scrambling or rewriting — so
    // parse it first, and only while a stats pump is running
    // (disabled path: one relaxed load and a branch).
    bool flow_valid = false;
    net::FiveTuple flow;
    if (obs::statsEnabled())
        flow_valid = net::parseFiveTuple(packet, flow);

    // Validate before any preprocessing, so a malformed packet is
    // recorded (and quarantined) exactly as the trace delivered it.
    uint32_t l3_len = packet.l3Len();
    if (l3_len == 0 || l3_len > sim::layout::packetSize) {
        const char *msg =
            l3_len == 0
                ? "packet with no layer-3 bytes reached the framework"
                : "packet larger than simulated packet memory";
        if (cfg.faultPolicy == FaultPolicy::Abort)
            fatal("%s", msg);
        span.arg("fault", faultKindName(FaultKind::MalformedPacket));
        return recordFault(packet, FaultKind::MalformedPacket, msg,
                           {}, 0, 0, flow_valid, flow);
    }

    // Quarantine must capture the bytes as read from the trace, and
    // scrambling is not guaranteed byte-reversible (checksum folding),
    // so snapshot before it runs.
    bool keep_original = cfg.scramble &&
                         cfg.faultPolicy == FaultPolicy::Quarantine &&
                         cfg.quarantine;
    std::vector<uint8_t> original;
    if (keep_original)
        original = packet.bytes;
    if (cfg.scramble)
        scrambler.scramblePacket(packet);

    // Place the packet (from the L3 header onwards) into simulated
    // packet memory.  Framework work: not accounted.
    // Clear exactly the previous packet's stale tail beyond this
    // packet's extent, so no bytes of packet N-1 survive into packet
    // N's view of packet memory (and a 40-byte packet after another
    // 40-byte packet costs no memset at all).
    if (prevPacketLen > l3_len)
        mem.fill(sim::layout::packetBase + l3_len,
                 prevPacketLen - l3_len);
    mem.writeBlock(sim::layout::packetBase, packet.l3(), l3_len);
    prevPacketLen = l3_len;

    // Opt-in NPE32 instruction/memory event stream: attach the
    // sampler to the fanout for every Nth packet while tracing runs
    // (PB_TRACE_SAMPLE; 0 = never).  ScopedObserver detaches on both
    // the completion and the fault path.
    uint32_t npe_period = obs::Tracer::instance().npeSamplePeriod();
    bool sample_npe = obs::traceEnabled() && npe_period > 0 &&
                      tally.read().packets() % npe_period == 0;
    ScopedObserver npe_attach(fanout,
                              sample_npe ? &npeSampler : nullptr);

    // Selective accounting: the observer is active only while the
    // application's handler runs.
    cpu.resetRegs();
    cpu.setReg(isa::regA0, sim::layout::packetBase);
    cpu.setReg(isa::regA1, l3_len);
    cpu.setObserver(&fanout);
    rec->beginPacket();
    if (timer)
        timer->mark();
    // One clock pair per packet times cpu.run() on both the
    // completion and the fault path (sim.interp.run_ns).
    auto sim_start = std::chrono::steady_clock::now();
    sim::RunResult result{};
    try {
        result = cpu.run(entry, cfg.instBudget);
    } catch (const sim::SimError &e) {
        // Leave the engine exactly as a completed packet would:
        // recorder closed, observer detached, registers reset.
        // prevPacketLen already covers this packet's extent, so the
        // next packet's stale-tail clearing stays correct.
        uint64_t sim_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - sim_start)
                .count());
        sim::PacketStats stats = rec->endPacket();
        uint64_t cycles = timer ? timer->cyclesSinceMark() : 0;
        cpu.setObserver(nullptr);
        cpu.resetRegs();
        if (cfg.faultPolicy == FaultPolicy::Abort)
            throw;
        FaultKind kind = dynamic_cast<const sim::BudgetError *>(&e)
                             ? FaultKind::BudgetExceeded
                             : FaultKind::SimFault;
        span.arg("fault", faultKindName(kind));
        span.arg("insts", stats.instCount);
        if (keep_original) {
            net::Packet repro = packet;
            repro.bytes = std::move(original);
            return recordFault(repro, kind, e.what(), stats, cycles,
                               sim_ns, flow_valid, flow);
        }
        return recordFault(packet, kind, e.what(), stats, cycles,
                           sim_ns, flow_valid, flow);
    }
    auto sim_end = std::chrono::steady_clock::now();
    uint64_t sim_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            sim_end - sim_start)
            .count());
    PacketOutcome outcome;
    outcome.stats = rec->endPacket();
    if (timer)
        outcome.cycles = timer->cyclesSinceMark();
    cpu.setObserver(nullptr);

    outcome.verdict = result.stopCode;
    outcome.outInterface = result.stopArg;
    span.arg("insts", outcome.stats.instCount);
    span.arg("verdict", outcome.verdict == isa::SysCode::Send
                            ? "send"
                            : "drop");

    // Count this packet; the run-wide series are views of the count.
    (outcome.verdict == isa::SysCode::Send ? tally.sent : tally.dropped)
        .add();
    tally.insts.add(outcome.stats.instCount);
    tally.bytes.add(l3_len);
    tally.runNs.add(sim_ns);
    instHist->observe(outcome.stats.instCount);
    uniqueHist->observe(outcome.stats.uniqueInstCount);
    if (cycleHist)
        cycleHist->observe(outcome.cycles);
    if (uarch)
        publishUarchMetrics();

    // Per-packet live telemetry, only while a stats pump runs (one
    // relaxed load and a branch when off).
    if (obs::statsEnabled()) {
        telem->instsPerPacket.observe(outcome.stats.instCount);
        if (flow_valid)
            telem->topk.observe(net::flowHash(flow), toFlowId(flow),
                                l3_len, false);
    }

    if (outcome.verdict == isa::SysCode::Send) {
        // Copy the (possibly rewritten) packet back out.
        mem.readBlock(sim::layout::packetBase, packet.l3(), l3_len);
    }
    return outcome;
}

std::vector<PacketOutcome>
PacketBench::run(net::TraceSource &source, uint32_t max_packets,
                 net::TraceSink *sink)
{
    using clock = std::chrono::steady_clock;
    std::vector<PacketOutcome> outcomes;
    auto run_start = clock::now();
    auto beat_at = run_start;
    uint64_t run_start_packets = packetsProcessed();
    uint64_t beat_packets = run_start_packets;
    for (uint32_t i = 0; i < max_packets; i++) {
        // Graceful shutdown (SIGINT/SIGTERM via common/shutdown.hh):
        // stop pulling packets; the partial run's statistics flush
        // through --report/--stats/--trace exactly like a full one.
        if (shutdownRequested())
            break;
        auto packet = source.next();
        if (!packet)
            break;
        // Storage follows the packets the source produces, never past
        // the bound, which may be far above what the source holds
        // (UINT32_MAX runs a trace to its end).
        if (outcomes.size() == outcomes.capacity()) {
            outcomes.reserve(std::min<size_t>(
                max_packets, 2 * outcomes.size() + 8192));
        }
        outcomes.push_back(processPacket(*packet));
        if (sink && outcomes.back().verdict == isa::SysCode::Send)
            sink->write(*packet);
        if (!cfg.heartbeatMs)
            continue;
        auto now = clock::now();
        if (now - beat_at <
            std::chrono::milliseconds(cfg.heartbeatMs))
            continue;
        // Instantaneous rate over the interval since the previous
        // beat next to the cumulative average since run start, so a
        // stall or burst is visible against the run's overall pace.
        obs::EngineCounts::Reading counts = tally.read();
        double beat_s =
            std::chrono::duration<double>(now - beat_at).count();
        double now_pps =
            beat_s > 0.0
                ? static_cast<double>(counts.packets() - beat_packets) /
                      beat_s
                : 0.0;
        double run_s =
            std::chrono::duration<double>(now - run_start).count();
        double avg_pps =
            run_s > 0.0 ? static_cast<double>(
                              counts.packets() - run_start_packets) /
                              run_s
                        : 0.0;
        PB_LOG(Info,
               "%s: %llu packets (%.0f pkt/s now / %.0f avg), "
               "%llu insts, %.1f sim-MIPS, %llu faults",
               app.name().c_str(),
               static_cast<unsigned long long>(counts.packets()),
               now_pps, avg_pps,
               static_cast<unsigned long long>(counts.insts),
               counts.runNs ? static_cast<double>(counts.insts) * 1e3 /
                                  static_cast<double>(counts.runNs)
                            : 0.0,
               static_cast<unsigned long long>(counts.faults()));
        beat_at = now;
        beat_packets = counts.packets();
    }
    publishInterpMetrics();
    return outcomes;
}

} // namespace pb::core
