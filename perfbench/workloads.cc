/**
 * @file
 * The benchmark's workloads.
 *
 *  - tables: the paper's Table II/III matrix, four apps x four
 *    profiles, one PacketBench per cell run to completion on one
 *    thread (core::PacketBench::run).
 *  - svc_nat / svc_tsa_churn: service::PacketBenchd::run with two
 *    engines over a looped in-memory corpus, unpaced, back-pressured.
 *    svc_tsa_churn rewrites source addresses per pass so every pass
 *    presents flows not seen before.
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "core/multicore.hh"
#include "net/ipv4.hh"
#include "net/tracegen.hh"
#include "perfbench.hh"
#include "service/daemon.hh"

namespace perfbench
{

namespace
{

/** Accounting totals of one run, compared against the oracle. */
struct Totals
{
    uint64_t packets = 0, insts = 0, packetAccesses = 0,
             nonPacketAccesses = 0, sent = 0, dropped = 0,
             outInterfaces = 0, faults = 0;

    void
    add(const core::PacketOutcome &o)
    {
        packets++;
        insts += o.stats.instCount;
        packetAccesses += o.stats.packetAccesses();
        nonPacketAccesses += o.stats.nonPacketAccesses();
        if (o.faulted())
            faults++;
        else if (o.verdict == isa::SysCode::Send)
            sent++;
        else
            dropped++;
        outInterfaces += o.outInterface;
    }

    bool operator==(const Totals &) const = default;
};

void
printTotalsMismatch(const char *what, const Totals &got,
                    const Totals &want)
{
    std::fprintf(stderr,
                 "perfbench: %s mismatch: got packets=%" PRIu64
                 " insts=%" PRIu64 " pkt_acc=%" PRIu64
                 " nonpkt_acc=%" PRIu64 " sent=%" PRIu64
                 " dropped=%" PRIu64 " faults=%" PRIu64
                 "; oracle packets=%" PRIu64 " insts=%" PRIu64
                 " pkt_acc=%" PRIu64 " nonpkt_acc=%" PRIu64
                 " sent=%" PRIu64 " dropped=%" PRIu64
                 " faults=%" PRIu64 "\n",
                 what, got.packets, got.insts, got.packetAccesses,
                 got.nonPacketAccesses, got.sent, got.dropped,
                 got.faults, want.packets, want.insts,
                 want.packetAccesses, want.nonPacketAccesses,
                 want.sent, want.dropped, want.faults);
}

const char *
profileName(net::Profile profile)
{
    return net::profileInfo(profile).name.data();
}

/** The stage-sum verdict and the metrics that report it. */
void
addStageSum(Metrics &out, double ratio, bool ok, const char *detail)
{
    if (!ok)
        std::fprintf(stderr, "perfbench: stage-sum check FAILED: %s\n",
                     detail);
    std::printf("stage-sum check: %s (%s)\n", ok ? "ok" : "FAILED",
                detail);
    out.add("bench.stage_sum_ratio", ratio, "frac");
    out.add("bench.stage_sum_ok", ok ? 1.0 : 0.0, "bool");
}

// ---------------------------------------------------------------------
// tables
// ---------------------------------------------------------------------

/** Packets per cell per round: 16 cells make one round. */
constexpr uint32_t tablesChunk = 6000;

class TablesWorkload : public Workload
{
  public:
    explicit TablesWorkload(uint32_t seed) : seed(seed)
    {
        ecfg.traceSeed = seed;
    }

    double
    setup() override
    {
        cells.clear();
        roundsDone = 0;
        double t0 = wallNow();
        for (net::Profile profile : net::allProfiles) {
            for (an::AppKind kind : an::allAppKinds) {
                Cell cell;
                cell.kind = kind;
                cell.profile = profile;
                cell.app = an::makeApp(kind, ecfg);
                cell.bench = std::make_unique<core::PacketBench>(
                    *cell.app, an::benchConfigFor(profile, ecfg));
                cells.push_back(std::move(cell));
            }
        }
        return wallNow() - t0;
    }

    Round
    round() override
    {
        // Inputs for this round, generated before the clock starts:
        // the next chunk of each profile's trace, shared by that
        // profile's four cells (each source hands out copies).
        if (roundsDone == 0) {
            generators.clear();
            for (net::Profile profile : net::allProfiles)
                generators.push_back(std::make_unique<net::SyntheticTrace>(
                    profile, UINT32_MAX, seed));
        }
        std::vector<std::vector<net::Packet>> chunks;
        for (auto &gen : generators) {
            std::vector<net::Packet> chunk;
            chunk.reserve(tablesChunk);
            for (uint32_t i = 0; i < tablesChunk; i++)
                chunk.push_back(*gen->next());
            chunks.push_back(std::move(chunk));
        }
        rssSamples.push_back(rssMb());

        std::vector<std::vector<core::PacketOutcome>> outcomes(
            cells.size());
        Round r;
        double w0 = wallNow(), c0 = cpuNow();
        for (size_t i = 0; i < cells.size(); i++) {
            MemorySource source(
                chunks[static_cast<size_t>(cells[i].profile)], {},
                clockIfTiming());
            outcomes[i] = cells[i].bench->run(source, tablesChunk);
        }
        r.wallS = wallNow() - w0;
        r.cpuS = cpuNow() - c0;

        for (size_t i = 0; i < cells.size(); i++) {
            Totals t;
            for (const core::PacketOutcome &o : outcomes[i])
                t.add(o);
            r.offered += tablesChunk;
            r.packets += t.packets - t.faults;
            r.failed += t.faults + (tablesChunk - t.packets);
            if (roundsDone == 0)
                cells[i].first = t;
        }
        if (roundsDone == 0)
            firstChunks = std::move(chunks);
        roundsDone++;
        return r;
    }

    bool
    verify(int64_t bias) override
    {
        bool ok = true;
        for (size_t i = 0; i < cells.size(); i++) {
            const Cell &cell = cells[i];
            auto app = an::makeApp(cell.kind, ecfg);
            core::BenchConfig cfg = an::benchConfigFor(cell.profile, ecfg);
            cfg.dispatch = sim::DispatchMode::Reference;
            core::PacketBench ref(*app, cfg);
            MemorySource source(
                firstChunks[static_cast<size_t>(cell.profile)]);
            Totals want;
            for (const core::PacketOutcome &o :
                 ref.run(source, tablesChunk))
                want.add(o);
            if (i == 0)
                want.insts += static_cast<uint64_t>(bias);
            if (!(cell.first == want)) {
                std::string what = an::appTitle(cell.kind) + " on " +
                                   profileName(cell.profile);
                printTotalsMismatch(what.c_str(), cell.first, want);
                ok = false;
            }
        }
        return ok;
    }

    uint64_t
    inputDigest() const override
    {
        uint64_t h = 1469598103934665603ull;
        for (const auto &chunk : firstChunks)
            h = packetDigest(chunk, h);
        return h;
    }

    size_t
    traceEventsPerRound() const override
    {
        // One packet span per cell packet, plus the generator's
        // trace.gen spans while the round's inputs are made.
        return (cells.size() + generators.size()) * tablesChunk + 4096;
    }

    void
    ledger(const std::vector<TracedRound> &traced, Metrics &out) override
    {
        Totals first;
        for (const Cell &cell : cells) {
            first.packets += cell.first.packets;
            first.insts += cell.first.insts;
        }
        out.add("sim.insts_per_pkt",
                static_cast<double>(first.insts) / first.packets,
                "count");

        // One engine, no dispatcher: the engine is busy exactly while
        // processPacket runs, which the per-packet spans cover.
        SpanSum spans;
        uint64_t wall = 0, packets = 0, dropped = 0;
        for (const TracedRound &t : traced) {
            spans.ns += t.packetSpans.ns;
            spans.count += t.packetSpans.count;
            wall += static_cast<uint64_t>(t.round.wallS * 1e9);
            packets += t.round.packets;
            dropped += t.droppedEvents;
        }
        double ratio = wall ? static_cast<double>(spans.ns) / wall : 0.0;
        out.add("core.worker_busy_frac", ratio, "frac");
        out.add("core.dispatch_wait_frac", 0.0, "frac");
        out.add("core.batch_fill", 0.0, "count");
        out.add("core.imbalance", 1.0, "ratio");
        out.add("core.stolen_flows", 0.0, "count");
        out.add("core.flow_home_entries", 0.0, "count");
        out.add("net.hash_ns_per_pkt", hashProbeNs(probeSet()), "ns");
        out.add("service.ring_drops", 0.0, "count");

        // Stage sum: per-call processPacket time against the timed
        // wall of PacketBench::run; the remainder is the run loop,
        // the source, and outcome storage.
        bool ok = ratio >= stageSumLow && ratio <= stageSumHigh &&
                  spans.count == packets && dropped == 0;
        char detail[160];
        std::snprintf(detail, sizeof detail,
                      "sum(processPacket)/wall = %.4f, want [%.2f, %.2f];"
                      " %" PRIu64 " spans for %" PRIu64 " packets",
                      ratio, stageSumLow, stageSumHigh, spans.count,
                      packets);
        addStageSum(out, ratio, ok, detail);
    }

    ProbeSet
    probeSet() const override
    {
        ProbeSet set;
        set.apps.assign(std::begin(an::allAppKinds),
                        std::end(an::allAppKinds));
        for (net::Profile profile : net::allProfiles) {
            ProbeStream stream;
            stream.packets = firstChunks[static_cast<size_t>(profile)];
            stream.nlanr = net::profileInfo(profile).nlanrRenumber;
            stream.scramble = stream.nlanr;
            set.streams.push_back(std::move(stream));
        }
        return set;
    }

    uint32_t workers() const override { return 0; }

    std::function<std::unique_ptr<net::TraceSource>()>
    ingestFactory() const override
    {
        const auto &mra =
            firstChunks[static_cast<size_t>(net::Profile::MRA)];
        return [&mra] { return std::make_unique<MemorySource>(mra); };
    }

  private:
    /** Tolerated sum(processPacket)/wall on this path. */
    static constexpr double stageSumLow = 0.80;
    static constexpr double stageSumHigh = 1.01;

    struct Cell
    {
        an::AppKind kind;
        net::Profile profile;
        std::unique_ptr<core::Application> app;
        std::unique_ptr<core::PacketBench> bench;
        Totals first; ///< totals of the first round after setup()
    };

    uint32_t seed;
    an::ExperimentConfig ecfg;
    std::vector<Cell> cells;
    std::vector<std::unique_ptr<net::SyntheticTrace>> generators;
    std::vector<std::vector<net::Packet>> firstChunks;
    uint64_t roundsDone = 0;
};

// ---------------------------------------------------------------------
// svc_nat, svc_tsa_churn
// ---------------------------------------------------------------------

/** Packets in the looped in-memory corpus. */
constexpr uint32_t corpusPackets = 65536;

/**
 * Distinct churn keys: pass p reuses pass p - churnPasses's flows, so
 * the dispatcher's flow state saturates within a run instead of
 * growing with however many packets the run completes.
 */
constexpr uint64_t churnPasses = 32;

/** Engines (worker threads) of the service workloads. */
constexpr uint32_t serviceEngines = 2;

/**
 * XOR key for pass @p pass of a churning corpus: 0 for the first
 * pass, a distinct non-zero key after it, so each pass's source
 * addresses are a bijection of the corpus's, unseen before.
 */
uint32_t
churnKey(uint64_t pass)
{
    return static_cast<uint32_t>(pass * 0x9e3779b97f4a7c15ull >> 32) |
           (pass ? 1u : 0u);
}

/** Rewrite the IPv4 source address, keeping the checksum valid. */
void
xorSource(net::Packet &packet, uint32_t key)
{
    if (packet.l3Len() < net::ipv4::minHeaderLen)
        return;
    net::Ipv4View ip(packet.l3());
    uint32_t old_src = ip.src(), new_src = old_src ^ key;
    uint16_t sum = ip.checksum();
    sum = net::incrementalChecksum(sum, old_src >> 16, new_src >> 16);
    sum = net::incrementalChecksum(sum, old_src & 0xffff,
                                   new_src & 0xffff);
    ip.setSrc(new_src);
    ip.setChecksum(sum);
}

/** The pass-dependent rewrite (empty for a non-churning corpus). */
PacketTransform
passTransform(bool churn, uint64_t pass)
{
    uint32_t key = churn ? churnKey(pass % churnPasses) : 0;
    if (!key)
        return {};
    return [key](net::Packet &p) { xorSource(p, key); };
}

/**
 * The replayer's packet sequence as one source: pass 0, 1, ... of the
 * corpus back to back, each pass rewritten as the daemon sees it.
 */
class PassSequence : public net::TraceSource
{
  public:
    PassSequence(const std::vector<net::Packet> &corpus, bool churn)
        : corpus(corpus), churn(churn)
    {
    }

    std::optional<net::Packet>
    next() override
    {
        for (;;) {
            if (!pass)
                pass = std::make_unique<MemorySource>(
                    corpus, passTransform(churn, passIndex++));
            if (auto packet = pass->next())
                return packet;
            pass.reset();
        }
    }

    std::string name() const override { return "passes"; }

  private:
    const std::vector<net::Packet> &corpus;
    bool churn;
    uint64_t passIndex = 0;
    std::unique_ptr<MemorySource> pass;
};

class ServiceWorkload : public Workload
{
  public:
    ServiceWorkload(an::AppKind app, core::DispatchPolicy policy,
                    bool churn, uint32_t round_packets, uint32_t seed)
        : appKind(app), churn(churn), roundPackets(round_packets),
          corpus(generate(net::Profile::MRA, corpusPackets, seed))
    {
        cfg.engines = serviceEngines;
        cfg.bench.parallel = true;
        cfg.bench.dispatchPolicy = policy;
        cfg.bench.faultPolicy = core::FaultPolicy::Drop;
        cfg.replay.loop = true;
        cfg.replay.maxPackets = round_packets;
        cfg.replay.dropWhenFull = false;
        cfg.speedIntervalMs = 0;
    }

    double
    setup() override
    {
        daemon.reset();
        roundsDone = 0;
        nextPass = 0;
        prev = {};
        double t0 = wallNow();
        daemon = std::make_unique<service::PacketBenchd>(appFactory(),
                                                         cfg);
        return wallNow() - t0;
    }

    Round
    round() override
    {
        // The factory runs on the replayer thread, once per pass; the
        // RSS sample there needs no extra thread.
        auto factory = [this]() -> std::unique_ptr<net::TraceSource> {
            rssSamples.push_back(rssMb());
            return std::make_unique<MemorySource>(
                corpus, passTransform(churn, nextPass++),
                clockIfTiming());
        };
        Round r;
        double w0 = wallNow(), c0 = cpuNow();
        service::ServiceResult res = daemon->run(factory);
        r.wallS = wallNow() - w0;
        r.cpuS = cpuNow() - c0;

        uint64_t processed = res.mc.totalPackets - prev.totalPackets;
        uint64_t faults = res.mc.totalFaults - prev.totalFaults;
        r.offered = res.replayed;
        r.packets = processed - faults;
        r.failed = faults + res.ringDropped +
                   (res.replayed > processed ? res.replayed - processed
                                             : 0);
        ringDrops += res.ringDropped;
        if (roundsDone == 0) {
            first = res.mc.engines;
            firstOffered = res.replayed;
        }
        prev = res.mc;
        roundsDone++;
        return r;
    }

    bool
    verify(int64_t bias) override
    {
        // The serial MultiCoreBench is the bit-identical per-engine
        // oracle of the parallel dispatch, for either policy.
        core::BenchConfig serial = cfg.bench;
        serial.parallel = false;
        core::MultiCoreBench oracle(appFactory(), cfg.engines, serial);
        PassSequence sequence(corpus, churn);
        core::MultiCoreResult want =
            oracle.run(sequence, static_cast<uint32_t>(firstOffered));
        bool ok = want.engines.size() == first.size();
        for (size_t e = 0; ok && e < first.size(); e++) {
            uint64_t want_insts = want.engines[e].instructions +
                                  (e == 0 ? static_cast<uint64_t>(bias)
                                          : 0);
            if (first[e].packets != want.engines[e].packets ||
                first[e].instructions != want_insts ||
                first[e].faults != want.engines[e].faults) {
                std::fprintf(
                    stderr,
                    "perfbench: engine %zu mismatch: got packets=%" PRIu64
                    " insts=%" PRIu64 " faults=%" PRIu64
                    "; serial oracle packets=%" PRIu64 " insts=%" PRIu64
                    " faults=%" PRIu64 "\n",
                    e, first[e].packets, first[e].instructions,
                    first[e].faults, want.engines[e].packets, want_insts,
                    want.engines[e].faults);
                ok = false;
            }
        }
        return ok;
    }

    uint64_t
    inputDigest() const override
    {
        return packetDigest(corpus);
    }

    size_t
    traceEventsPerRound() const override
    {
        // Worst case: every packet on one engine, plus its batches.
        return roundPackets + roundPackets / 16 + 4096;
    }

    void
    ledger(const std::vector<TracedRound> &traced, Metrics &out) override
    {
        uint64_t first_packets = 0, first_insts = 0;
        for (const core::EngineLoad &load : first) {
            first_packets += load.packets;
            first_insts += load.instructions;
        }
        out.add("sim.insts_per_pkt",
                static_cast<double>(first_insts) / first_packets,
                "count");

        uint64_t packet_spans = 0, processed = 0, dropped = 0;
        double busy = 0, busy_idle = 0, dispatch = 0, engine_wall = 0,
               wall = 0;
        uint64_t mc_packets = 0, mc_batches = 0, hash_ns = 0;
        for (const TracedRound &t : traced) {
            busy += static_cast<double>(t.busyNs);
            busy_idle += static_cast<double>(t.busyIdleNs);
            engine_wall += static_cast<double>(cfg.engines) * t.wallNs;
            wall += static_cast<double>(t.wallNs);
            dispatch += static_cast<double>(t.dispatchSpans.ns);
            packet_spans += t.packetSpans.count;
            processed += t.round.packets;
            dropped += t.droppedEvents;
            hash_ns += t.counters[HashNs];
            mc_packets += t.counters[McPackets];
            mc_batches += t.counters[McBatches];
        }
        out.add("core.worker_busy_frac",
                engine_wall ? busy / engine_wall : 0.0, "frac");
        out.add("core.dispatch_wait_frac", wall ? dispatch / wall : 0.0,
                "frac");
        out.add("core.batch_fill",
                mc_batches ? static_cast<double>(mc_packets) / mc_batches
                           : 0.0,
                "count");
        out.add("core.imbalance", prev.imbalance(), "ratio");
        out.add("core.stolen_flows",
                static_cast<double>(counterValue("mc.dispatch.stolen")),
                "count");
        out.add("core.flow_home_entries",
                gaugeValue("mc.dispatch.flows"), "count");
        out.add("net.hash_ns_per_pkt",
                mc_packets ? static_cast<double>(hash_ns) / mc_packets
                           : 0.0,
                "ns");
        out.add("service.ring_drops", static_cast<double>(ringDrops),
                "count");

        // Stage sum: per engine, busy (worker.batch spans) plus idle
        // (the gaps between them) must account for engines x wall —
        // which fails when spans overlap, leak out of the round, or
        // were lost — and every packet must have its span.
        double ratio = engine_wall ? busy_idle / engine_wall : 0.0;
        bool ok = ratio >= 0.99 && ratio <= 1.01 &&
                  packet_spans == processed && dropped == 0;
        char detail[160];
        std::snprintf(detail, sizeof detail,
                      "(busy+idle)/(engines*wall) = %.4f, want 1 +- 0.01;"
                      " %" PRIu64 " spans for %" PRIu64 " packets",
                      ratio, packet_spans, processed);
        addStageSum(out, ratio, ok, detail);
    }

    ProbeSet
    probeSet() const override
    {
        ProbeSet set;
        set.apps = {appKind};
        ProbeStream stream;
        stream.packets.assign(corpus.begin(), corpus.begin() + 16384);
        stream.nlanr = net::profileInfo(net::Profile::MRA).nlanrRenumber;
        stream.scramble = false;
        set.streams.push_back(std::move(stream));
        return set;
    }

    uint32_t workers() const override { return cfg.engines; }

    std::function<std::unique_ptr<net::TraceSource>()>
    ingestFactory() const override
    {
        auto pass = std::make_shared<uint64_t>(0);
        return [this, pass] {
            return std::make_unique<MemorySource>(
                corpus, passTransform(churn, (*pass)++));
        };
    }

  private:
    core::MultiCoreBench::AppFactory
    appFactory() const
    {
        an::AppKind kind = appKind;
        return [kind] { return an::makeApp(kind, an::ExperimentConfig{}); };
    }

    an::AppKind appKind;
    bool churn;
    uint32_t roundPackets;
    std::vector<net::Packet> corpus;
    service::ServiceConfig cfg;
    std::unique_ptr<service::PacketBenchd> daemon;

    uint64_t roundsDone = 0;
    uint64_t nextPass = 0; ///< advanced by the replayer thread
    core::MultiCoreResult prev;  ///< cumulative result so far
    std::vector<core::EngineLoad> first; ///< first round after setup()
    uint64_t firstOffered = 0;
    uint64_t ringDrops = 0;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint32_t seed)
{
    if (name == "tables")
        return std::make_unique<TablesWorkload>(seed);
    if (name == "svc_nat")
        return std::make_unique<ServiceWorkload>(
            an::AppKind::Nat, core::DispatchPolicy::Pinned, false,
            250000, seed);
    if (name == "svc_tsa_churn")
        return std::make_unique<ServiceWorkload>(
            an::AppKind::Tsa, core::DispatchPolicy::Stealing, true,
            100000, seed);
    return nullptr;
}

} // namespace perfbench
