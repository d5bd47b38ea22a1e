/**
 * @file
 * Layer probes for the traced run: each times the benchmark's own
 * calls into one layer's public functions, over the workload's
 * packets, with nothing else running.
 */

#include <chrono>
#include <cstdio>

#include "core/packetbench.hh"
#include "isa/opcodes.hh"
#include "net/ipv4.hh"
#include "net/scramble.hh"
#include "net/tracegen.hh"
#include "obs/stats.hh"
#include "perfbench.hh"
#include "service/daemon.hh"
#include "service/replay.hh"
#include "sim/accounting.hh"
#include "sim/bblock.hh"
#include "sim/memmap.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - t0)
            .count());
}

/** Packets per stream the per-packet probes run. */
constexpr size_t probePackets = 4096;
/** Passes over a stream for the sub-microsecond loop probes. */
constexpr int loopRepeats = 8;
/** Packets per profile in the per-application probe. */
constexpr uint32_t appProbePackets = 2000;
/** Packets the ingest-ceiling probe pushes through the ring. */
constexpr uint64_t ingestProbePackets = 200000;

size_t
probeCount(const ProbeStream &stream)
{
    return std::min(stream.packets.size(), probePackets);
}

/** The stream's packets as the workload's engines see them. */
std::vector<net::Packet>
prepared(const ProbeStream &stream)
{
    std::vector<net::Packet> out(stream.packets.begin(),
                                 stream.packets.begin() +
                                     static_cast<long>(probeCount(stream)));
    if (stream.scramble) {
        net::AddressScrambler scrambler(an::ExperimentConfig{}.scrambleKey);
        for (net::Packet &p : out)
            scrambler.scramblePacket(p);
    }
    return out;
}

/**
 * One application on a bare simulated core, placed and run the way
 * PacketBench::processPacket does, optionally with the accounting
 * recorder attached.
 */
class Machine
{
  public:
    Machine(an::AppKind kind, bool record)
        : app(an::makeApp(kind, an::ExperimentConfig{})), cpu(mem)
    {
        isa::Program prog = app->setup(mem);
        cpu.loadProgram(prog);
        entry = prog.entry("main");
        if (record) {
            blocks = std::make_unique<sim::BlockMap>(prog);
            rec = std::make_unique<sim::PacketRecorder>(prog, *blocks);
        }
    }

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Place @p packet, run the handler; returns ns in Cpu::run. */
    uint64_t
    process(const net::Packet &packet)
    {
        uint32_t len = packet.l3Len();
        if (prevLen > len)
            mem.fill(sim::layout::packetBase + len, prevLen - len);
        mem.writeBlock(sim::layout::packetBase, packet.l3(), len);
        prevLen = len;
        cpu.resetRegs();
        cpu.setReg(isa::regA0, sim::layout::packetBase);
        cpu.setReg(isa::regA1, len);
        if (rec) {
            cpu.setObserver(rec.get());
            rec->beginPacket();
        }
        auto t0 = Clock::now();
        cpu.run(entry, core::BenchConfig{}.instBudget);
        uint64_t ns = nsSince(t0);
        if (rec) {
            rec->endPacket();
            cpu.setObserver(nullptr);
        }
        return ns;
    }

    const sim::Cpu &core() const { return cpu; }

  private:
    std::unique_ptr<core::Application> app;
    sim::Memory mem;
    sim::Cpu cpu;
    std::unique_ptr<sim::BlockMap> blocks;
    std::unique_ptr<sim::PacketRecorder> rec;
    uint32_t entry = 0;
    uint32_t prevLen = 0;
};

/**
 * sim::Cpu::run with no observer and with the PacketRecorder, on two
 * fresh machines fed the same packets (interleaved, so noise hits
 * both alike).
 */
void
interpProbe(const ProbeSet &set, Metrics &out)
{
    uint64_t plain_ns = 0, acct_ns = 0, packets = 0, insts = 0,
             blocks = 0;
    for (an::AppKind kind : set.apps) {
        for (const ProbeStream &stream : set.streams) {
            auto plain = std::make_unique<Machine>(kind, false);
            auto acct = std::make_unique<Machine>(kind, true);
            for (const net::Packet &p : prepared(stream)) {
                plain_ns += plain->process(p);
                acct_ns += acct->process(p);
                packets++;
            }
            insts += plain->core().totalInstCount();
            blocks += plain->core().totalBlockCount();
        }
    }
    double n = static_cast<double>(packets);
    out.add("sim.interp_ns_per_pkt", plain_ns / n, "ns");
    out.add("sim.accounting_ns_per_pkt",
            (static_cast<double>(acct_ns) - plain_ns) / n, "ns");
    out.add("sim.interp.block_len",
            blocks ? static_cast<double>(insts) / blocks : 0.0, "count");
}

/** Memory::fill + writeBlock, the framework's packet placement. */
void
placeProbe(const ProbeSet &set, Metrics &out)
{
    sim::Memory mem;
    uint64_t ns = 0, packets = 0;
    for (const ProbeStream &stream : set.streams) {
        std::vector<net::Packet> packets_in = prepared(stream);
        uint32_t prev = 0;
        auto t0 = Clock::now();
        for (int r = 0; r < loopRepeats; r++) {
            for (const net::Packet &p : packets_in) {
                uint32_t len = p.l3Len();
                if (prev > len)
                    mem.fill(sim::layout::packetBase + len, prev - len);
                mem.writeBlock(sim::layout::packetBase, p.l3(), len);
                prev = len;
            }
        }
        ns += nsSince(t0);
        packets += loopRepeats * packets_in.size();
    }
    out.add("core.place_ns_per_pkt",
            static_cast<double>(ns) / packets, "ns");
}

/** AddressScrambler::scramblePacket on the NLANR packets. */
void
scrambleProbe(const ProbeSet &set, Metrics &out)
{
    net::AddressScrambler scrambler(an::ExperimentConfig{}.scrambleKey);
    uint64_t ns = 0, packets = 0;
    for (const ProbeStream &stream : set.streams) {
        if (!stream.nlanr)
            continue;
        for (int r = 0; r < loopRepeats; r++) {
            std::vector<net::Packet> copies(
                stream.packets.begin(),
                stream.packets.begin() +
                    static_cast<long>(probeCount(stream)));
            auto t0 = Clock::now();
            for (net::Packet &p : copies)
                scrambler.scramblePacket(p);
            ns += nsSince(t0);
            packets += copies.size();
        }
    }
    out.add("net.scramble_ns_per_pkt",
            packets ? static_cast<double>(ns) / packets : 0.0, "ns");
}

/**
 * PacketBench::processPacket with the per-packet telemetry gate off
 * and on, on two fresh benches fed the same packets.
 */
void
telemetryProbe(const ProbeSet &set, Metrics &out)
{
    const bool prior = obs::statsEnabled();
    const ProbeStream &stream = set.streams.front();
    uint64_t off_ns = 0, on_ns = 0, packets = 0;
    for (an::AppKind kind : set.apps) {
        core::BenchConfig cfg;
        cfg.scramble = stream.scramble;
        cfg.heartbeatMs = 0;
        auto app_off = an::makeApp(kind, an::ExperimentConfig{});
        auto app_on = an::makeApp(kind, an::ExperimentConfig{});
        core::PacketBench off(*app_off, cfg), on(*app_on, cfg);
        for (size_t i = 0; i < probeCount(stream); i++) {
            net::Packet a = stream.packets[i], b = a;
            obs::setStatsEnabled(false);
            auto t0 = Clock::now();
            off.processPacket(a);
            off_ns += nsSince(t0);
            obs::setStatsEnabled(true);
            t0 = Clock::now();
            on.processPacket(b);
            on_ns += nsSince(t0);
            packets++;
        }
    }
    obs::setStatsEnabled(prior);
    out.add("obs.telemetry_ns_per_pkt",
            (static_cast<double>(on_ns) - off_ns) / packets, "ns");
}

/** Replayer -> IngestRing -> IngestSource with no engines. */
void
ingestProbe(const Workload &wl, Metrics &out)
{
    service::IngestRing ring(service::ServiceConfig{}.ringCapacity);
    service::ReplayConfig cfg;
    cfg.loop = true;
    cfg.maxPackets = ingestProbePackets;
    service::TraceReplayer replayer(wl.ingestFactory(), ring, cfg);
    service::IngestSource source(ring);
    uint64_t drained = 0;
    double t0 = wallNow();
    replayer.start();
    while (source.next())
        drained++;
    double wall = wallNow() - t0;
    replayer.join();
    out.add("service.ingest_ceiling_pps", drained / wall, "1/s");
}

/** Short metric names of the probed applications. */
struct AppName
{
    an::AppKind kind;
    const char *name;
};
constexpr AppName probedApps[] = {
    {an::AppKind::Ipv4Radix, "radix"}, {an::AppKind::Ipv4Trie, "trie"},
    {an::AppKind::FlowClass, "flow"},  {an::AppKind::Tsa, "tsa"},
    {an::AppKind::Nat, "nat"}};

/**
 * Every application as the paper's Table II runs it (four profiles,
 * scrambling per an::benchConfigFor): host-side set-up time, per-call
 * processPacket time, and exact instructions per packet.
 */
void
appsProbe(uint32_t seed, Metrics &out)
{
    an::ExperimentConfig ecfg;
    ecfg.traceSeed = seed;
    std::vector<std::vector<net::Packet>> traces;
    for (net::Profile profile : net::allProfiles)
        traces.push_back(generate(profile, appProbePackets, seed));
    for (const AppName &app : probedApps) {
        std::vector<double> setups;
        uint64_t ns = 0, insts = 0, packets = 0;
        for (net::Profile profile : net::allProfiles) {
            core::BenchConfig cfg = an::benchConfigFor(profile, ecfg);
            cfg.heartbeatMs = 0;
            double t0 = wallNow();
            auto instance = an::makeApp(app.kind, ecfg);
            core::PacketBench bench(*instance, cfg);
            setups.push_back(wallNow() - t0);
            for (const net::Packet &packet :
                 traces[static_cast<size_t>(profile)]) {
                net::Packet p = packet;
                auto t1 = Clock::now();
                core::PacketOutcome o = bench.processPacket(p);
                ns += nsSince(t1);
                insts += o.stats.instCount;
                packets++;
            }
        }
        std::string prefix = app.name;
        out.add("apps." + prefix + ".setup_s", median(setups), "s");
        out.add("apps." + prefix + ".ns_per_pkt",
                static_cast<double>(ns) / packets, "ns");
        out.add("sim." + prefix + ".insts_per_pkt",
                static_cast<double>(insts) / packets, "count");
    }
}

} // namespace

double
hashProbeNs(const ProbeSet &set)
{
    constexpr unsigned batch = 16;
    uint64_t ns = 0, packets = 0;
    uint32_t hash[batch];
    bool valid[batch];
    for (const ProbeStream &stream : set.streams) {
        std::vector<net::Packet> packets_in = prepared(stream);
        std::vector<const net::Packet *> ptrs;
        for (const net::Packet &p : packets_in)
            ptrs.push_back(&p);
        auto t0 = Clock::now();
        for (int r = 0; r < loopRepeats; r++) {
            for (size_t i = 0; i < ptrs.size(); i += batch) {
                unsigned n = static_cast<unsigned>(
                    std::min<size_t>(batch, ptrs.size() - i));
                net::hashPacketBatch(ptrs.data() + i, n, hash, valid);
            }
        }
        ns += nsSince(t0);
        packets += loopRepeats * ptrs.size();
    }
    return packets ? static_cast<double>(ns) / packets : 0.0;
}

void
runProbes(const Workload &wl, uint32_t seed, Metrics &out)
{
    ProbeSet set = wl.probeSet();
    interpProbe(set, out);
    placeProbe(set, out);
    scrambleProbe(set, out);
    telemetryProbe(set, out);
    ingestProbe(wl, out);
    appsProbe(seed, out);
}

} // namespace perfbench
