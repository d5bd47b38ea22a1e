/**
 * @file
 * Per-packet fault isolation tests: fault policies, engine
 * cleanliness after a fault, quarantine capture, the pb.faults.*
 * accounting invariant, and serial/parallel equivalence on a
 * corrupted trace.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "apps/flow_class.hh"
#include "common/byteorder.hh"
#include "core/multicore.hh"
#include "core/packetbench.hh"
#include "isa/assembler.hh"
#include "net/faultinject.hh"
#include "net/ipv4.hh"
#include "net/pcap.hh"
#include "net/tracegen.hh"
#include "sim/simerror.hh"

namespace
{

using namespace pb;
using namespace pb::core;
using namespace pb::net;

/**
 * Loads an address from the first packet word and dereferences it:
 * a packet-controlled wild load.  Good packets carry a mapped
 * address; bad packets fault inside the handler.
 */
class WildLoadApp : public Application
{
  public:
    std::string name() const override { return "wild-load"; }

    isa::Program
    setup(sim::Memory &mem) const override
    {
        mem.write32(sim::layout::dataBase, 0x1234);
        return isa::Assembler(sim::layout::textBase).assemble(R"(
main:
    lw  t0, 0(a0)
    lw  t1, 0(t0)
    li  a1, 1
    sys 1
)");
    }
};

/** Handler that faults on every packet (wild load from address 0). */
class AlwaysFaultApp : public Application
{
  public:
    std::string name() const override { return "always-fault"; }

    isa::Program
    setup(sim::Memory &mem) const override
    {
        (void)mem;
        return isa::Assembler(sim::layout::textBase).assemble(R"(
main:
    lw  t0, 0(zero)
    sys 2
)");
    }
};

/** Handler that never terminates (budget faults). */
class SpinApp : public Application
{
  public:
    std::string name() const override { return "spin"; }

    isa::Program
    setup(sim::Memory &mem) const override
    {
        (void)mem;
        return isa::Assembler(sim::layout::textBase)
            .assemble("main: b main\n");
    }
};

/** Raw packet whose first word is @p addr (WildLoadApp's target). */
Packet
pointerPacket(uint32_t addr)
{
    Packet packet;
    packet.bytes.assign(40, 0);
    storeLe32(packet.bytes.data(), addr);
    packet.wireLen = 40;
    return packet;
}

Packet
ipv4Packet()
{
    FiveTuple tuple;
    tuple.src = 0x0a000001;
    tuple.dst = 0x0a000002;
    tuple.srcPort = 1000;
    tuple.dstPort = 53;
    tuple.proto = 17;
    Packet packet;
    packet.bytes = buildIpv4Packet(tuple, 60);
    packet.wireLen = 60;
    return packet;
}

TEST(FaultPolicy, AbortPreservesThrowingBehavior)
{
    WildLoadApp app;
    PacketBench bench(app); // default policy: Abort
    Packet bad = pointerPacket(0xeeeeeee0);
    EXPECT_THROW(bench.processPacket(bad), sim::SimError);

    Packet empty;
    EXPECT_THROW(bench.processPacket(empty), FatalError);
}

TEST(FaultPolicy, DropRecordsSimFaultAndContinues)
{
    WildLoadApp app;
    BenchConfig cfg;
    cfg.faultPolicy = FaultPolicy::Drop;
    PacketBench bench(app, cfg);

    Packet good = pointerPacket(sim::layout::dataBase);
    PacketOutcome ok = bench.processPacket(good);
    EXPECT_FALSE(ok.faulted());
    EXPECT_EQ(ok.verdict, isa::SysCode::Send);
    EXPECT_EQ(ok.stats.instCount, 4u);

    Packet bad = pointerPacket(0xeeeeeee0);
    PacketOutcome faulted = bench.processPacket(bad);
    EXPECT_TRUE(faulted.faulted());
    EXPECT_EQ(faulted.fault, FaultKind::SimFault);
    EXPECT_EQ(faulted.verdict, isa::SysCode::Drop);
    EXPECT_FALSE(faulted.faultMessage.empty());
    // The handler faulted on its second instruction (the observer
    // sees an instruction before it traps); partial work is
    // accounted truthfully.
    EXPECT_EQ(faulted.stats.instCount, 2u);

    // The engine is clean: the next good packet behaves exactly as
    // if the faulting packet had never existed.
    PacketOutcome after = bench.processPacket(good);
    EXPECT_FALSE(after.faulted());
    EXPECT_EQ(after.verdict, isa::SysCode::Send);
    EXPECT_EQ(after.stats.instCount, 4u);
    EXPECT_EQ(bench.packetsProcessed(), 3u)
        << "faulted packets still count as processed";
}

TEST(FaultPolicy, DropClassifiesMalformedPackets)
{
    WildLoadApp app;
    BenchConfig cfg;
    cfg.faultPolicy = FaultPolicy::Drop;
    PacketBench bench(app, cfg);

    Packet empty;
    PacketOutcome no_l3 = bench.processPacket(empty);
    EXPECT_EQ(no_l3.fault, FaultKind::MalformedPacket);
    EXPECT_EQ(no_l3.stats.instCount, 0u);

    Packet oversized;
    oversized.bytes.resize(sim::layout::packetSize + 1, 0xee);
    PacketOutcome too_big = bench.processPacket(oversized);
    EXPECT_EQ(too_big.fault, FaultKind::MalformedPacket);

    // Runt Ethernet frame: capture shorter than the link header.
    Packet runt;
    runt.bytes.resize(6, 0xaa);
    runt.l3Offset = 14;
    PacketOutcome runt_out = bench.processPacket(runt);
    EXPECT_EQ(runt_out.fault, FaultKind::MalformedPacket);

    // The engine still processes good packets afterwards.
    Packet good = pointerPacket(sim::layout::dataBase);
    EXPECT_FALSE(bench.processPacket(good).faulted());
}

TEST(FaultPolicy, BudgetExhaustionIsItsOwnKind)
{
    SpinApp app;
    BenchConfig cfg;
    cfg.faultPolicy = FaultPolicy::Drop;
    cfg.instBudget = 10'000;
    PacketBench bench(app, cfg);
    Packet packet = pointerPacket(sim::layout::dataBase);
    PacketOutcome outcome = bench.processPacket(packet);
    EXPECT_EQ(outcome.fault, FaultKind::BudgetExceeded);
    // The burned budget is real simulated work and is accounted.
    EXPECT_EQ(outcome.stats.instCount, 10'000u);
}

TEST(FaultPolicy, MetricsHoldPacketAccountingInvariant)
{
    obs::defaultRegistry().reset();
    WildLoadApp app;
    BenchConfig cfg;
    cfg.faultPolicy = FaultPolicy::Drop;
    PacketBench bench(app, cfg);

    Packet good = pointerPacket(sim::layout::dataBase);
    Packet bad = pointerPacket(0xeeeeeee0);
    Packet empty;
    bench.processPacket(good);
    bench.processPacket(bad);
    bench.processPacket(empty);
    bench.processPacket(good);

    obs::Registry &reg = obs::defaultRegistry();
    EXPECT_EQ(reg.counter("pb.faults.total").value(), 2u);
    EXPECT_EQ(reg.counter("pb.faults.sim").value(), 1u);
    EXPECT_EQ(reg.counter("pb.faults.malformed").value(), 1u);
    EXPECT_EQ(reg.counter("pb.faults.budget").value(), 0u);
    // pb.packets == pb.sent + pb.dropped + pb.faults.total
    EXPECT_EQ(reg.counter("pb.packets").value(),
              reg.counter("pb.sent").value() +
                  reg.counter("pb.dropped").value() +
                  reg.counter("pb.faults.total").value());
}

TEST(FaultPolicy, QuarantineCapturesPacketByteIdentical)
{
    WildLoadApp app;
    std::stringstream captured;
    PcapWriter pcap(captured, LinkType::Raw);
    QuarantineSink quarantine(pcap);

    BenchConfig cfg;
    cfg.faultPolicy = FaultPolicy::Quarantine;
    cfg.quarantine = &quarantine;
    PacketBench bench(app, cfg);

    Packet good = pointerPacket(sim::layout::dataBase);
    Packet bad = pointerPacket(0xeeeeeee0);
    bench.processPacket(good);
    PacketOutcome outcome = bench.processPacket(bad);
    EXPECT_TRUE(outcome.faulted());
    EXPECT_EQ(quarantine.quarantined(), 1u);

    std::stringstream replay(captured.str());
    PcapReader reader(replay, "quarantine");
    auto got = reader.next();
    ASSERT_TRUE(got);
    EXPECT_EQ(got->bytes, bad.bytes);
    EXPECT_FALSE(reader.next());
}

TEST(FaultPolicy, QuarantineWithScrambleCapturesTraceBytes)
{
    // Scrambling rewrites addresses before the handler runs; the
    // quarantine must still hold the packet as the trace delivered
    // it, so the fault reproduces from the file alone.
    AlwaysFaultApp app;
    std::stringstream captured;
    PcapWriter pcap(captured, LinkType::Raw);
    QuarantineSink quarantine(pcap);

    BenchConfig cfg;
    cfg.faultPolicy = FaultPolicy::Quarantine;
    cfg.quarantine = &quarantine;
    cfg.scramble = true;
    PacketBench bench(app, cfg);

    Packet packet = ipv4Packet();
    std::vector<uint8_t> original = packet.bytes;
    PacketOutcome outcome = bench.processPacket(packet);
    EXPECT_EQ(outcome.fault, FaultKind::SimFault);

    std::stringstream replay(captured.str());
    PcapReader reader(replay, "quarantine");
    auto got = reader.next();
    ASSERT_TRUE(got);
    EXPECT_EQ(got->bytes, original)
        << "quarantine must capture pre-scramble bytes";
}

TEST(FaultPolicy, QuarantineWithoutSinkDegradesToDrop)
{
    WildLoadApp app;
    BenchConfig cfg;
    cfg.faultPolicy = FaultPolicy::Quarantine;
    PacketBench bench(app, cfg);
    Packet bad = pointerPacket(0xeeeeeee0);
    PacketOutcome outcome = bench.processPacket(bad);
    EXPECT_TRUE(outcome.faulted());
    Packet good = pointerPacket(sim::layout::dataBase);
    EXPECT_FALSE(bench.processPacket(good).faulted());
}

TEST(FaultPolicy, NamesAreStable)
{
    EXPECT_STREQ(faultKindName(FaultKind::None), "none");
    EXPECT_STREQ(faultKindName(FaultKind::MalformedPacket),
                 "malformed-packet");
    EXPECT_STREQ(faultKindName(FaultKind::SimFault), "sim-fault");
    EXPECT_STREQ(faultKindName(FaultKind::BudgetExceeded),
                 "budget-exceeded");
    EXPECT_STREQ(faultPolicyName(FaultPolicy::Abort), "abort");
    EXPECT_STREQ(faultPolicyName(FaultPolicy::Drop), "drop");
    EXPECT_STREQ(faultPolicyName(FaultPolicy::Quarantine),
                 "quarantine");
}

TEST(MultiCoreFaults, SerialMatchesParallelOnCorruptedTrace)
{
    // The acceptance gate for the parallel path: a worker records a
    // faulting packet as an outcome instead of poisoning the run,
    // and per-engine totals stay bit-identical to the serial
    // reference.
    auto factory = [] {
        return std::make_unique<apps::FlowClassApp>(256);
    };
    FaultInjectConfig inject;
    inject.period = 10;
    inject.seed = 7;
    inject.bitFlips = false;
    inject.headerCorruption = false; // hard faults only

    BenchConfig serial_cfg;
    serial_cfg.faultPolicy = FaultPolicy::Drop;
    MultiCoreBench serial_cores(factory, 4, serial_cfg);
    SyntheticTrace serial_trace(Profile::MRA, 400, 3);
    FaultInjectingTraceSource serial_source(serial_trace, inject);
    MultiCoreResult serial = serial_cores.run(serial_source, 400);

    BenchConfig par_cfg = serial_cfg;
    par_cfg.parallel = true;
    par_cfg.dispatchBatch = 16;
    MultiCoreBench par_cores(factory, 4, par_cfg);
    SyntheticTrace par_trace(Profile::MRA, 400, 3);
    FaultInjectingTraceSource par_source(par_trace, inject);
    MultiCoreResult parallel = par_cores.run(par_source, 400);

    EXPECT_EQ(serial.totalPackets, 400u);
    EXPECT_EQ(serial.totalFaults, serial_source.injectedCount());
    EXPECT_GT(serial.totalFaults, 0u);
    ASSERT_EQ(serial.engines.size(), parallel.engines.size());
    for (size_t e = 0; e < serial.engines.size(); e++) {
        EXPECT_EQ(serial.engines[e].packets,
                  parallel.engines[e].packets)
            << "engine " << e;
        EXPECT_EQ(serial.engines[e].instructions,
                  parallel.engines[e].instructions)
            << "engine " << e;
        EXPECT_EQ(serial.engines[e].faults, parallel.engines[e].faults)
            << "engine " << e;
    }
}

/** Replays a fixed packet vector (for hand-built fault mixes). */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(std::vector<Packet> packets_)
        : packets(std::move(packets_))
    {}

    std::optional<Packet>
    next() override
    {
        if (pos >= packets.size())
            return std::nullopt;
        return packets[pos++];
    }

    std::string name() const override { return "vector"; }

  private:
    std::vector<Packet> packets;
    size_t pos = 0;
};

TEST(MultiCoreFaults, ParallelEnginesShareOneQuarantine)
{
    auto factory = [] { return std::make_unique<WildLoadApp>(); };
    std::stringstream captured;
    PcapWriter pcap(captured, LinkType::Raw);
    QuarantineSink quarantine(pcap);

    BenchConfig cfg;
    cfg.faultPolicy = FaultPolicy::Quarantine;
    cfg.quarantine = &quarantine;
    cfg.parallel = true;
    cfg.dispatchBatch = 4;
    MultiCoreBench cores(factory, 4, cfg);

    // Interleave good and bad pointer packets; the workers
    // quarantine concurrently into the one shared sink.
    std::vector<Packet> packets;
    uint32_t bad_count = 0;
    for (int i = 0; i < 40; i++) {
        bool bad = i % 5 == 0;
        packets.push_back(pointerPacket(
            bad ? 0xeeeeeee0 : sim::layout::dataBase));
        if (bad)
            bad_count++;
    }
    VectorSource source(std::move(packets));
    MultiCoreResult res = cores.run(source, 40);
    EXPECT_EQ(quarantine.quarantined(), bad_count);
    EXPECT_EQ(res.totalFaults, bad_count);

    // Every quarantined capture is one of the injected bad packets.
    std::stringstream replay(captured.str());
    PcapReader reader(replay, "quarantine");
    uint32_t replayed = 0;
    Packet bad = pointerPacket(0xeeeeeee0);
    while (auto got = reader.next()) {
        EXPECT_EQ(got->bytes, bad.bytes);
        replayed++;
    }
    EXPECT_EQ(replayed, bad_count);
}

} // namespace
