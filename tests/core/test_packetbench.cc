/**
 * @file
 * Framework tests: selective accounting boundaries, scrambling,
 * trace-driven runs with an output sink, and failure handling.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "apps/flow_class.hh"
#include "apps/ipv4_trie.hh"
#include "core/packetbench.hh"
#include "isa/assembler.hh"
#include "net/ipv4.hh"
#include "net/pcap.hh"
#include "net/tracegen.hh"

namespace
{

using namespace pb;
using namespace pb::core;
using namespace pb::net;

/** Minimal application: counts packets in a data word, then sends. */
class CountingApp : public Application
{
  public:
    std::string name() const override { return "counting"; }

    isa::Program
    setup(sim::Memory &mem) const override
    {
        mem.write32(sim::layout::dataBase, 0);
        std::string src = strprintf(".equ COUNTER, 0x%08x\n",
                                    sim::layout::dataBase);
        src += R"(
main:
    li  t0, COUNTER
    lw  t1, 0(t0)
    addi t1, t1, 1
    sw  t1, 0(t0)
    li  a1, 7
    sys 1
)";
        return isa::Assembler(sim::layout::textBase).assemble(src);
    }
};

/** Application whose handler never terminates. */
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

Packet
simplePacket()
{
    FiveTuple tuple;
    tuple.src = 0x0a000001;
    tuple.dst = 0x0a000002;
    tuple.proto = 17;
    Packet packet;
    packet.bytes = buildIpv4Packet(tuple, 40);
    packet.wireLen = 40;
    return packet;
}

TEST(PacketBench, RunsHandlerPerPacket)
{
    CountingApp app;
    PacketBench bench(app);
    Packet packet = simplePacket();
    for (int i = 0; i < 5; i++) {
        PacketOutcome outcome = bench.processPacket(packet);
        EXPECT_EQ(outcome.verdict, isa::SysCode::Send);
        EXPECT_EQ(outcome.outInterface, 7u);
        EXPECT_EQ(outcome.stats.instCount, 7u);
    }
    EXPECT_EQ(bench.memory().read32(sim::layout::dataBase), 5u);
    EXPECT_EQ(bench.packetsProcessed(), 5u);
}

TEST(PacketBench, PacketMemoryCarriesNoStaleBytesAcrossPackets)
{
    // Regression: the framework used to zero only the first 2 KiB of
    // the 64 KiB packet region, so a large packet's tail stayed
    // visible to every later (smaller) packet's application.
    CountingApp app;
    PacketBench bench(app);

    FiveTuple tuple;
    tuple.src = 0x0a000001;
    tuple.dst = 0x0a000002;
    tuple.proto = 17;
    Packet big;
    big.bytes = buildIpv4Packet(tuple, 3000, 64, 0xAB);
    big.wireLen = 3000;
    bench.processPacket(big);
    // The big packet's own payload is in place, including beyond the
    // old 2 KiB memset boundary.
    EXPECT_EQ(bench.memory().read8(sim::layout::packetBase + 100),
              0xABu);
    EXPECT_EQ(bench.memory().read8(sim::layout::packetBase + 2500),
              0xABu);
    EXPECT_EQ(bench.memory().read8(sim::layout::packetBase + 2999),
              0xABu);

    Packet small = simplePacket(); // 40 bytes
    bench.processPacket(small);
    // Packet N must not observe any byte of packet N-1 beyond its
    // own length.
    for (uint32_t off : {40u, 100u, 2047u, 2048u, 2500u, 2999u})
        EXPECT_EQ(bench.memory().read8(sim::layout::packetBase + off),
                  0u)
            << "stale byte at packet offset " << off;
}

TEST(PacketBench, UarchPublishingSurvivesRegistryReset)
{
    // The uarch counter references are cached per instance at
    // construction; a registry reset zeroes values but must not
    // break delta publishing.
    CountingApp app;
    BenchConfig cfg;
    cfg.microArch = true;
    PacketBench bench(app, cfg);
    Packet packet = simplePacket();
    bench.processPacket(packet);
    obs::defaultRegistry().reset();
    bench.processPacket(packet);
    // The handler runs 7 instructions per packet, so the second
    // packet publishes a delta of exactly 7 icache accesses.
    obs::Registry &reg = obs::defaultRegistry();
    EXPECT_EQ(reg.counter("uarch.icache.hits").value() +
                  reg.counter("uarch.icache.misses").value(),
              7u);
    EXPECT_EQ(reg.counter("pb.packets").value(), 1u);
}

TEST(PacketBench, SelectiveAccountingExcludesFrameworkWork)
{
    // Setup writes megabytes of state; packet stats must see none
    // of it — only the handler's own instructions and accesses.
    apps::FlowClassApp app(4096);
    PacketBench bench(app);
    Packet packet = simplePacket();
    PacketOutcome outcome = bench.processPacket(packet);
    EXPECT_LT(outcome.stats.instCount, 400u);
    EXPECT_LT(outcome.stats.nonPacketAccesses(), 200u);
    // Run-level coverage counts only app-touched bytes.
    EXPECT_LT(bench.recorder().dataMemoryBytes(), 4096u);
}

TEST(PacketBench, ScramblePreprocessing)
{
    CountingApp app;
    BenchConfig cfg;
    cfg.scramble = true;
    PacketBench bench(app, cfg);
    Packet packet = simplePacket();
    uint32_t orig_src = Ipv4ConstView(packet.l3()).src();
    bench.processPacket(packet);
    AddressScrambler scrambler(cfg.scrambleKey);
    EXPECT_EQ(Ipv4ConstView(packet.l3()).src(),
              scrambler.scramble(orig_src));
}

TEST(PacketBench, RunOverTraceWithSink)
{
    auto table = route::generateSmallTable(64, 2);
    apps::Ipv4TrieApp app(table);
    PacketBench bench(app);
    SyntheticTrace trace(Profile::MRA, 100, 4);

    std::stringstream out;
    PcapWriter sink(out, LinkType::Raw);
    auto outcomes = bench.run(trace, 60, &sink);
    EXPECT_EQ(outcomes.size(), 60u);

    uint32_t sent = 0;
    for (const auto &outcome : outcomes) {
        if (outcome.verdict == isa::SysCode::Send)
            sent++;
    }
    // The sink holds exactly the accepted packets.
    std::stringstream in(out.str());
    PcapReader reader(in);
    uint32_t written = 0;
    while (auto packet = reader.next()) {
        written++;
        // Forwarded packets have valid (recomputed) checksums.
        EXPECT_TRUE(verifyIpv4Checksum(packet->l3(), 20));
    }
    EXPECT_EQ(written, sent);
}

TEST(PacketBench, RunStopsAtTraceEnd)
{
    CountingApp app;
    PacketBench bench(app);
    SyntheticTrace trace(Profile::LAN, 25, 1);
    auto outcomes = bench.run(trace, 1000);
    EXPECT_EQ(outcomes.size(), 25u);
}

TEST(PacketBench, HugeBoundOverShortTraceReturnsEveryPacket)
{
    // Storage follows the packets the source produces, not the bound:
    // reserving UINT32_MAX outcomes up front threw std::bad_alloc.
    CountingApp app;
    PacketBench bench(app);
    SyntheticTrace trace(Profile::LAN, 10, 1);
    auto outcomes = bench.run(trace, UINT32_MAX);
    EXPECT_EQ(outcomes.size(), 10u);
}

TEST(PacketBench, RunawayHandlerHitsBudget)
{
    SpinApp app;
    BenchConfig cfg;
    cfg.instBudget = 10'000;
    PacketBench bench(app, cfg);
    Packet packet = simplePacket();
    EXPECT_THROW(bench.processPacket(packet), sim::BudgetError);
}

TEST(PacketBench, EmptyPacketIsFatal)
{
    CountingApp app;
    PacketBench bench(app);
    Packet empty;
    EXPECT_THROW(bench.processPacket(empty), FatalError);
}

TEST(PacketBench, MicroArchModelsAttachable)
{
    CountingApp app;
    BenchConfig cfg;
    cfg.microArch = true;
    PacketBench bench(app, cfg);
    Packet packet = simplePacket();
    for (int i = 0; i < 10; i++)
        bench.processPacket(packet);
    ASSERT_NE(bench.microArch(), nullptr);
    EXPECT_EQ(bench.microArch()->icache().accesses(), 70u);
    EXPECT_GT(bench.microArch()->dcache().accesses(), 0u);
}

TEST(PacketBench, TimingModelAttachable)
{
    CountingApp app;
    BenchConfig cfg;
    cfg.timing = true;
    PacketBench bench(app, cfg);
    Packet packet = simplePacket();
    PacketOutcome first = bench.processPacket(packet);
    PacketOutcome second = bench.processPacket(packet);
    ASSERT_NE(bench.timing(), nullptr);
    // Cycles >= instructions; warm runs cost no more than cold.
    EXPECT_GE(first.cycles, first.stats.instCount);
    EXPECT_LE(second.cycles, first.cycles);
    EXPECT_GT(second.cycles, 0u);
    EXPECT_GE(bench.timing()->cpi(), 1.0);
}

TEST(PacketBench, NoTimingByDefault)
{
    CountingApp app;
    PacketBench bench(app);
    Packet packet = simplePacket();
    PacketOutcome outcome = bench.processPacket(packet);
    EXPECT_EQ(bench.timing(), nullptr);
    EXPECT_EQ(outcome.cycles, 0u);
}

TEST(PacketBench, ProfilerAttachable)
{
    CountingApp app;
    BenchConfig cfg;
    cfg.profile = true;
    cfg.timing = true;
    PacketBench bench(app, cfg);
    Packet packet = simplePacket();
    for (int i = 0; i < 3; i++)
        bench.processPacket(packet);
    ASSERT_NE(bench.profiler(), nullptr);
    // The handler runs 7 instructions per packet (see above).
    EXPECT_EQ(bench.profiler()->totalInsts(), 21u);
    // With the timer attached, every modeled cycle is attributed.
    EXPECT_GE(bench.profiler()->totalCycles(),
              bench.profiler()->totalInsts());
    EXPECT_FALSE(bench.profiler()->rankedBlocks().empty());
    EXPECT_NE(bench.profiler()->render().find("hot-spot profile"),
              std::string::npos);
}

TEST(PacketBench, NoProfilerByDefault)
{
    CountingApp app;
    PacketBench bench(app);
    EXPECT_EQ(bench.profiler(), nullptr);
}

TEST(PacketBench, BlockMapAvailable)
{
    CountingApp app;
    PacketBench bench(app);
    EXPECT_GE(bench.blocks().numBlocks(), 1u);
    EXPECT_EQ(bench.program().entry("main"), sim::layout::textBase);
}

} // namespace
