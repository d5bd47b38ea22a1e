/**
 * @file
 * Multi-engine simulation tests: flow pinning, state partitioning,
 * load balance, and equivalence of aggregate state with a
 * single-engine run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "apps/flow_class.hh"
#include "apps/nat_app.hh"
#include "common/rng.hh"
#include "core/multicore.hh"
#include "isa/assembler.hh"
#include "net/faultinject.hh"
#include "net/tracegen.hh"
#include "sim/simerror.hh"

namespace
{

using namespace pb;
using namespace pb::core;
using namespace pb::net;

MultiCoreBench::AppFactory
flowFactory(uint32_t buckets)
{
    return [buckets] {
        return std::make_unique<apps::FlowClassApp>(buckets);
    };
}

TEST(MultiCore, FlowPinningIsStable)
{
    MultiCoreBench cores(flowFactory(256), 4);
    FiveTuple tuple;
    tuple.src = 0x0a000001;
    tuple.dst = 0x0b000002;
    tuple.srcPort = 42;
    tuple.dstPort = 80;
    tuple.proto = 6;
    Packet packet;
    packet.bytes = buildIpv4Packet(tuple, 64);

    uint32_t first = cores.processPacket(packet);
    for (int i = 0; i < 10; i++) {
        Packet copy;
        copy.bytes = buildIpv4Packet(tuple, 64);
        EXPECT_EQ(cores.processPacket(copy), first)
            << "one flow must stay on one engine";
    }
}

TEST(MultiCore, AggregateFlowCountMatchesSingleEngine)
{
    // Flow pinning partitions flows, so the sum of per-engine flow
    // tables equals the single-engine flow table.
    apps::FlowClassApp single_app(1024);
    PacketBench single(single_app);
    MultiCoreBench cores(flowFactory(1024), 8);

    SyntheticTrace t1(Profile::ODU, 3000, 7);
    SyntheticTrace t2(Profile::ODU, 3000, 7);
    while (auto p1 = t1.next()) {
        auto p2 = t2.next();
        single.processPacket(*p1);
        cores.processPacket(*p2);
    }

    uint32_t partitioned = 0;
    std::vector<std::unique_ptr<apps::FlowClassApp>> probes;
    for (uint32_t e = 0; e < cores.numEngines(); e++) {
        apps::FlowClassApp probe(1024);
        partitioned += probe.simFlowCount(cores.engine(e).memory());
    }
    EXPECT_EQ(partitioned,
              single_app.simFlowCount(single.memory()));
}

TEST(MultiCore, LoadRoughlyBalancedOnBackboneTraffic)
{
    MultiCoreBench cores(flowFactory(1024), 8);
    SyntheticTrace trace(Profile::MRA, 8000, 3);
    MultiCoreResult result = cores.run(trace, 8000);

    EXPECT_EQ(result.totalPackets, 8000u);
    EXPECT_EQ(result.engines.size(), 8u);
    for (const auto &engine : result.engines)
        EXPECT_GT(engine.packets, 0u);
    // Thousands of flows spread over 8 engines: modest imbalance.
    EXPECT_LT(result.imbalance(), 1.35);
    EXPECT_GT(result.speedup(), 8.0 / 1.35);
    EXPECT_LE(result.speedup(), 8.0);
}

TEST(MultiCore, SkewedTrafficLimitsSpeedup)
{
    // One elephant flow: it pins to one engine, capping speedup.
    MultiCoreBench cores(flowFactory(256), 4);
    FiveTuple tuple;
    tuple.src = 1;
    tuple.dst = 2;
    tuple.srcPort = 3;
    tuple.dstPort = 4;
    tuple.proto = 17;
    for (int i = 0; i < 1000; i++) {
        Packet packet;
        packet.bytes = buildIpv4Packet(tuple, 64);
        cores.processPacket(packet);
    }
    MultiCoreResult result = cores.result();
    EXPECT_NEAR(result.speedup(), 1.0, 0.01)
        << "a single flow cannot parallelize under flow pinning";
    EXPECT_NEAR(result.imbalance(), 4.0, 0.05);
}

TEST(MultiCore, NatEnginesAllocateIndependentPorts)
{
    // Each engine owns an independent binding table; bindings sum to
    // at least the single-table count (flows split across engines
    // never share a binding).
    auto factory = [] {
        return std::make_unique<apps::NatApp>(0xc6336401, 20000, 256);
    };
    MultiCoreBench cores(factory, 4);
    SyntheticTrace trace(Profile::COS, 2000, 9);
    cores.run(trace, 2000);

    uint32_t total_bindings = 0;
    apps::NatApp probe(0xc6336401, 20000, 256);
    for (uint32_t e = 0; e < cores.numEngines(); e++)
        total_bindings += probe.simBindingCount(cores.engine(e).memory());
    EXPECT_GT(total_bindings, 100u);
}

TEST(MultiCore, UnparseablePacketsSpreadRoundRobin)
{
    // Packets with no parseable 5-tuple (here: not IPv4) must not
    // all pile up on engine 0 — they fall back to round-robin.
    MultiCoreBench cores(flowFactory(64), 4);
    std::set<uint32_t> used;
    for (int i = 0; i < 8; i++) {
        Packet packet;
        packet.bytes.assign(40, 0); // version nibble 0: not IPv4
        uint32_t index = cores.processPacket(packet);
        EXPECT_EQ(index, static_cast<uint32_t>(i) % 4u);
        used.insert(index);
    }
    EXPECT_EQ(used.size(), 4u);
    MultiCoreResult result = cores.result();
    for (const auto &engine : result.engines)
        EXPECT_EQ(engine.packets, 2u);
}

TEST(MultiCore, ParallelMatchesSerialPerEngine)
{
    // The parallel run loop makes the same dispatch decisions in the
    // same order as the serial path, so per-engine packet and
    // instruction totals are bit-identical — across batch sizes and
    // queue depths, including the degenerate 1/1 configuration.
    MultiCoreBench serial(flowFactory(512), 4);
    SyntheticTrace serial_trace(Profile::ODU, 3000, 7);
    MultiCoreResult serial_res = serial.run(serial_trace, 3000);

    struct Knobs
    {
        uint32_t batch;
        uint32_t depth;
    };
    for (Knobs knobs : {Knobs{1, 1}, Knobs{16, 4}, Knobs{64, 8}}) {
        BenchConfig cfg;
        cfg.parallel = true;
        cfg.dispatchBatch = knobs.batch;
        cfg.queueDepth = knobs.depth;
        MultiCoreBench parallel(flowFactory(512), 4, cfg);
        SyntheticTrace trace(Profile::ODU, 3000, 7);
        MultiCoreResult par_res = parallel.run(trace, 3000);

        ASSERT_EQ(par_res.engines.size(), serial_res.engines.size());
        for (size_t e = 0; e < serial_res.engines.size(); e++) {
            EXPECT_EQ(par_res.engines[e].packets,
                      serial_res.engines[e].packets)
                << "batch " << knobs.batch << " engine " << e;
            EXPECT_EQ(par_res.engines[e].instructions,
                      serial_res.engines[e].instructions)
                << "batch " << knobs.batch << " engine " << e;
        }
        EXPECT_EQ(par_res.totalPackets, serial_res.totalPackets);
        EXPECT_EQ(par_res.totalInstructions,
                  serial_res.totalInstructions);
    }
}

TEST(MultiCore, ParallelPartitionsFlowStateLikeSerial)
{
    // Engine-local application state (the flow tables) is also
    // identical to the serial run, engine by engine.
    MultiCoreBench serial(flowFactory(1024), 8);
    MultiCoreBench parallel(flowFactory(1024), 8, [] {
        BenchConfig cfg;
        cfg.parallel = true;
        return cfg;
    }());
    SyntheticTrace t1(Profile::MRA, 4000, 11);
    SyntheticTrace t2(Profile::MRA, 4000, 11);
    serial.run(t1, 4000);
    parallel.run(t2, 4000);

    apps::FlowClassApp probe(1024);
    for (uint32_t e = 0; e < 8; e++)
        EXPECT_EQ(probe.simFlowCount(parallel.engine(e).memory()),
                  probe.simFlowCount(serial.engine(e).memory()))
            << "engine " << e;
}

TEST(MultiCore, ParallelPropagatesWorkerExceptions)
{
    // A worker whose application blows the instruction budget must
    // surface the error on the calling thread after a clean
    // shutdown of every other worker.
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
    BenchConfig cfg;
    cfg.parallel = true;
    cfg.instBudget = 10'000;
    cfg.dispatchBatch = 8;
    MultiCoreBench cores(
        [] { return std::make_unique<SpinApp>(); }, 4, cfg);
    SyntheticTrace trace(Profile::MRA, 2000, 5);
    EXPECT_THROW(cores.run(trace, 2000), sim::BudgetError);
}

/** Replays a pre-built packet vector (deterministic skew shapes). */
class VectorTrace : public TraceSource
{
  public:
    explicit VectorTrace(std::vector<Packet> packets)
        : packets(std::move(packets))
    {
    }

    std::optional<Packet> next() override
    {
        if (index >= packets.size())
            return std::nullopt;
        return packets[index++];
    }

    std::string name() const override { return "vector"; }

  private:
    std::vector<Packet> packets;
    size_t index = 0;
};

/**
 * Heavy-tailed corpus: every 4th packet belongs to one elephant
 * flow, the rest cycle through @p mice_flows distinct mice.  The
 * interleaving means the elephant is hot from the first packets —
 * the shape the Stealing policy exists for.
 */
std::vector<Packet>
skewedCorpus(uint32_t total, uint32_t mice_flows)
{
    std::vector<Packet> out;
    out.reserve(total);
    FiveTuple elephant;
    elephant.src = 0x0a0a0a0a;
    elephant.dst = 0x0b0b0b0b;
    elephant.srcPort = 4242;
    elephant.dstPort = 443;
    elephant.proto = 6;
    uint32_t mouse = 0;
    for (uint32_t i = 0; i < total; i++) {
        FiveTuple tuple = elephant;
        if (i % 4 != 0) {
            tuple.src = 0x0c000000 + (mouse % mice_flows);
            tuple.dst = 0x0d000000 + (mouse / 7 % mice_flows);
            tuple.srcPort = static_cast<uint16_t>(1024 + mouse % 50000);
            tuple.dstPort = 80;
            tuple.proto = mouse % 3 ? 6 : 17;
            mouse++;
        }
        Packet packet;
        packet.bytes = buildIpv4Packet(tuple, 64);
        out.push_back(std::move(packet));
    }
    return out;
}

TEST(MultiCore, StealingKeepsFlowOnOneEngine)
{
    // Stealing may place a *new* flow anywhere, but an established
    // flow must never move: flow order per 5-tuple is the contract.
    BenchConfig cfg;
    cfg.dispatchPolicy = DispatchPolicy::Stealing;
    MultiCoreBench cores(flowFactory(256), 4, cfg);
    std::vector<Packet> corpus = skewedCorpus(400, 37);
    std::unordered_map<uint32_t, uint32_t> homes;
    for (auto &packet : corpus) {
        Packet copy = packet;
        uint32_t engine = cores.processPacket(copy);
        // Re-derive the flow key the dispatcher used.
        FiveTuple tuple;
        ASSERT_TRUE(parseFiveTuple(packet, tuple));
        auto [it, inserted] =
            homes.try_emplace(flowHash(tuple), engine);
        EXPECT_EQ(it->second, engine)
            << "flow moved between engines";
    }
}

TEST(MultiCore, StealingBalancesElephantFlow)
{
    // Under Pinned, the elephant's engine also receives its hash
    // share of mice, so it is strictly more loaded than the rest.
    // Stealing steers new mice flows away from the busy engine, so
    // the packet imbalance must come out lower.
    std::vector<Packet> corpus = skewedCorpus(8000, 1500);

    MultiCoreBench pinned(flowFactory(512), 4);
    VectorTrace pinned_trace(corpus);
    MultiCoreResult pinned_res = pinned.run(pinned_trace, 8000);

    BenchConfig cfg;
    cfg.dispatchPolicy = DispatchPolicy::Stealing;
    MultiCoreBench stealing(flowFactory(512), 4, cfg);
    VectorTrace stealing_trace(corpus);
    MultiCoreResult stealing_res = stealing.run(stealing_trace, 8000);

    auto max_packets = [](const MultiCoreResult &res) {
        uint64_t worst = 0;
        for (const auto &engine : res.engines)
            worst = std::max(worst, engine.packets);
        return worst;
    };
    EXPECT_EQ(stealing_res.totalPackets, pinned_res.totalPackets);
    EXPECT_LT(max_packets(stealing_res), max_packets(pinned_res))
        << "stealing should unload the elephant's engine";
    // The elephant alone is 25% of traffic on 4 engines, so perfect
    // packet balance is reachable: the hot engine should carry close
    // to its fair share, far from the pinned pile-up.
    EXPECT_LT(static_cast<double>(max_packets(stealing_res)),
              0.30 * static_cast<double>(stealing_res.totalPackets));
}

TEST(MultiCore, StealingSerialParallelBitIdentical)
{
    // The Stealing decision is a deterministic function of the
    // packet sequence, made on the dispatching thread in trace
    // order — so the serial run stays the bit-identical per-engine
    // oracle, exactly as for Pinned, across hand-off knobs.
    std::vector<Packet> corpus = skewedCorpus(3000, 900);

    BenchConfig serial_cfg;
    serial_cfg.dispatchPolicy = DispatchPolicy::Stealing;
    MultiCoreBench serial(flowFactory(512), 4, serial_cfg);
    VectorTrace serial_trace(corpus);
    MultiCoreResult serial_res = serial.run(serial_trace, 3000);

    struct Knobs
    {
        uint32_t batch;
        uint32_t depth;
    };
    for (Knobs knobs : {Knobs{1, 1}, Knobs{16, 4}, Knobs{64, 8}}) {
        BenchConfig cfg;
        cfg.parallel = true;
        cfg.dispatchBatch = knobs.batch;
        cfg.queueDepth = knobs.depth;
        cfg.dispatchPolicy = DispatchPolicy::Stealing;
        MultiCoreBench parallel(flowFactory(512), 4, cfg);
        VectorTrace trace(corpus);
        MultiCoreResult par_res = parallel.run(trace, 3000);

        ASSERT_EQ(par_res.engines.size(), serial_res.engines.size());
        for (size_t e = 0; e < serial_res.engines.size(); e++) {
            EXPECT_EQ(par_res.engines[e].packets,
                      serial_res.engines[e].packets)
                << "batch " << knobs.batch << " engine " << e;
            EXPECT_EQ(par_res.engines[e].instructions,
                      serial_res.engines[e].instructions)
                << "batch " << knobs.batch << " engine " << e;
            EXPECT_EQ(par_res.engines[e].bytes,
                      serial_res.engines[e].bytes)
                << "batch " << knobs.batch << " engine " << e;
        }
        apps::FlowClassApp probe(512);
        for (uint32_t e = 0; e < 4; e++)
            EXPECT_EQ(probe.simFlowCount(parallel.engine(e).memory()),
                      probe.simFlowCount(serial.engine(e).memory()))
                << "engine " << e;
    }
}

TEST(MultiCore, StealingSerialParallelMatchOnCorruptedTraces)
{
    // The PR 3 hostile-input matrix, replayed under Stealing: with
    // deterministic injection and FaultPolicy::Drop, per-engine
    // packet/instruction/fault totals must stay bit-identical
    // between the serial oracle and the threaded run.
    struct MatrixEntry
    {
        const char *name;
        FaultInjectConfig cfg;
    };
    MatrixEntry matrix[] = {
        {"all-kinds", {}},
        {"runts-only",
         {.period = 7,
          .seed = 23,
          .bitFlips = false,
          .truncation = true,
          .headerCorruption = false,
          .oversize = false}},
        {"noise-only",
         {.period = 5,
          .seed = 31,
          .bitFlips = true,
          .truncation = false,
          .headerCorruption = true,
          .oversize = false}},
    };
    for (const MatrixEntry &entry : matrix) {
        BenchConfig serial_cfg;
        serial_cfg.dispatchPolicy = DispatchPolicy::Stealing;
        serial_cfg.faultPolicy = FaultPolicy::Drop;
        MultiCoreBench serial(flowFactory(256), 4, serial_cfg);
        SyntheticTrace serial_clean(Profile::MRA, 2000, 13);
        FaultInjectingTraceSource serial_trace(serial_clean,
                                               entry.cfg);
        MultiCoreResult serial_res = serial.run(serial_trace, 2000);

        BenchConfig par_cfg = serial_cfg;
        par_cfg.parallel = true;
        par_cfg.dispatchBatch = 16;
        MultiCoreBench parallel(flowFactory(256), 4, par_cfg);
        SyntheticTrace par_clean(Profile::MRA, 2000, 13);
        FaultInjectingTraceSource par_trace(par_clean, entry.cfg);
        MultiCoreResult par_res = parallel.run(par_trace, 2000);

        EXPECT_EQ(par_res.totalFaults, serial_res.totalFaults)
            << entry.name;
        ASSERT_EQ(par_res.engines.size(), serial_res.engines.size());
        for (size_t e = 0; e < serial_res.engines.size(); e++) {
            EXPECT_EQ(par_res.engines[e].packets,
                      serial_res.engines[e].packets)
                << entry.name << " engine " << e;
            EXPECT_EQ(par_res.engines[e].instructions,
                      serial_res.engines[e].instructions)
                << entry.name << " engine " << e;
            EXPECT_EQ(par_res.engines[e].faults,
                      serial_res.engines[e].faults)
                << entry.name << " engine " << e;
        }
    }
}

TEST(MultiCore, FragmentTrainStaysOnOneEngine)
{
    // All fragments of one datagram hash to the same (portless)
    // flow: the first fragment's ports are deliberately ignored by
    // the dispatcher-visible tuple only for offset != 0, so later
    // fragments — whose payload bytes sit where the L4 header would
    // be — must still land on the first fragment's engine only if
    // the first fragment also hashes portless.  What the fix
    // guarantees: every non-first fragment of a train lands on ONE
    // engine, regardless of the payload bytes at the L4 offset.
    MultiCoreBench cores(flowFactory(256), 4);
    FiveTuple tuple;
    tuple.src = 0x0a000001;
    tuple.dst = 0x0b000002;
    tuple.srcPort = 4242;
    tuple.dstPort = 53;
    tuple.proto = 17;
    std::set<uint32_t> engines_used;
    for (uint16_t frag_off = 1; frag_off <= 32; frag_off++) {
        Packet frag;
        frag.bytes =
            buildIpv4Packet(tuple, 64, 64,
                            static_cast<uint8_t>(frag_off)); // noisy payload
        storeBe16(frag.bytes.data() + ipv4::offFlagsFrag,
                  static_cast<uint16_t>(0x2000 | frag_off));
        // Garble the bytes at the L4 offset: pre-fix, these were
        // read as ports and split the train across engines.
        storeBe16(frag.bytes.data() + ipv4::minHeaderLen,
                  static_cast<uint16_t>(frag_off * 7919));
        storeBe16(frag.bytes.data() + ipv4::minHeaderLen + 2,
                  static_cast<uint16_t>(frag_off * 104729));
        engines_used.insert(cores.processPacket(frag));
    }
    EXPECT_EQ(engines_used.size(), 1u)
        << "fragment train split across engines";
}

TEST(MultiCore, FragmentedCorpusSerialParallelBitIdentical)
{
    // Mixed corpus — first fragments, later fragments, unparseable
    // runts — drives the batched hash front end with interleaved
    // valid/invalid lanes; the serial run stays the per-engine
    // oracle.
    std::vector<Packet> corpus;
    Rng rng(4242);
    for (uint32_t i = 0; i < 2000; i++) {
        FiveTuple tuple;
        tuple.src = 0x0a000000 + rng.below(64);
        tuple.dst = 0x0b000000 + rng.below(64);
        tuple.srcPort = static_cast<uint16_t>(1024 + rng.below(100));
        tuple.dstPort = 80;
        tuple.proto = 17;
        Packet packet;
        packet.bytes = buildIpv4Packet(tuple, 64);
        if (i % 7 == 3) { // later fragment
            storeBe16(packet.bytes.data() + ipv4::offFlagsFrag,
                      static_cast<uint16_t>(0x2000 | (1 + i % 100)));
        } else if (i % 11 == 5) { // runt: no parseable 5-tuple
            packet.bytes.resize(6);
        }
        corpus.push_back(std::move(packet));
    }

    MultiCoreBench serial(flowFactory(256), 4);
    VectorTrace serial_trace(corpus);
    MultiCoreResult serial_res = serial.run(serial_trace, 2000);

    BenchConfig cfg;
    cfg.parallel = true;
    cfg.dispatchBatch = 16;
    MultiCoreBench parallel(flowFactory(256), 4, cfg);
    VectorTrace par_trace(corpus);
    MultiCoreResult par_res = parallel.run(par_trace, 2000);

    ASSERT_EQ(par_res.engines.size(), serial_res.engines.size());
    for (size_t e = 0; e < serial_res.engines.size(); e++) {
        EXPECT_EQ(par_res.engines[e].packets,
                  serial_res.engines[e].packets) << "engine " << e;
        EXPECT_EQ(par_res.engines[e].instructions,
                  serial_res.engines[e].instructions)
            << "engine " << e;
        EXPECT_EQ(par_res.engines[e].bytes,
                  serial_res.engines[e].bytes) << "engine " << e;
    }
}

TEST(MultiCore, ZeroEnginesRejected)
{
    EXPECT_THROW(MultiCoreBench cores(flowFactory(64), 0),
                 FatalError);
}

TEST(MultiCore, SingleEngineDegeneratesToPacketBench)
{
    MultiCoreBench cores(flowFactory(256), 1);
    SyntheticTrace trace(Profile::LAN, 500, 2);
    MultiCoreResult result = cores.run(trace, 500);
    EXPECT_EQ(result.totalPackets, 500u);
    EXPECT_DOUBLE_EQ(result.imbalance(), 1.0);
    EXPECT_DOUBLE_EQ(result.speedup(), 1.0);
}

TEST(MultiCore, PacketBoundAbove32BitsIsNotTruncated)
{
    // packetbenchd passes the widest bound; truncated to 32 bits,
    // 2^32 + 4 would become 4 and a looped service would stop early.
    const uint64_t bound = (uint64_t{1} << 32) + 4;
    for (bool parallel : {false, true}) {
        BenchConfig cfg;
        cfg.parallel = parallel;
        MultiCoreBench cores(flowFactory(64), 2, cfg);
        SyntheticTrace trace(Profile::LAN, 10, 1);
        MultiCoreResult result = cores.run(trace, bound);
        EXPECT_EQ(result.totalPackets, 10u)
            << (parallel ? "parallel" : "serial");
    }
}

} // namespace
