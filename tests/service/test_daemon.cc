/**
 * @file
 * PacketBenchd tests: end-to-end corpus processing through the
 * ingest ring, equivalence of the ring path with the direct batch
 * path (including Stealing dispatch against the serial oracle),
 * shutdown-driven termination of a looped service, and the console
 * speed line running without the telemetry gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "apps/flow_class.hh"
#include "common/shutdown.hh"
#include "core/multicore.hh"
#include "net/tracegen.hh"
#include "obs/stats.hh"
#include "service/daemon.hh"

namespace
{

using namespace pb;
using namespace pb::core;
using namespace pb::service;

MultiCoreBench::AppFactory
flowFactory(uint32_t buckets)
{
    return [buckets] {
        return std::make_unique<apps::FlowClassApp>(buckets);
    };
}

TraceReplayer::SourceFactory
corpus(net::Profile profile, uint32_t packets, uint32_t seed)
{
    return [profile, packets, seed] {
        return std::make_unique<net::SyntheticTrace>(profile,
                                                     packets, seed);
    };
}

class PacketBenchdTest : public ::testing::Test
{
  protected:
    void SetUp() override { resetShutdownForTest(); }
    void TearDown() override { resetShutdownForTest(); }
};

TEST_F(PacketBenchdTest, ProcessesWholeCorpusThroughRing)
{
    ServiceConfig cfg;
    cfg.engines = 2;
    cfg.bench.parallel = true;
    cfg.ringCapacity = 64; // smaller than the corpus: real handoff
    cfg.speedIntervalMs = 0;
    PacketBenchd daemon(flowFactory(512), cfg);
    ServiceResult res =
        daemon.run(corpus(net::Profile::COS, 1'000, 9));

    EXPECT_EQ(res.mc.totalPackets, 1'000u);
    EXPECT_EQ(res.replayed, 1'000u);
    EXPECT_EQ(res.loops, 1u);
    EXPECT_EQ(res.ringDropped, 0u);
    EXPECT_FALSE(res.shutdownBySignal);
    EXPECT_GT(res.wallSeconds, 0.0);
    uint64_t engine_sum = 0;
    for (const EngineLoad &load : res.mc.engines)
        engine_sum += load.packets;
    EXPECT_EQ(engine_sum, 1'000u);
}

TEST_F(PacketBenchdTest, RingPathMatchesSerialOracleUnderStealing)
{
    // The service path adds a replayer thread and the ingest ring in
    // front of the dispatcher, but packets still arrive in trace
    // order — so per-engine outcomes must stay bit-identical to a
    // plain serial MultiCoreBench run of the same corpus, even with
    // the load-adaptive Stealing policy.
    BenchConfig serial_cfg;
    serial_cfg.dispatchPolicy = DispatchPolicy::Stealing;
    MultiCoreBench serial(flowFactory(512), 3, serial_cfg);
    net::SyntheticTrace serial_trace(net::Profile::MRA, 1'500, 13);
    MultiCoreResult serial_res = serial.run(serial_trace, 1'500);

    ServiceConfig cfg;
    cfg.engines = 3;
    cfg.bench.parallel = true;
    cfg.bench.dispatchPolicy = DispatchPolicy::Stealing;
    cfg.ringCapacity = 128;
    cfg.speedIntervalMs = 0;
    PacketBenchd daemon(flowFactory(512), cfg);
    ServiceResult res =
        daemon.run(corpus(net::Profile::MRA, 1'500, 13));

    ASSERT_EQ(res.mc.engines.size(), serial_res.engines.size());
    for (size_t e = 0; e < serial_res.engines.size(); e++) {
        EXPECT_EQ(res.mc.engines[e].packets,
                  serial_res.engines[e].packets)
            << "engine " << e;
        EXPECT_EQ(res.mc.engines[e].instructions,
                  serial_res.engines[e].instructions)
            << "engine " << e;
        EXPECT_EQ(res.mc.engines[e].bytes,
                  serial_res.engines[e].bytes)
            << "engine " << e;
    }
    apps::FlowClassApp probe(512);
    for (uint32_t e = 0; e < 3; e++)
        EXPECT_EQ(
            probe.simFlowCount(daemon.bench().engine(e).memory()),
            probe.simFlowCount(serial.engine(e).memory()))
            << "engine " << e;
}

TEST_F(PacketBenchdTest, ShutdownRequestStopsLoopedService)
{
    // A looped service never runs out of input; a shutdown request
    // (what SIGTERM sets) must stop the replayer, drain, and return.
    ServiceConfig cfg;
    cfg.engines = 2;
    cfg.bench.parallel = true;
    cfg.ringCapacity = 64;
    cfg.speedIntervalMs = 0;
    cfg.replay.loop = true;
    PacketBenchd daemon(flowFactory(256), cfg);

    std::thread trigger([] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(150));
        requestShutdown();
    });
    ServiceResult res =
        daemon.run(corpus(net::Profile::LAN, 400, 5));
    trigger.join();

    EXPECT_TRUE(res.shutdownBySignal);
    EXPECT_GT(res.mc.totalPackets, 0u);
    // Everything dispatched to an engine was fully processed (the
    // drain contract): engine totals sum to the dispatched count.
    uint64_t engine_sum = 0;
    for (const EngineLoad &load : res.mc.engines)
        engine_sum += load.packets;
    EXPECT_EQ(engine_sum, res.mc.totalPackets);
    EXPECT_LE(res.mc.totalPackets, res.replayed);
}

TEST_F(PacketBenchdTest, MaxPacketsBoundsALoopedService)
{
    ServiceConfig cfg;
    cfg.engines = 2;
    cfg.bench.parallel = true;
    cfg.ringCapacity = 64;
    cfg.speedIntervalMs = 0;
    cfg.replay.loop = true;
    cfg.replay.maxPackets = 900; // 2 passes + a partial third
    PacketBenchd daemon(flowFactory(256), cfg);
    ServiceResult res =
        daemon.run(corpus(net::Profile::ODU, 400, 3));
    EXPECT_EQ(res.replayed, 900u);
    EXPECT_EQ(res.mc.totalPackets, 900u);
    EXPECT_GE(res.loops, 2u);
    EXPECT_FALSE(res.shutdownBySignal);
}

TEST_F(PacketBenchdTest, SpeedLineShowsRatesWithoutTheTelemetryGate)
{
    // The console speed line differences the engines' since-start
    // totals, so a run without --stats must print live, non-zero
    // rates while the per-packet telemetry gate stays down.  The
    // source factory runs on the replayer thread once per pass, so
    // it samples the gate while the engines run.
    ASSERT_FALSE(obs::statsEnabled());
    ServiceConfig cfg;
    cfg.engines = 2;
    cfg.bench.parallel = true;
    cfg.speedIntervalMs = 20;
    cfg.replay.ratePps = 20'000;
    cfg.replay.loop = true;
    cfg.replay.maxPackets = 6'000; // about 300 ms at the offered rate
    PacketBenchd daemon(flowFactory(256), cfg);
    std::atomic<bool> gate_seen{false};
    std::atomic<int> passes{0};
    testing::internal::CaptureStderr();
    ServiceResult res = daemon.run(
        [&]() -> std::unique_ptr<net::TraceSource> {
            if (obs::statsEnabled())
                gate_seen.store(true);
            passes.fetch_add(1);
            return std::make_unique<net::SyntheticTrace>(
                net::Profile::LAN, 400, 5);
        });
    std::string err = testing::internal::GetCapturedStderr();

    EXPECT_EQ(res.mc.totalPackets, 6'000u);
    EXPECT_GE(passes.load(), 15);
    EXPECT_FALSE(gate_seen.load())
        << "the daemon raised the per-packet telemetry gate";
    EXPECT_FALSE(obs::statsEnabled());
    int lines = 0;
    double best_mpps = 0.0;
    std::istringstream in(err);
    for (std::string line; std::getline(in, line);) {
        double mpps = 0.0;
        if (std::sscanf(line.c_str(), "[packetbenchd] %lf Mpps",
                        &mpps) == 1) {
            lines++;
            best_mpps = std::max(best_mpps, mpps);
        }
    }
    EXPECT_GT(lines, 0) << err;
    EXPECT_GT(best_mpps, 0.0) << err;
}

} // namespace
