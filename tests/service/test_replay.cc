/**
 * @file
 * TraceReplayer tests: one-pass replay, looped replay bounded by
 * maxPackets, stop() on an infinite loop, pacing, the batch hand-off
 * before each wait for a token, and drop counting on a full ring.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/shutdown.hh"
#include "net/tracegen.hh"
#include "obs/metrics.hh"
#include "service/replay.hh"

namespace
{

using namespace pb;
using namespace pb::service;

TraceReplayer::SourceFactory
lanCorpus(uint32_t packets)
{
    return [packets] {
        return std::make_unique<net::SyntheticTrace>(
            net::Profile::LAN, packets, 2);
    };
}

/** Drain the ring on this thread until it closes; packet count. */
uint64_t
drain(IngestRing &ring)
{
    uint64_t n = 0;
    std::vector<net::Packet> out;
    while (ring.popBatch(out, ingestBatch)) {
        n += out.size();
        out.clear();
    }
    return n;
}

class TraceReplayerTest : public ::testing::Test
{
  protected:
    void SetUp() override { resetShutdownForTest(); }
    void TearDown() override { resetShutdownForTest(); }
};

TEST_F(TraceReplayerTest, ReplaysWholeCorpusOnceAndClosesRing)
{
    IngestRing ring(16); // smaller than the corpus: real handoff
    TraceReplayer replayer(lanCorpus(500), ring, {});
    replayer.start();
    uint64_t drained = drain(ring);
    replayer.join();
    EXPECT_EQ(drained, 500u);
    EXPECT_EQ(replayer.packets(), 500u);
    EXPECT_EQ(replayer.loops(), 1u);
    EXPECT_TRUE(ring.closed());
}

TEST_F(TraceReplayerTest, LoopedReplayStopsAtMaxPackets)
{
    ReplayConfig cfg;
    cfg.loop = true;
    cfg.maxPackets = 1'200; // 2 full passes + a partial third
    IngestRing ring(64);
    TraceReplayer replayer(lanCorpus(500), ring, cfg);
    replayer.start();
    uint64_t drained = drain(ring);
    replayer.join();
    EXPECT_EQ(drained, 1'200u);
    EXPECT_EQ(replayer.packets(), 1'200u);
    EXPECT_EQ(replayer.loops(), 2u);
}

TEST_F(TraceReplayerTest, StopEndsAnInfiniteLoop)
{
    ReplayConfig cfg;
    cfg.loop = true;
    IngestRing ring(32);
    TraceReplayer replayer(lanCorpus(200), ring, cfg);
    replayer.start();

    std::atomic<uint64_t> drained{0};
    std::thread consumer([&] {
        drained.store(drain(ring), std::memory_order_relaxed);
    });
    // Let it loop a few passes, then ask it to finish.
    while (replayer.loops() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    replayer.stop();
    replayer.join();
    EXPECT_TRUE(ring.closed());
    consumer.join();
    EXPECT_EQ(drained.load(), replayer.packets());
    EXPECT_GE(replayer.loops(), 2u);
}

TEST_F(TraceReplayerTest, RatePacesOfferedPackets)
{
    // 300 packets at 3000 pps with burst 1 needs ~100 ms; unpaced
    // replay of so small a corpus finishes in well under 10 ms.
    ReplayConfig cfg;
    cfg.ratePps = 3'000;
    cfg.burst = 1;
    IngestRing ring(512);
    TraceReplayer replayer(lanCorpus(300), ring, cfg);
    auto start = std::chrono::steady_clock::now();
    replayer.start();
    uint64_t drained = drain(ring);
    replayer.join();
    double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(drained, 300u);
    EXPECT_GT(elapsed, 0.050);
    EXPECT_LT(elapsed, 5.0);
}

TEST_F(TraceReplayerTest, PacedReplayHandsOverBeforeWaitingForTokens)
{
    // At 200 pps with burst 1 a token comes every 5 ms.  The
    // replayer batches packets, but hands its batch over before each
    // wait for a token, so about 30 packets reach the consumer in
    // 150 ms; one that only handed over full 64-packet batches would
    // deliver none.
    ReplayConfig cfg;
    cfg.ratePps = 200;
    cfg.burst = 1;
    cfg.loop = true;
    IngestRing ring(4096);
    TraceReplayer replayer(lanCorpus(500), ring, cfg);
    IngestSource source(ring);
    std::atomic<uint64_t> delivered{0};
    replayer.start();
    std::thread consumer([&] {
        while (source.next())
            delivered.fetch_add(1, std::memory_order_relaxed);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    uint64_t seen = delivered.load(std::memory_order_relaxed);
    replayer.stop();
    replayer.join();
    consumer.join();
    EXPECT_GE(seen, 20u);
    EXPECT_EQ(delivered.load(), replayer.packets());
}

TEST_F(TraceReplayerTest, DropWhenFullCountsRefusedPackets)
{
    // No consumer: the first 16 packets fill the ring and the full
    // ring refuses the other 484, which are offered all the same.
    ReplayConfig cfg;
    cfg.dropWhenFull = true;
    IngestRing ring(16);
    obs::Counter &dropped_ctr =
        obs::defaultRegistry().counter("service.ingest.dropped");
    const uint64_t dropped_before = dropped_ctr.value();
    TraceReplayer replayer(lanCorpus(500), ring, cfg);
    replayer.start();
    replayer.join();
    EXPECT_EQ(replayer.packets(), 500u);
    EXPECT_EQ(replayer.dropped(), 484u);
    EXPECT_EQ(dropped_ctr.value() - dropped_before, 484u);
    EXPECT_EQ(ring.size(), 16u);
    EXPECT_TRUE(ring.closed());
}

TEST_F(TraceReplayerTest, ShutdownRequestEndsLoopedReplay)
{
    ReplayConfig cfg;
    cfg.loop = true;
    IngestRing ring(32);
    TraceReplayer replayer(lanCorpus(200), ring, cfg);
    replayer.start();
    std::thread consumer([&] { drain(ring); });
    while (replayer.packets() < 100)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    requestShutdown();
    replayer.join(); // must terminate without stop()
    EXPECT_TRUE(ring.closed());
    consumer.join();
}

} // namespace
