/**
 * @file
 * IngestRing tests: FIFO semantics across batch boundaries, overrun
 * policies, close/drain, batches larger than the ring,
 * shutdown-aware blocking, the TraceSource adapter, and a
 * multi-producer/multi-consumer conservation stress (the TSan
 * target for the ingest plane).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <thread>
#include <vector>

#include "common/shutdown.hh"
#include "service/ingest.hh"

namespace
{

using namespace pb;
using namespace pb::service;

net::Packet
packetOfSize(size_t n, uint8_t fill)
{
    net::Packet packet;
    packet.bytes.assign(n, fill);
    return packet;
}

/** A batch of packets of the given sizes, all filled with @p fill. */
std::vector<net::Packet>
batchOfSizes(std::initializer_list<size_t> sizes, uint8_t fill = 0)
{
    std::vector<net::Packet> batch;
    for (size_t n : sizes)
        batch.push_back(packetOfSize(n, fill));
    return batch;
}

class IngestRingTest : public ::testing::Test
{
  protected:
    void SetUp() override { resetShutdownForTest(); }
    void TearDown() override { resetShutdownForTest(); }
};

TEST_F(IngestRingTest, FifoSingleThread)
{
    IngestRing ring(8);
    auto first = batchOfSizes({1, 2}, 0xab);
    auto second = batchOfSizes({3, 4}, 0xab);
    ASSERT_EQ(ring.pushBatch(first), 2u);
    ASSERT_EQ(ring.pushBatch(second), 2u);
    EXPECT_TRUE(first.empty()) << "pushBatch leaves the batch empty";
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.accepted(), 4u);
    // Pops need not line up with pushes: order is per packet.
    std::vector<net::Packet> out;
    ASSERT_TRUE(ring.popBatch(out, 3));
    ASSERT_EQ(out.size(), 3u);
    ASSERT_TRUE(ring.popBatch(out));
    ASSERT_EQ(out.size(), 4u) << "popBatch appends";
    for (size_t i = 0; i < out.size(); i++)
        EXPECT_EQ(out[i].bytes.size(), i + 1);
    EXPECT_EQ(ring.size(), 0u);
}

TEST_F(IngestRingTest, TryPushDropsWhenFullAndCounts)
{
    IngestRing ring(2);
    auto three = batchOfSizes({10, 10, 10});
    EXPECT_EQ(ring.tryPushBatch(three), 2u)
        << "full ring must refuse the overrun under drop policy";
    auto one = batchOfSizes({10});
    EXPECT_EQ(ring.tryPushBatch(one), 0u);
    EXPECT_EQ(ring.accepted(), 2u);
    EXPECT_EQ(ring.dropped(), 2u);
    std::vector<net::Packet> out;
    ASSERT_TRUE(ring.popBatch(out, 1));
    auto again = batchOfSizes({10});
    EXPECT_EQ(ring.tryPushBatch(again), 1u)
        << "space freed by a pop must be reusable";
}

TEST_F(IngestRingTest, CloseDrainsRemainingThenEndsStream)
{
    IngestRing ring(8);
    auto batch = batchOfSizes({3, 5}, 7);
    ASSERT_EQ(ring.pushBatch(batch), 2u);
    ring.close();
    EXPECT_TRUE(ring.closed());
    auto late = batchOfSizes({1}, 7);
    EXPECT_EQ(ring.pushBatch(late), 0u)
        << "closed ring must refuse pushes";
    std::vector<net::Packet> out;
    EXPECT_TRUE(ring.popBatch(out, 1));
    EXPECT_TRUE(ring.popBatch(out, 1));
    EXPECT_FALSE(ring.popBatch(out)) << "closed and drained";
    EXPECT_EQ(out.size(), 2u);
}

TEST_F(IngestRingTest, BatchLargerThanCapacityArrivesInOrder)
{
    // Capacity bounds packets, not batches: a 100-packet batch into
    // a 16-packet ring moves in pieces as the consumer makes room.
    IngestRing ring(16);
    std::vector<net::Packet> batch;
    for (size_t i = 1; i <= 100; i++)
        batch.push_back(packetOfSize(i, 0x5a));
    size_t queued = 0;
    std::thread producer([&] { queued = ring.pushBatch(batch); });
    std::vector<net::Packet> out;
    while (out.size() < 100 && ring.popBatch(out, 7)) {
    }
    producer.join();
    EXPECT_EQ(queued, 100u);
    ASSERT_EQ(out.size(), 100u);
    for (size_t i = 0; i < out.size(); i++)
        EXPECT_EQ(out[i].bytes.size(), i + 1);
}

TEST_F(IngestRingTest, BlockedProducerUnblocksOnShutdown)
{
    // A producer parked on a full ring must not deadlock a daemon
    // that got SIGTERM: pushBatch() polls the shutdown flag and
    // gives up.
    IngestRing ring(1);
    auto fill = batchOfSizes({4}, 1);
    ASSERT_EQ(ring.pushBatch(fill), 1u);
    std::atomic<bool> returned{false};
    std::atomic<size_t> result{1};
    std::thread producer([&] {
        auto more = batchOfSizes({4}, 2);
        result.store(ring.pushBatch(more));
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(returned.load()) << "push through a full ring?";
    requestShutdown();
    producer.join();
    EXPECT_TRUE(returned.load());
    EXPECT_EQ(result.load(), 0u)
        << "push during shutdown must report failure";
}

TEST_F(IngestRingTest, BlockedConsumerUnblocksOnClose)
{
    IngestRing ring(4);
    std::thread consumer([&] {
        std::vector<net::Packet> out;
        EXPECT_FALSE(ring.popBatch(out));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ring.close();
    consumer.join();
}

TEST_F(IngestRingTest, IngestSourceAdaptsRingToTraceSource)
{
    IngestRing ring(8);
    IngestSource source(ring, "test-ring");
    EXPECT_EQ(source.name(), "test-ring");
    auto batch = batchOfSizes({9, 13}, 0x11);
    ASSERT_EQ(ring.pushBatch(batch), 2u);
    ring.close();
    auto first = source.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->bytes.size(), 9u);
    auto second = source.next();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->bytes.size(), 13u);
    EXPECT_FALSE(source.next().has_value())
        << "closed+drained ring is end-of-trace";
}

TEST_F(IngestRingTest, MpmcStressConservesEveryPacket)
{
    // 4 producers x 2 consumers through a small ring: every byte
    // pushed must come out exactly once (conservation), with all
    // sides hitting the full/empty wait paths.  Batches of 1 to 64
    // packets (some larger than the ring) and pops of 1 to 64 cover
    // the partial hand-off paths.  This is the TSan target for the
    // MPMC plane.
    constexpr int kProducers = 4;
    constexpr int kConsumers = 2;
    constexpr uint64_t kPerProducer = 5'000;
    IngestRing ring(32);

    auto size_of = [](int p, uint64_t i) {
        // Size encodes (producer, seq) so the checksum detects loss
        // and duplication, not just counts.
        return static_cast<size_t>(1 + (p * kPerProducer + i) % 251);
    };
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; p++) {
        producers.emplace_back([&, p] {
            std::vector<net::Packet> batch;
            size_t batch_len = 1;
            for (uint64_t i = 0; i < kPerProducer; i++) {
                batch.push_back(packetOfSize(
                    size_of(p, i), static_cast<uint8_t>(p)));
                if (batch.size() == batch_len ||
                    i + 1 == kPerProducer) {
                    size_t n = batch.size();
                    ASSERT_EQ(ring.pushBatch(batch), n);
                    batch_len = batch_len % 64 + 1;
                }
            }
        });
    }

    std::atomic<uint64_t> popped{0};
    std::atomic<uint64_t> byte_sum{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; c++) {
        consumers.emplace_back([&, c] {
            std::vector<net::Packet> out;
            size_t max = 1 + c * 63;
            while (ring.popBatch(out, max)) {
                popped.fetch_add(out.size(), std::memory_order_relaxed);
                for (const net::Packet &packet : out)
                    byte_sum.fetch_add(packet.bytes.size(),
                                       std::memory_order_relaxed);
                out.clear();
            }
        });
    }

    uint64_t expected_bytes = 0;
    for (int p = 0; p < kProducers; p++)
        for (uint64_t i = 0; i < kPerProducer; i++)
            expected_bytes += size_of(p, i);

    for (auto &producer : producers)
        producer.join();
    ring.close();
    for (auto &consumer : consumers)
        consumer.join();

    EXPECT_EQ(popped.load(), kProducers * kPerProducer);
    EXPECT_EQ(byte_sum.load(), expected_bytes);
    EXPECT_EQ(ring.accepted(), kProducers * kPerProducer);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.size(), 0u);
}

} // namespace
