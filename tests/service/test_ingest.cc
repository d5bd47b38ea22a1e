/**
 * @file
 * Ingest tests: the ring carries packets in order across batch
 * boundaries, drains after close, and releases a parked consumer on
 * close; IngestSource turns its consumer side into a TraceSource.
 * The ring is an SpscQueue; the queue's own semantics are tested in
 * tests/common/test_spscqueue.cc.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <thread>
#include <vector>

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

TEST(IngestRingTest, FifoSingleThread)
{
    IngestRing ring(8);
    auto first = batchOfSizes({1, 2}, 0xab);
    auto second = batchOfSizes({3, 4}, 0xab);
    ASSERT_EQ(ring.push(first), 2u);
    ASSERT_EQ(ring.push(second), 2u);
    EXPECT_EQ(ring.size(), 4u);
    // Pops need not line up with pushes: order is per packet.
    std::vector<net::Packet> out;
    ASSERT_TRUE(ring.popBatch(out, 3));
    ASSERT_EQ(out.size(), 3u);
    ASSERT_TRUE(ring.popBatch(out, ingestBatch));
    ASSERT_EQ(out.size(), 4u) << "popBatch appends";
    for (size_t i = 0; i < out.size(); i++) {
        EXPECT_EQ(out[i].bytes.size(), i + 1);
        EXPECT_EQ(out[i].bytes.front(), 0xab) << "payload moved intact";
    }
    EXPECT_EQ(ring.size(), 0u);
}

TEST(IngestRingTest, CloseDrainsRemainingThenEndsStream)
{
    IngestRing ring(8);
    auto batch = batchOfSizes({3, 5}, 7);
    ASSERT_EQ(ring.push(batch), 2u);
    ring.close();
    EXPECT_TRUE(ring.closed());
    auto late = batchOfSizes({1}, 7);
    EXPECT_EQ(ring.push(late), 0u) << "closed ring must refuse pushes";
    std::vector<net::Packet> out;
    EXPECT_TRUE(ring.popBatch(out, 1));
    EXPECT_TRUE(ring.popBatch(out, 1));
    EXPECT_FALSE(ring.popBatch(out, ingestBatch)) << "closed and drained";
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].bytes.size(), 3u);
    EXPECT_EQ(out[1].bytes.size(), 5u);
}

TEST(IngestRingTest, BlockedConsumerUnblocksOnClose)
{
    // How PacketBenchd::run ends a dispatcher waiting on an idle
    // ring: close it.
    IngestRing ring(4);
    std::thread consumer([&] {
        std::vector<net::Packet> out;
        EXPECT_FALSE(ring.popBatch(out, ingestBatch));
        EXPECT_TRUE(out.empty());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ring.close();
    consumer.join();
}

TEST(IngestRingTest, IngestSourceAdaptsRingToTraceSource)
{
    IngestRing ring(8);
    IngestSource source(ring, "test-ring");
    EXPECT_EQ(source.name(), "test-ring");
    std::vector<net::Packet> batch;
    batch.push_back(packetOfSize(9, 0x11));
    batch.push_back(packetOfSize(13, 0x11));
    ASSERT_EQ(ring.push(batch), 2u);
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

} // namespace
