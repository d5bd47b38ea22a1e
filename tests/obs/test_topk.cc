/**
 * @file
 * Space-saving top-K tests: exact tracking of heavy flows on skewed
 * traffic, the est - error <= true <= est bound on adversarial
 * (uniform churn) traffic, the N/capacity inclusion guarantee, and
 * the reporting surface (ordering, truncation, formatting).
 */

#include <gtest/gtest.h>

#include <map>

#include "obs/topk.hh"

namespace
{

using namespace pb::obs;

FlowId
flowIdFor(uint32_t n)
{
    FlowId id;
    id.src = 0x0a000000u | n;  // 10.0.x.y
    id.dst = 0xc0a80001u;      // 192.168.0.1
    id.srcPort = static_cast<uint16_t>(1024 + n);
    id.dstPort = 80;
    id.proto = 6;
    return id;
}

TEST(FlowTopK, SkewedHeavyHittersAreExact)
{
    FlowTopK topk(8);
    // Four heavy flows, 100 packets each, established first...
    for (int round = 0; round < 100; round++)
        for (uint64_t f = 0; f < 4; f++)
            topk.observe(f, flowIdFor(static_cast<uint32_t>(f)), 64,
                         false);
    // ...then 50 one-packet flows churning the light half of the
    // table.
    for (uint64_t f = 100; f < 150; f++)
        topk.observe(f, flowIdFor(static_cast<uint32_t>(f)), 64,
                     false);

    auto top = topk.top(4);
    ASSERT_EQ(top.size(), 4u);
    for (const auto &e : top) {
        // The heavy flows were never evicted: tracked exactly, with
        // no inherited overcount.
        EXPECT_LT(e.key, 4u);
        EXPECT_EQ(e.packets, 100u);
        EXPECT_EQ(e.error, 0u);
        EXPECT_EQ(e.bytes, 6400u);
        EXPECT_EQ(e.faults, 0u);
    }
    EXPECT_EQ(topk.observedPackets(), 450u);
}

TEST(FlowTopK, AdversarialChurnKeepsErrorBound)
{
    constexpr uint64_t kFlows = 40;
    constexpr int kRounds = 5;
    FlowTopK topk(4);
    std::map<uint64_t, uint64_t> truth;
    // Round-robin over many distinct flows: worst case for a
    // capacity-4 table — every miss evicts and inherits.
    for (int round = 0; round < kRounds; round++) {
        for (uint64_t f = 0; f < kFlows; f++) {
            topk.observe(f, flowIdFor(static_cast<uint32_t>(f)), 64,
                         false);
            truth[f]++;
        }
    }

    auto entries = topk.top();
    ASSERT_LE(entries.size(), 4u);
    for (const auto &e : entries) {
        uint64_t true_count = truth[e.key];
        // The space-saving invariant: the estimate only ever
        // overcounts, and by at most the recorded error.
        EXPECT_GE(e.packets, true_count) << "flow " << e.key;
        EXPECT_LE(e.packets - e.error, true_count)
            << "flow " << e.key;
    }
    EXPECT_EQ(topk.observedPackets(), kFlows * kRounds);
}

TEST(FlowTopK, FlowsAboveThresholdAreAlwaysTracked)
{
    FlowTopK topk(4);
    // 60 of 200 packets belong to flow 999 — far above N/capacity =
    // 50 — interleaved with uniform churn trying to push it out.
    uint64_t next_light = 1000;
    for (int i = 0; i < 200; i++) {
        if (i % 10 < 3) {
            topk.observe(999, flowIdFor(999), 128, false);
        } else {
            topk.observe(next_light,
                         flowIdFor(static_cast<uint32_t>(next_light)),
                         64, false);
            next_light++;
        }
    }
    bool found = false;
    for (const auto &e : topk.top())
        found = found || e.key == 999;
    EXPECT_TRUE(found)
        << "heavy flow evicted despite exceeding N/capacity";
}

TEST(FlowTopK, TopIsSortedAndTruncated)
{
    FlowTopK topk(8);
    for (uint64_t f = 0; f < 5; f++)
        for (uint64_t n = 0; n <= f; n++)
            topk.observe(f, flowIdFor(static_cast<uint32_t>(f)), 64,
                         false);

    auto all = topk.top();
    ASSERT_EQ(all.size(), 5u);
    for (size_t i = 1; i < all.size(); i++)
        EXPECT_GE(all[i - 1].packets, all[i].packets);
    EXPECT_EQ(all[0].key, 4u);

    auto two = topk.top(2);
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0].key, 4u);
    EXPECT_EQ(two[1].key, 3u);
}

TEST(FlowTopK, FaultsAndBytesAccumulatePerEntry)
{
    FlowTopK topk(4);
    topk.observe(7, flowIdFor(7), 100, false);
    topk.observe(7, flowIdFor(7), 200, true);
    topk.observe(7, flowIdFor(7), 300, true);

    auto top = topk.top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].packets, 3u);
    EXPECT_EQ(top[0].bytes, 600u);
    EXPECT_EQ(top[0].faults, 2u);
}

TEST(FlowTopK, FormatFlowIdRendersTuple)
{
    FlowId id;
    id.src = 0x0a000001;  // 10.0.0.1
    id.dst = 0xc0a80102;  // 192.168.1.2
    id.srcPort = 1234;
    id.dstPort = 80;
    id.proto = 6;
    EXPECT_EQ(formatFlowId(id), "10.0.0.1:1234 > 192.168.1.2:80/6");
}

} // namespace
