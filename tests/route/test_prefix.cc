/**
 * @file
 * Routing-table generator tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "route/prefix.hh"

namespace
{

using namespace pb;
using namespace pb::route;

/**
 * The generator's former construction, kept as its oracle: the same
 * draws, deduplicated through a std::set.
 */
std::vector<RouteEntry>
setReferenceTable(uint32_t n, uint32_t seed, uint8_t min_len,
                  uint8_t max_len, bool all_slash8)
{
    static const std::vector<double> weights = {
        0.5, 0.2, 0.3, 0.4, 0.8, 1.0, 1.2, 1.5, 8.0,
        2.0, 3.0, 6.0, 5.0, 4.5, 5.5, 4.0, 55.0,
        0.5, 0.4, 0.3, 0.3, 0.2, 0.1,
    };
    Rng rng(seed ^ 0x0a11e57u);
    std::vector<RouteEntry> table;
    std::set<std::pair<uint32_t, uint8_t>> seen;
    auto add = [&](uint32_t prefix, uint8_t len) -> bool {
        prefix &= prefixMask(len);
        if (!seen.emplace(prefix, len).second)
            return false;
        table.push_back({prefix, len, 1 + rng.below(numInterfaces)});
        return true;
    };
    add(0, 0);
    if (all_slash8) {
        for (uint32_t top = 0; top < 256; top++)
            add(top << 24, 8);
    }
    uint32_t added = 0;
    while (added < n) {
        auto len = static_cast<uint8_t>(8 + rng.weighted(weights));
        len = std::clamp(len, min_len, max_len);
        if (add(rng.next(), len))
            added++;
    }
    return table;
}

TEST(TableGen, MatchesSetReference)
{
    for (uint32_t n : {0u, 1u, 100u, 4096u, 32768u}) {
        for (uint32_t seed : {1u, 2u, 0xc0ffeeu}) {
            EXPECT_EQ(generateCoreTable(n, seed),
                      setReferenceTable(n, seed, 8, 30, true))
                << "core n=" << n << " seed=" << seed;
            EXPECT_EQ(generateSmallTable(n, seed),
                      setReferenceTable(n, seed, 8, 24, false))
                << "small n=" << n << " seed=" << seed;
        }
    }
}

TEST(TableGen, CoreTableShape)
{
    auto table = generateCoreTable(4096, 1);
    // default + 256 /8s + n.
    EXPECT_EQ(table.size(), 1u + 256u + 4096u);

    std::map<uint8_t, uint32_t> by_len;
    std::set<std::pair<uint32_t, uint8_t>> unique;
    std::set<uint32_t> slash8_octets;
    bool has_default = false;
    for (const auto &entry : table) {
        EXPECT_LE(entry.len, 32u);
        EXPECT_EQ(entry.prefix & ~prefixMask(entry.len), 0u)
            << "prefix must be masked";
        EXPECT_TRUE(unique.emplace(entry.prefix, entry.len).second)
            << "duplicate prefix";
        if (entry.len == 0)
            has_default = true;
        else
            EXPECT_GE(entry.nextHop, 1u);
        EXPECT_LE(entry.nextHop, numInterfaces);
        by_len[entry.len]++;
        if (entry.len == 8)
            slash8_octets.insert(entry.prefix >> 24);
    }
    EXPECT_TRUE(has_default);
    // Exactly the 256 /8s, one per top octet, so every lookup
    // resolves past the default route.
    EXPECT_EQ(by_len[8], 256u);
    EXPECT_EQ(slash8_octets.size(), 256u);
    // /24 dominates, like real BGP tables.
    uint32_t max_count = 0;
    uint8_t max_len = 0;
    for (auto [len, count] : by_len) {
        if (len > 8 && count > max_count) {
            max_count = count;
            max_len = len;
        }
    }
    EXPECT_EQ(max_len, 24);
    EXPECT_GT(max_count, 4096u * 4 / 10);
}

TEST(TableGen, Deterministic)
{
    auto a = generateCoreTable(100, 7);
    auto b = generateCoreTable(100, 7);
    EXPECT_EQ(a, b);
    auto c = generateCoreTable(100, 8);
    EXPECT_NE(a, c);
}

TEST(TableGen, SmallTableShape)
{
    auto table = generateSmallTable(160, 3);
    EXPECT_EQ(table.size(), 161u);
    for (const auto &entry : table) {
        if (entry.len != 0) {
            EXPECT_GE(entry.len, 8u);
            EXPECT_LE(entry.len, 24u);
        }
    }
}

} // namespace
