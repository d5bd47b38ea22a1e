/**
 * @file
 * Longest-prefix-match tests: known cases for each structure, then
 * the three-way differential property (linear scan vs radix trie vs
 * LC-trie must agree on every lookup).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bitops.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "route/lctrie.hh"
#include "route/linear.hh"
#include "route/prefix.hh"
#include "route/radix.hh"

namespace
{

using namespace pb;
using namespace pb::route;

std::vector<RouteEntry>
handTable()
{
    auto p = [](const char *s) { return *parseIpv4(s); };
    return {
        {p("0.0.0.0"), 0, 100},
        {p("10.0.0.0"), 8, 1},
        {p("10.1.0.0"), 16, 2},
        {p("10.1.2.0"), 24, 3},
        {p("10.1.2.128"), 25, 4},
        {p("192.168.0.0"), 16, 5},
        {p("192.168.64.0"), 18, 6},
        {p("128.0.0.0"), 1, 7},
    };
}

struct Expectation
{
    const char *addr;
    uint32_t hop;
};

const Expectation expectations[] = {
    {"10.1.2.200", 4},  // /25 wins
    {"10.1.2.5", 3},    // /24
    {"10.1.9.9", 2},    // /16
    {"10.9.9.9", 1},    // /8
    {"11.0.0.1", 100},  // default only
    {"192.168.70.1", 6},
    {"192.168.1.1", 5},
    {"200.1.1.1", 7},   // 128/1
    {"1.2.3.4", 100},
};

TEST(Lpm, LinearKnownCases)
{
    LinearLpm lpm(handTable());
    for (const auto &e : expectations)
        EXPECT_EQ(lpm.lookup(*parseIpv4(e.addr)), e.hop) << e.addr;
}

TEST(Lpm, RadixKnownCases)
{
    RadixTable radix(handTable());
    for (const auto &e : expectations)
        EXPECT_EQ(radix.lookup(*parseIpv4(e.addr)), e.hop) << e.addr;
}

TEST(Lpm, LcTrieKnownCases)
{
    LcTrie trie(handTable());
    for (const auto &e : expectations)
        EXPECT_EQ(trie.lookup(*parseIpv4(e.addr)), e.hop) << e.addr;
}

TEST(Lpm, NoDefaultRouteMeansNoRoute)
{
    std::vector<RouteEntry> table = {{0x0a000000, 8, 1}};
    LinearLpm linear(table);
    RadixTable radix(table);
    LcTrie trie(table);
    EXPECT_EQ(linear.lookup(0x0b000000), noRoute);
    EXPECT_EQ(radix.lookup(0x0b000000), noRoute);
    EXPECT_EQ(trie.lookup(0x0b000000), noRoute);
    EXPECT_EQ(trie.lookup(0x0a123456), 1u);
}

TEST(Lpm, HostRouteSlash32)
{
    std::vector<RouteEntry> table = {
        {0, 0, 9}, {0xc0a80101, 32, 1}, {0xc0a80100, 24, 2}};
    RadixTable radix(table);
    LcTrie trie(table);
    EXPECT_EQ(radix.lookup(0xc0a80101), 1u);
    EXPECT_EQ(trie.lookup(0xc0a80101), 1u);
    EXPECT_EQ(radix.lookup(0xc0a80102), 2u);
    EXPECT_EQ(trie.lookup(0xc0a80102), 2u);
}

/**
 * Three-way differential over generated tables and mixed address
 * patterns: uniform random plus addresses biased to sit near table
 * prefixes (to exercise deep matches, not just the default route).
 */
class LpmDifferential : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(LpmDifferential, AllThreeStructuresAgree)
{
    uint32_t seed = GetParam();
    auto entries = generateCoreTable(seed % 2 ? 2000 : 300, seed);
    LinearLpm linear(entries);
    RadixTable radix(entries);
    LcTrie trie(entries);

    Rng rng(seed * 31 + 5);
    for (int i = 0; i < 4000; i++) {
        uint32_t addr;
        if (i % 3 == 0) {
            addr = rng.next();
        } else {
            // Perturb a random table prefix so lookups land near and
            // inside real prefixes.
            const auto &entry = entries[rng.below(
                static_cast<uint32_t>(entries.size()))];
            addr = entry.prefix | (rng.next() & ~prefixMask(entry.len));
            if (i % 7 == 0)
                addr ^= 1u << rng.below(32);
        }
        uint32_t want = linear.lookup(addr);
        EXPECT_EQ(radix.lookup(addr), want)
            << "radix mismatch for " << formatIpv4(addr);
        EXPECT_EQ(trie.lookup(addr), want)
            << "lctrie mismatch for " << formatIpv4(addr);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Lpm, RadixPackedImageIsConsistent)
{
    auto entries = generateSmallTable(50, 2);
    RadixTable radix(entries, 0x00200000);
    auto words = radix.image();
    EXPECT_EQ(words.size(), radix.numNodes() * 4);
    // Walk the packed image for a few addresses and compare with the
    // host lookup (interpreting the image the way the NPE32 program
    // will).
    using namespace radixlayout;
    auto image_lookup = [&](uint32_t addr) -> uint32_t {
        uint32_t best = noRoute;
        uint32_t node = 0x00200000;
        unsigned depth = 0;
        while (node != 0) {
            size_t w = (node - 0x00200000) / 4;
            if (words[w + offValid / 4])
                best = words[w + offNextHop / 4];
            if (depth >= 32)
                break;
            node = bit(addr, 31 - depth) ? words[w + offRight / 4]
                                         : words[w + offLeft / 4];
            depth++;
        }
        return best;
    };
    Rng rng(77);
    for (int i = 0; i < 1000; i++) {
        uint32_t addr = rng.next();
        EXPECT_EQ(image_lookup(addr), radix.lookup(addr));
    }
}

/**
 * The radix construction RadixTable replaced, kept as its oracle: an
 * index arena of nodes, then a second pass packing it into the
 * simulated layout with absolute child addresses.
 */
std::vector<uint32_t>
arenaRadixImage(const std::vector<RouteEntry> &entries, uint32_t base)
{
    struct Node
    {
        int32_t left = -1;
        int32_t right = -1;
        bool hasRoute = false;
        uint32_t nextHop = 0;
    };
    std::vector<Node> nodes(1);
    for (const auto &entry : entries) {
        int32_t at = 0;
        for (unsigned depth = 0; depth < entry.len; depth++) {
            bool right = bit(entry.prefix, 31 - depth) != 0;
            int32_t child = right ? nodes[at].right : nodes[at].left;
            if (child < 0) {
                child = static_cast<int32_t>(nodes.size());
                (right ? nodes[at].right : nodes[at].left) = child;
                nodes.push_back(Node{});
            }
            at = child;
        }
        nodes[at].hasRoute = true;
        nodes[at].nextHop = entry.nextHop;
    }

    using namespace radixlayout;
    std::vector<uint32_t> words(nodes.size() * (nodeSize / 4), 0);
    auto addr_of = [&](int32_t idx) -> uint32_t {
        return idx < 0 ? 0
                       : base + static_cast<uint32_t>(idx) * nodeSize;
    };
    for (size_t i = 0; i < nodes.size(); i++) {
        size_t w = i * (nodeSize / 4);
        words[w + offLeft / 4] = addr_of(nodes[i].left);
        words[w + offRight / 4] = addr_of(nodes[i].right);
        words[w + offValid / 4] = nodes[i].hasRoute ? 1 : 0;
        words[w + offNextHop / 4] = nodes[i].nextHop;
    }
    return words;
}

/**
 * Random tables with a default route, /32 host routes and repeated
 * prefixes (a later entry replaces an earlier next hop): the image is
 * word-for-word the arena construction's, at two bases.
 */
TEST(Lpm, RadixImageMatchesNodeArena)
{
    for (uint32_t seed : {1u, 2u, 3u, 4u}) {
        Rng rng(seed);
        std::vector<RouteEntry> entries = {{0, 0, 1}};
        for (int i = 0; i < 600; i++) {
            if (i % 5 == 4) {
                // Repeat an earlier prefix with a new next hop.
                RouteEntry again = entries[rng.below(
                    static_cast<uint32_t>(entries.size()))];
                again.nextHop = rng.next();
                entries.push_back(again);
                continue;
            }
            uint8_t len = i % 7 == 0 ? 32
                                     : static_cast<uint8_t>(rng.below(33));
            entries.push_back(
                {rng.next() & prefixMask(len), len, rng.next()});
        }
        for (uint32_t base : {0u, 0x00100000u}) {
            RadixTable radix(entries, base);
            auto want = arenaRadixImage(entries, base);
            ASSERT_EQ(radix.numNodes(), want.size() / 4)
                << "seed " << seed << " base " << base;
            EXPECT_TRUE(std::equal(want.begin(), want.end(),
                                   radix.image().begin()))
                << "seed " << seed << " base " << base;
        }
    }
}

TEST(Lpm, LcTriePackedImageIsConsistent)
{
    auto entries = generateSmallTable(80, 4);
    LcTrie trie(entries);
    uint32_t leaf_base = 0;
    const uint32_t base = 0x00300000;
    auto words = trie.packImage(base, leaf_base);
    ASSERT_GT(leaf_base, base);

    using namespace lclayout;
    auto image_lookup = [&](uint32_t addr) -> uint32_t {
        auto word_at = [&](uint32_t a) { return words[(a - base) / 4]; };
        uint32_t node = word_at(base);
        unsigned pos = nodeSkip(node);
        while (nodeBranch(node) != 0) {
            unsigned b = nodeBranch(node);
            uint32_t idx =
                nodeAdr(node) + ((addr << pos) >> (32u - b));
            node = word_at(base + idx * 4);
            pos += b + nodeSkip(node);
        }
        uint32_t leaf_addr = leaf_base + nodeAdr(node) * leafSize;
        uint32_t key = word_at(leaf_addr + leafOffKey);
        uint32_t len = word_at(leaf_addr + leafOffLen);
        uint32_t hop = word_at(leaf_addr + leafOffNextHop);
        if ((addr & prefixMask(len)) == key)
            return hop;
        return noRoute;
    };
    Rng rng(88);
    for (int i = 0; i < 1000; i++) {
        uint32_t addr = rng.next();
        EXPECT_EQ(image_lookup(addr), trie.lookup(addr));
    }
}

TEST(Lpm, LcTrieIsShallow)
{
    auto entries = generateCoreTable(4000, 11);
    LcTrie trie(entries);
    // Level compression should keep the average depth low — this is
    // the property that makes IPv4-trie ~20x cheaper than IPv4-radix.
    EXPECT_LT(trie.averageDepth(), 8.0);
}

TEST(Lpm, RadixRejectsABaseItCannotAddress)
{
    EXPECT_THROW(RadixTable({}, 0x00100002), FatalError)
        << "the image base must be word-aligned";
    // The root fits at 0xfffffff0; a child would wrap to address 0.
    EXPECT_EQ(RadixTable({{0, 0, 5}}, 0xfffffff0u).lookup(1), 5u);
    EXPECT_THROW(RadixTable({{0, 1, 5}}, 0xfffffff0u), FatalError);
}

TEST(Lpm, RejectsMalformedEntries)
{
    EXPECT_THROW(RadixTable({{0x0a000000, 40, 1}}), FatalError);
    EXPECT_THROW(RadixTable({{0x0a000001, 8, 1}}), FatalError)
        << "prefix bits below the mask must be rejected";
    EXPECT_THROW(LcTrie({{0x0a000000, 40, 1}}), FatalError);
}

} // namespace
