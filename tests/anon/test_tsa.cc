/**
 * @file
 * Anonymization tests: the prefix-preservation property for both TSA
 * and the Crypto-PAn-style baseline, determinism, and table shapes.
 */

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "anon/tsa.hh"
#include "common/bitops.hh"
#include "common/hash.hh"
#include "common/rng.hh"

namespace
{

using namespace pb;
using namespace pb::anon;

/**
 * Property: anonymization preserves prefixes *exactly* — the
 * anonymized forms share precisely as many leading bits as the
 * originals.
 */
template <typename Fn>
void
checkPrefixPreserving(Fn &&anonymize, uint32_t seed)
{
    Rng rng(seed);
    for (int i = 0; i < 20'000; i++) {
        uint32_t a = rng.next();
        // Construct b sharing exactly k bits with a.
        unsigned k = rng.below(33);
        uint32_t b;
        if (k == 32) {
            b = a;
        } else {
            b = (a & prefixMask(k)) ^ (1u << (31 - k));
            b |= rng.next() & ~prefixMask(k + 1);
        }
        unsigned want = commonPrefixLen(a, b);
        unsigned got = commonPrefixLen(anonymize(a), anonymize(b));
        ASSERT_EQ(got, want)
            << std::hex << "a=" << a << " b=" << b;
    }
}

class TsaKeySweep : public ::testing::TestWithParam<uint32_t>
{};

TEST_P(TsaKeySweep, PrefixPreserving)
{
    TsaAnonymizer tsa(GetParam());
    checkPrefixPreserving([&](uint32_t x) { return tsa.anonymize(x); },
                          GetParam() + 1);
}

TEST_P(TsaKeySweep, CryptoPanPrefixPreserving)
{
    CryptoPanPp pan(GetParam());
    checkPrefixPreserving([&](uint32_t x) { return pan.anonymize(x); },
                          GetParam() + 2);
}

INSTANTIATE_TEST_SUITE_P(Keys, TsaKeySweep,
                         ::testing::Values(0u, 1u, 0xbeefu,
                                           0xffffffffu));

TEST(Tsa, BijectiveOnSample)
{
    // Prefix preservation at k=32 already implies injectivity, but
    // check a dense range explicitly.
    TsaAnonymizer tsa(7);
    std::unordered_set<uint32_t> seen;
    for (uint32_t i = 0; i < 100'000; i++)
        ASSERT_TRUE(seen.insert(tsa.anonymize(0x0a000000 + i)).second);
}

TEST(Tsa, DeterministicPerKey)
{
    TsaAnonymizer a(123);
    TsaAnonymizer b(123);
    TsaAnonymizer c(124);
    int same = 0;
    for (uint32_t i = 0; i < 1000; i++) {
        uint32_t addr = mix32(i);
        EXPECT_EQ(a.anonymize(addr), b.anonymize(addr));
        if (a.anonymize(addr) == c.anonymize(addr))
            same++;
    }
    EXPECT_LE(same, 2);
}

TEST(Tsa, ActuallyAnonymizes)
{
    // Identity would be "prefix preserving" too; make sure a large
    // fraction of addresses change.
    TsaAnonymizer tsa(99);
    int unchanged = 0;
    for (uint32_t i = 0; i < 1000; i++) {
        uint32_t addr = mix32(i * 7 + 1);
        if (tsa.anonymize(addr) == addr)
            unchanged++;
    }
    EXPECT_LE(unchanged, 2);
}

/**
 * The table construction TsaAnonymizer replaced, kept as its oracle:
 * every top entry runs all 16 per-bit PRF calls over its own path,
 * and every subtree bit is visited per (level, path) pair.
 */
void
perEntryTables(uint32_t key, std::vector<uint16_t> &top,
               std::vector<uint8_t> &tree)
{
    using namespace tsalayout;
    top.assign(topEntries, 0);
    for (uint32_t t = 0; t < topEntries; t++) {
        uint32_t anon = 0;
        uint32_t path = 0;
        for (unsigned i = 0; i < 16; i++) {
            uint32_t orig_bit = (t >> (15 - i)) & 1;
            uint32_t flip =
                prf32(key ^ 0x70700000u, ((1u << i) - 1) + path) & 1;
            anon = (anon << 1) | (orig_bit ^ flip);
            path = (path << 1) | orig_bit;
        }
        top[t] = static_cast<uint16_t>(anon);
    }
    tree.assign(subtreeBytes, 0);
    for (unsigned level = 0; level < 16; level++) {
        for (uint32_t path = 0; path < (1u << level); path++) {
            uint32_t index = ((1u << level) - 1) + path;
            if (prf32(key ^ 0xb0770000u, index) & 1)
                tree[index >> 3] |= static_cast<uint8_t>(1u << (index & 7));
        }
    }
}

TEST(Tsa, TablesMatchPerEntryConstruction)
{
    for (uint32_t key : {0u, 0x5eed1234u, 0xffffffffu}) {
        TsaAnonymizer tsa(key);
        std::vector<uint16_t> top;
        std::vector<uint8_t> tree;
        perEntryTables(key, top, tree);
        EXPECT_TRUE(tsa.topTable() == top) << "key " << key;
        EXPECT_TRUE(tsa.subtree() == tree) << "key " << key;
    }
}

TEST(Tsa, TableShapesMatchDesign)
{
    TsaAnonymizer tsa(1);
    EXPECT_EQ(tsa.topTable().size(), tsalayout::topEntries);
    EXPECT_EQ(tsa.subtree().size(), tsalayout::subtreeBytes);
    EXPECT_EQ(tsalayout::subtreeBytes, 8192u);
}

TEST(Tsa, SubtreeFlipsAreBalanced)
{
    // About half the flip bits should be set.
    TsaAnonymizer tsa(5);
    uint64_t ones = 0;
    for (uint8_t byte : tsa.subtree())
        ones += popCount(byte);
    double frac =
        static_cast<double>(ones) / tsalayout::subtreeBits;
    EXPECT_NEAR(frac, 0.5, 0.02);
}

TEST(Tsa, TopTableIsPrefixPreservingPermutation)
{
    TsaAnonymizer tsa(3);
    const auto &top = tsa.topTable();
    std::unordered_set<uint16_t> seen;
    for (uint32_t t = 0; t < tsalayout::topEntries; t++)
        ASSERT_TRUE(seen.insert(top[t]).second) << t;
    // Spot-check 16-bit prefix preservation within the table.
    Rng rng(9);
    for (int i = 0; i < 5000; i++) {
        uint16_t a = static_cast<uint16_t>(rng.below(65536));
        uint16_t b = static_cast<uint16_t>(rng.below(65536));
        unsigned want = commonPrefixLen(static_cast<uint32_t>(a) << 16,
                                        static_cast<uint32_t>(b) << 16);
        unsigned got = commonPrefixLen(
            static_cast<uint32_t>(top[a]) << 16,
            static_cast<uint32_t>(top[b]) << 16);
        if (want > 16)
            want = got = 16; // equal tops
        ASSERT_EQ(got >= 16 ? 16 : got, want);
    }
}

TEST(Tsa, MatchesSubtreeBitAccessor)
{
    // anonymize() must agree with the packed-table accessor the
    // NPE32 application uses.
    TsaAnonymizer tsa(17);
    Rng rng(4);
    for (int i = 0; i < 2000; i++) {
        uint32_t addr = rng.next();
        uint32_t anon_top = tsa.topTable()[addr >> 16];
        uint32_t bottom = addr & 0xffff;
        uint32_t anon_bottom = 0;
        uint32_t path = 0;
        for (unsigned level = 0; level < 16; level++) {
            uint32_t orig = (bottom >> (15 - level)) & 1;
            uint32_t flip = tsa.subtreeBit(level, path) ? 1 : 0;
            anon_bottom = (anon_bottom << 1) | (orig ^ flip);
            path = (path << 1) | orig;
        }
        EXPECT_EQ(tsa.anonymize(addr),
                  (anon_top << 16) | anon_bottom);
    }
}

TEST(Tsa, SharedSubtreeAcrossTops)
{
    // The "replicated subtree" design: two addresses with different
    // tops but identical bottoms anonymize their bottoms identically.
    TsaAnonymizer tsa(21);
    uint32_t a = (0x1234u << 16) | 0xabcd;
    uint32_t b = (0x9999u << 16) | 0xabcd;
    EXPECT_EQ(tsa.anonymize(a) & 0xffff, tsa.anonymize(b) & 0xffff);
}

} // namespace
