/**
 * @file
 * TSA and full prefix-preserving anonymizer implementations.
 */

#include "tsa.hh"

#include "common/hash.hh"

namespace pb::anon
{

using namespace tsalayout;

TsaAnonymizer::TsaAnonymizer(uint32_t key)
{
    // Top table: the Xu et al. per-bit construction over the 16-bit
    // top half, exhaustively precomputed.  The flip for bit i depends
    // only on the preceding i bits (the path), so the table is
    // prefix-preserving by construction, and each (level, path) flip
    // is one PRF call shared by every entry below that path.  Level
    // by level, top[path] holds the anonymized form of the level-bit
    // prefix `path`; each is extended by one bit in place, from the
    // highest path down so no prefix is overwritten before it is read.
    top.assign(topEntries, 0);
    for (unsigned level = 0; level < 16; level++) {
        for (uint32_t path = 1u << level; path-- > 0;) {
            uint32_t flip =
                prf32(key ^ 0x70700000u, ((1u << level) - 1) + path) & 1;
            uint32_t anon = static_cast<uint32_t>(top[path]) << 1;
            top[2 * path] = static_cast<uint16_t>(anon | flip);
            top[2 * path + 1] = static_cast<uint16_t>(anon | (flip ^ 1));
        }
    }

    // Replicated subtree for the bottom half: one flip bit per
    // (level, path) pair, shared across all top prefixes; index
    // (2^level - 1) + path enumerates the pairs in order.
    tree.assign(subtreeBytes, 0);
    for (uint32_t index = 0; index < subtreeBits; index++) {
        if (prf32(key ^ 0xb0770000u, index) & 1)
            tree[index >> 3] |= static_cast<uint8_t>(1u << (index & 7));
    }
}

uint32_t
TsaAnonymizer::anonymize(uint32_t addr) const
{
    uint32_t anon_top = top[addr >> 16];
    uint32_t bottom = addr & 0xffff;
    uint32_t anon_bottom = 0;
    uint32_t path = 0;
    for (unsigned i = 0; i < 16; i++) {
        uint32_t orig_bit = (bottom >> (15 - i)) & 1;
        uint32_t flip = subtreeBit(i, path) ? 1 : 0;
        anon_bottom = (anon_bottom << 1) | (orig_bit ^ flip);
        path = (path << 1) | orig_bit;
    }
    return (anon_top << 16) | anon_bottom;
}

uint32_t
CryptoPanPp::anonymize(uint32_t addr) const
{
    uint32_t anon = 0;
    uint32_t path = 0;
    for (unsigned i = 0; i < 32; i++) {
        uint32_t orig_bit = (addr >> (31 - i)) & 1;
        // Fresh PRF per bit over (level, preceding path).
        uint32_t flip = prf32(key + i, path) & 1;
        anon = (anon << 1) | (orig_bit ^ flip);
        path = (path << 1) | orig_bit;
    }
    return anon;
}

} // namespace pb::anon
