/**
 * @file
 * Prefix-preserving IP address anonymization.
 *
 * Two schemes:
 *
 *  - TsaAnonymizer: top-hashed subtree-replicated anonymization (the
 *    paper's TSA workload, reference [26]).  The top 16 bits are
 *    anonymized by one direct-indexed table; the bottom 16 bits walk
 *    a single precomputed "replicated subtree" of per-level flip
 *    bits shared by all top prefixes.  Per-address cost: one table
 *    load plus 16 bit lookups — fast and constant.  Building the
 *    tables computes each flip bit once: 2^16 - 1 PRF calls per
 *    table, one per (level, path) pair, not one per entry and bit.
 *
 *  - CryptoPanPp: the full per-bit prefix-preserving scheme of
 *    Xu et al. (reference [27]) that TSA optimizes: every one of the
 *    32 output bits requires a fresh PRF evaluation over the
 *    preceding prefix.  Used as the ablation baseline.
 *
 * Both are prefix-preserving: if two addresses share their first k
 * bits, their anonymized forms also share exactly their first k bits
 * (property-tested).
 */

#ifndef PB_ANON_TSA_HH
#define PB_ANON_TSA_HH

#include <cstdint>
#include <vector>

namespace pb::anon
{

/** Layout constants shared with the NPE32 TSA application. */
namespace tsalayout
{

/** Top-table: 2^16 x 2-byte anonymized top halves. */
constexpr uint32_t topEntries = 1u << 16;
constexpr uint32_t topBytes = topEntries * 2;

/** Replicated subtree: (2^16 - 1) flip bits, packed 8 per byte. */
constexpr uint32_t subtreeBits = (1u << 16) - 1;
constexpr uint32_t subtreeBytes = (subtreeBits + 7) / 8;

/**
 * Record written per packet by the TSA application when collecting
 * layer 3/4 headers: 40 bytes (20 IP + 16 L4 + 4 length).
 */
constexpr uint32_t recordSize = 40;

} // namespace tsalayout

/** Top-hashed subtree-replicated anonymizer. */
class TsaAnonymizer
{
  public:
    /** Precompute the top table and subtree from @p key. */
    explicit TsaAnonymizer(uint32_t key);

    /** Anonymize one address (host reference). */
    uint32_t anonymize(uint32_t addr) const;

    /** The 2^16-entry top-half mapping (prefix-preserving). */
    const std::vector<uint16_t> &topTable() const { return top; }

    /** Packed per-level flip bits for the bottom half. */
    const std::vector<uint8_t> &subtree() const { return tree; }

    /**
     * Flip bit for bottom level @p level (0..15) given the @p path
     * of original bottom bits consumed so far.
     */
    bool
    subtreeBit(unsigned level, uint32_t path) const
    {
        uint32_t index = ((1u << level) - 1) + path;
        return (tree[index >> 3] >> (index & 7)) & 1;
    }

  private:
    std::vector<uint16_t> top;
    std::vector<uint8_t> tree;
};

/** Full per-bit prefix-preserving anonymizer (Xu et al. style). */
class CryptoPanPp
{
  public:
    explicit CryptoPanPp(uint32_t key) : key(key) {}

    /** Anonymize one address; 32 PRF evaluations. */
    uint32_t anonymize(uint32_t addr) const;

  private:
    uint32_t key;
};

} // namespace pb::anon

#endif // PB_ANON_TSA_HH
