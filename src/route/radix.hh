/**
 * @file
 * Binary radix trie for longest-prefix match (the IPv4-radix
 * workload's data structure).
 *
 * This mirrors the paper's use of the BSD radix code in its
 * "straightforward, not particularly optimized" role: a one-bit-at-
 * a-time radix trie descent, one node per tested bit, with the
 * longest matching route remembered along the way.  (The BSD tree's
 * path compression is deliberately absent — the paper contrasts this
 * implementation against the compressed LC-trie, and the per-packet
 * cost of the radix workload comes from walking one node per bit.)
 *
 * There is one representation: the trie is built directly as the
 * packed image that simulated memory holds, for a base address given
 * at construction, and the host lookup walks that same image.  So
 * the host lookup is a bit-exact reference for the NPE32 application
 * and the image needs no second copy to be stored.
 *
 * Simulated node layout (16 bytes, word-aligned):
 *   +0  left child address  (0 = none)
 *   +4  right child address (0 = none)
 *   +8  route valid flag    (0 / 1)
 *   +12 next hop
 * Child addresses are absolute: base + 16 * node index.  The root
 * (node 0, at the base) is nobody's child, so 0 never names a child
 * even for base 0.
 */

#ifndef PB_ROUTE_RADIX_HH
#define PB_ROUTE_RADIX_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "route/prefix.hh"

namespace pb::route
{

/** Byte offsets of the packed radix node fields. */
namespace radixlayout
{

constexpr uint32_t offLeft = 0;
constexpr uint32_t offRight = 4;
constexpr uint32_t offValid = 8;
constexpr uint32_t offNextHop = 12;
constexpr uint32_t nodeSize = 16;
constexpr uint32_t nodeWords = nodeSize / 4;

} // namespace radixlayout

/** Binary radix trie, built and looked up as its simulated image. */
class RadixTable
{
  public:
    /**
     * Build the trie from @p entries as the image for @p base_addr
     * (4-byte aligned; the root node sits there).  A later entry for
     * the same prefix replaces an earlier one's next hop.
     */
    explicit RadixTable(const std::vector<RouteEntry> &entries,
                        uint32_t base_addr = 0);

    /** Longest-prefix match; noRoute if nothing matches. */
    uint32_t lookup(uint32_t addr) const;

    /** Number of trie nodes. */
    size_t numNodes() const { return words.size() / radixlayout::nodeWords; }

    /** The packed image: numNodes() nodes of nodeSize bytes. */
    std::span<const uint32_t> image() const { return words; }

  private:
    uint32_t base;
    std::vector<uint32_t> words;
};

} // namespace pb::route

#endif // PB_ROUTE_RADIX_HH
