/**
 * @file
 * Binary radix trie implementation.
 */

#include "radix.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace pb::route
{

using namespace radixlayout;

RadixTable::RadixTable(const std::vector<RouteEntry> &entries,
                       uint32_t base_addr)
    : base(base_addr)
{
    if (!isAligned(base, 4))
        fatal("radix: image base 0x%x is not word-aligned", base);
    // Node addresses stay below 2^32, so no link wraps to 0 (none).
    auto fits = [&](size_t nodes) {
        return uint64_t{base} + nodes * uint64_t{nodeSize} <= 1ull << 32;
    };

    // Each entry adds at most one node per prefix bit.  Reserving
    // that bound once means the build never reallocates, and only the
    // pages it fills become resident; value-initializing the bound
    // would zero-fill about 11 MB for the default table.
    size_t bound = 1;
    for (const auto &entry : entries) {
        if (entry.len > 32)
            fatal("radix: prefix length %u out of range", entry.len);
        if ((entry.prefix & ~prefixMask(entry.len)) != 0)
            fatal("radix: prefix has bits below its mask");
        bound += entry.len;
    }
    if (!fits(1))
        fatal("radix: image does not fit above 0x%x", base);
    words.reserve(bound * nodeWords);
    words.resize(nodeWords); // the root

    for (const auto &entry : entries) {
        size_t at = 0; // word index of the current node
        for (unsigned depth = 0; depth < entry.len; depth++) {
            size_t link =
                at + (bit(entry.prefix, 31 - depth) ? offRight : offLeft) / 4;
            if (words[link] == 0) {
                if (!fits(numNodes() + 1))
                    fatal("radix: image does not fit above 0x%x", base);
                words[link] = base + static_cast<uint32_t>(words.size()) * 4;
                words.resize(words.size() + nodeWords);
            }
            at = (words[link] - base) / 4;
        }
        words[at + offValid / 4] = 1;
        words[at + offNextHop / 4] = entry.nextHop;
    }
}

uint32_t
RadixTable::lookup(uint32_t addr) const
{
    uint32_t best = noRoute;
    const uint32_t *node = words.data(); // the root
    for (unsigned depth = 0;; depth++) {
        if (node[offValid / 4])
            best = node[offNextHop / 4];
        if (depth >= 32)
            break;
        uint32_t child =
            node[(bit(addr, 31 - depth) ? offRight : offLeft) / 4];
        if (child == 0)
            break;
        node = words.data() + (child - base) / 4;
    }
    return best;
}

} // namespace pb::route
