/**
 * @file
 * Synthetic routing-table generation.
 */

#include "prefix.hh"

#include <numeric>

#include "common/bitops.hh"
#include "common/hash.hh"
#include "common/rng.hh"

namespace pb::route
{

namespace
{

/**
 * Set of (prefix, len) pairs, open-addressed with linear probing in
 * one flat array: no node per member.  Sized once for at most
 * @p capacity members, at most two-thirds full, so it never grows.
 */
class PrefixSet
{
  public:
    explicit PrefixSet(size_t capacity)
    {
        size_t slots = 16;
        while (slots < capacity + capacity / 2)
            slots *= 2;
        keys.assign(slots, empty);
        mask = slots - 1;
    }

    /** Add (@p prefix, @p len); false if it is already a member. */
    bool
    insert(uint32_t prefix, uint8_t len)
    {
        const uint64_t key = uint64_t{prefix} << 8 | len;
        for (size_t at = mix32(prefix, len) & mask;; at = (at + 1) & mask) {
            if (keys[at] == key)
                return false;
            if (keys[at] == empty) {
                keys[at] = key;
                return true;
            }
        }
    }

  private:
    /** No member has a length byte of 0xff. */
    static constexpr uint64_t empty = ~uint64_t{0};
    std::vector<uint64_t> keys;
    size_t mask;
};

/**
 * BGP-like prefix length distribution: strongly peaked at /24, with
 * mass at /16 and /19-/22, a little at /8 and /28+.
 */
uint8_t
sampleLen(Rng &rng)
{
    static const std::vector<double> weights = {
        // len:  8    9   10   11   12   13   14   15   16
        0.5, 0.2, 0.3, 0.4, 0.8, 1.0, 1.2, 1.5, 8.0,
        // len: 17   18   19   20   21   22   23   24
        2.0, 3.0, 6.0, 5.0, 4.5, 5.5, 4.0, 55.0,
        // len: 25   26   27   28   29   30
        0.5, 0.4, 0.3, 0.3, 0.2, 0.1,
    };
    static const double total =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    return static_cast<uint8_t>(8 + rng.weighted(weights, total));
}

std::vector<RouteEntry>
generate(uint32_t n, uint32_t seed, uint8_t min_len, uint8_t max_len,
         bool all_slash8)
{
    Rng rng(seed ^ 0x0a11e57u);
    const size_t size = 1 + (all_slash8 ? 256 : 0) + size_t{n};
    std::vector<RouteEntry> table;
    table.reserve(size);
    PrefixSet seen(size);

    auto add = [&](uint32_t prefix, uint8_t len) -> bool {
        prefix &= pb::prefixMask(len);
        if (!seen.insert(prefix, len))
            return false;
        table.push_back(
            {prefix, len, 1 + rng.below(numInterfaces)});
        return true;
    };

    // Default route so every address resolves.
    add(0, 0);
    if (all_slash8) {
        for (uint32_t top = 0; top < 256; top++)
            add(top << 24, 8);
    }

    uint32_t added = 0;
    while (added < n) {
        uint8_t len = sampleLen(rng);
        if (len < min_len)
            len = min_len;
        if (len > max_len)
            len = max_len;
        if (add(rng.next(), len))
            added++;
    }
    return table;
}

} // namespace

std::vector<RouteEntry>
generateCoreTable(uint32_t n, uint32_t seed)
{
    return generate(n, seed, 8, 30, true);
}

std::vector<RouteEntry>
generateSmallTable(uint32_t n, uint32_t seed)
{
    return generate(n, seed, 8, 24, false);
}

} // namespace pb::route
