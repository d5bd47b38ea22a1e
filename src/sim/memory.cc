/**
 * @file
 * Simulated memory implementation: backing storage, bulk accessors,
 * and the cold error paths of the O(1) resolver (the hot resolve
 * itself is inline in memory.hh).
 */

#include "memory.hh"

#include <algorithm>
#include <cstring>

namespace pb::sim
{

std::string_view
memRegionName(MemRegion region)
{
    switch (region) {
      case MemRegion::Text:
        return "text";
      case MemRegion::Data:
        return "data";
      case MemRegion::Packet:
        return "packet";
      case MemRegion::Stack:
        return "stack";
      case MemRegion::Unmapped:
        return "unmapped";
    }
    return "unmapped";
}

Memory::Memory()
{
    for (unsigned r = 0; r < layout::numRegions; r++) {
        store[r].assign(layout::regionSize[r], 0);
        dirtyLo[r] = layout::regionSize[r];
        dirtyHi[r] = 0;
    }
}

void
Memory::throwUnmapped(uint32_t addr, uint32_t len)
{
    throw MemoryError(
        strprintf("access to unmapped address 0x%x (%u bytes)", addr,
                  len));
}

void
Memory::throwCrossesEnd(uint32_t addr, uint32_t len, MemRegion region)
{
    throw MemoryError(strprintf(
        "access [0x%x, +%u) crosses the end of the %s region", addr,
        len, std::string(memRegionName(region)).c_str()));
}

void
Memory::throwMisaligned(const char *what, uint32_t addr)
{
    throw AlignmentError(
        strprintf("misaligned %s at 0x%x", what, addr));
}

void
Memory::writeBlock(uint32_t addr, const uint8_t *data, uint32_t len)
{
    if (len == 0)
        return;
    std::memcpy(writable(addr, len).ptr, data, len);
}

void
Memory::readBlock(uint32_t addr, uint8_t *data, uint32_t len) const
{
    if (len == 0)
        return;
    std::memcpy(data, readable(addr, len).ptr, len);
}

void
Memory::fill(uint32_t addr, uint32_t len, uint8_t value)
{
    if (len == 0)
        return;
    std::memset(writable(addr, len).ptr, value, len);
}

void
Memory::reset()
{
    // Re-zero only what was written since the last reset.
    for (unsigned r = 0; r < layout::numRegions; r++) {
        if (dirtyLo[r] < dirtyHi[r])
            std::memset(store[r].data() + dirtyLo[r], 0,
                        dirtyHi[r] - dirtyLo[r]);
        dirtyLo[r] = layout::regionSize[r];
        dirtyHi[r] = 0;
    }
}

} // namespace pb::sim
