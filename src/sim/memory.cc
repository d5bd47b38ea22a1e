/**
 * @file
 * Simulated memory implementation: backing storage, bulk accessors,
 * and the cold error paths of the O(1) resolver (the hot resolve
 * itself is inline in memory.hh).
 */

#include "memory.hh"

#include <cstring>

#include "common/logging.hh"

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

// Region sizes are multiples of the 64 KiB lookup page, so for any
// host page size up to that each region ends where its guard begins.
static_assert(layout::textSize % (1u << layout::pageShift) == 0 &&
              layout::dataSize % (1u << layout::pageShift) == 0 &&
              layout::packetSize % (1u << layout::pageShift) == 0 &&
              layout::stackSize % (1u << layout::pageShift) == 0);
static_assert(layout::numRegions == 4);

Memory::Memory()
    : pages({layout::textSize, layout::dataSize, layout::packetSize,
             layout::stackSize})
{
    for (unsigned r = 0; r < layout::numRegions; r++)
        store[r] = static_cast<uint8_t *>(pages.span(r));
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
Memory::writeWords(uint32_t addr, std::span<const uint32_t> words)
{
    if (words.empty())
        return;
    if (!isAligned(addr, 4))
        throwMisaligned("32-bit write", addr);
    if (words.size() > UINT32_MAX / 4)
        throwUnmapped(addr, UINT32_MAX);
    const auto len = static_cast<uint32_t>(words.size() * 4);
    uint8_t *dst = writable(addr, len).ptr;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(dst, words.data(), len);
    } else {
        for (uint32_t word : words) {
            storeWord(dst, word);
            dst += 4;
        }
    }
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
    pages.zero();
}

} // namespace pb::sim
