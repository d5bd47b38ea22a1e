/**
 * @file
 * Simulated memory implementation: backing storage, bulk accessors,
 * and the cold error paths of the O(1) resolver (the hot resolve
 * itself is inline in memory.hh).
 */

#include "memory.hh"

#include <cerrno>
#include <cstring>
#include <new>

#include <sys/mman.h>

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

namespace
{

/**
 * Inaccessible bytes after each region.  Region sizes are multiples
 * of the 64 KiB lookup page, so every region and guard starts on a
 * host page boundary for any host page size up to that.
 */
constexpr size_t guardBytes = size_t{1} << layout::pageShift;
static_assert(layout::textSize % guardBytes == 0 &&
              layout::dataSize % guardBytes == 0 &&
              layout::packetSize % guardBytes == 0 &&
              layout::stackSize % guardBytes == 0);

/** Every region and its guard, in MemRegion order. */
constexpr size_t mappingBytes = size_t{layout::textSize} +
                                layout::dataSize + layout::packetSize +
                                layout::stackSize +
                                layout::numRegions * guardBytes;

} // namespace

Memory::Memory()
{
    // Reserved but not committed: untouched pages read as zero and
    // cost nothing, however many engines a run builds.
    void *mapping =
        mmap(nullptr, mappingBytes, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mapping == MAP_FAILED)
        throw std::bad_alloc();
    uint8_t *next = static_cast<uint8_t *>(mapping);
    for (unsigned r = 0; r < layout::numRegions; r++) {
        store[r] = next;
        next += layout::regionSize[r];
        if (mprotect(next, guardBytes, PROT_NONE) != 0) {
            munmap(mapping, mappingBytes);
            throw std::bad_alloc();
        }
        next += guardBytes;
    }
}

Memory::~Memory()
{
    munmap(store[0], mappingBytes);
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
    // A private anonymous mapping refills dropped pages with zeroes.
    if (madvise(store[0], mappingBytes, MADV_DONTNEED) != 0)
        panic("Memory::reset: madvise failed: %s", std::strerror(errno));
}

} // namespace pb::sim
