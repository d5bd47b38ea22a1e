/**
 * @file
 * Simulated memory layout.
 *
 * PacketBench distinguishes three semantically different memory
 * regions in one flat address space — exactly the distinction the
 * paper draws between instruction memory, packet data, and program
 * (non-packet) data.  On a real network processor these map to the
 * instruction store, packet buffers / receive FIFOs, and SRAM/DRAM
 * application state respectively.
 */

#ifndef PB_SIM_MEMMAP_HH
#define PB_SIM_MEMMAP_HH

#include <cstdint>
#include <string_view>

namespace pb::sim
{

/** Semantic class of a memory address. */
enum class MemRegion : uint8_t
{
    Text,     ///< instruction memory
    Data,     ///< application state (routing tables, flow tables, ...)
    Packet,   ///< the packet currently being processed
    Stack,    ///< call stack (counts as non-packet data)
    Unmapped,
};

/** Human-readable region name. */
std::string_view memRegionName(MemRegion region);

/** True for regions the paper calls "non-packet memory". */
constexpr bool
isNonPacketData(MemRegion region)
{
    return region == MemRegion::Data || region == MemRegion::Stack;
}

/** Default memory layout (bases and sizes in bytes). */
namespace layout
{

constexpr uint32_t textBase = 0x0000'1000;
constexpr uint32_t textSize = 256 * 1024;

constexpr uint32_t dataBase = 0x0010'0000;
constexpr uint32_t dataSize = 16 * 1024 * 1024;

constexpr uint32_t packetBase = 0x0800'0000;
constexpr uint32_t packetSize = 64 * 1024;

constexpr uint32_t stackBase = 0x7fff'0000;
constexpr uint32_t stackSize = 64 * 1024;

/** Initial stack pointer (16-byte aligned, just below the top). */
constexpr uint32_t stackTop = stackBase + stackSize - 16;

/**
 * @name O(1) address resolution.
 *
 * The layout is fixed at compile time, so region lookup does not
 * need to scan a region list: a 64 KiB-page-granular table maps
 * `addr >> pageShift` to the region that intersects that page (no
 * page is shared by two regions), and a single range check against
 * the region's extent settles partially covered pages.
 * @{
 */

/** log2 of the lookup page size (64 KiB pages). */
constexpr unsigned pageShift = 16;

/** Number of lookup pages covering the 32-bit address space. */
constexpr uint32_t numPages = 1u << (32 - pageShift);

/** Number of mapped regions (MemRegion::Unmapped has no storage). */
constexpr unsigned numRegions = 4;

/** Region base address by region index (MemRegion value). */
constexpr uint32_t regionBase[numRegions] = {textBase, dataBase,
                                             packetBase, stackBase};

/** Region size by region index (MemRegion value). */
constexpr uint32_t regionSize[numRegions] = {textSize, dataSize,
                                             packetSize, stackSize};

namespace detail
{

struct PageTable
{
    uint8_t page[numPages];
};

constexpr PageTable
buildPageTable()
{
    PageTable t{};
    for (uint32_t i = 0; i < numPages; i++)
        t.page[i] = numRegions; // unmapped
    for (unsigned r = 0; r < numRegions; r++) {
        uint64_t first = regionBase[r] >> pageShift;
        uint64_t last =
            (static_cast<uint64_t>(regionBase[r]) + regionSize[r] - 1) >>
            pageShift;
        for (uint64_t p = first; p <= last; p++)
            t.page[p] = static_cast<uint8_t>(r);
    }
    return t;
}

inline constexpr PageTable pageTable = buildPageTable();

/** No two regions intersect one lookup page. */
constexpr bool
pagesDisjoint()
{
    auto first = [](unsigned r) { return regionBase[r] >> pageShift; };
    auto last = [](unsigned r) {
        return static_cast<uint32_t>(
            (static_cast<uint64_t>(regionBase[r]) + regionSize[r] - 1) >>
            pageShift);
    };
    for (unsigned a = 0; a < numRegions; a++) {
        for (unsigned b = a + 1; b < numRegions; b++) {
            if (first(a) <= last(b) && first(b) <= last(a))
                return false;
        }
    }
    return true;
}

/** Every region base and size is a multiple of 4. */
constexpr bool
wordGranular()
{
    for (unsigned r = 0; r < numRegions; r++) {
        if (regionBase[r] % 4 != 0 || regionSize[r] % 4 != 0)
            return false;
    }
    return true;
}

} // namespace detail

// The page table's one-region-per-page entries, and Memory's
// predicted-region accessors, rest on these: an aligned access inside
// a region's extent is one the page-table resolve maps to it.
static_assert(detail::pagesDisjoint() && detail::wordGranular());

/**
 * Index of the region intersecting @p addr's page, or numRegions
 * when the page is unmapped.  Callers must still range-check against
 * regionBase/regionSize: the first and last page of a region can be
 * partially covered (the text region is not page-aligned).
 */
constexpr unsigned
pageRegionIndex(uint32_t addr)
{
    return detail::pageTable.page[addr >> pageShift];
}

/** @} */

} // namespace layout

/**
 * Classify an address against the fixed layout.  O(1): one table
 * load plus one range check.
 */
constexpr MemRegion
classifyAddr(uint32_t addr)
{
    unsigned idx = layout::pageRegionIndex(addr);
    if (idx >= layout::numRegions ||
        addr - layout::regionBase[idx] >= layout::regionSize[idx])
        return MemRegion::Unmapped;
    return static_cast<MemRegion>(idx);
}

static_assert(classifyAddr(layout::textBase) == MemRegion::Text);
static_assert(classifyAddr(layout::textBase - 1) == MemRegion::Unmapped);
static_assert(classifyAddr(layout::textBase + layout::textSize) ==
              MemRegion::Unmapped);
static_assert(classifyAddr(layout::dataBase + layout::dataSize - 1) ==
              MemRegion::Data);
static_assert(classifyAddr(layout::packetBase) == MemRegion::Packet);
static_assert(classifyAddr(layout::stackTop) == MemRegion::Stack);
static_assert(classifyAddr(0) == MemRegion::Unmapped);
static_assert(classifyAddr(0xffff'ffff) == MemRegion::Unmapped);

} // namespace pb::sim

#endif // PB_SIM_MEMMAP_HH
