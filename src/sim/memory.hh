/**
 * @file
 * Simulated flat memory with semantic regions.
 *
 * The same Memory object is used from two sides:
 *  - the simulated CPU performs loads/stores during application
 *    execution (these are observed and accounted), and
 *  - the host-side PacketBench framework reads/writes it directly to
 *    place packets and build application data structures (these are
 *    *not* accounted — the paper's selective accounting).
 *
 * Memory itself is passive; accounting is done by the CPU's observer.
 *
 * The regions live in one ZeroPages mapping (sim/zeropages.hh), which
 * the kernel zeroes on demand: constructing a Memory touches none of
 * its 16 MiB+, and only pages the program or the framework actually
 * use become resident.  Each region is followed by an inaccessible
 * guard page, so a host-side overrun faults instead of landing in the
 * next region.  AddressSanitizer does not instrument this mapping;
 * the bounds checks in readable() and writable() and the guards stand
 * in for it.
 *
 * Host-side images (a routing table, a lookup table, the program
 * text) land with writeWords(): one bounds check for the whole span,
 * then one memcpy on a little-endian host, instead of one write32()
 * per word.
 *
 * Address resolution is O(1): the layout is fixed (sim/memmap.hh), so
 * a page-granular table plus one range check turns an address into a
 * host pointer and region kind in a single step — no region-list
 * scan, and the CPU classifies each access exactly once (the region
 * rides along with the resolved pointer instead of being recomputed
 * for the observer).
 */

#ifndef PB_SIM_MEMORY_HH
#define PB_SIM_MEMORY_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/bitops.hh"
#include "common/byteorder.hh"
#include "sim/memmap.hh"
#include "sim/simerror.hh"
#include "sim/zeropages.hh"

namespace pb::sim
{

/** Byte-addressed simulated memory composed of disjoint regions. */
class Memory
{
  public:
    /** A resolved read-only view of [addr, addr+len). */
    struct ConstRef
    {
        const uint8_t *ptr;
        MemRegion region;
    };

    /** A resolved writable view of [addr, addr+len). */
    struct Ref
    {
        uint8_t *ptr;
        MemRegion region;
    };

    /**
     * Create zeroed memory with the default PacketBench layout.
     * @throws std::bad_alloc when the mapping cannot be made
     */
    Memory();

    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    /**
     * Classify an address.  Returns MemRegion::Unmapped for addresses
     * outside every region (the caller decides whether that is an
     * error).
     */
    MemRegion classify(uint32_t addr) const { return classifyAddr(addr); }

    /**
     * Resolve [addr, addr+len) for reading: one page-table load, one
     * range check.  @throws MemoryError when the range is unmapped or
     * crosses the end of its region.
     */
    ConstRef
    readable(uint32_t addr, uint32_t len) const
    {
        Ref ref = resolve(addr, len);
        return {ref.ptr, ref.region};
    }

    /** Resolve [addr, addr+len) for writing; same checks as readable(). */
    Ref writable(uint32_t addr, uint32_t len) { return resolve(addr, len); }

    /**
     * @name Simulated-width accessors.
     * All check mapping; 16/32-bit accesses additionally check
     * alignment.  Multi-byte values use little-endian byte order (the
     * NPE32 core is little-endian, like the ARM target the paper
     * used; network-order fields are handled explicitly by
     * application code, as on the real hardware).  The overloads with
     * a MemRegion out-parameter report which region was hit, so
     * callers that also classify (the CPU's observer path) resolve
     * the address exactly once.
     * @{
     */
    uint8_t
    read8(uint32_t addr, MemRegion &region) const
    {
        ConstRef ref = readable(addr, 1);
        region = ref.region;
        return *ref.ptr;
    }

    uint16_t
    read16(uint32_t addr, MemRegion &region) const
    {
        if (!isAligned(addr, 2)) [[unlikely]]
            throwMisaligned("16-bit read", addr);
        ConstRef ref = readable(addr, 2);
        region = ref.region;
        return loadWord<uint16_t>(ref.ptr);
    }

    uint32_t
    read32(uint32_t addr, MemRegion &region) const
    {
        if (!isAligned(addr, 4)) [[unlikely]]
            throwMisaligned("32-bit read", addr);
        ConstRef ref = readable(addr, 4);
        region = ref.region;
        return loadWord<uint32_t>(ref.ptr);
    }

    void
    write8(uint32_t addr, uint8_t value, MemRegion &region)
    {
        Ref ref = writable(addr, 1);
        region = ref.region;
        *ref.ptr = value;
    }

    void
    write16(uint32_t addr, uint16_t value, MemRegion &region)
    {
        if (!isAligned(addr, 2)) [[unlikely]]
            throwMisaligned("16-bit write", addr);
        Ref ref = writable(addr, 2);
        region = ref.region;
        storeWord(ref.ptr, value);
    }

    void
    write32(uint32_t addr, uint32_t value, MemRegion &region)
    {
        if (!isAligned(addr, 4)) [[unlikely]]
            throwMisaligned("32-bit write", addr);
        Ref ref = writable(addr, 4);
        region = ref.region;
        storeWord(ref.ptr, value);
    }

    uint8_t
    read8(uint32_t addr) const
    {
        MemRegion r;
        return read8(addr, r);
    }

    uint16_t
    read16(uint32_t addr) const
    {
        MemRegion r;
        return read16(addr, r);
    }

    uint32_t
    read32(uint32_t addr) const
    {
        MemRegion r;
        return read32(addr, r);
    }

    void
    write8(uint32_t addr, uint8_t value)
    {
        MemRegion r;
        write8(addr, value, r);
    }

    void
    write16(uint32_t addr, uint16_t value)
    {
        MemRegion r;
        write16(addr, value, r);
    }

    void
    write32(uint32_t addr, uint32_t value)
    {
        MemRegion r;
        write32(addr, value, r);
    }
    /** @} */

    /**
     * @name Predicted-region accessors.
     * The block-stepped loop's first try at a load or store: when
     * [addr, addr + sizeof(T)) is naturally aligned and inside
     * @p region (never Unmapped), read or write its bytes directly and
     * return true; otherwise return false, having done nothing, and
     * the caller takes the checked accessor above, which faults as it
     * always does.  An access accepted here is one resolve() maps to
     * @p region: no page is shared by two regions, and region bases
     * and sizes are multiples of 4.
     * @{
     */
    template <typename T>
    bool
    loadIn(MemRegion region, uint32_t addr, T &value) const
    {
        const auto idx = static_cast<unsigned>(region);
        const uint32_t off = addr - layout::regionBase[idx];
        if (addr % sizeof(T) != 0 ||
            off > layout::regionSize[idx] - sizeof(T)) [[unlikely]]
            return false;
        value = loadWord<T>(store[idx] + off);
        return true;
    }

    template <typename T>
    bool
    storeIn(MemRegion region, uint32_t addr, T value)
    {
        const auto idx = static_cast<unsigned>(region);
        const uint32_t off = addr - layout::regionBase[idx];
        if (addr % sizeof(T) != 0 ||
            off > layout::regionSize[idx] - sizeof(T)) [[unlikely]]
            return false;
        storeWord(store[idx] + off, value);
        return true;
    }
    /** @} */

    /** Bulk copy into simulated memory (host-side, unaccounted). */
    void writeBlock(uint32_t addr, const uint8_t *data, uint32_t len);

    /**
     * Store @p words at @p addr as consecutive little-endian 32-bit
     * words (host-side, unaccounted): byte-identical to a write32()
     * loop, but checked once for the whole span.  @throws
     * AlignmentError or MemoryError, having written nothing, when
     * @p addr is misaligned or the span leaves its region.
     */
    void writeWords(uint32_t addr, std::span<const uint32_t> words);

    /** Bulk copy out of simulated memory (host-side, unaccounted). */
    void readBlock(uint32_t addr, uint8_t *data, uint32_t len) const;

    /** Zero-fill a byte range. */
    void fill(uint32_t addr, uint32_t len, uint8_t value = 0);

    /**
     * Zero all regions (fresh run): the kernel drops the mapping's
     * pages, which read as zero again on demand, so the cost follows
     * the pages in use, not the layout size.
     */
    void reset();

  private:
    /** The page-table load and range check behind both views. */
    Ref
    resolve(uint32_t addr, uint32_t len) const
    {
        unsigned idx = layout::pageRegionIndex(addr);
        if (idx >= layout::numRegions) [[unlikely]]
            throwUnmapped(addr, len);
        uint32_t off = addr - layout::regionBase[idx];
        if (off >= layout::regionSize[idx]) [[unlikely]]
            throwUnmapped(addr, len);
        if (len > layout::regionSize[idx] - off) [[unlikely]]
            throwCrossesEnd(addr, len, static_cast<MemRegion>(idx));
        return {store[idx] + off, static_cast<MemRegion>(idx)};
    }

    /**
     * Host-endian word access: one memcpy, byte-swapped only on a
     * big-endian host (NPE32 memory is little-endian).
     */
    template <typename T>
    static T
    loadWord(const uint8_t *p)
    {
        T v;
        std::memcpy(&v, p, sizeof(T));
        if constexpr (std::endian::native == std::endian::big &&
                      sizeof(T) > 1) {
            if constexpr (sizeof(T) == 2)
                v = bswap16(v);
            else
                v = bswap32(v);
        }
        return v;
    }

    template <typename T>
    static void
    storeWord(uint8_t *p, T v)
    {
        if constexpr (std::endian::native == std::endian::big &&
                      sizeof(T) > 1) {
            if constexpr (sizeof(T) == 2)
                v = bswap16(v);
            else
                v = bswap32(v);
        }
        std::memcpy(p, &v, sizeof(T));
    }

    [[noreturn]] static void throwUnmapped(uint32_t addr, uint32_t len);
    [[noreturn]] static void throwCrossesEnd(uint32_t addr, uint32_t len,
                                             MemRegion region);
    [[noreturn]] static void throwMisaligned(const char *what,
                                             uint32_t addr);

    /** Backing bytes, indexed by MemRegion value (Text..Stack). */
    uint8_t *store[layout::numRegions];
    /** One guarded span per region, in MemRegion order. */
    ZeroPages pages;
};

} // namespace pb::sim

#endif // PB_SIM_MEMORY_HH
