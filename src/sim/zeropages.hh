/**
 * @file
 * Demand-zero pages in guarded spans: the one place that maps memory.
 *
 * A ZeroPages is one private anonymous mapping laid out as a run of
 * spans, each rounded up to whole host pages and followed by an
 * inaccessible (PROT_NONE) guard page.  The kernel zeroes a page when
 * it is first touched, so making one costs a few system calls
 * whatever its size, and only the pages that are used ever become
 * resident.  sim::Memory keeps its regions in one, and the
 * PacketRecorder its touch maps.
 *
 * AddressSanitizer does not instrument such a mapping: a stray access
 * inside it goes unreported.  Owners bounds-check every access they
 * make, and the guard after each span turns a host-side overrun into
 * a fault instead of a write into the next span.
 */

#ifndef PB_SIM_ZEROPAGES_HH
#define PB_SIM_ZEROPAGES_HH

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace pb::sim
{

/** Owns one anonymous mapping of guarded, demand-zero spans. */
class ZeroPages
{
  public:
    /**
     * Map one span per entry of @p spanBytes, in order.  Nothing is
     * committed: every byte reads as zero until written.
     * @throws std::bad_alloc when the mapping cannot be made
     */
    explicit ZeroPages(std::initializer_list<size_t> spanBytes);
    ~ZeroPages();

    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    /** First byte of span @p i (page-aligned). */
    void *span(size_t i) const { return starts[i]; }

    /**
     * Zero every span: the kernel drops the mapping's pages, which
     * read as zero again on demand, so the cost follows the pages in
     * use, not the mapping's size.
     */
    void zero();

  private:
    void *base = nullptr;
    size_t length = 0;
    std::vector<void *> starts;
};

} // namespace pb::sim

#endif // PB_SIM_ZEROPAGES_HH
