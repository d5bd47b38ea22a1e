/**
 * @file
 * Demand-zero mapping: mmap, guard pages, madvise and munmap.
 */

#include "zeropages.hh"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

#include "common/logging.hh"

namespace pb::sim
{

namespace
{

size_t
roundToPages(size_t bytes, size_t page)
{
    return (bytes + page - 1) / page * page;
}

} // namespace

ZeroPages::ZeroPages(std::initializer_list<size_t> spanBytes)
{
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    for (size_t bytes : spanBytes)
        length += roundToPages(bytes, page) + page;
    starts.reserve(spanBytes.size());
    // Reserved but not committed: untouched pages read as zero and
    // cost nothing, however many owners a run builds.
    base = mmap(nullptr, length, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED)
        throw std::bad_alloc();
    uint8_t *next = static_cast<uint8_t *>(base);
    for (size_t bytes : spanBytes) {
        starts.push_back(next);
        next += roundToPages(bytes, page);
        if (mprotect(next, page, PROT_NONE) != 0) {
            munmap(base, length);
            throw std::bad_alloc();
        }
        next += page;
    }
}

ZeroPages::~ZeroPages()
{
    munmap(base, length);
}

void
ZeroPages::zero()
{
    // A private anonymous mapping refills dropped pages with zeroes.
    if (madvise(base, length, MADV_DONTNEED) != 0)
        panic("ZeroPages::zero: madvise failed: %s", std::strerror(errno));
}

} // namespace pb::sim
