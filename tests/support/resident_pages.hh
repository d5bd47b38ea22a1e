/**
 * @file
 * Test helper: how many pages of a range are resident, by mincore(2).
 *
 * Tests that check storage is not prefaulted ask the kernel about the
 * storage's own pages rather than the process RSS, so sanitizer
 * shadow memory and other allocations cannot blur the count.
 */

#ifndef PB_TESTS_SUPPORT_RESIDENT_PAGES_HH
#define PB_TESTS_SUPPORT_RESIDENT_PAGES_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

namespace pb::test
{

/**
 * Pages of [@p p, @p p + @p bytes) that mincore(2) reports resident;
 * @p pages receives how many pages the range spans.
 */
inline size_t
residentPages(const void *p, size_t bytes, size_t &pages)
{
    const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    uintptr_t begin = reinterpret_cast<uintptr_t>(p) & ~(page - 1);
    uintptr_t end =
        (reinterpret_cast<uintptr_t>(p) + bytes + page - 1) & ~(page - 1);
    std::vector<unsigned char> resident((end - begin) / page);
    pages = resident.size();
    EXPECT_EQ(mincore(reinterpret_cast<void *>(begin), end - begin,
                      resident.data()),
              0);
    size_t n = 0;
    for (unsigned char r : resident)
        n += r & 1;
    return n;
}

} // namespace pb::test

#endif // PB_TESTS_SUPPORT_RESIDENT_PAGES_HH
