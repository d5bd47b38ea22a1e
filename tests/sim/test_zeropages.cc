/**
 * @file
 * Demand-zero mapping tests: fresh spans read zero without becoming
 * resident, spans are disjoint, and each span ends at a guard page.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include <unistd.h>

#include "../support/resident_pages.hh"
#include "sim/zeropages.hh"

namespace
{

using namespace pb;
using namespace pb::sim;

TEST(ZeroPages, FreshPagesReadZeroAndAreNotResident)
{
    constexpr size_t bytes = size_t{4} << 20;
    ZeroPages pages({bytes, 100});
    size_t spanPages = 0;
    EXPECT_EQ(test::residentPages(pages.span(0), bytes, spanPages), 0u);

    // Reading faults in zero pages; writing one span leaves the other
    // zero.
    const auto *first = static_cast<const uint8_t *>(pages.span(0));
    for (size_t off = 0; off < bytes; off += 4096)
        ASSERT_EQ(first[off], 0) << "offset " << off;
    auto *second = static_cast<uint8_t *>(pages.span(1));
    std::memset(second, 0xab, 100);
    EXPECT_EQ(first[bytes - 1], 0);
    EXPECT_EQ(second[99], 0xab);

    pages.zero();
    EXPECT_EQ(second[99], 0);
}

TEST(ZeroPagesDeathTest, WritePastASpanFaults)
{
    // Each span is rounded up to whole pages and followed by a guard.
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    ZeroPages pages({100, 1});
    auto *first = static_cast<uint8_t *>(pages.span(0));
    auto *last = static_cast<uint8_t *>(pages.span(1));
    first[page - 1] = 1;
    last[page - 1] = 1;
    EXPECT_DEATH(*static_cast<volatile uint8_t *>(first + page) = 1, "");
    EXPECT_DEATH(*static_cast<volatile uint8_t *>(last + page) = 1, "");
}

} // namespace
