/**
 * @file
 * Simulated memory tests: regions, widths, endianness, bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include <unistd.h>

#include "sim/memory.hh"

namespace
{

using namespace pb;
using namespace pb::sim;
using namespace pb::sim::layout;

TEST(Memory, RegionClassification)
{
    Memory mem;
    EXPECT_EQ(mem.classify(textBase), MemRegion::Text);
    EXPECT_EQ(mem.classify(textBase + textSize - 1), MemRegion::Text);
    EXPECT_EQ(mem.classify(dataBase), MemRegion::Data);
    EXPECT_EQ(mem.classify(packetBase + 100), MemRegion::Packet);
    EXPECT_EQ(mem.classify(stackTop), MemRegion::Stack);
    EXPECT_EQ(mem.classify(0), MemRegion::Unmapped);
    EXPECT_EQ(mem.classify(textBase + textSize), MemRegion::Unmapped);
    EXPECT_EQ(mem.classify(0xffffffff), MemRegion::Unmapped);
}

TEST(Memory, NonPacketDataPredicate)
{
    EXPECT_TRUE(isNonPacketData(MemRegion::Data));
    EXPECT_TRUE(isNonPacketData(MemRegion::Stack));
    EXPECT_FALSE(isNonPacketData(MemRegion::Packet));
    EXPECT_FALSE(isNonPacketData(MemRegion::Text));
}

TEST(Memory, ReadWriteWidthsLittleEndian)
{
    Memory mem;
    mem.write32(dataBase, 0x11223344);
    EXPECT_EQ(mem.read8(dataBase), 0x44);
    EXPECT_EQ(mem.read8(dataBase + 3), 0x11);
    EXPECT_EQ(mem.read16(dataBase), 0x3344);
    EXPECT_EQ(mem.read16(dataBase + 2), 0x1122);
    EXPECT_EQ(mem.read32(dataBase), 0x11223344u);

    mem.write16(dataBase + 4, 0xbeef);
    EXPECT_EQ(mem.read8(dataBase + 4), 0xef);
    mem.write8(dataBase + 6, 0x7f);
    EXPECT_EQ(mem.read8(dataBase + 6), 0x7f);
}

TEST(Memory, FreshMemoryIsZero)
{
    Memory mem;
    EXPECT_EQ(mem.read32(dataBase + 1024), 0u);
    EXPECT_EQ(mem.read8(packetBase), 0u);
}

/** This process's resident set size in bytes (/proc/self/statm). */
uint64_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    uint64_t size = 0;
    uint64_t resident = 0;
    statm >> size >> resident;
    return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

TEST(Memory, FreshMemoryIsZeroedOnDemand)
{
    // Construction commits none of a Memory's 16 MiB+: pages become
    // resident (as zeroes) only when first touched.
    constexpr int count = 8;
    const uint64_t before = residentBytes();
    std::vector<std::unique_ptr<Memory>> mems;
    for (int i = 0; i < count; i++)
        mems.push_back(std::make_unique<Memory>());
    EXPECT_LT(residentBytes(), before + dataSize)
        << count << " fresh memories made their regions resident";

    std::vector<uint8_t> chunk(packetSize);
    for (const auto &mem : mems) {
        for (unsigned r = 0; r < numRegions; r++) {
            for (uint32_t off = 0; off < regionSize[r];
                 off += packetSize) {
                mem->readBlock(regionBase[r] + off, chunk.data(),
                               packetSize);
                ASSERT_TRUE(std::all_of(chunk.begin(), chunk.end(),
                                        [](uint8_t b) { return b == 0; }))
                    << "region " << r << " offset " << off;
            }
        }
    }
}

TEST(MemoryDeathTest, HostOverrunPastARegionFaults)
{
    // The byte after a region is a guard page, not the next region.
    Memory mem;
    uint8_t *last = mem.writable(packetBase + packetSize - 1, 1).ptr;
    EXPECT_DEATH(*static_cast<volatile uint8_t *>(last + 1) = 1, "");
}

TEST(Memory, BlockCopyRoundTrip)
{
    Memory mem;
    uint8_t src[37];
    for (size_t i = 0; i < sizeof(src); i++)
        src[i] = static_cast<uint8_t>(i * 3 + 1);
    mem.writeBlock(packetBase + 5, src, sizeof(src));
    uint8_t dst[37] = {};
    mem.readBlock(packetBase + 5, dst, sizeof(dst));
    EXPECT_EQ(std::memcmp(src, dst, sizeof(src)), 0);
}

TEST(Memory, WriteWordsMatchesWrite32)
{
    std::vector<uint32_t> words(37);
    for (size_t i = 0; i < words.size(); i++)
        words[i] = 0x01020304u * static_cast<uint32_t>(i + 1) + 0x80;
    const uint32_t bytes = static_cast<uint32_t>(words.size() * 4);
    // At the first and at the last word of a region.
    for (uint32_t addr : {dataBase, dataBase + dataSize - bytes}) {
        Memory looped;
        Memory bulk;
        for (size_t i = 0; i < words.size(); i++)
            looped.write32(addr + static_cast<uint32_t>(i) * 4, words[i]);
        bulk.writeWords(addr, words);
        EXPECT_EQ(std::memcmp(looped.readable(dataBase, dataSize).ptr,
                              bulk.readable(dataBase, dataSize).ptr,
                              dataSize),
                  0)
            << std::hex << "at 0x" << addr;
        EXPECT_EQ(bulk.read8(addr), 0x84) << "little-endian words";
        EXPECT_EQ(bulk.read32(addr + bytes - 4), words.back());
    }
}

TEST(Memory, WriteWordsPastRegionEndThrows)
{
    Memory mem;
    const std::vector<uint32_t> words = {1, 2, 3, 4};
    // Three words fit before the end of the data region; the fourth
    // would not, so nothing is written.
    const uint32_t addr = dataBase + dataSize - 12;
    EXPECT_THROW(mem.writeWords(addr, words), MemoryError);
    for (uint32_t off = 0; off < 12; off++)
        EXPECT_EQ(mem.read8(addr + off), 0) << "offset " << off;
    EXPECT_THROW(mem.writeWords(packetBase + packetSize, words),
                 MemoryError);
    EXPECT_THROW(mem.writeWords(dataBase + 2, words), AlignmentError);
    EXPECT_EQ(mem.read32(dataBase), 0u);
    EXPECT_EQ(mem.read32(dataBase + 4), 0u);
}

TEST(Memory, FillAndReset)
{
    Memory mem;
    mem.fill(dataBase, 16, 0xaa);
    EXPECT_EQ(mem.read8(dataBase + 15), 0xaa);
    EXPECT_EQ(mem.read8(dataBase + 16), 0x00);
    mem.reset();
    EXPECT_EQ(mem.read8(dataBase + 15), 0x00);
}

TEST(Memory, FillZeroClearsExactlyItsRange)
{
    // Canary bytes on both sides of the cleared window must survive
    // every length and offset combination.
    Memory mem;
    for (uint32_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 63u, 64u,
                         65u, 127u, 128u, 129u, 1000u}) {
        for (uint32_t offset : {0u, 1u, 7u}) {
            const uint32_t span = offset + len + 8;
            mem.fill(dataBase, span, 0xab);
            mem.fill(dataBase + offset, len);
            for (uint32_t i = 0; i < span; i++) {
                bool cleared = i >= offset && i < offset + len;
                EXPECT_EQ(mem.read8(dataBase + i), cleared ? 0 : 0xab)
                    << "len " << len << " offset " << offset
                    << " byte " << i;
            }
        }
    }
}

TEST(Memory, UnmappedAccessThrows)
{
    Memory mem;
    EXPECT_THROW(mem.read8(0), MemoryError);
    EXPECT_THROW(mem.write32(0xdead0000, 1), MemoryError);
    uint8_t buf[4];
    EXPECT_THROW(mem.readBlock(0x50, buf, 4), MemoryError);
}

TEST(Memory, CrossRegionAccessThrows)
{
    Memory mem;
    // Last byte is fine, one past the end is not.
    EXPECT_NO_THROW(mem.read8(packetBase + packetSize - 1));
    EXPECT_THROW(mem.read8(packetBase + packetSize), MemoryError);
    uint8_t buf[8];
    EXPECT_THROW(mem.readBlock(packetBase + packetSize - 4, buf, 8),
                 MemoryError);
}

TEST(Memory, MisalignedAccessThrows)
{
    Memory mem;
    EXPECT_THROW(mem.read32(dataBase + 2), AlignmentError);
    EXPECT_THROW(mem.read16(dataBase + 1), AlignmentError);
    EXPECT_THROW(mem.write32(dataBase + 1, 0), AlignmentError);
    EXPECT_THROW(mem.write16(dataBase + 3, 0), AlignmentError);
}

TEST(Memory, ZeroLengthBlockOpsAreNoops)
{
    Memory mem;
    EXPECT_NO_THROW(mem.writeBlock(dataBase, nullptr, 0));
    EXPECT_NO_THROW(mem.readBlock(dataBase, nullptr, 0));
    EXPECT_NO_THROW(mem.fill(dataBase, 0));
}

TEST(Memory, ResetZeroesWrittenBytes)
{
    Memory mem;
    mem.write32(stackBase + 128, 0xdeadbeef);
    mem.fill(packetBase, 32, 0x55);
    mem.reset();
    EXPECT_EQ(mem.read32(stackBase + 128), 0u);
    EXPECT_EQ(mem.read8(packetBase + 31), 0u);
    // And the memory is writable/readable as usual afterwards.
    mem.write32(dataBase, 42);
    EXPECT_EQ(mem.read32(dataBase), 42u);
}

} // namespace
