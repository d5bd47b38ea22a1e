/**
 * @file
 * Selective-accounting tests: per-packet statistics, unique
 * instruction counting, memory-region classification, run-level
 * coverage, and touch maps that stay non-resident until marked.
 */

#include <gtest/gtest.h>

#include "../support/resident_pages.hh"
#include "isa/assembler.hh"
#include "sim/accounting.hh"
#include "sim/memmap.hh"

namespace
{

using namespace pb;
using namespace pb::sim;

class AccountingTest : public ::testing::Test
{
  protected:
    void
    load(const std::string &src, RecorderConfig cfg = {})
    {
        prog = isa::Assembler(layout::textBase).assemble(src, "acct");
        cpu.loadProgram(prog);
        blocks = std::make_unique<BlockMap>(prog);
        rec = std::make_unique<PacketRecorder>(prog, *blocks, cfg);
        cpu.setObserver(rec.get());
    }

    PacketStats
    runPacket()
    {
        rec->beginPacket();
        cpu.run(prog.hasSymbol("main") ? prog.entry() : prog.baseAddr);
        return rec->endPacket();
    }

    isa::Program prog;
    Memory mem;
    Cpu cpu{mem};
    std::unique_ptr<BlockMap> blocks;
    std::unique_ptr<PacketRecorder> rec;
};

TEST_F(AccountingTest, CountsInstructionsPerPacket)
{
    load(R"(
        main:
            li t0, 3
        loop:
            addi t0, t0, -1
            bnez t0, loop
            sys 0
    )");
    PacketStats stats = runPacket();
    EXPECT_EQ(stats.instCount, 1u + 3 * 2 + 1);
    // Unique: 4 distinct instructions despite the loop.
    EXPECT_EQ(stats.uniqueInstCount, 4u);
}

TEST_F(AccountingTest, UniqueCountResetsBetweenPackets)
{
    load("main: nop\nnop\nsys 0");
    PacketStats a = runPacket();
    PacketStats b = runPacket();
    EXPECT_EQ(a.uniqueInstCount, 3u);
    EXPECT_EQ(b.uniqueInstCount, 3u) << "epoch must reset per packet";
}

TEST_F(AccountingTest, ClassifiesPacketVsNonPacketAccesses)
{
    load(R"(
        .equ PKT,  0x08000000
        .equ DATA, 0x00100000
        main:
            li t0, PKT
            li t1, DATA
            lw t2, 0(t0)        # packet read
            lw t3, 4(t0)        # packet read
            sw t2, 0(t1)        # non-packet write
            lw t4, 0(t1)        # non-packet read
            sb t2, 8(t0)        # packet write
            sys 0
    )");
    PacketStats stats = runPacket();
    EXPECT_EQ(stats.packetReads, 2u);
    EXPECT_EQ(stats.packetWrites, 1u);
    EXPECT_EQ(stats.nonPacketReads, 1u);
    EXPECT_EQ(stats.nonPacketWrites, 1u);
    EXPECT_EQ(stats.packetAccesses(), 3u);
    EXPECT_EQ(stats.nonPacketAccesses(), 2u);
}

TEST_F(AccountingTest, StackCountsAsNonPacket)
{
    load(R"(
        main:
            addi sp, sp, -4
            sw t0, 0(sp)
            lw t1, 0(sp)
            addi sp, sp, 4
            sys 0
    )");
    PacketStats stats = runPacket();
    EXPECT_EQ(stats.nonPacketReads, 1u);
    EXPECT_EQ(stats.nonPacketWrites, 1u);
    EXPECT_EQ(stats.packetAccesses(), 0u);
}

TEST_F(AccountingTest, BlockSetsRecordedWhenEnabled)
{
    RecorderConfig cfg;
    cfg.blockSets = true;
    load(R"(
        main:
            li t0, 2
        loop:
            addi t0, t0, -1
            bnez t0, loop
            sys 0
    )", cfg);
    PacketStats stats = runPacket();
    // Three static blocks, all executed.
    EXPECT_EQ(blocks->numBlocks(), 3u);
    ASSERT_EQ(stats.blocks.size(), 3u);
    // Each block appears once even though the loop ran twice.
}

TEST_F(AccountingTest, BlockSetsSkipUntakenPath)
{
    RecorderConfig cfg;
    cfg.blockSets = true;
    load(R"(
        main:
            li t0, 1
            bnez t0, skip
            nop                 # never executed
        skip:
            sys 0
    )", cfg);
    PacketStats stats = runPacket();
    // Executed blocks: [li,bnez] and [sys]; the nop block is skipped.
    EXPECT_EQ(stats.blocks.size(), 2u);
    EXPECT_LT(stats.blocks.size(), blocks->numBlocks());
}

TEST_F(AccountingTest, InstTraceWhenEnabled)
{
    RecorderConfig cfg;
    cfg.instTrace = true;
    load("main: nop\nnop\nsys 0", cfg);
    PacketStats stats = runPacket();
    ASSERT_EQ(stats.instTrace.size(), 3u);
    EXPECT_EQ(stats.instTrace[0], layout::textBase);
    EXPECT_EQ(stats.instTrace[1], layout::textBase + 4);
    EXPECT_EQ(stats.instTrace[2], layout::textBase + 8);
}

TEST_F(AccountingTest, MemTraceWhenEnabled)
{
    RecorderConfig cfg;
    cfg.memTrace = true;
    load(R"(
        .equ PKT, 0x08000000
        main:
            li t0, PKT
            lw t1, 0(t0)
            sw t1, 64(t0)
            sys 0
    )", cfg);
    PacketStats stats = runPacket();
    ASSERT_EQ(stats.memTrace.size(), 2u);
    EXPECT_FALSE(stats.memTrace[0].event.isStore);
    EXPECT_TRUE(stats.memTrace[1].event.isStore);
    EXPECT_EQ(stats.memTrace[0].event.region, MemRegion::Packet);
    EXPECT_EQ(stats.memTrace[1].event.addr, layout::packetBase + 64);
    // li expands to two words; the lw is instruction 3, sw is 4.
    EXPECT_EQ(stats.memTrace[0].instIndex, 3u);
    EXPECT_EQ(stats.memTrace[1].instIndex, 4u);
}

TEST_F(AccountingTest, TracesEmptyWhenDisabled)
{
    load(R"(
        .equ PKT, 0x08000000
        main:
            li t0, PKT
            lw t1, 0(t0)
            sys 0
    )");
    PacketStats stats = runPacket();
    EXPECT_TRUE(stats.instTrace.empty());
    EXPECT_TRUE(stats.memTrace.empty());
    EXPECT_TRUE(stats.blocks.empty());
}

TEST_F(AccountingTest, RunLevelMemoryCoverage)
{
    load(R"(
        .equ DATA, 0x00100000
        main:
            li t0, DATA
            sw t1, 0(t0)
            sw t1, 0(t0)        # same word: no new coverage
            sb t1, 100(t0)
            sys 0
    )");
    runPacket();
    // 5 instructions (li is one word: DATA fits? 0x00100000 needs
    // lui+ori -> li is 2 words), so 6 words * 4 bytes of text.
    EXPECT_EQ(rec->instMemoryBytes(), prog.words.size() * 4);
    EXPECT_EQ(rec->dataMemoryBytes(), 4u + 1u);
    runPacket();
    EXPECT_EQ(rec->dataMemoryBytes(), 5u) << "coverage is run-level";
}

TEST_F(AccountingTest, TouchMapsAreResidentOnlyWhereTouched)
{
    load(R"(
        .equ DATA, 0x00100000
        .equ FAR, 0x00900000
        main:
            li t0, DATA
            sw t1, 0(t0)
            li t0, FAR
            sh t1, 2(t0)
            sys 0
    )");
    // The Data map holds one bit per byte of the 16 MiB region:
    // building the recorder must not touch its 2 MiB.
    const auto *map =
        static_cast<const uint8_t *>(rec->touchPages().span(0));
    const size_t mapBytes = layout::dataSize / 8;
    size_t pages = 0;
    size_t resident = test::residentPages(map, mapBytes, pages);
    EXPECT_LT(resident * 10, pages)
        << resident << " of " << pages << " Data map pages resident";

    runPacket();
    EXPECT_EQ(rec->dataMemoryBytes(), 4u + 2u);
    // Byte offset off has its bit in map byte off / 8: the two stores
    // touch map bytes 0 and 1 MiB, on two different pages.
    const size_t far = (0x00900000 - layout::dataBase) / 8;
    size_t one = 0;
    EXPECT_EQ(test::residentPages(map, 1, one), 1u);
    EXPECT_EQ(test::residentPages(map + far, 1, one), 1u);
    EXPECT_EQ(test::residentPages(map, mapBytes, pages), 2u);
}

TEST_F(AccountingTest, InstructionMixHistogram)
{
    load(R"(
        .equ DATA, 0x00100000
        main:
            li t0, DATA         # 2 alu (lui+ori)
            lw t1, 0(t0)        # load
            sw t1, 4(t0)        # store
            beq t1, zero, next  # branch (taken)
        next:
            mul t2, t1, t1      # mul
            sys 0               # sys
    )");
    runPacket();
    const auto &mix = rec->classCounts();
    EXPECT_EQ(mix[static_cast<size_t>(isa::InstClass::IntAlu)], 2u);
    EXPECT_EQ(mix[static_cast<size_t>(isa::InstClass::Load)], 1u);
    EXPECT_EQ(mix[static_cast<size_t>(isa::InstClass::Store)], 1u);
    EXPECT_EQ(mix[static_cast<size_t>(isa::InstClass::Branch)], 1u);
    EXPECT_EQ(mix[static_cast<size_t>(isa::InstClass::IntMul)], 1u);
    EXPECT_EQ(mix[static_cast<size_t>(isa::InstClass::Sys)], 1u);
    EXPECT_EQ(rec->totalInsts(), 7u);
}

TEST_F(AccountingTest, MismatchedBeginEndPanics)
{
    load("main: sys 0");
    EXPECT_THROW(rec->endPacket(), PanicError);
    rec->beginPacket();
    EXPECT_THROW(rec->beginPacket(), PanicError);
}

TEST_F(AccountingTest, FanoutForwardsToAllSinks)
{
    load("main: nop\nsys 0");
    PacketRecorder second(prog, *blocks);
    FanoutObserver fan;
    fan.add(rec.get());
    fan.add(&second);
    cpu.setObserver(&fan);
    rec->beginPacket();
    second.beginPacket();
    cpu.run(prog.entry());
    PacketStats a = rec->endPacket();
    PacketStats b = second.endPacket();
    EXPECT_EQ(a.instCount, 2u);
    EXPECT_EQ(b.instCount, 2u);
}

} // namespace
