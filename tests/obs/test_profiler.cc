/**
 * @file
 * Hot-spot profiler tests against a program whose exact execution
 * profile is known: a three-block countdown loop.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "obs/profiler.hh"
#include "sim/accounting.hh"
#include "sim/bblock.hh"
#include "sim/cpu.hh"
#include "sim/memmap.hh"
#include "sim/timing.hh"

namespace
{

using namespace pb;
using namespace pb::obs;

/**
 * main: addi  (block 0, runs once)
 * loop: addi, bnez  (block 1, runs three times)
 *       sys   (block 2, runs once)
 *
 * 8 dynamic instructions total.
 */
constexpr const char *loopSrc = R"(
    main:
        addi t0, zero, 3
    loop:
        addi t0, t0, -1
        bnez t0, loop
        sys 0
)";

class ProfilerTest : public ::testing::Test
{
  protected:
    ProfilerTest()
        : prog(isa::Assembler(0x1000).assemble(loopSrc, "proftest")),
          blocks(prog), cpu(mem)
    {
        cpu.loadProgram(prog);
    }

    isa::Program prog;
    sim::BlockMap blocks;
    sim::Memory mem;
    sim::Cpu cpu;
};

TEST_F(ProfilerTest, ExactPerPcCounts)
{
    HotSpotProfiler prof(prog, blocks);
    cpu.setObserver(&prof);
    cpu.run(prog.entry());

    EXPECT_EQ(prof.instCount(0x1000), 1u); // addi t0, zero, 3
    EXPECT_EQ(prof.instCount(0x1004), 3u); // addi t0, t0, -1
    EXPECT_EQ(prof.instCount(0x1008), 3u); // bnez
    EXPECT_EQ(prof.instCount(0x100c), 1u); // sys
    EXPECT_EQ(prof.totalInsts(), 8u);
    // Without a timer, cycles mirror instructions (CPI 1).
    EXPECT_EQ(prof.totalCycles(), 8u);
    EXPECT_EQ(prof.cycleCount(0x1004), 3u);
}

TEST_F(ProfilerTest, HottestBlockRankedFirst)
{
    HotSpotProfiler prof(prog, blocks);
    cpu.setObserver(&prof);
    cpu.run(prog.entry());

    auto ranked = prof.rankedBlocks();
    ASSERT_EQ(ranked.size(), 3u); // all three blocks executed
    // The loop body absorbs 6 of 8 instructions and must lead.
    EXPECT_EQ(ranked[0].startAddr, 0x1004u);
    EXPECT_EQ(ranked[0].numInsts, 2u);
    EXPECT_EQ(ranked[0].insts, 6u);
    EXPECT_EQ(ranked[0].entries, 3u);
    // The two single-shot blocks follow, each with one instruction.
    EXPECT_EQ(ranked[1].insts, 1u);
    EXPECT_EQ(ranked[1].entries, 1u);
    EXPECT_EQ(ranked[2].insts, 1u);
    // Entries sum to one per block entry event.
    uint64_t entries = 0;
    for (const auto &b : ranked)
        entries += b.entries;
    EXPECT_EQ(entries, 5u);
}

TEST_F(ProfilerTest, AccumulatesAcrossRuns)
{
    HotSpotProfiler prof(prog, blocks);
    cpu.setObserver(&prof);
    for (int i = 0; i < 4; i++) {
        cpu.resetRegs();
        cpu.run(prog.entry());
    }
    EXPECT_EQ(prof.totalInsts(), 32u);
    EXPECT_EQ(prof.instCount(0x1004), 12u);
    EXPECT_EQ(prof.rankedBlocks()[0].entries, 12u);
}

TEST_F(ProfilerTest, TimerAttributesCycles)
{
    // A longer countdown, so the loop's repeated cost dwarfs the
    // one-time cold-cache penalties charged to the entry block.
    isa::Program long_prog = isa::Assembler(0x1000).assemble(R"(
        main:
            addi t0, zero, 50
        loop:
            addi t0, t0, -1
            bnez t0, loop
            sys 0
    )", "proftest50");
    sim::BlockMap long_blocks(long_prog);
    cpu.loadProgram(long_prog);

    // The timer charges each instruction's cost to its slot, so the
    // attribution is the same whichever observer hears a run first.
    std::string rendered[2];
    for (bool timerFirst : {false, true}) {
        HotSpotProfiler prof(long_prog, long_blocks);
        sim::PipelineTimer timer;
        sim::FanoutObserver fanout;
        if (timerFirst)
            fanout.add(&timer);
        fanout.add(&prof);
        if (!timerFirst)
            fanout.add(&timer);
        prof.attachTimer(&timer);

        cpu.resetRegs();
        cpu.setObserver(&fanout);
        cpu.run(long_prog.entry());

        EXPECT_EQ(prof.totalInsts(), 102u); // 1 + 50*2 + 1
        // Every cycle the timer modeled is attributed to some PC.
        EXPECT_EQ(prof.totalCycles(), timer.cycles());
        EXPECT_GE(prof.totalCycles(), prof.totalInsts());
        // Each instruction costs at least one cycle.
        for (uint32_t addr = 0x1000; addr <= 0x100c; addr += 4)
            EXPECT_GE(prof.cycleCount(addr), prof.instCount(addr));
        // The loop block ranks first with cycles attached.
        auto ranked = prof.rankedBlocks();
        EXPECT_EQ(ranked[0].startAddr, 0x1004u);
        EXPECT_EQ(ranked[0].insts, 100u);
        EXPECT_GE(ranked[0].cycles, ranked[0].insts);
        rendered[timerFirst] = prof.render();
    }
    EXPECT_EQ(rendered[0], rendered[1]);
}

TEST_F(ProfilerTest, RenderAnnotatesDisassembly)
{
    HotSpotProfiler prof(prog, blocks);
    cpu.setObserver(&prof);
    cpu.run(prog.entry());

    std::string report = prof.render();
    EXPECT_NE(report.find("8 insts"), std::string::npos);
    EXPECT_NE(report.find("3 of 3 blocks executed"),
              std::string::npos);
    // Ranked table lists the loop block's address first.
    EXPECT_NE(report.find("@0x00001004"), std::string::npos);
    // Annotated disassembly shows the loop instructions (bnez is a
    // pseudo; the disassembler emits the canonical bne).
    EXPECT_NE(report.find("addi"), std::string::npos);
    EXPECT_NE(report.find("bne"), std::string::npos);
    // Rank 1 covers 75% of the cycles (6 of 8).
    EXPECT_NE(report.find("75.0%"), std::string::npos);
}

TEST_F(ProfilerTest, RenderOnEmptyProfile)
{
    HotSpotProfiler prof(prog, blocks);
    std::string report = prof.render();
    EXPECT_NE(report.find("0 insts"), std::string::npos);
    EXPECT_TRUE(prof.rankedBlocks().empty());
}

TEST_F(ProfilerTest, ResetClearsSamples)
{
    HotSpotProfiler prof(prog, blocks);
    cpu.setObserver(&prof);
    cpu.run(prog.entry());
    prof.reset();
    EXPECT_EQ(prof.totalInsts(), 0u);
    EXPECT_EQ(prof.instCount(0x1004), 0u);
    EXPECT_TRUE(prof.rankedBlocks().empty());
}

TEST_F(ProfilerTest, OutOfProgramPcPanics)
{
    HotSpotProfiler prof(prog, blocks);
    EXPECT_THROW(prof.instCount(0x2000), PanicError);
}

} // namespace
