/**
 * @file
 * Disassemble/reassemble round-trip over every real application
 * program: the disassembly of each app must reassemble to identical
 * machine code, and its block structure must be stable.  This
 * cross-checks the assembler, disassembler, and encoder against each
 * other on full-size production programs.  Also checks that set-up
 * is repeatable: every machine set up from one application starts
 * from the same data region and program.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "analysis/experiments.hh"
#include "core/packetbench.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
#include "sim/bblock.hh"

namespace
{

using namespace pb;
using namespace pb::an;

class AppProgramRoundTrip : public ::testing::TestWithParam<AppKind>
{};

TEST_P(AppProgramRoundTrip, DisassemblyReassemblesIdentically)
{
    ExperimentConfig cfg;
    cfg.coreTablePrefixes = 512; // table size is irrelevant here
    auto app = makeApp(GetParam(), cfg);
    sim::Memory mem;
    isa::Program prog = app->setup(mem);
    ASSERT_FALSE(prog.words.empty());

    // Raw per-word disassembly (no pseudo-ops, absolute targets).
    std::string src;
    for (size_t i = 0; i < prog.words.size(); i++) {
        uint32_t addr =
            prog.baseAddr + static_cast<uint32_t>(i) * 4;
        src += isa::disassemble(isa::decode(prog.words[i]), addr);
        src += "\n";
    }
    isa::Program back =
        isa::Assembler(prog.baseAddr).assemble(src, "roundtrip");
    ASSERT_EQ(back.words.size(), prog.words.size());
    for (size_t i = 0; i < prog.words.size(); i++) {
        EXPECT_EQ(back.words[i], prog.words[i])
            << "word " << i << ": "
            << isa::disassemble(isa::decode(prog.words[i]),
                                prog.baseAddr +
                                    static_cast<uint32_t>(i) * 4);
    }
}

TEST_P(AppProgramRoundTrip, BlockStructureIsSane)
{
    ExperimentConfig cfg;
    cfg.coreTablePrefixes = 512;
    auto app = makeApp(GetParam(), cfg);
    sim::Memory mem;
    isa::Program prog = app->setup(mem);
    sim::BlockMap blocks(prog);

    EXPECT_GE(blocks.numBlocks(), 2u);
    uint32_t insts = 0;
    for (const auto &block : blocks.blocks()) {
        EXPECT_GT(block.numInsts, 0u);
        insts += block.numInsts;
    }
    EXPECT_EQ(insts, prog.words.size());
    // Every program must define main and end every path in SYS —
    // check at least one SYS exists.
    bool has_sys = false;
    for (uint32_t word : prog.words) {
        if (isa::decode(word).op == isa::Op::SYS)
            has_sys = true;
    }
    EXPECT_TRUE(has_sys);
    EXPECT_TRUE(prog.hasSymbol("main"));
}

/**
 * setup() is const: it writes the application's host tables into a
 * machine without changing them, so two machines built over one
 * application get byte-identical data regions and programs.
 */
TEST_P(AppProgramRoundTrip, TwoBenchesOverOneAppStartIdentical)
{
    auto app = makeApp(GetParam(), ExperimentConfig{});
    core::PacketBench first(*app);
    core::PacketBench second(*app);
    using namespace sim::layout;
    EXPECT_EQ(std::memcmp(first.memory().readable(dataBase, dataSize).ptr,
                          second.memory().readable(dataBase, dataSize).ptr,
                          dataSize),
              0);
    EXPECT_EQ(first.program().baseAddr, second.program().baseAddr);
    EXPECT_EQ(first.program().words, second.program().words);
    EXPECT_EQ(first.program().symbols, second.program().symbols);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppProgramRoundTrip,
    ::testing::ValuesIn(extendedAppKinds), [](const auto &info) {
        std::string title = appTitle(info.param);
        for (char &c : title) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return title;
    });

} // namespace
