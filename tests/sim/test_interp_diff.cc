/**
 * @file
 * Differential tests of the interpreter dispatch loops.
 *
 * The block-stepped loop must be bit-identical to the per-instruction
 * reference loop: same RunResult, same registers, same per-packet
 * statistics, same observer event stream, and — for every fault
 * class — the same exception type, message, and architectural state
 * at the throw.
 * These tests pin that equivalence down both on the real workload
 * programs (every application, hundreds of synthetic packets) and on
 * a hand-built fault matrix.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/experiments.hh"
#include "isa/assembler.hh"
#include "net/tracegen.hh"
#include "sim/accounting.hh"
#include "sim/bblock.hh"
#include "sim/cpu.hh"
#include "sim/memmap.hh"
#include "sim/simerror.hh"

namespace
{

using namespace pb;
using namespace pb::sim;

/** One observer callback, flattened for comparison. */
struct Event
{
    enum Kind : uint8_t { Inst, Mem, Branch } kind;
    uint32_t a; ///< Inst/Branch: pc; Mem: address
    uint32_t b; ///< Inst: opcode; Mem: size; Branch: target
    uint32_t c; ///< Mem: isStore; Branch: taken
    uint32_t d; ///< Mem: region

    bool
    operator==(const Event &o) const
    {
        return kind == o.kind && a == o.a && b == o.b && c == o.c &&
               d == o.d;
    }
};

/** Records the full execution stream for stream-equality checks. */
class RecordingObserver : public ExecObserver
{
  public:
    std::vector<Event> events;

    void
    onInst(uint32_t addr, const isa::Inst &inst) override
    {
        events.push_back({Event::Inst, addr,
                          static_cast<uint32_t>(inst.op), 0, 0});
    }

    void
    onMemAccess(const MemAccessEvent &event) override
    {
        events.push_back({Event::Mem, event.addr, event.size,
                          event.isStore,
                          static_cast<uint32_t>(event.region)});
    }

    void
    onBranch(uint32_t addr, bool taken, uint32_t target) override
    {
        events.push_back({Event::Branch, addr, target, taken, 0});
    }
};

void
expectStatsEqual(const PacketStats &a, const PacketStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.instCount, b.instCount) << what;
    EXPECT_EQ(a.uniqueInstCount, b.uniqueInstCount) << what;
    EXPECT_EQ(a.packetReads, b.packetReads) << what;
    EXPECT_EQ(a.packetWrites, b.packetWrites) << what;
    EXPECT_EQ(a.nonPacketReads, b.nonPacketReads) << what;
    EXPECT_EQ(a.nonPacketWrites, b.nonPacketWrites) << what;
    EXPECT_EQ(a.blocks, b.blocks) << what;
}

/**
 * One application on one simulated machine, driven with the
 * framework's calling convention (mirrors PacketBench's per-packet
 * accounting boundary).
 */
struct AppHarness
{
    sim::Memory mem;
    sim::Cpu cpu{mem};
    uint32_t entry = 0;
    std::unique_ptr<core::Application> app;
    std::unique_ptr<sim::BlockMap> blockMap;
    std::unique_ptr<sim::PacketRecorder> rec;
    sim::FanoutObserver fanout;
    RecordingObserver recording;
    uint32_t prevLen = 0;

    /** @p wired selects what setObserver() sees (solo vs fan-out). */
    enum class Obs { None, RecorderOnly, RecorderAndStream };

    AppHarness(an::AppKind kind, DispatchMode mode, Obs wired)
    {
        an::ExperimentConfig cfg;
        app = an::makeApp(kind, cfg);
        isa::Program prog = app->setup(mem);
        cpu.loadProgram(prog);
        entry = prog.entry("main");
        blockMap = std::make_unique<sim::BlockMap>(prog);
        RecorderConfig rcfg;
        rcfg.blockSets = true;
        rec = std::make_unique<sim::PacketRecorder>(prog, *blockMap,
                                                    rcfg);
        cpu.setDispatchMode(mode);
        switch (wired) {
          case Obs::None:
            break;
          case Obs::RecorderOnly:
            // Single sink: setObserver resolves through the fan-out
            // straight to the devirtualized recorder path.
            fanout.add(rec.get());
            cpu.setObserver(&fanout);
            break;
          case Obs::RecorderAndStream:
            // Two sinks: the generic virtual-dispatch path.
            fanout.add(rec.get());
            fanout.add(&recording);
            cpu.setObserver(&fanout);
            break;
        }
    }

    RunResult
    runOne(const net::Packet &packet, PacketStats *stats)
    {
        uint32_t l3_len = packet.l3Len();
        if (prevLen > l3_len)
            mem.fill(sim::layout::packetBase + l3_len,
                     prevLen - l3_len);
        mem.writeBlock(sim::layout::packetBase, packet.l3(), l3_len);
        prevLen = l3_len;
        cpu.resetRegs();
        cpu.setReg(isa::regA0, sim::layout::packetBase);
        cpu.setReg(isa::regA1, l3_len);
        if (stats)
            rec->beginPacket();
        sim::RunResult result = cpu.run(entry, 10'000'000);
        if (stats)
            *stats = rec->endPacket();
        return result;
    }
};

/**
 * Every application, hundreds of packets: the reference loop, the
 * block-stepped loop (in its no-observer, devirtualized-recorder,
 * and generic-observer configurations), and the recorded statistics
 * and event streams must all agree exactly.
 */
TEST(InterpDiff, AppsAgreeAcrossDispatchModesAndObservers)
{
    constexpr uint32_t numPackets = 200;
    for (an::AppKind kind : an::allAppKinds) {
        std::vector<net::Packet> packets;
        net::SyntheticTrace gen(net::Profile::MRA, numPackets, 7);
        while (auto p = gen.next())
            packets.push_back(*p);

        using Obs = AppHarness::Obs;
        AppHarness refFull(kind, DispatchMode::Reference,
                           Obs::RecorderAndStream);
        AppHarness blkFull(kind, DispatchMode::Blocked,
                           Obs::RecorderAndStream);
        AppHarness blkSolo(kind, DispatchMode::Blocked,
                           Obs::RecorderOnly);
        AppHarness blkNone(kind, DispatchMode::Blocked, Obs::None);

        std::string title = an::appTitle(kind);
        for (uint32_t i = 0; i < packets.size(); i++) {
            std::string ctx =
                title + " packet " + std::to_string(i);
            const net::Packet &p = packets[i];

            PacketStats sRef, sFull, sSolo;
            RunResult rRef = refFull.runOne(p, &sRef);
            RunResult rFull = blkFull.runOne(p, &sFull);
            RunResult rSolo = blkSolo.runOne(p, &sSolo);
            RunResult rNone = blkNone.runOne(p, nullptr);

            for (const RunResult *r : {&rFull, &rSolo, &rNone}) {
                EXPECT_EQ(static_cast<int>(rRef.stopCode),
                          static_cast<int>(r->stopCode))
                    << ctx;
                EXPECT_EQ(rRef.stopArg, r->stopArg) << ctx;
                EXPECT_EQ(rRef.instCount, r->instCount) << ctx;
                EXPECT_EQ(rRef.hitBudget, r->hitBudget) << ctx;
            }
            for (unsigned r = 0; r < isa::numRegs; r++) {
                EXPECT_EQ(refFull.cpu.reg(r), blkFull.cpu.reg(r))
                    << ctx << " r" << r;
                EXPECT_EQ(refFull.cpu.reg(r), blkSolo.cpu.reg(r))
                    << ctx << " r" << r;
                EXPECT_EQ(refFull.cpu.reg(r), blkNone.cpu.reg(r))
                    << ctx << " r" << r;
            }
            expectStatsEqual(sRef, sFull, ctx + " (generic)");
            expectStatsEqual(sRef, sSolo, ctx + " (solo)");
            if (refFull.recording.events !=
                blkFull.recording.events) {
                FAIL() << ctx << ": event streams diverge ("
                       << refFull.recording.events.size() << " vs "
                       << blkFull.recording.events.size()
                       << " events)";
            }
            refFull.recording.events.clear();
            blkFull.recording.events.clear();
        }

        // Run-level aggregates accumulated by the recorders.
        EXPECT_EQ(refFull.rec->totalInsts(),
                  blkFull.rec->totalInsts())
            << title;
        EXPECT_EQ(refFull.rec->instMemoryBytes(),
                  blkFull.rec->instMemoryBytes())
            << title;
        EXPECT_EQ(refFull.rec->dataMemoryBytes(),
                  blkFull.rec->dataMemoryBytes())
            << title;
        EXPECT_EQ(refFull.rec->classCounts(),
                  blkFull.rec->classCounts())
            << title;
        EXPECT_EQ(refFull.cpu.totalInstCount(),
                  blkFull.cpu.totalInstCount())
            << title;
    }
}

// ---------------------------------------------------------------------
// Fault matrix: hand-built programs that fault, run under every
// dispatch configuration.  Exception type, message, and the register
// file at the throw must match the reference loop exactly.
// ---------------------------------------------------------------------

/** How one faulting run ended. */
struct FaultOutcome
{
    std::string type;    ///< typeid-independent label, set by caller
    std::string message; ///< e..what()
    uint32_t regs[isa::numRegs];
};

class FaultMatrix : public ::testing::Test
{
  protected:
    /** The observer configurations every fault case runs under. */
    enum class Mode { Ref, BlockedNone, BlockedRecorder,
                      BlockedGeneric };

    static const char *
    modeName(Mode m)
    {
        switch (m) {
          case Mode::Ref: return "reference";
          case Mode::BlockedNone: return "blocked/none";
          case Mode::BlockedRecorder: return "blocked/recorder";
          case Mode::BlockedGeneric: return "blocked/generic";
        }
        return "?";
    }

    /**
     * Run @p src under @p mode; on the expected fault @p ErrT,
     * capture the message and register file.
     */
    template <typename ErrT>
    FaultOutcome
    runExpectingFault(const std::string &src, Mode mode,
                      uint64_t budget = 1000)
    {
        isa::Program prog = isa::Assembler(sim::layout::textBase)
                                .assemble(src, "faulttest");
        Memory mem;
        Cpu cpu{mem};
        cpu.loadProgram(prog);
        BlockMap blocks(prog);
        PacketRecorder rec(prog, blocks);
        RecordingObserver stream;
        FanoutObserver fanout;
        switch (mode) {
          case Mode::Ref:
            cpu.setDispatchMode(DispatchMode::Reference);
            break;
          case Mode::BlockedNone:
            break;
          case Mode::BlockedRecorder:
            fanout.add(&rec);
            cpu.setObserver(&fanout);
            rec.beginPacket();
            break;
          case Mode::BlockedGeneric:
            fanout.add(&rec);
            fanout.add(&stream);
            cpu.setObserver(&fanout);
            rec.beginPacket();
            break;
        }
        uint32_t entry = prog.hasSymbol("main") ? prog.entry()
                                                : prog.baseAddr;
        FaultOutcome out;
        try {
            cpu.run(entry, budget);
            ADD_FAILURE() << modeName(mode)
                          << ": expected a fault, run completed";
        } catch (const ErrT &e) {
            out.message = e.what();
        } catch (const std::exception &e) {
            ADD_FAILURE() << modeName(mode)
                          << ": wrong exception type: " << e.what();
        }
        for (unsigned r = 0; r < isa::numRegs; r++)
            out.regs[r] = cpu.reg(r);
        return out;
    }

    /** Run under all modes and require identical outcomes. */
    template <typename ErrT>
    void
    expectSameFault(const std::string &src,
                    const std::string &expect_message,
                    uint64_t budget = 1000)
    {
        FaultOutcome ref =
            runExpectingFault<ErrT>(src, Mode::Ref, budget);
        EXPECT_EQ(ref.message, expect_message);
        for (Mode m : {Mode::BlockedNone, Mode::BlockedRecorder,
                       Mode::BlockedGeneric}) {
            FaultOutcome got =
                runExpectingFault<ErrT>(src, m, budget);
            EXPECT_EQ(ref.message, got.message) << modeName(m);
            for (unsigned r = 0; r < isa::numRegs; r++)
                EXPECT_EQ(ref.regs[r], got.regs[r])
                    << modeName(m) << " r" << r;
        }
    }
};

TEST_F(FaultMatrix, FetchOutsideProgram)
{
    // Jump far past the end of the (tiny) program image.
    expectSameFault<MemoryError>(R"(
        main:
            li t0, 0x8000
            jr t0
    )",
                                 "instruction fetch outside program: "
                                 "pc=0x8000");
}

TEST_F(FaultMatrix, MisalignedFetch)
{
    expectSameFault<AlignmentError>(R"(
        main:
            li t0, 0x1002
            jr t0
    )",
                                    "misaligned instruction fetch: "
                                    "pc=0x1002");
}

TEST_F(FaultMatrix, UnmappedLoad)
{
    // Registers written before the fault must be identical at the
    // throw in every mode.
    expectSameFault<MemoryError>(R"(
        main:
            li t0, 11
            li t1, 22
            lw t2, 0(zero)
            li t3, 33
            sys 3
    )",
                                 "access to unmapped address 0x0 "
                                 "(4 bytes)");
}

TEST_F(FaultMatrix, MisalignedLoad)
{
    expectSameFault<AlignmentError>(R"(
        main:
            li t0, 0x100002
            lw t1, 0(t0)
            sys 3
    )",
                                    "misaligned 32-bit read at "
                                    "0x100002");
}

TEST_F(FaultMatrix, UnmappedStoreMidBlock)
{
    expectSameFault<MemoryError>(R"(
        main:
            li t0, 5
            li t1, 7
            add t2, t0, t1
            sw t2, 0(zero)
            add t3, t0, t0
            sys 3
    )",
                                 "access to unmapped address 0x0 "
                                 "(4 bytes)");
}

TEST_F(FaultMatrix, UndecodableWord)
{
    // 0xee is not a valid opcode byte; the word sits mid-stream so
    // the straight-line prefix before it must execute (and be
    // visible in the registers) before the fault fires.
    expectSameFault<DecodeError>(R"(
        main:
            li t0, 1
            li t1, 2
            .word 0xee000000
            li t2, 3
            sys 3
    )",
                                 "undecodable instruction word at "
                                 "pc=0x1008");
}

TEST_F(FaultMatrix, UndecodableWordAtEntry)
{
    // A run consisting of nothing but the undecodable word.
    expectSameFault<DecodeError>(R"(
        main:
            .word 0xee000000
    )",
                                 "undecodable instruction word at "
                                 "pc=0x1000");
}

TEST_F(FaultMatrix, BudgetExhausted)
{
    expectSameFault<BudgetError>(R"(
        main:
            j main
    )",
                                 "instruction budget (1000) "
                                 "exhausted at pc=0x1000",
                                 1000);
}

TEST_F(FaultMatrix, BudgetExhaustedMidStraightLine)
{
    // The budget expires in the middle of a straight-line run, so
    // the block-stepped loop has to clip the run; nextPc must land
    // exactly on the first unexecuted instruction.
    const std::string src = R"(
        main:
            li t0, 1
            li t1, 2
            li t2, 3
            li t3, 4
            li t4, 5
            sys 3
    )";
    expectSameFault<BudgetError>(
        src, "instruction budget (3) exhausted at pc=0x100c", 3);
}

TEST_F(FaultMatrix, SliceResumesIdenticallyAcrossModes)
{
    const std::string src = R"(
        main:
            li t0, 1
            li t1, 2
            li t2, 3
            li t3, 4
            li t4, 5
            sys 3
    )";
    isa::Program prog =
        isa::Assembler(sim::layout::textBase).assemble(src, "slice");

    auto sliceAndResume = [&](DispatchMode mode) {
        Memory mem;
        Cpu cpu{mem};
        cpu.loadProgram(prog);
        cpu.setDispatchMode(mode);
        RunResult first = cpu.runSlice(prog.entry(), 3);
        EXPECT_TRUE(first.hitBudget);
        RunResult rest = cpu.runSlice(first.nextPc, 1000);
        EXPECT_FALSE(rest.hitBudget);
        return std::tuple(first.instCount, first.nextPc,
                          rest.instCount, cpu.reg(9));
    };

    auto ref = sliceAndResume(DispatchMode::Reference);
    auto blk = sliceAndResume(DispatchMode::Blocked);
    EXPECT_EQ(ref, blk);
    EXPECT_EQ(std::get<1>(ref), sim::layout::textBase + 12);
}

} // namespace
