/**
 * @file
 * Differential tests of the interpreter dispatch loops.
 *
 * The block-stepped loop must be bit-identical to the per-instruction
 * reference loop: same RunResult, same registers, same per-packet
 * statistics, same observer event stream, and — for every fault
 * class — the same exception type, message, and architectural state
 * at the throw.
 * These tests pin that equivalence down on the real workload
 * programs (every application, hundreds of synthetic packets), on a
 * hand-built fault matrix, and on seeded random programs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <typeinfo>
#include <vector>

#include "analysis/experiments.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
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

/** A memTrace entry, flattened for comparison. */
std::tuple<uint64_t, uint32_t, uint8_t, bool, MemRegion>
traced(const PacketStats::TracedAccess &t)
{
    return {t.instIndex, t.event.addr, t.event.size, t.event.isStore,
            t.event.region};
}

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
    EXPECT_EQ(a.instTrace, b.instTrace) << what;
    ASSERT_EQ(a.memTrace.size(), b.memTrace.size()) << what;
    for (size_t i = 0; i < a.memTrace.size(); i++)
        EXPECT_EQ(traced(a.memTrace[i]), traced(b.memTrace[i]))
            << what << " memTrace[" << i << "]";
}

/** A recorder's run-level aggregates, captured for comparison. */
struct Aggregates
{
    uint64_t totalInsts = 0;
    uint64_t instBytes = 0;
    uint64_t dataBytes = 0;
    std::array<uint64_t, numInstClasses> mix{};
};

Aggregates
aggregatesOf(const PacketRecorder &rec)
{
    return {rec.totalInsts(), rec.instMemoryBytes(),
            rec.dataMemoryBytes(), rec.classCounts()};
}

void
expectAggregatesEqual(const Aggregates &a, const Aggregates &b,
                      const std::string &what)
{
    EXPECT_EQ(a.totalInsts, b.totalInsts) << what;
    EXPECT_EQ(a.instBytes, b.instBytes) << what;
    EXPECT_EQ(a.dataBytes, b.dataBytes) << what;
    EXPECT_EQ(a.mix, b.mix) << what;
}

/**
 * The recorder configurations every comparison runs under: the
 * default (what PacketBench's tables use), and every trace on.
 */
const RecorderConfig recorderConfigs[] = {
    {},
    {.instTrace = true, .memTrace = true, .blockSets = true},
};

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

    AppHarness(an::AppKind kind, DispatchMode mode, Obs wired,
               RecorderConfig rcfg)
    {
        an::ExperimentConfig cfg;
        app = an::makeApp(kind, cfg);
        isa::Program prog = app->setup(mem);
        cpu.loadProgram(prog);
        entry = prog.entry("main");
        blockMap = std::make_unique<sim::BlockMap>(prog);
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
 * One application, hundreds of packets: the reference loop, the
 * block-stepped loop (in its no-observer, run-charged-recorder, and
 * generic-observer configurations), and the recorded statistics,
 * traces, run-level aggregates, and event streams must all agree
 * exactly.
 */
void
expectAppAgrees(an::AppKind kind, const RecorderConfig &rcfg)
{
    constexpr uint32_t numPackets = 200;
    std::vector<net::Packet> packets;
    net::SyntheticTrace gen(net::Profile::MRA, numPackets, 7);
    while (auto p = gen.next())
        packets.push_back(*p);

    using Obs = AppHarness::Obs;
    AppHarness refFull(kind, DispatchMode::Reference,
                       Obs::RecorderAndStream, rcfg);
    AppHarness blkFull(kind, DispatchMode::Blocked,
                       Obs::RecorderAndStream, rcfg);
    AppHarness blkSolo(kind, DispatchMode::Blocked,
                       Obs::RecorderOnly, rcfg);
    AppHarness blkNone(kind, DispatchMode::Blocked, Obs::None, rcfg);

    std::string title = an::appTitle(kind) +
                        (rcfg.memTrace ? " (traces)" : "");
    for (uint32_t i = 0; i < packets.size(); i++) {
        std::string ctx = title + " packet " + std::to_string(i);
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
        if (refFull.recording.events != blkFull.recording.events) {
            FAIL() << ctx << ": event streams diverge ("
                   << refFull.recording.events.size() << " vs "
                   << blkFull.recording.events.size()
                   << " events)";
        }
        refFull.recording.events.clear();
        blkFull.recording.events.clear();
    }

    // Run-level aggregates accumulated by the recorders.
    expectAggregatesEqual(aggregatesOf(*refFull.rec),
                          aggregatesOf(*blkFull.rec), title + " (generic)");
    expectAggregatesEqual(aggregatesOf(*refFull.rec),
                          aggregatesOf(*blkSolo.rec), title + " (solo)");
    EXPECT_EQ(refFull.cpu.totalInstCount(),
              blkFull.cpu.totalInstCount())
        << title;
    EXPECT_EQ(refFull.cpu.totalInstCount(),
              blkSolo.cpu.totalInstCount())
        << title;
}

TEST(InterpDiff, AppsAgreeAcrossDispatchModesAndObservers)
{
    for (an::AppKind kind : an::allAppKinds) {
        for (const RecorderConfig &rcfg : recorderConfigs)
            expectAppAgrees(kind, rcfg);
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
    std::string message; ///< e.what()
    uint32_t regs[isa::numRegs];
    /** The recorder's partial packet and aggregates, when attached. */
    PacketStats stats;
    Aggregates aggregates;
    std::vector<Event> events; ///< the generic observer's stream
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
     * capture the message, register file, and what the recorder (and
     * event stream) saw up to the fault.  The reference loop feeds
     * the recorder and the stream through the fan-out.
     */
    template <typename ErrT>
    FaultOutcome
    runExpectingFault(const std::string &src, Mode mode, uint64_t budget,
                      const RecorderConfig &rcfg)
    {
        isa::Program prog = isa::Assembler(sim::layout::textBase)
                                .assemble(src, "faulttest");
        Memory mem;
        Cpu cpu{mem};
        cpu.loadProgram(prog);
        BlockMap blocks(prog);
        PacketRecorder rec(prog, blocks, rcfg);
        RecordingObserver stream;
        FanoutObserver fanout;
        if (mode != Mode::BlockedNone)
            fanout.add(&rec);
        if (mode == Mode::Ref || mode == Mode::BlockedGeneric)
            fanout.add(&stream);
        if (mode == Mode::Ref)
            cpu.setDispatchMode(DispatchMode::Reference);
        if (mode != Mode::BlockedNone) {
            cpu.setObserver(&fanout);
            rec.beginPacket();
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
        if (mode != Mode::BlockedNone) {
            out.stats = rec.endPacket();
            out.aggregates = aggregatesOf(rec);
        }
        out.events = std::move(stream.events);
        return out;
    }

    /**
     * Run under all modes and recorder configurations and require
     * identical outcomes, down to the recorder's partial packet.
     */
    template <typename ErrT>
    void
    expectSameFault(const std::string &src,
                    const std::string &expect_message,
                    uint64_t budget = 1000)
    {
        for (const RecorderConfig &rcfg : recorderConfigs) {
            FaultOutcome ref =
                runExpectingFault<ErrT>(src, Mode::Ref, budget, rcfg);
            EXPECT_EQ(ref.message, expect_message);
            for (Mode m : {Mode::BlockedNone, Mode::BlockedRecorder,
                           Mode::BlockedGeneric}) {
                FaultOutcome got =
                    runExpectingFault<ErrT>(src, m, budget, rcfg);
                EXPECT_EQ(ref.message, got.message) << modeName(m);
                for (unsigned r = 0; r < isa::numRegs; r++)
                    EXPECT_EQ(ref.regs[r], got.regs[r])
                        << modeName(m) << " r" << r;
                if (m == Mode::BlockedNone)
                    continue;
                expectStatsEqual(ref.stats, got.stats, modeName(m));
                expectAggregatesEqual(ref.aggregates, got.aggregates,
                                      modeName(m));
                if (m == Mode::BlockedGeneric) {
                    EXPECT_TRUE(ref.events == got.events)
                        << "event streams diverge";
                }
            }
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
        .equ DATA, 0x00100000
        main:
            li t0, 1
            li t1, 2
            li t2, 3
            li t3, 4
            li t4, 5
            li t5, DATA
            sw t4, 0(t5)
            lw s0, 0(t5)
            sys 3
    )";
    isa::Program prog =
        isa::Assembler(sim::layout::textBase).assemble(src, "slice");
    BlockMap blocks(prog);

    // One packet across a budget clip mid-run and the resume, then a
    // second packet run whole, with no observer, or with the recorder
    // attached throughout (as the only sink, or next to an event
    // stream).
    struct Sliced
    {
        std::tuple<uint64_t, uint32_t, uint64_t, uint32_t> slices;
        PacketStats first, second;
        Aggregates aggregates;
    };
    enum class Sinks { None, Recorder, RecorderAndStream };
    auto sliceAndResume = [&](DispatchMode mode, Sinks sinks,
                              const RecorderConfig &rcfg) {
        Memory mem;
        Cpu cpu{mem};
        cpu.loadProgram(prog);
        cpu.setDispatchMode(mode);
        PacketRecorder rec(prog, blocks, rcfg);
        RecordingObserver stream;
        FanoutObserver fanout;
        if (sinks != Sinks::None)
            fanout.add(&rec);
        if (sinks == Sinks::RecorderAndStream)
            fanout.add(&stream);
        if (sinks != Sinks::None)
            cpu.setObserver(&fanout);
        Sliced out;
        rec.beginPacket();
        RunResult first = cpu.runSlice(prog.entry(), 3);
        EXPECT_TRUE(first.hitBudget);
        RunResult rest = cpu.runSlice(first.nextPc, 1000);
        EXPECT_FALSE(rest.hitBudget);
        out.first = rec.endPacket();
        out.slices = std::tuple(first.instCount, first.nextPc,
                                rest.instCount, cpu.reg(9));
        rec.beginPacket();
        cpu.resetRegs();
        cpu.run(prog.entry(), 1000);
        out.second = rec.endPacket();
        out.aggregates = aggregatesOf(rec);
        return out;
    };

    for (const RecorderConfig &rcfg : recorderConfigs) {
        Sliced ref = sliceAndResume(DispatchMode::Reference,
                                    Sinks::Recorder, rcfg);
        EXPECT_EQ(std::get<1>(ref.slices), sim::layout::textBase + 12);
        for (Sinks sinks : {Sinks::None, Sinks::Recorder,
                            Sinks::RecorderAndStream}) {
            const std::string what = sinks == Sinks::None ? "none"
                                     : sinks == Sinks::Recorder
                                         ? "solo"
                                         : "generic";
            Sliced blk = sliceAndResume(DispatchMode::Blocked, sinks, rcfg);
            EXPECT_EQ(ref.slices, blk.slices) << what;
            if (sinks == Sinks::None)
                continue;
            expectStatsEqual(ref.first, blk.first, what + " first");
            expectStatsEqual(ref.second, blk.second, what + " second");
            expectAggregatesEqual(ref.aggregates, blk.aggregates, what);
        }
    }
}

/**
 * A recorder built for a program other than the loaded one, with the
 * same base: one that differs in one instruction's class, and one
 * shorter than the code that runs.  Both charging paths take classes
 * and run boundaries from the CPU's decode and charge per-word state
 * only below the recorder's own word count, so the run-charged
 * recorder stays in bounds and agrees with the reference loop.
 */
TEST(InterpDiff, RecorderForAnotherProgramMatchesReference)
{
    const char *ran = R"(
        main:
            li t0, 3
        loop:
            add t1, t1, t0
            addi t0, t0, -1
            bnez t0, loop
            sys 3
    )";
    const char *sameSize = R"(
        main:
            li t0, 3
        loop:
            mul t1, t1, t0
            addi t0, t0, -1
            bnez t0, loop
            sys 3
    )";
    const char *shorter = R"(
        main:
            sys 3
    )";
    isa::Program prog =
        isa::Assembler(sim::layout::textBase).assemble(ran, "ran");
    for (const char *other : {sameSize, shorter}) {
        isa::Program built = isa::Assembler(sim::layout::textBase)
                                 .assemble(other, "other");
        BlockMap blocks(built);
        auto runWith = [&](DispatchMode mode) {
            Memory mem;
            Cpu cpu{mem};
            cpu.loadProgram(prog);
            cpu.setDispatchMode(mode);
            PacketRecorder rec(built, blocks);
            cpu.setObserver(&rec);
            rec.beginPacket();
            cpu.run(prog.entry(), 1000);
            return std::pair(rec.endPacket(), aggregatesOf(rec));
        };
        auto [refStats, refAgg] = runWith(DispatchMode::Reference);
        auto [blkStats, blkAgg] = runWith(DispatchMode::Blocked);
        expectStatsEqual(refStats, blkStats, "other program");
        expectAggregatesEqual(refAgg, blkAgg, "other program");
    }
}

// ---------------------------------------------------------------------
// Random programs: seeded NPE32 code with branches, loops, calls,
// jumps into the middle of straight-line runs, SYS, undecodable
// words, and loads and stores aimed mostly at mapped memory (some
// misaligned or unmapped), run a few packets each in slices that end
// at random instruction budgets.
// ---------------------------------------------------------------------

// Base registers the generated code reads but never writes, so most
// accesses land in mapped regions; generated code writes only
// r5..r12 (t0..s1) and, through calls, lr.
constexpr uint8_t basePacket = 1;
constexpr uint8_t baseData = 2;
constexpr uint8_t baseStack = 3;
constexpr uint8_t baseText = 4;

/** Where the generated code's memory windows start, per region. */
constexpr uint32_t windows[] = {layout::packetBase, layout::dataBase,
                                layout::stackTop - 1024};

/** A random in-range slot, or now and then one past either end. */
uint32_t
randomTarget(Rng &rng, uint32_t n)
{
    if (rng.chance(0.02))
        return rng.chance(0.5) ? n + rng.below(4) : 0u - 1 - rng.below(4);
    return rng.below(n);
}

uint32_t
randomWord(Rng &rng, uint32_t slot, uint32_t n)
{
    static constexpr isa::Op alu[] = {
        isa::Op::ADD,  isa::Op::SUB,  isa::Op::AND,  isa::Op::OR,   isa::Op::XOR,  isa::Op::SLL,
        isa::Op::SRL,  isa::Op::SRA,  isa::Op::MUL,  isa::Op::SLT,  isa::Op::SLTU, isa::Op::ADDI,
        isa::Op::ANDI, isa::Op::ORI,  isa::Op::XORI, isa::Op::SLLI, isa::Op::SRLI, isa::Op::SRAI,
        isa::Op::SLTI, isa::Op::SLTIU, isa::Op::LUI};
    static constexpr isa::Op mem[] = {isa::Op::LW, isa::Op::LH, isa::Op::LHU, isa::Op::LB,
                                 isa::Op::LBU, isa::Op::SW, isa::Op::SH, isa::Op::SB};
    static constexpr isa::Op branch[] = {isa::Op::BEQ, isa::Op::BNE,  isa::Op::BLT,
                                    isa::Op::BGE, isa::Op::BLTU, isa::Op::BGEU};
    auto scratch = [&] { return static_cast<uint8_t>(rng.range(5, 12)); };
    auto anyReg = [&] { return static_cast<uint8_t>(rng.below(16)); };
    auto offsetTo = [&](uint32_t target) {
        return static_cast<int32_t>(target - slot - 1);
    };

    isa::Inst inst;
    const uint32_t pick = rng.below(100);
    if (pick < 44) {
        inst.op = alu[rng.below(std::size(alu))];
        inst.rd = scratch();
        inst.rs = anyReg();
        inst.rt = anyReg();
        inst.imm = static_cast<int32_t>(
            rng.chance(0.7) ? rng.below(16) : rng.below(65536));
    } else if (pick < 66) {
        inst.op = mem[rng.below(std::size(mem))];
        const bool store = isa::opInfo(inst.op).cls ==
                           isa::InstClass::Store;
        const uint32_t size =
            inst.op == isa::Op::LW || inst.op == isa::Op::SW
                ? 4
                : (inst.op == isa::Op::LB || inst.op == isa::Op::LBU ||
                   inst.op == isa::Op::SB)
                      ? 1
                      : 2;
        inst.rd = store ? anyReg() : scratch();
        inst.rs = rng.chance(0.95)
                      ? static_cast<uint8_t>(rng.range(1, 4))
                      : scratch();
        uint32_t offset = rng.below(64) * size;
        if (rng.chance(0.04))
            offset += 1; // misaligned for halfwords and words
        inst.imm = static_cast<int32_t>(offset);
    } else if (pick < 80) {
        inst.op = branch[rng.below(std::size(branch))];
        inst.rs = static_cast<uint8_t>(rng.below(13));
        inst.rt = static_cast<uint8_t>(rng.below(13));
        inst.imm = offsetTo(randomTarget(rng, n));
    } else if (pick < 84) {
        inst.op = isa::Op::J;
        inst.imm = offsetTo(randomTarget(rng, n));
    } else if (pick < 88) {
        inst.op = isa::Op::JAL;
        inst.imm = offsetTo(randomTarget(rng, n));
    } else if (pick < 92) {
        // Mostly a return; otherwise a jump through a scratch
        // register, which usually faults on fetch.
        inst.op = isa::Op::JR;
        inst.rs = rng.chance(0.9) ? isa::regLr : scratch();
    } else if (pick < 93) {
        inst.op = isa::Op::JALR;
        inst.rd = scratch();
        inst.rs = isa::regLr;
    } else if (pick < 99) {
        inst.op = isa::Op::SYS;
        inst.imm = static_cast<int32_t>(rng.below(4));
    } else {
        // An opcode byte no instruction uses.
        uint32_t byte;
        do {
            byte = rng.below(256);
        } while (isa::decode(byte << 24).op != isa::Op::INVALID);
        return byte << 24 | rng.below(1u << 24);
    }
    return isa::encode(inst);
}

isa::Program
randomProgram(Rng &rng)
{
    isa::Program prog;
    prog.baseAddr = layout::textBase;
    const uint32_t n = rng.range(6, 64);
    for (uint32_t i = 0; i < n; i++)
        prog.words.push_back(randomWord(rng, i, n));
    prog.symbols["main"] = prog.baseAddr;
    return prog;
}

/** Everything one configuration observed of one random program. */
struct RandomRun
{
    std::string log; ///< results, faults, registers, memory, stats
    std::vector<PacketStats> stats;
    Aggregates aggregates;
    std::vector<Event> events;
};

enum class RandomMode { Ref, BlockedNone, BlockedSolo, BlockedGeneric };

/**
 * Run @p packets packets of @p prog on @p cpu, whose memory is reset
 * to all zeroes first.  Packet inputs, entry points, and slice
 * budgets derive from @p seed alone, so every configuration sees the
 * same ones.
 */
RandomRun
runRandom(Cpu &cpu, const isa::Program &prog, uint32_t seed,
          RandomMode mode, const RecorderConfig &rcfg)
{
    constexpr uint32_t packets = 3;
    Memory &mem = cpu.memory();
    mem.reset();
    cpu.loadProgram(prog);
    BlockMap blocks(prog);
    PacketRecorder rec(prog, blocks, rcfg);
    RecordingObserver stream;
    FanoutObserver fanout;
    const bool recorded = mode != RandomMode::BlockedNone;
    cpu.setDispatchMode(mode == RandomMode::Ref ? DispatchMode::Reference
                                                : DispatchMode::Blocked);
    if (mode == RandomMode::Ref || mode == RandomMode::BlockedGeneric) {
        fanout.add(&rec);
        fanout.add(&stream);
        cpu.setObserver(&fanout);
    } else {
        cpu.setObserver(mode == RandomMode::BlockedSolo ? &rec : nullptr);
    }

    Rng rng(seed);
    for (uint32_t window : windows) {
        for (uint32_t i = 0; i < 768; i++)
            mem.write8(window + i, static_cast<uint8_t>(rng.next()));
    }

    RandomRun out;
    std::ostringstream log;
    const uint32_t n = static_cast<uint32_t>(prog.words.size());
    for (uint32_t p = 0; p < packets; p++) {
        cpu.resetRegs();
        cpu.setReg(basePacket, layout::packetBase);
        cpu.setReg(baseData, layout::dataBase);
        cpu.setReg(baseStack, windows[2]);
        cpu.setReg(baseText, layout::textBase);
        for (unsigned r = 5; r <= 12; r++)
            cpu.setReg(r, rng.chance(0.5) ? rng.below(8) : rng.next());
        cpu.setReg(isa::regLr, layout::textBase + 4 * rng.below(n));
        uint32_t pc = layout::textBase +
                      (rng.chance(0.7) ? 0 : 4 * rng.below(n));
        if (recorded)
            rec.beginPacket();
        log << "packet " << p << ":";
        try {
            // A few slices, each clipped at a random budget; the
            // last through run(), whose exhaustion is a fault.
            for (int slice = 0; slice < 3; slice++) {
                const uint64_t budget = rng.chance(0.5)
                                            ? rng.range(1, 40)
                                            : rng.range(100, 1500);
                RunResult r = slice < 2 ? cpu.runSlice(pc, budget)
                                        : cpu.run(pc, budget);
                log << " [" << static_cast<int>(r.stopCode) << ' '
                    << r.stopArg << ' ' << r.instCount << ' '
                    << r.hitBudget << ' ' << r.nextPc << ']';
                if (!r.hitBudget)
                    break;
                pc = r.nextPc;
            }
        } catch (const SimError &e) {
            log << " fault " << typeid(e).name() << ": " << e.what();
        }
        log << "\n regs";
        for (unsigned r = 0; r < isa::numRegs; r++)
            log << ' ' << cpu.reg(r);
        log << "\n";
        if (recorded)
            out.stats.push_back(rec.endPacket());
    }
    log << "memory";
    for (uint32_t window : windows) {
        uint8_t bytes[1024];
        mem.readBlock(window, bytes, sizeof(bytes));
        uint64_t digest = 0;
        for (uint8_t b : bytes)
            digest = digest * 131 + b;
        log << ' ' << digest;
    }
    out.log = log.str();
    if (recorded)
        out.aggregates = aggregatesOf(rec);
    out.events = std::move(stream.events);
    cpu.setObserver(nullptr);
    return out;
}

TEST(InterpDiff, RandomProgramsAgreeAcrossDispatchModesAndObservers)
{
    constexpr uint32_t numPrograms = 600;
    // One machine for every run: Memory::reset() is cheap, building
    // a fresh 16 MiB memory per run is not.
    Memory mem;
    Cpu cpu{mem};
    for (uint32_t seed = 1; seed <= numPrograms; seed++) {
        Rng rng(seed);
        const isa::Program prog = randomProgram(rng);
        const std::string where = "seed " + std::to_string(seed) +
                                  ", program:\n" +
                                  isa::disassemble(prog);
        for (const RecorderConfig &rcfg : recorderConfigs) {
            const RandomRun ref =
                runRandom(cpu, prog, seed, RandomMode::Ref, rcfg);
            for (RandomMode mode :
                 {RandomMode::BlockedNone, RandomMode::BlockedSolo,
                  RandomMode::BlockedGeneric}) {
                const RandomRun got =
                    runRandom(cpu, prog, seed, mode, rcfg);
                ASSERT_EQ(ref.log, got.log) << where;
                if (mode == RandomMode::BlockedNone)
                    continue;
                ASSERT_EQ(ref.stats.size(), got.stats.size()) << where;
                for (size_t p = 0; p < ref.stats.size(); p++) {
                    expectStatsEqual(ref.stats[p], got.stats[p],
                                     "packet " + std::to_string(p));
                }
                expectAggregatesEqual(ref.aggregates, got.aggregates,
                                      "aggregates");
                if (mode == RandomMode::BlockedGeneric) {
                    EXPECT_TRUE(ref.events == got.events)
                        << "event streams diverge";
                }
                if (::testing::Test::HasFailure())
                    FAIL() << where;
            }
        }
    }
}

} // namespace
