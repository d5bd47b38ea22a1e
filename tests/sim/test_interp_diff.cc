/**
 * @file
 * Differential tests of the interpreter dispatch loops.
 *
 * The block-stepped loop must be bit-identical to the per-instruction
 * reference loop: same RunResult, same registers, same observer event
 * stream (flattened to instructions), and — for every fault class —
 * the same exception type, message, and architectural state at the
 * throw.  In every configuration the PacketRecorder's per-packet
 * statistics and run-level aggregates must equal those of a naive
 * per-instruction oracle recorder (oracle_recorder.hh).
 * These tests pin that equivalence down on the real workload
 * programs (every application, hundreds of synthetic packets), on a
 * hand-built fault matrix, and on seeded random programs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "analysis/experiments.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
#include "net/tracegen.hh"
#include "oracle_recorder.hh"
#include "sim/accounting.hh"
#include "sim/bblock.hh"
#include "sim/cpu.hh"
#include "sim/memmap.hh"
#include "sim/simerror.hh"

namespace
{

using namespace pb;
using namespace pb::sim;
using test::OracleRecorder;

/**
 * A generic observer that flattens the run stream into one line per
 * instruction, memory access, and conditional-branch outcome.
 */
class FlatStream : public ExecObserver
{
  public:
    std::string events;

    void
    onMemAccessAt(const MemAccessEvent &event,
                  uint32_t offsetInRun) override
    {
        pending.emplace_back(offsetInRun, event);
    }

    void
    onRun(const RunEvent &run) override
    {
        std::ostringstream out;
        auto access = pending.begin();
        for (uint32_t i = 0; i < run.n; i++) {
            out << "inst " << run.pcAt(i) << ' '
                << static_cast<int>(run.insts[i].op) << '\n';
            for (; access != pending.end() && access->first == i;
                 ++access) {
                const MemAccessEvent &e = access->second;
                out << " mem " << e.addr << ' ' << int{e.size} << ' '
                    << e.isStore << ' ' << static_cast<int>(e.region)
                    << '\n';
            }
        }
        if (run.endsInBranch()) {
            out << " branch " << run.taken << ' '
                << (run.taken ? run.target : 0) << '\n';
        }
        pending.clear();
        events += out.str();
    }

  private:
    std::vector<std::pair<uint32_t, MemAccessEvent>> pending;
};

/** Every field of @p stats, one per line, for comparison. */
std::string
describe(const PacketStats &stats)
{
    std::ostringstream out;
    out << "insts " << stats.instCount << "\nunique "
        << stats.uniqueInstCount << "\npacket r/w " << stats.packetReads
        << ' ' << stats.packetWrites << "\nnon-packet r/w "
        << stats.nonPacketReads << ' ' << stats.nonPacketWrites
        << "\nblocks";
    for (uint32_t block : stats.blocks)
        out << ' ' << block;
    out << "\ninstTrace";
    for (uint32_t pc : stats.instTrace)
        out << ' ' << pc;
    out << '\n';
    for (const PacketStats::TracedAccess &t : stats.memTrace) {
        out << "access #" << t.instIndex << ' ' << t.event.addr << ' '
            << int{t.event.size} << ' ' << t.event.isStore << ' '
            << static_cast<int>(t.event.region) << '\n';
    }
    return out.str();
}

/** A recorder's (or the oracle's) run-level aggregates. */
template <typename Recorder>
std::string
describeAggregates(const Recorder &rec)
{
    std::ostringstream out;
    out << "total insts " << rec.totalInsts() << "\ninst bytes "
        << rec.instMemoryBytes() << "\ndata bytes "
        << rec.dataMemoryBytes() << "\nmix";
    for (uint64_t count : rec.classCounts())
        out << ' ' << count;
    out << '\n';
    return out.str();
}

/** How the recorder is attached to the CPU. */
enum class Wiring
{
    None,   ///< no observer: the events compile out
    Solo,   ///< a one-sink fan-out that resolves to the recorder
    Fanout, ///< recorder, oracle and flat stream: virtual dispatch
};

const char *
wiringName(Wiring w)
{
    switch (w) {
      case Wiring::None: return "none";
      case Wiring::Solo: return "solo";
      case Wiring::Fanout: return "fan-out";
    }
    return "?";
}

/** Every loop and wiring the comparisons run, the oracle's first. */
struct Config
{
    DispatchMode mode;
    Wiring wiring;

    std::string
    name() const
    {
        return std::string(mode == DispatchMode::Reference
                               ? "reference/"
                               : "blocked/") +
               wiringName(wiring);
    }
};

const Config configs[] = {
    {DispatchMode::Reference, Wiring::Fanout},
    {DispatchMode::Reference, Wiring::Solo},
    {DispatchMode::Blocked, Wiring::None},
    {DispatchMode::Blocked, Wiring::Solo},
    {DispatchMode::Blocked, Wiring::Fanout},
};

/** The observers one configuration attaches to its CPU. */
struct Observers
{
    PacketRecorder rec;
    OracleRecorder oracle;
    FlatStream stream;
    FanoutObserver fanout;
    const Wiring wiring;

    Observers(const isa::Program &prog, const BlockMap &blocks,
              const RecorderConfig &rcfg, Wiring wiring_)
        : rec(prog, blocks, rcfg), oracle(prog, blocks, rcfg),
          wiring(wiring_)
    {
        fanout.add(&rec);
        if (wiring == Wiring::Fanout) {
            fanout.add(&oracle);
            fanout.add(&stream);
        }
    }

    void
    attach(Cpu &cpu)
    {
        cpu.setObserver(wiring == Wiring::None ? nullptr : &fanout);
    }

    void
    beginPacket()
    {
        if (wiring != Wiring::None)
            rec.beginPacket();
        oracle.beginPacket();
    }

    /** Close the packet: its recorder and oracle statistics. */
    std::pair<std::string, std::string>
    endPacket()
    {
        if (wiring == Wiring::None)
            return {};
        return {describe(rec.endPacket()),
                describe(oracle.endPacket())};
    }
};

/**
 * The recorder configurations every comparison runs under: the
 * default (what PacketBench's tables use), and every trace on.
 */
const RecorderConfig recorderConfigs[] = {
    {},
    {.instTrace = true, .memTrace = true, .blockSets = true},
};

/** What one configuration observed of one workload. */
struct Outcome
{
    std::string log; ///< results, faults, registers, memory
    std::string recStats;    ///< the recorder's packets
    std::string oracleStats; ///< the oracle's packets
    std::string recAggregates;
    std::string oracleAggregates;
    std::string events; ///< the flattened stream, in a fan-out

    /** Close packet @p index on @p obs. */
    void
    endPacket(Observers &obs, size_t index)
    {
        auto [rec, oracle] = obs.endPacket();
        const std::string header =
            "packet " + std::to_string(index) + "\n";
        recStats += header + rec;
        oracleStats += header + oracle;
    }

    /** Close the run: aggregates and event stream. */
    void
    finish(Observers &obs)
    {
        if (obs.wiring != Wiring::None)
            recAggregates = describeAggregates(obs.rec);
        oracleAggregates = describeAggregates(obs.oracle);
        events = std::move(obs.stream.events);
    }
};

/**
 * Where @p got, observed under @p config, departs from @p ref, the
 * reference loop's fan-out run; empty when it does not.  The run log
 * must match everywhere; the recorder's statistics and aggregates
 * must equal the oracle's under the reference loop; in a fan-out, the
 * oracle's and the flattened event stream must match too.
 */
std::string
mismatch(const Config &config, const Outcome &ref, const Outcome &got)
{
    auto differs = [&](const char *what, const std::string &want,
                       const std::string &have) -> std::string {
        if (want == have)
            return {};
        std::istringstream w(want), h(have);
        std::string wl, hl;
        size_t line = 1;
        for (;; line++) {
            const bool more_w = bool(std::getline(w, wl));
            const bool more_h = bool(std::getline(h, hl));
            if (!more_w || !more_h || wl != hl) {
                if (!more_w)
                    wl = "<end>";
                if (!more_h)
                    hl = "<end>";
                break;
            }
        }
        return config.name() + ": " + what + " differs at line " +
               std::to_string(line) + "\n  want: " + wl +
               "\n  got:  " + hl;
    };
    std::string why = differs("run log", ref.log, got.log);
    if (why.empty() && config.wiring != Wiring::None) {
        why = differs("recorder statistics (oracle vs recorder)",
                      ref.oracleStats, got.recStats);
        if (why.empty())
            why = differs("recorder aggregates (oracle vs recorder)",
                          ref.oracleAggregates, got.recAggregates);
    }
    if (why.empty() && config.wiring == Wiring::Fanout) {
        why = differs("oracle statistics", ref.oracleStats,
                      got.oracleStats);
        if (why.empty())
            why = differs("oracle aggregates", ref.oracleAggregates,
                          got.oracleAggregates);
        if (why.empty())
            why = differs("event stream", ref.events, got.events);
    }
    return why;
}

/** Append the register file to @p log. */
void
logRegs(std::ostream &log, const Cpu &cpu)
{
    log << "regs";
    for (unsigned r = 0; r < isa::numRegs; r++)
        log << ' ' << cpu.reg(r);
    log << '\n';
}

/**
 * Place @p packet where the handler finds it, after the previous
 * packet of @p prev_len bytes, and set the handler's arguments: the
 * framework's calling convention (mirrors PacketBench's per-packet
 * accounting boundary).
 */
void
placePacket(Cpu &cpu, const net::Packet &packet, uint32_t &prev_len)
{
    Memory &mem = cpu.memory();
    const uint32_t l3_len = packet.l3Len();
    if (prev_len > l3_len)
        mem.fill(layout::packetBase + l3_len, prev_len - l3_len);
    mem.writeBlock(layout::packetBase, packet.l3(), l3_len);
    prev_len = l3_len;
    cpu.resetRegs();
    cpu.setReg(isa::regA0, layout::packetBase);
    cpu.setReg(isa::regA1, l3_len);
}

/** @p count synthetic MRA packets, the same ones every call. */
std::vector<net::Packet>
mraPackets(uint32_t count)
{
    std::vector<net::Packet> packets;
    net::SyntheticTrace gen(net::Profile::MRA, count, 7);
    while (auto p = gen.next())
        packets.push_back(*p);
    return packets;
}

/**
 * One application, hundreds of packets, driven with the framework's
 * calling convention under one configuration.
 */
Outcome
runApp(an::AppKind kind, const Config &config,
       const RecorderConfig &rcfg,
       const std::vector<net::Packet> &packets)
{
    an::ExperimentConfig cfg;
    auto app = an::makeApp(kind, cfg);
    Memory mem;
    Cpu cpu{mem};
    const isa::Program prog = app->setup(mem);
    cpu.loadProgram(prog);
    cpu.setDispatchMode(config.mode);
    const BlockMap blocks(prog);
    Observers obs(prog, blocks, rcfg, config.wiring);
    obs.attach(cpu);

    Outcome out;
    std::ostringstream log;
    uint32_t prev_len = 0;
    for (size_t i = 0; i < packets.size(); i++) {
        placePacket(cpu, packets[i], prev_len);
        obs.beginPacket();
        const RunResult r = cpu.run(prog.entry("main"), 10'000'000);
        log << "packet " << i << ": " << static_cast<int>(r.stopCode)
            << ' ' << r.stopArg << ' ' << r.instCount << ' '
            << r.hitBudget << '\n';
        logRegs(log, cpu);
        out.endPacket(obs, i);
    }
    log << "lifetime insts " << cpu.totalInstCount() << '\n';
    out.log = log.str();
    out.finish(obs);
    return out;
}

/**
 * One application, hundreds of packets: the reference loop, the
 * block-stepped loop (in its no-observer, lone-recorder, and
 * generic-observer configurations), the recorded statistics, traces,
 * and run-level aggregates against the oracle's, and the event
 * streams must all agree exactly.
 */
void
expectAppAgrees(an::AppKind kind, const RecorderConfig &rcfg)
{
    const std::vector<net::Packet> packets = mraPackets(200);

    const std::string title = an::appTitle(kind) +
                              (rcfg.memTrace ? " (traces)" : "");
    const Outcome ref = runApp(kind, configs[0], rcfg, packets);
    EXPECT_EQ(mismatch(configs[0], ref, ref), "") << title;
    for (size_t c = 1; c < std::size(configs); c++) {
        const Outcome got = runApp(kind, configs[c], rcfg, packets);
        EXPECT_EQ(mismatch(configs[c], ref, got), "") << title;
    }
}

TEST(InterpDiff, AppsAgreeAcrossDispatchModesAndObservers)
{
    for (an::AppKind kind : an::allAppKinds) {
        for (const RecorderConfig &rcfg : recorderConfigs)
            expectAppAgrees(kind, rcfg);
    }
}

/**
 * Two recorders attached to one CPU in turn, each over the same
 * packets.  Touch maps belong to a recorder, so each must report the
 * data footprint of its own turn: the one an oracle reports for that
 * turn on a second machine, through the reference loop.  A memo of
 * marked addresses that outlived its recorder (kept in the CPU, say)
 * would hide the second turn's bytes.
 */
TEST(InterpDiff, RecordersInTurnEachCountTheirOwnFootprint)
{
    const std::vector<net::Packet> packets = mraPackets(100);
    for (an::AppKind kind : an::allAppKinds) {
        an::ExperimentConfig cfg;
        auto app = an::makeApp(kind, cfg);
        Memory mem, ref_mem;
        Cpu cpu{mem}, ref{ref_mem};
        const isa::Program prog = app->setup(mem);
        app->setup(ref_mem);
        cpu.loadProgram(prog);
        ref.loadProgram(prog);
        ref.setDispatchMode(DispatchMode::Reference);
        const BlockMap blocks(prog);
        uint32_t prev_len = 0, ref_prev_len = 0;
        for (int turn = 0; turn < 2; turn++) {
            PacketRecorder rec(prog, blocks);
            OracleRecorder oracle(prog, blocks);
            cpu.setObserver(&rec);
            ref.setObserver(&oracle);
            for (const net::Packet &packet : packets) {
                placePacket(cpu, packet, prev_len);
                rec.beginPacket();
                cpu.run(prog.entry("main"), 10'000'000);
                rec.endPacket();
                placePacket(ref, packet, ref_prev_len);
                oracle.beginPacket();
                ref.run(prog.entry("main"), 10'000'000);
                oracle.endPacket();
            }
            EXPECT_GT(oracle.dataMemoryBytes(), 0u);
            EXPECT_EQ(rec.dataMemoryBytes(), oracle.dataMemoryBytes())
                << an::appTitle(kind) << ", turn " << turn;
            cpu.setObserver(nullptr);
            ref.setObserver(nullptr);
        }
    }
}

// ---------------------------------------------------------------------
// Fault matrix: hand-built programs that fault, run under every
// dispatch configuration.  Exception type, message, and the register
// file at the throw must match the reference loop exactly.
// ---------------------------------------------------------------------

class FaultMatrix : public ::testing::Test
{
  protected:
    /**
     * Run @p src under @p config; on the expected fault @p ErrT,
     * log the message and register file, and capture what the
     * recorder, the oracle, and the event stream saw up to the fault.
     */
    template <typename ErrT>
    Outcome
    runExpectingFault(const std::string &src, const Config &config,
                      uint64_t budget, const RecorderConfig &rcfg)
    {
        isa::Program prog = isa::Assembler(sim::layout::textBase)
                                .assemble(src, "faulttest");
        Memory mem;
        Cpu cpu{mem};
        cpu.loadProgram(prog);
        cpu.setDispatchMode(config.mode);
        BlockMap blocks(prog);
        Observers obs(prog, blocks, rcfg, config.wiring);
        obs.attach(cpu);
        obs.beginPacket();
        uint32_t entry = prog.hasSymbol("main") ? prog.entry()
                                                : prog.baseAddr;
        std::ostringstream log;
        try {
            cpu.run(entry, budget);
            ADD_FAILURE() << config.name()
                          << ": expected a fault, run completed";
        } catch (const ErrT &e) {
            log << e.what() << '\n';
        } catch (const std::exception &e) {
            ADD_FAILURE() << config.name()
                          << ": wrong exception type: " << e.what();
        }
        logRegs(log, cpu);
        Outcome out;
        out.log = log.str();
        out.endPacket(obs, 0);
        out.finish(obs);
        return out;
    }

    /**
     * Run under every configuration and recorder configuration and
     * require identical outcomes, down to the recorder's partial
     * packet.
     */
    template <typename ErrT>
    void
    expectSameFault(const std::string &src,
                    const std::string &expect_message,
                    uint64_t budget = 1000)
    {
        for (const RecorderConfig &rcfg : recorderConfigs) {
            const Outcome ref =
                runExpectingFault<ErrT>(src, configs[0], budget, rcfg);
            EXPECT_EQ(ref.log.substr(0, ref.log.find('\n')),
                      expect_message);
            for (const Config &config : configs) {
                EXPECT_EQ(mismatch(config, ref,
                                   runExpectingFault<ErrT>(
                                       src, config, budget, rcfg)),
                          "");
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
    // second packet run whole.
    auto sliceAndResume = [&](const Config &config,
                              const RecorderConfig &rcfg) {
        Memory mem;
        Cpu cpu{mem};
        cpu.loadProgram(prog);
        cpu.setDispatchMode(config.mode);
        Observers obs(prog, blocks, rcfg, config.wiring);
        obs.attach(cpu);
        Outcome out;
        std::ostringstream log;
        obs.beginPacket();
        RunResult first = cpu.runSlice(prog.entry(), 3);
        EXPECT_TRUE(first.hitBudget);
        EXPECT_EQ(first.nextPc, sim::layout::textBase + 12);
        RunResult rest = cpu.runSlice(first.nextPc, 1000);
        EXPECT_FALSE(rest.hitBudget);
        out.endPacket(obs, 0);
        log << first.instCount << ' ' << first.nextPc << ' '
            << rest.instCount << ' ' << cpu.reg(9) << '\n';
        obs.beginPacket();
        cpu.resetRegs();
        cpu.run(prog.entry(), 1000);
        out.endPacket(obs, 1);
        out.log = log.str();
        out.finish(obs);
        return out;
    };

    for (const RecorderConfig &rcfg : recorderConfigs) {
        const Outcome ref = sliceAndResume(configs[0], rcfg);
        for (const Config &config : configs) {
            EXPECT_EQ(mismatch(config, ref, sliceAndResume(config, rcfg)),
                      "");
        }
    }
}

/**
 * A recorder built for a program other than the loaded one, with the
 * same base: one that differs in one instruction's class, and one
 * shorter than the code that runs.  The recorder takes classes and
 * run boundaries from the CPU's decode and charges per-word state
 * only below its own word count, so it stays in bounds and agrees
 * with an oracle built for the same other program.
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
        auto runWith = [&](const Config &config) {
            Memory mem;
            Cpu cpu{mem};
            cpu.loadProgram(prog);
            cpu.setDispatchMode(config.mode);
            Observers obs(built, blocks, {}, config.wiring);
            obs.attach(cpu);
            obs.beginPacket();
            cpu.run(prog.entry(), 1000);
            Outcome out;
            out.endPacket(obs, 0);
            out.finish(obs);
            return out;
        };
        const Outcome ref = runWith(configs[0]);
        for (const Config &config : configs)
            EXPECT_EQ(mismatch(config, ref, runWith(config)), "");
    }
}

// ---------------------------------------------------------------------
// Directed programs for the block-stepped loop's decode-time work: r0
// destinations, and memory slots whose predicted region goes wrong.
// ---------------------------------------------------------------------

/**
 * Run @p prog from "main" for @p packets packets on one CPU under
 * @p config, so what the loop learns in one packet carries into the
 * next.  @p setup prepares each packet's memory and registers (after
 * resetRegs()); a fault is logged and ends only its packet; @p check
 * then logs or checks what the packet left.
 */
Outcome
runPackets(const isa::Program &prog, const Config &config,
           const RecorderConfig &rcfg, size_t packets,
           const std::function<void(Cpu &, size_t)> &setup,
           const std::function<void(std::ostream &, const Cpu &)> &check)
{
    Memory mem;
    Cpu cpu{mem};
    cpu.loadProgram(prog);
    cpu.setDispatchMode(config.mode);
    const BlockMap blocks(prog);
    Observers obs(prog, blocks, rcfg, config.wiring);
    obs.attach(cpu);
    Outcome out;
    std::ostringstream log;
    for (size_t p = 0; p < packets; p++) {
        cpu.resetRegs();
        setup(cpu, p);
        obs.beginPacket();
        log << "packet " << p << ":";
        try {
            const RunResult r = cpu.run(prog.entry("main"), 100'000);
            log << ' ' << static_cast<int>(r.stopCode) << ' ' << r.stopArg
                << ' ' << r.instCount;
        } catch (const SimError &e) {
            log << " fault " << typeid(e).name() << ": " << e.what();
        }
        log << '\n';
        logRegs(log, cpu);
        check(log, cpu);
        out.endPacket(obs, p);
    }
    out.log = log.str();
    out.finish(obs);
    return out;
}

/** runPackets() under every configuration must match the reference. */
void
expectPacketsAgree(
    const isa::Program &prog, size_t packets,
    const std::function<void(Cpu &, size_t)> &setup,
    const std::function<void(std::ostream &, const Cpu &)> &check,
    const std::string &title)
{
    for (const RecorderConfig &rcfg : recorderConfigs) {
        const Outcome ref =
            runPackets(prog, configs[0], rcfg, packets, setup, check);
        for (const Config &config : configs) {
            EXPECT_EQ(mismatch(config, ref,
                               runPackets(prog, config, rcfg, packets,
                                          setup, check)),
                      "")
                << title;
        }
    }
}

/**
 * Every opcode that writes rd, naming r0: its result must vanish.  The
 * code then reads r0 as an ALU source and a store's value, in the same
 * straight-line run (a different one after JALR, which ends its run)
 * and in the next, and the block-stepped loop — which writes those
 * results to a sink register instead — must agree with the reference
 * loop in every configuration.
 */
TEST(InterpDiff, R0DestinationsReadZero)
{
    const char *writers[] = {
        "add zero, t1, t2",  "sub zero, t1, t2",  "and zero, t1, t2",
        "or zero, t1, t2",   "xor zero, t1, t2",  "sll zero, t1, t2",
        "srl zero, t1, t2",  "sra zero, t1, t2",  "mul zero, t1, t2",
        "slt zero, t2, t1",  "sltu zero, t2, t1", "addi zero, t1, 5",
        "andi zero, t1, 0xff", "ori zero, t1, 1", "xori zero, t1, 1",
        "slli zero, t1, 3",  "srli zero, t1, 3",  "srai zero, t1, 3",
        "slti zero, t2, 100", "sltiu zero, t2, 100", "lui zero, 0x1234",
        "lw zero, 0(t0)",    "lh zero, 0(t0)",    "lhu zero, 0(t0)",
        "lb zero, 0(t0)",    "lbu zero, 0(t0)",   "jalr zero, t5",
    };
    constexpr uint32_t data = layout::dataBase;
    for (const char *writer : writers) {
        const std::string src = std::string(R"(
            .equ DATA, 0x00100000
            main:
                li t0, DATA
                li t1, 0x01234567
                li t2, 7
                la t5, after
                sw t1, 0(t0)
                sw t1, 4(t0)
                sw t1, 8(t0)
                )") + writer + R"(
            after:
                add t3, zero, zero
                sw zero, 4(t0)
                j next
            next:
                or t4, zero, zero
                sw zero, 8(t0)
                sys 3
        )";
        const isa::Program prog =
            isa::Assembler(layout::textBase).assemble(src, "r0");
        auto check = [&](std::ostream &log, const Cpu &cpu) {
            const Memory &mem = cpu.memory();
            log << "stored " << mem.read32(data + 4) << ' '
                << mem.read32(data + 8) << '\n';
            EXPECT_EQ(cpu.reg(8), 0u) << writer;  // t3
            EXPECT_EQ(cpu.reg(9), 0u) << writer;  // t4
            EXPECT_EQ(mem.read32(data + 4), 0u) << writer;
            EXPECT_EQ(mem.read32(data + 8), 0u) << writer;
        };
        expectPacketsAgree(
            prog, 2, [](Cpu &, size_t) {}, check, writer);
    }
}

/**
 * One load slot and one store slot of each width, in a loop, whose base
 * register walks a list of addresses: Data, Packet, Stack and Text,
 * one byte past a region's end, misaligned, and back, across packets
 * on one CPU.  Each slot's predicted region hits, misses, re-learns
 * and hits again; statistics, memory traces, region counts and faults
 * (type, message, and the faulting pc, last in the instruction trace)
 * must equal the reference loop's.  Loads go first in one program and
 * stores in the other, so both kinds meet every fault.
 */
TEST(InterpDiff, SlotsMovingBetweenRegionsAgree)
{
    // a0: the list of base addresses; a1: its length.
    const char *loop = R"(
        main:
            li t0, 0
        loop:
            slli t1, t0, 2
            add t1, t1, a0
            lw t2, 0(t1)
            %s
            addi t0, t0, 1
            bne t0, a1, loop
            sys 3
    )";
    const char *loadsFirst = R"(
            lb t3, 0(t2)
            sb t3, 0(t2)
            lh t4, 0(t2)
            sh t4, 0(t2)
            lw t5, 0(t2)
            sw t5, 0(t2)
    )";
    const char *storesFirst = R"(
            sb t0, 0(t2)
            lbu t3, 0(t2)
            sh t0, 0(t2)
            lhu t4, 0(t2)
            sw t0, 0(t2)
            lw t5, 0(t2)
    )";
    constexpr uint32_t list = layout::dataBase + 0x8000;
    constexpr uint32_t data = layout::dataBase + 0x100;
    constexpr uint32_t packet = layout::packetBase + 0x40;
    constexpr uint32_t stack = layout::stackBase + 0x200;
    constexpr uint32_t text = layout::textBase + 0x400;
    constexpr uint32_t dataEnd = layout::dataBase + layout::dataSize;
    constexpr uint32_t textEnd = layout::textBase + layout::textSize;
    constexpr uint32_t stackEnd = layout::stackBase + layout::stackSize;
    constexpr uint32_t packetEnd = layout::packetBase + layout::packetSize;
    const std::vector<std::vector<uint32_t>> walks = {
        {data, packet, stack, text, data, data + 4},
        {packet, textEnd},
        {stack, stack + 1},
        {dataEnd - 4, dataEnd},
        {text, packet + 2, packet + 3},
        {stackEnd - 4, stackEnd},
        {packetEnd - 4, packetEnd},
        {data, stack, packet, text, packet, packet + 4, data},
    };
    auto setup = [&](Cpu &cpu, size_t p) {
        Memory &mem = cpu.memory();
        const std::vector<uint32_t> &walk = walks[p];
        for (size_t i = 0; i < walk.size(); i++)
            mem.write32(list + 4 * static_cast<uint32_t>(i), walk[i]);
        cpu.setReg(isa::regA0, list);
        cpu.setReg(isa::regA1, static_cast<uint32_t>(walk.size()));
    };
    auto check = [&](std::ostream &log, const Cpu &cpu) {
        const Memory &mem = cpu.memory();
        for (uint32_t addr : {data, packet, stack, text})
            log << ' ' << mem.read32(addr);
        log << '\n';
    };
    for (const char *body : {loadsFirst, storesFirst}) {
        char src[1024];
        std::snprintf(src, sizeof(src), loop, body);
        const isa::Program prog =
            isa::Assembler(layout::textBase).assemble(src, "walk");
        expectPacketsAgree(prog, walks.size(), setup, check,
                           body == loadsFirst ? "loads first"
                                              : "stores first");
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
// r5..r12 (t0..s1), r0 (which drops the result) and, through calls,
// lr.
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
    // Now and then a result goes to r0, which must drop it.
    auto dest = [&] {
        return rng.chance(0.06) ? uint8_t{isa::regZero} : scratch();
    };
    auto anyReg = [&] { return static_cast<uint8_t>(rng.below(16)); };
    auto offsetTo = [&](uint32_t target) {
        return static_cast<int32_t>(target - slot - 1);
    };

    isa::Inst inst;
    const uint32_t pick = rng.below(100);
    if (pick < 44) {
        inst.op = alu[rng.below(std::size(alu))];
        inst.rd = dest();
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
        inst.rd = store ? anyReg() : dest();
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
        inst.rd = dest();
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

/**
 * Run @p packets packets of @p prog on @p cpu, whose memory is reset
 * to all zeroes first.  Packet inputs, entry points, and slice
 * budgets derive from @p seed and the program's length alone, so
 * every configuration sees the same ones.
 */
Outcome
runRandom(Cpu &cpu, const isa::Program &prog, uint32_t seed,
          const Config &config, const RecorderConfig &rcfg)
{
    constexpr uint32_t packets = 3;
    Memory &mem = cpu.memory();
    mem.reset();
    cpu.loadProgram(prog);
    cpu.setDispatchMode(config.mode);
    BlockMap blocks(prog);
    Observers obs(prog, blocks, rcfg, config.wiring);
    obs.attach(cpu);

    Rng rng(seed);
    for (uint32_t window : windows) {
        for (uint32_t i = 0; i < 768; i++)
            mem.write8(window + i, static_cast<uint8_t>(rng.next()));
    }

    Outcome out;
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
        obs.beginPacket();
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
        log << '\n';
        logRegs(log, cpu);
        out.endPacket(obs, p);
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
    out.finish(obs);
    cpu.setObserver(nullptr);
    return out;
}

/**
 * The first disagreement between configurations (or between the
 * recorder and the oracle) on @p prog, or empty when all agree.
 */
std::string
randomMismatch(Cpu &cpu, const isa::Program &prog, uint32_t seed)
{
    for (const RecorderConfig &rcfg : recorderConfigs) {
        const Outcome ref = runRandom(cpu, prog, seed, configs[0], rcfg);
        for (const Config &config : configs) {
            std::string why = mismatch(
                config, ref, runRandom(cpu, prog, seed, config, rcfg));
            if (!why.empty()) {
                return (rcfg.memTrace ? "(traces) " : "(default) ") +
                       why;
            }
        }
    }
    return {};
}

/** The shrinker's no-op: add zero, zero, zero. */
uint32_t
nopWord()
{
    return isa::encode(isa::Inst{.op = isa::Op::ADD});
}

/**
 * Shrink a failing program: replace words with a no-op, one at a
 * time, keeping each replacement that still fails, until no single
 * replacement does.  The program keeps its length, so every run
 * derives the same inputs from the seed.
 */
isa::Program
shrinkRandom(Cpu &cpu, isa::Program prog, uint32_t seed)
{
    for (bool shrunk = true; shrunk;) {
        shrunk = false;
        for (uint32_t &word : prog.words) {
            if (word == nopWord())
                continue;
            const uint32_t kept = word;
            word = nopWord();
            if (randomMismatch(cpu, prog, seed).empty())
                word = kept;
            else
                shrunk = true;
        }
    }
    return prog;
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
        const std::string why = randomMismatch(cpu, prog, seed);
        if (why.empty())
            continue;
        const isa::Program shrunk = shrinkRandom(cpu, prog, seed);
        const auto live = std::count_if(
            shrunk.words.begin(), shrunk.words.end(),
            [](uint32_t word) { return word != nopWord(); });
        FAIL() << "seed " << seed << ": " << why << "\nshrunk to "
               << live << " of " << prog.words.size()
               << " words (the rest no-ops):\n"
               << isa::disassemble(shrunk) << "\nas generated:\n"
               << isa::disassemble(prog);
    }
}

} // namespace
