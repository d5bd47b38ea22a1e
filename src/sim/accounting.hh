/**
 * @file
 * Selective accounting: per-packet workload statistics.
 *
 * The paper modified SimpleScalar so that only instructions belonging
 * to the application — not the PacketBench framework — are counted.
 * In this reproduction the framework runs natively on the host, so
 * everything the simulated CPU executes *is* application work; the
 * PacketRecorder is attached for exactly the duration of each
 * process_packet() call and detached while the framework moves
 * packets around, which realizes the same accounting boundary.
 *
 * The recorder hears the CPU's straight-line runs and is charged once
 * per run plus once per memory access.  Its per-instruction meaning
 * is pinned by a naive oracle recorder in the tests
 * (tests/sim/oracle_recorder.hh).  FanoutObserver shares the CPU
 * among several observers.
 */

#ifndef PB_SIM_ACCOUNTING_HH
#define PB_SIM_ACCOUNTING_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/bblock.hh"
#include "sim/cpu.hh"
#include "sim/zeropages.hh"

namespace pb::sim
{

/** What level of per-packet detail to keep. */
struct RecorderConfig
{
    /** Keep the full instruction-address trace (Fig. 6). */
    bool instTrace = false;
    /** Keep the full data-memory access trace (Fig. 9). */
    bool memTrace = false;
    /** Keep the set of basic blocks each packet executes (Figs. 7-8). */
    bool blockSets = false;
};

/** Statistics for one processed packet. */
struct PacketStats
{
    uint64_t instCount = 0;       ///< total instructions executed
    uint32_t uniqueInstCount = 0; ///< distinct instruction addresses
    uint32_t packetReads = 0;     ///< loads from packet memory
    uint32_t packetWrites = 0;    ///< stores to packet memory
    uint32_t nonPacketReads = 0;  ///< loads from data/stack memory
    uint32_t nonPacketWrites = 0; ///< stores to data/stack memory

    uint32_t packetAccesses() const { return packetReads + packetWrites; }
    uint32_t
    nonPacketAccesses() const
    {
        return nonPacketReads + nonPacketWrites;
    }

    /** Basic blocks executed at least once (sorted ids); optional. */
    std::vector<uint32_t> blocks;
    /** Executed instruction addresses in order; optional. */
    std::vector<uint32_t> instTrace;

    /** A data access annotated with when it happened. */
    struct TracedAccess
    {
        uint64_t instIndex; ///< ordinal of the accessing instruction
        MemAccessEvent event;
    };

    /** Data accesses in order; optional. */
    std::vector<TracedAccess> memTrace;
};

/** Number of MemRegion values, Unmapped included. */
constexpr size_t numMemRegions =
    static_cast<size_t>(MemRegion::Unmapped) + 1;

/** Number of InstClass values tracked in the mix histogram. */
constexpr size_t numInstClasses =
    static_cast<size_t>(isa::InstClass::Invalid) + 1;

/**
 * ExecObserver that produces PacketStats per packet plus run-level
 * aggregates (memory coverage, instruction mix).
 *
 * It is charged once per straight-line run (onRun()) plus once per
 * memory access (onMemAccessAt()).  The CPU describes each run from
 * its own decode, so the recorder needs no copy of the run structure.
 * Only the address-dependent work — region counters and touch maps —
 * stays per memory access.  Both hooks are defined inline and the
 * class is final, so the block-stepped loop that drives a lone
 * recorder calls them without virtual dispatch.
 */
class PacketRecorder final : public ExecObserver
{
  public:
    PacketRecorder(const isa::Program &prog, const BlockMap &blocks,
                   RecorderConfig cfg = {});

    /** Start accounting a new packet. */
    void beginPacket();

    /** Finish the current packet and return its statistics. */
    PacketStats endPacket();

    PacketRecorder *asRecorder() override { return this; }

    /**
     * Charge the executed instructions of one run: the whole run, or
     * the prefix of a clipped or faulted one (the reference loop's
     * one-instruction runs are prefixes too, unless the run is one
     * slot long).  The rarer work is out of line.
     */
    void
    onRun(const RunEvent &run) override
    {
        const uint32_t slot = run.slot;
        const uint32_t len = run.len;
        const uint32_t n = run.n;
        current.instCount += n;
        totalInsts_ += n;
        if (n == len && slot + len <= progWords) {
            RunHead &head = heads[slot];
            if (head.runs++ == 0)
                learnRun(run.insts, slot, len);
            if (head.epoch != epoch)
                coverRun(slot);
        } else {
            chargePrefix(run.insts, slot, n);
        }
        if (cfg.instTrace)
            traceRun(slot, n);
    }

    void
    onMemAccessAt(const MemAccessEvent &event,
                  uint32_t offsetInRun) override
    {
        const auto region = static_cast<size_t>(event.region);
        accesses[region][event.isStore]++;
        touch[region].mark(event.addr, event.size);
        if (cfg.memTrace)
            traceAccess(event, current.instCount + offsetInRun + 1);
    }

    /**
     * @name Run-level aggregates (across all packets so far).
     * @{
     */
    /** Bytes of instruction memory touched (paper Table IV col 1). */
    uint64_t instMemoryBytes() const;
    /** Bytes of data memory touched (paper Table IV col 2). */
    uint64_t dataMemoryBytes() const;
    /** Executed-instruction histogram by class. */
    std::array<uint64_t, numInstClasses> classCounts() const;
    /** Total instructions across all packets. */
    uint64_t totalInsts() const { return totalInsts_; }
    /** @} */

    /**
     * The pages behind the touch maps: the Data, Packet and Stack maps
     * in spans 0, 1 and 2.  Only pages holding bits of touched bytes
     * are ever resident.
     */
    const ZeroPages &touchPages() const { return touchPages_; }

  private:
    /**
     * Tracks which byte offsets of a region have been touched: one bit
     * per byte, in 64-bit words on the recorder's demand-zero pages
     * (touchPages), so only the words of touched bytes ever become
     * resident.  AddressSanitizer does not instrument those pages;
     * mark()'s bounds checks and the guard page after each map stand
     * in for it.
     */
    struct TouchMap
    {
        uint32_t base = 0;
        uint32_t size = 0;        ///< 0 for an untracked region
        uint64_t *bits = nullptr; ///< (size + 63) / 64 words
        uint64_t count = 0;

        void
        mark(uint32_t addr, uint32_t len)
        {
            const uint32_t off = addr - base;
            // Every access the CPU completes is a naturally aligned 1,
            // 2 or 4-byte span inside its region: one 64-bit word.
            if (len <= 4 && uint64_t{off} + len <= size &&
                off % 64 + len <= 64) {
                const uint64_t mask = ((uint64_t{1} << len) - 1)
                                      << (off % 64);
                uint64_t &word = bits[off / 64];
                if ((word & mask) != mask) {
                    count += std::popcount(mask & ~word);
                    word |= mask;
                }
                return;
            }
            markBytes(off, len);
        }

        /** Byte-at-a-time mark() for any other span. */
        void markBytes(uint32_t off, uint32_t len);
    };

    void traceAccess(const MemAccessEvent &event, uint64_t instIndex);
    void traceRun(uint32_t slot, uint32_t n);
    /** Charge executed word @p word, once per packet. */
    void stampWord(uint32_t word);
    /** Charge a clipped or faulted run's first @p n slots, per word. */
    void chargePrefix(const isa::Inst *run, uint32_t slot, uint32_t n);
    /** First whole run from @p slot ever: note its shape. */
    void learnRun(const isa::Inst *run, uint32_t slot, uint32_t len);
    /** First whole run from @p slot in this packet. */
    void coverRun(uint32_t slot);
    /** Count @p word into the run-level instruction footprint. */
    void
    touchWord(uint32_t word)
    {
        if (!wordTouched[word]) {
            wordTouched[word] = true;
            wordsTouched_++;
        }
    }

    const RecorderConfig cfg;
    const uint32_t progBase;
    const uint32_t progWords;
    const BlockMap &blockMap;

    /**
     * The CPU's straight-line runs, as far as whole runs have shown
     * them (learnRun()): each slot's instruction class and the last
     * slot of its run.  runLast[w] is w until then.
     */
    std::vector<isa::InstClass> slotClass;
    std::vector<uint32_t> runLast;

    /** Whole runs that start at one slot. */
    struct RunHead
    {
        uint32_t epoch = 0; ///< a whole run from here was charged
        uint64_t runs = 0;  ///< whole runs from here, for classCounts()
    };
    std::vector<RunHead> heads;

    // Per-packet epoch marking: a word (or block) is unique within the
    // packet iff its stamp differs from the current epoch.  A whole
    // run [s, e] covers a suffix of its straight-line run, so the
    // words whole runs executed are, per run-last slot e, one suffix
    // [from, e] (RunCover); wordEpoch stamps the others one by one.
    uint32_t epoch = 0;
    std::vector<uint32_t> wordEpoch;
    std::vector<uint32_t> blockEpoch;
    /** Suffixes of one straight-line run that whole runs covered. */
    struct RunCover
    {
        uint32_t epoch = 0; ///< packet that `from` belongs to
        uint32_t from = 0;  ///< first covered slot in that packet
        /** Every slot from here to the run's end is in wordTouched. */
        uint32_t everFrom = 0;
    };
    /** Indexed by run-last slot. */
    std::vector<RunCover> cover;
    /** wordEpoch may stamp words outside this packet's covers. */
    bool wordStamps = false;

    /** Program words executed at least once over the whole run. */
    std::vector<bool> wordTouched;
    uint64_t wordsTouched_ = 0;

    PacketStats current;
    /**
     * This packet's data accesses by [MemRegion][isStore], folded
     * into current's read/write counts by endPacket().
     */
    uint32_t accesses[numMemRegions][2] = {};
    bool inPacket = false;

    // Run-level aggregates.  The instruction mix is classCounts_
    // (charges per instruction) plus the classes of the whole runs
    // counted in heads.
    std::array<uint64_t, numInstClasses> classCounts_{};
    uint64_t totalInsts_ = 0;
    /** Bytes touched, by MemRegion; Text and Unmapped are untracked. */
    std::array<TouchMap, numMemRegions> touch;
    /** The tracked maps' words, one span per map. */
    ZeroPages touchPages_;
};

/** Forwards the execution stream to several observers. */
class FanoutObserver : public ExecObserver
{
  public:
    /** Attach another downstream observer. */
    void add(ExecObserver *observer) { sinks.push_back(observer); }

    /**
     * Detach @p observer (no-op when absent).  Lets the framework
     * attach per-packet observers — e.g. the sampled NPE32 event
     * tracer (obs/tracing.hh) — for exactly one packet's run.
     */
    void
    remove(ExecObserver *observer)
    {
        sinks.erase(std::remove(sinks.begin(), sinks.end(), observer),
                    sinks.end());
    }

    void
    onRun(const RunEvent &run) override
    {
        for (auto *sink : sinks)
            sink->onRun(run);
    }

    void
    onMemAccessAt(const MemAccessEvent &event,
                  uint32_t offsetInRun) override
    {
        for (auto *sink : sinks)
            sink->onMemAccessAt(event, offsetInRun);
    }

    /**
     * With exactly one sink attached, hand the CPU that sink directly
     * so every event costs one virtual call instead of two.  With any
     * other sink count the fan-out itself stays in the path.
     */
    ExecObserver *
    soloSink() override
    {
        return sinks.size() == 1 ? sinks[0]->soloSink() : this;
    }

  private:
    std::vector<ExecObserver *> sinks;
};

} // namespace pb::sim

#endif // PB_SIM_ACCOUNTING_HH
