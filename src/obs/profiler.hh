/**
 * @file
 * NPE32 hot-spot profiler.
 *
 * An ExecObserver that accumulates a flat per-PC execution profile
 * over any number of packets and ranks basic blocks by the work they
 * absorb — the simulated-code analogue of gprof's flat profile.  The
 * paper's block-level results (Figs. 7-8) show that a handful of
 * blocks dominate every application; this profiler turns that
 * observation into an operational tool: after any run, render() names
 * the hot inner loops (e.g. the radix-walk vs. trie-step bodies) with
 * exact instruction counts and annotated disassembly.
 *
 * The profiler hears straight-line runs and counts each executed
 * instruction of a run at its pc.  When a PipelineTimer observes the
 * same execution stream, attachTimer() additionally attributes
 * modeled cycles to each PC: the timer charges every instruction's
 * full cost (base, stalls, miss and mispredict penalties) to its
 * program slot, and the profiler reports those per-slot cycles
 * accumulated since it attached, so the order of the two observers
 * in a fan-out does not matter.  Without a timer the cycle columns
 * equal the instruction counts (CPI 1).
 */

#ifndef PB_OBS_PROFILER_HH
#define PB_OBS_PROFILER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/bblock.hh"
#include "sim/cpu.hh"
#include "sim/timing.hh"

namespace pb::obs
{

/** Per-PC / per-block execution profile of one simulated program. */
class HotSpotProfiler : public sim::ExecObserver
{
  public:
    /**
     * Profile executions of @p prog.  Both references must outlive
     * the profiler.
     */
    HotSpotProfiler(const isa::Program &prog,
                    const sim::BlockMap &blocks);

    /**
     * Attribute modeled cycles from @p timer (may be nullptr to
     * detach), counted from now on.  The timer must observe the same
     * execution stream of the same program.
     */
    void attachTimer(const sim::PipelineTimer *timer);

    void onRun(const sim::RunEvent &run) override;

    /** Executions of the instruction at @p addr. */
    uint64_t instCount(uint32_t addr) const;

    /** Modeled cycles attributed to the instruction at @p addr. */
    uint64_t cycleCount(uint32_t addr) const;

    /** Total instructions observed. */
    uint64_t totalInsts() const { return total; }

    /** Total cycles attributed (== totalInsts() without a timer). */
    uint64_t totalCycles() const;

    /** One basic block's share of the run. */
    struct BlockProfile
    {
        uint32_t blockId;
        uint32_t startAddr;
        uint32_t numInsts; ///< static size of the block
        uint64_t insts;    ///< dynamic instructions executed in it
        uint64_t cycles;   ///< modeled cycles attributed to it
        uint64_t entries;  ///< times control entered at its head
    };

    /**
     * Executed blocks ranked hottest-first (by cycles, then
     * instructions, then block id for determinism).
     */
    std::vector<BlockProfile> rankedBlocks() const;

    /**
     * gprof-style report: summary line, ranked block table, and
     * per-instruction annotated disassembly of the @p top_blocks
     * hottest blocks.
     */
    std::string render(size_t top_blocks = 10) const;

    /** Forget all accumulated samples. */
    void reset();

  private:
    size_t indexOf(uint32_t addr) const;
    /** Cycles attributed to word offset @p index. */
    uint64_t cyclesAt(size_t index) const;

    const isa::Program &prog;
    const sim::BlockMap &blockMap;
    const sim::PipelineTimer *timer = nullptr;

    std::vector<uint64_t> perPcInsts;  ///< indexed by word offset
    std::vector<uint64_t> blockEntries;
    /** The timer's slotCycles() when attached or last reset. */
    std::vector<uint64_t> cycleBase;
    uint64_t total = 0;
};

} // namespace pb::obs

#endif // PB_OBS_PROFILER_HH
