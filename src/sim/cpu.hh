/**
 * @file
 * NPE32 processor core interpreter.
 *
 * This is the PacketBench equivalent of the paper's SimpleScalar
 * processor simulator: it executes one application program at
 * instruction granularity and reports every executed instruction,
 * memory access, and branch outcome to an ExecObserver (a lone
 * accounting PacketRecorder hears of instructions per straight-line
 * run instead).  The framework attaches an observer only while
 * application code runs, which implements the paper's *selective
 * accounting*.
 *
 * Two dispatch loops execute the same ISA bit-identically:
 *
 *  - DispatchMode::Blocked (default): the pre-decoded program also
 *    carries, per instruction slot, the straight-line run length to
 *    the next control-flow/SYS instruction.  Fetch-bounds, alignment,
 *    and budget checks hoist to once per run instead of once per
 *    instruction, and the inner loop is specialized on the observer:
 *    none (no calls at all), the accounting PacketRecorder alone
 *    (charged once per run, plus once per memory access), or any
 *    other observer (one virtual call per event).
 *  - DispatchMode::Reference: the plain one-instruction-at-a-time
 *    loop, kept as the semantic reference for differential tests and
 *    as the debugger's single-step primitive (runSliceRef).
 *
 * Every data access resolves its memory region exactly once: the
 * region rides along with the loaded/stored value into the observer
 * event instead of being re-classified.
 */

#ifndef PB_SIM_CPU_HH
#define PB_SIM_CPU_HH

#include <cstdint>
#include <vector>

#include "isa/inst.hh"
#include "isa/program.hh"
#include "sim/memory.hh"

namespace pb::sim
{

class PacketRecorder;

/** One simulated data-memory access. */
struct MemAccessEvent
{
    uint32_t addr;
    uint8_t size;     ///< 1, 2, or 4 bytes
    bool isStore;
    MemRegion region;
};

/**
 * Receives the full execution stream of a simulated program.
 * Default implementations ignore everything, so collectors override
 * only what they need.
 */
class ExecObserver
{
  public:
    virtual ~ExecObserver() = default;

    /** An instruction at @p addr is about to execute. */
    virtual void onInst(uint32_t addr, const isa::Inst &inst)
    {
        (void)addr;
        (void)inst;
    }

    /** The current instruction performed a data-memory access. */
    virtual void onMemAccess(const MemAccessEvent &event)
    {
        (void)event;
    }

    /** A conditional branch at @p addr resolved. */
    virtual void onBranch(uint32_t addr, bool taken, uint32_t target)
    {
        (void)addr;
        (void)taken;
        (void)target;
    }

    /**
     * The observer the CPU should actually deliver events to.
     * Fan-out observers that currently forward to exactly one sink
     * return that sink, so a single-collector run pays one virtual
     * call per event instead of two (Cpu::setObserver resolves this
     * once at attach time).
     */
    virtual ExecObserver *soloSink() { return this; }

    /**
     * Non-null when this observer IS the accounting PacketRecorder
     * (a final class).  The CPU resolves this at attach time so the
     * block-stepped loop can charge the recorder once per
     * straight-line run, through inline non-virtual calls, in the
     * common one-recorder configuration.
     */
    virtual PacketRecorder *asRecorder() { return nullptr; }
};

/** Why and how a run() ended. */
struct RunResult
{
    isa::SysCode stopCode;  ///< SYS code that ended execution
    uint32_t stopArg;       ///< a1 register at the stop point
    uint64_t instCount;     ///< instructions executed in this run
    bool hitBudget = false; ///< stopped on the instruction budget
    uint32_t nextPc = 0;    ///< resume point when hitBudget
};

/** Which interpreter loop run()/runSlice() use. */
enum class DispatchMode : uint8_t
{
    Blocked,   ///< block-stepped hot path (default)
    Reference, ///< per-instruction reference loop
};

/** Single NPE32 core. */
class Cpu
{
  public:
    /** Default per-run instruction budget (runaway-loop guard). */
    static constexpr uint64_t defaultBudget = 50'000'000;

    explicit Cpu(Memory &mem);

    /**
     * Copy a program image into the text region and pre-decode it.
     * The program must fit entirely inside the text region.
     */
    void loadProgram(const isa::Program &prog);

    /** The currently loaded program. */
    const isa::Program &program() const { return prog; }

    /**
     * Attach (or with nullptr, detach) the execution observer.  The
     * observer's soloSink() is resolved here, once: if the sink set
     * of an attached fan-out changes while attached, re-attach.
     */
    void
    setObserver(ExecObserver *observer)
    {
        obs = observer ? observer->soloSink() : nullptr;
        recObs = obs ? obs->asRecorder() : nullptr;
    }

    /** Select the dispatch loop (Blocked is the default). */
    void setDispatchMode(DispatchMode mode) { dispatch = mode; }
    DispatchMode dispatchMode() const { return dispatch; }

    /** Read an architectural register. */
    uint32_t
    reg(unsigned r) const
    {
        return r == isa::regZero ? 0 : regs[r];
    }

    /** Write an architectural register (writes to r0 are ignored). */
    void
    setReg(unsigned r, uint32_t value)
    {
        if (r != isa::regZero)
            regs[r] = value;
    }

    /** Reset registers (sp to stack top) without touching memory. */
    void resetRegs();

    /**
     * Execute from @p entry until a SYS instruction.
     *
     * @param entry     byte address of the first instruction
     * @param max_insts instruction budget
     * @throws SimError (or a subclass) on any execution fault,
     *         including BudgetError when the budget runs out
     */
    RunResult run(uint32_t entry, uint64_t max_insts = defaultBudget);

    /**
     * Like run(), but budget exhaustion is not an error: the result
     * has hitBudget set and nextPc holds the resume point.  Uses the
     * configured dispatch mode.
     */
    RunResult runSlice(uint32_t entry, uint64_t max_insts);

    /**
     * runSlice() on the per-instruction reference loop regardless of
     * the configured dispatch mode.  This is the single-stepping
     * primitive the debugger builds on and the oracle the
     * differential tests compare the block-stepped loop against.
     */
    RunResult runSliceRef(uint32_t entry, uint64_t max_insts);

    /** Total instructions executed over the CPU's lifetime. */
    uint64_t totalInstCount() const { return lifetimeInsts; }

    /**
     * Straight-line runs entered by the block-stepped loop over the
     * CPU's lifetime (0 under DispatchMode::Reference).  Like
     * totalInstCount(), accumulated when a slice returns — a slice
     * that faults contributes nothing.  Feeds the
     * sim.interp.{blocks,block_len} gauges.
     */
    uint64_t totalBlockCount() const { return lifetimeBlocks; }

    /** The memory this core is attached to. */
    Memory &memory() { return mem; }
    const Memory &memory() const { return mem; }

  private:
    Memory &mem;
    isa::Program prog;
    std::vector<isa::Inst> decoded;
    /**
     * runLen[i]: number of instructions from slot i up to and
     * including the next control-flow / SYS / undecodable slot
     * (clamped to the end of the program).  Always >= 1.
     */
    std::vector<uint32_t> runLen;
    ExecObserver *obs = nullptr;
    /** obs, when it is exactly the (final) accounting recorder. */
    PacketRecorder *recObs = nullptr;
    DispatchMode dispatch = DispatchMode::Blocked;
    uint32_t regs[isa::numRegs] = {};
    uint64_t lifetimeInsts = 0;
    uint64_t lifetimeBlocks = 0;

    /**
     * The block-stepped loop, templated on the concrete observer
     * type: a no-op observer (events compile out), the final
     * PacketRecorder (charged per run through its inline onRun() and
     * onMemAccessAt()), or plain ExecObserver (one virtual call per
     * event).
     */
    template <typename ObsT>
    RunResult runBlocked(uint32_t entry, uint64_t max_insts,
                         ObsT *o);

    /** Resolve + read for a load; region reported for the observer. */
    uint32_t loadValue(const isa::Inst &inst, uint32_t &addr,
                       uint8_t &size, MemRegion &region);
    /** Resolve + write for a store. */
    void storeValue(const isa::Inst &inst, uint32_t &addr,
                    uint8_t &size, MemRegion &region);

    uint32_t load(const isa::Inst &inst);
    void store(const isa::Inst &inst);
};

} // namespace pb::sim

#endif // PB_SIM_CPU_HH
