/**
 * @file
 * NPE32 processor core interpreter.
 *
 * This is the PacketBench equivalent of the paper's SimpleScalar
 * processor simulator: it executes one application program and
 * reports what executed to an ExecObserver, one straight-line run at
 * a time, with each data-memory access and the outcome of the branch
 * that ends the run.  The framework attaches an observer only while
 * application code runs, which implements the paper's *selective
 * accounting*.
 *
 * Two dispatch loops execute the same ISA bit-identically:
 *
 *  - DispatchMode::Blocked (default): the pre-decoded program also
 *    carries, per instruction slot, the straight-line run length to
 *    the next control-flow/SYS instruction and an execution-table
 *    entry (ExecSlot): a handler index, operands with r0 destinations
 *    sent to a sink register, a predicted memory region for loads and
 *    stores, and absolute branch and jump targets.  Fetch-bounds,
 *    alignment, and budget checks hoist to once per run instead of
 *    once per instruction, and each handler dispatches the next slot
 *    itself (threaded code, cpu_blocked.cc).  One loop body is
 *    instantiated per observer type: none (events compile out), the
 *    accounting PacketRecorder alone (inline, non-virtual calls), or
 *    any other observer (virtual calls).
 *  - DispatchMode::Reference: the plain one-instruction-at-a-time
 *    loop, kept as the semantic reference for differential tests and
 *    as the debugger's single-step primitive (runSliceRef).  It
 *    reports each instruction as a one-instruction run.
 *
 * Every data access resolves its memory region exactly once: the
 * region rides along with the loaded/stored value into the observer
 * event instead of being re-classified.  In the block-stepped loop a
 * load or store first tries its slot's predicted region, with one
 * compare (Memory::loadIn/storeIn); only a miss resolves through the
 * page table, and it faults exactly as the reference loop does.
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
 * The instructions of one straight-line run that reached execution.
 * A run is @c len slots long, from program slot @c slot up to and
 * including the next control-flow, SYS or undecodable slot (or the
 * program end); its first @c n instructions executed.  That is the
 * whole run (n == len), or the prefix of a run that the budget clipped
 * or whose memory access faulted (the faulting instruction included).
 * n is 0 for a run whose only slot is undecodable.
 */
struct RunEvent
{
    const isa::Inst *insts; ///< the CPU's decode of slot, slot + 1, ...
    uint32_t slot;          ///< program slot of insts[0]
    uint32_t pc;            ///< address of insts[0]
    uint32_t len;           ///< slots to the terminator, inclusive
    uint32_t n;             ///< instructions that executed, <= len
    /** insts[n - 1] sent control to @c target: a taken branch or a jump. */
    bool taken;
    uint32_t target;

    /** Address of the instruction @p i slots into the run. */
    uint32_t pcAt(uint32_t i) const { return pc + i * 4; }

    /** insts[n - 1] is a conditional branch; @c taken is its outcome. */
    bool
    endsInBranch() const
    {
        return n != 0 && isa::opInfo(insts[n - 1].op).cls ==
                             isa::InstClass::Branch;
    }
};

/**
 * Receives the execution stream of a simulated program, one
 * straight-line run at a time.  Default implementations ignore
 * everything, so collectors override only what they need.
 */
class ExecObserver
{
  public:
    virtual ~ExecObserver() = default;

    /**
     * The first run.n instructions of a straight-line run executed.
     * Delivered after them, so it also covers an instruction whose
     * memory access faulted (that access is not delivered).
     */
    virtual void onRun(const RunEvent &run) { (void)run; }

    /**
     * A data access by the instruction @p offsetInRun slots into the
     * run that the next onRun() delivers.
     */
    virtual void
    onMemAccessAt(const MemAccessEvent &event, uint32_t offsetInRun)
    {
        (void)event;
        (void)offsetInRun;
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
     * block-stepped loop can charge the recorder through inline
     * non-virtual calls in the common one-recorder configuration.
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
    /**
     * One program slot as the block-stepped loop executes it, built
     * once by loadProgram().  Observers never see it: they get
     * @c decoded, whose fields keep their ISA meaning.
     */
    struct ExecSlot
    {
        uint8_t handler; ///< the loop's handler for the opcode
        /**
         * Destination, or regSink when an opcode that writes rd names
         * r0; a store's source.
         */
        uint8_t rd;
        uint8_t rs;
        union
        {
            uint8_t rt;       ///< second source
            MemRegion region; ///< a load's or store's predicted region
        };
        /**
         * Immediate; the absolute target pc of a conditional branch,
         * J or JAL; SYS's code.
         */
        uint32_t imm;
    };
    static_assert(sizeof(ExecSlot) == 8);

    /** Register the loop writes in place of r0; never read. */
    static constexpr unsigned regSink = isa::numRegs;

    Memory &mem;
    isa::Program prog;
    std::vector<isa::Inst> decoded;
    /**
     * runLen[i]: number of instructions from slot i up to and
     * including the next control-flow / SYS / undecodable slot
     * (clamped to the end of the program).  Always >= 1.
     */
    std::vector<uint32_t> runLen;
    /**
     * exec[i] executes decoded[i]; one more entry past the program's
     * end closes a run that reaches it.  The loop re-learns each
     * predicted region from the region of an access that missed it.
     */
    std::vector<ExecSlot> exec;
    ExecObserver *obs = nullptr;
    /** obs, when it is exactly the (final) accounting recorder. */
    PacketRecorder *recObs = nullptr;
    DispatchMode dispatch = DispatchMode::Blocked;
    /** The architectural registers, then the sink (regSink). */
    uint32_t regs[isa::numRegs + 1] = {};
    uint64_t lifetimeInsts = 0;
    uint64_t lifetimeBlocks = 0;

    /** Build @c exec from @c decoded (cpu_blocked.cc). */
    void buildExecTable();

    /**
     * The block-stepped loop, templated on the concrete observer
     * type: a no-op observer (events compile out), the final
     * PacketRecorder (inline onRun() and onMemAccessAt()), or plain
     * ExecObserver (virtual calls).
     */
    template <typename ObsT>
    RunResult runBlocked(uint32_t entry, uint64_t max_insts,
                         ObsT *o);

    /** Resolve, read and report a load (reference loop). */
    uint32_t load(const isa::Inst &inst);
    /** Resolve, write and report a store (reference loop). */
    void store(const isa::Inst &inst);
};

} // namespace pb::sim

#endif // PB_SIM_CPU_HH
