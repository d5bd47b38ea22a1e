/**
 * @file
 * Pipeline timing model.
 *
 * Estimates execution cycles for the NPE32 core as a classic 5-stage
 * in-order pipeline, the microarchitecture class of the IXP
 * microengines the paper's ARM target stands in for:
 *
 *  - 1 cycle per instruction baseline,
 *  - load-use interlock (consumer immediately after a load stalls),
 *  - multiply latency,
 *  - taken-jump fetch bubble,
 *  - branch misprediction penalty driven by the bimodal predictor,
 *  - I-/D-cache miss penalties driven by the cache models.
 *
 * Attach alongside the PacketRecorder to get per-packet cycle counts
 * and a modeled CPI.  Every cycle is also charged to the program slot
 * of the instruction that cost it (slotCycles()), which is what the
 * hot-spot profiler attributes per pc.
 */

#ifndef PB_SIM_TIMING_HH
#define PB_SIM_TIMING_HH

#include <vector>

#include "sim/uarch.hh"

namespace pb::sim
{

/** Stall and latency parameters, in cycles. */
struct TimingParams
{
    uint32_t loadUseStall = 1;
    uint32_t mulLatency = 3;       ///< extra cycles beyond 1
    uint32_t jumpBubble = 1;
    uint32_t branchMispredict = 3;
    uint32_t icacheMissPenalty = 20;
    uint32_t dcacheMissPenalty = 25;
    uint32_t icacheBytes = 4096;
    uint32_t dcacheBytes = 8192;
    uint32_t cacheLineBytes = 32;
    uint32_t cacheWays = 2;
};

/** Cycle estimator for the in-order pipeline. */
class PipelineTimer : public ExecObserver
{
  public:
    explicit PipelineTimer(TimingParams params = {});

    void onRun(const RunEvent &run) override;
    void onMemAccessAt(const MemAccessEvent &event,
                       uint32_t offsetInRun) override;

    /** Total modeled cycles since construction. */
    uint64_t cycles() const { return cycles_; }

    /** Total instructions observed. */
    uint64_t insts() const { return insts_; }

    /** Modeled cycles per instruction (0 if nothing ran). */
    double
    cpi() const
    {
        return insts_ ? static_cast<double>(cycles_) / insts_ : 0.0;
    }

    /** Remember the current cycle count (per-packet bracketing). */
    void mark() { markCycles = cycles_; }

    /** Cycles accumulated since the last mark(). */
    uint64_t cyclesSinceMark() const { return cycles_ - markCycles; }

    const TimingParams &params() const { return params_; }

    /**
     * Cycles charged to each program slot since construction: the
     * full cost of the instructions that executed there (base,
     * I-cache miss, load-use, multiply, jump bubble, D-cache miss and
     * mispredict).  Slots past the highest one executed are absent.
     */
    const std::vector<uint64_t> &slotCycles() const { return slotCycles_; }

  private:
    /**
     * Cost of issuing @p inst at @p addr, before its data access and
     * branch outcome: base cycle, I-cache miss, load-use stall,
     * multiply latency, jump bubble.
     */
    uint64_t issueCycles(uint32_t addr, const isa::Inst &inst);

    TimingParams params_;
    CacheModel icache;
    CacheModel dcache;
    BimodalPredictor predictor;

    uint64_t cycles_ = 0;
    uint64_t insts_ = 0;
    uint64_t markCycles = 0;
    uint8_t pendingLoadReg = 0xff; ///< rd of the previous load
    /** Offsets of this run's accesses that missed the D-cache. */
    std::vector<uint32_t> missOffsets;
    std::vector<uint64_t> slotCycles_;
};

} // namespace pb::sim

#endif // PB_SIM_TIMING_HH
