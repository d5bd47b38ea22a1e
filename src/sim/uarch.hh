/**
 * @file
 * Microarchitectural models: bimodal branch predictor and
 * set-associative caches.
 *
 * The paper notes that standard microarchitectural statistics
 * (instruction mix, branch misprediction, cache behavior) fall out of
 * the SimpleScalar substrate.  These models provide the equivalent
 * capability for NPE32: attach a MicroArchModel to the CPU (via
 * FanoutObserver, next to the PacketRecorder) and read the rates.
 */

#ifndef PB_SIM_UARCH_HH
#define PB_SIM_UARCH_HH

#include <cstdint>
#include <vector>

#include "sim/cpu.hh"

namespace pb::sim
{

/** Classic 2-bit saturating-counter (bimodal) branch predictor. */
class BimodalPredictor
{
  public:
    /** @param entries number of 2-bit counters (power of two). */
    explicit BimodalPredictor(uint32_t entries = 2048);

    /** Predict and update for a resolved branch. */
    void update(uint32_t addr, bool taken);

    uint64_t lookups() const { return lookups_; }
    uint64_t mispredicts() const { return mispredicts_; }

    /** Misprediction rate in [0, 1]; 0 when no branches were seen. */
    double
    mispredictRate() const
    {
        return lookups_ ? static_cast<double>(mispredicts_) / lookups_
                        : 0.0;
    }

  private:
    std::vector<uint8_t> counters;
    uint32_t mask;
    uint64_t lookups_ = 0;
    uint64_t mispredicts_ = 0;
};

/** Set-associative cache with LRU replacement (tag-only model). */
class CacheModel
{
  public:
    /**
     * @param size_bytes total capacity
     * @param line_bytes line size (power of two)
     * @param ways       associativity
     */
    CacheModel(uint32_t size_bytes, uint32_t line_bytes, uint32_t ways);

    /** Access one address; returns true on hit. */
    bool access(uint32_t addr);

    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }

    /** Miss rate in [0, 1]; 0 when the cache was never accessed. */
    double
    missRate() const
    {
        return accesses_ ? static_cast<double>(misses_) / accesses_
                         : 0.0;
    }

  private:
    struct Way
    {
        uint32_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    uint32_t lineShift;
    uint32_t numSets;
    uint32_t ways;
    std::vector<Way> sets; // numSets * ways
    uint64_t tick = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

/**
 * Bundles the classic SimpleScalar-style core statistics: I-cache,
 * D-cache, and branch predictor, driven by the execution stream.
 */
class MicroArchModel : public ExecObserver
{
  public:
    /** Sizes modeled on an IXP-class microengine's local stores. */
    MicroArchModel(uint32_t icache_bytes = 4096,
                   uint32_t dcache_bytes = 8192,
                   uint32_t line_bytes = 32, uint32_t ways = 2);

    void onRun(const RunEvent &run) override;
    void onMemAccessAt(const MemAccessEvent &event,
                       uint32_t offsetInRun) override;

    const CacheModel &icache() const { return icache_; }
    const CacheModel &dcache() const { return dcache_; }
    const BimodalPredictor &predictor() const { return predictor_; }

  private:
    CacheModel icache_;
    CacheModel dcache_;
    BimodalPredictor predictor_;
};

} // namespace pb::sim

#endif // PB_SIM_UARCH_HH
