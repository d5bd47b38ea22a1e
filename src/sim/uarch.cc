/**
 * @file
 * Microarchitectural model implementations.
 */

#include "uarch.hh"

#include <bit>

#include "common/bitops.hh"

namespace pb::sim
{

BimodalPredictor::BimodalPredictor(uint32_t entries)
{
    if (entries == 0 || (entries & (entries - 1)) != 0)
        fatal("BimodalPredictor: entries must be a power of two");
    counters.assign(entries, 1); // weakly not-taken
    mask = entries - 1;
}

void
BimodalPredictor::update(uint32_t addr, bool taken)
{
    uint8_t &counter = counters[(addr >> 2) & mask];
    bool predict_taken = counter >= 2;
    lookups_++;
    if (predict_taken != taken)
        mispredicts_++;
    if (taken) {
        if (counter < 3)
            counter++;
    } else {
        if (counter > 0)
            counter--;
    }
}

CacheModel::CacheModel(uint32_t size_bytes, uint32_t line_bytes,
                       uint32_t ways_)
    : ways(ways_)
{
    if (line_bytes == 0 || (line_bytes & (line_bytes - 1)) != 0)
        fatal("CacheModel: line size must be a power of two");
    if (ways == 0)
        fatal("CacheModel: need at least one way");
    uint32_t lines = size_bytes / line_bytes;
    if (lines == 0 || lines % ways != 0)
        fatal("CacheModel: %u bytes / %u-byte lines not divisible into "
              "%u ways", size_bytes, line_bytes, ways);
    numSets = lines / ways;
    if ((numSets & (numSets - 1)) != 0)
        fatal("CacheModel: set count must be a power of two");
    lineShift = static_cast<uint32_t>(std::countr_zero(line_bytes));
    sets.assign(static_cast<size_t>(numSets) * ways, Way{});
}

bool
CacheModel::access(uint32_t addr)
{
    accesses_++;
    tick++;
    uint32_t line = addr >> lineShift;
    uint32_t set = line & (numSets - 1);
    uint32_t tag = line >> std::countr_zero(numSets);

    Way *base = &sets[static_cast<size_t>(set) * ways];
    Way *victim = base;
    for (uint32_t w = 0; w < ways; w++) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lastUse = tick;
            return true;
        }
        if (!way.valid || way.lastUse < victim->lastUse ||
            (victim->valid && !way.valid)) {
            victim = &way;
        }
    }
    misses_++;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = tick;
    return false;
}

MicroArchModel::MicroArchModel(uint32_t icache_bytes,
                               uint32_t dcache_bytes, uint32_t line_bytes,
                               uint32_t ways)
    : icache_(icache_bytes, line_bytes, ways),
      dcache_(dcache_bytes, line_bytes, ways),
      predictor_()
{}

void
MicroArchModel::onRun(const RunEvent &run)
{
    for (uint32_t i = 0; i < run.n; i++)
        icache_.access(run.pcAt(i));
    if (run.endsInBranch())
        predictor_.update(run.pcAt(run.n - 1), run.taken);
}

void
MicroArchModel::onMemAccessAt(const MemAccessEvent &event,
                              uint32_t offsetInRun)
{
    (void)offsetInRun;
    dcache_.access(event.addr);
}

} // namespace pb::sim
