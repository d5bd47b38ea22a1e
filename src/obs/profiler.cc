/**
 * @file
 * Hot-spot profiler implementation.
 */

#include "profiler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/disasm.hh"

namespace pb::obs
{

HotSpotProfiler::HotSpotProfiler(const isa::Program &prog_,
                                 const sim::BlockMap &blocks_)
    : prog(prog_), blockMap(blocks_)
{
    perPcInsts.assign(prog.words.size(), 0);
    blockEntries.assign(blockMap.numBlocks(), 0);
}

void
HotSpotProfiler::attachTimer(const sim::PipelineTimer *timer_)
{
    timer = timer_;
    if (timer)
        cycleBase = timer->slotCycles();
}

size_t
HotSpotProfiler::indexOf(uint32_t addr) const
{
    size_t index = (addr - prog.baseAddr) / 4;
    if (addr < prog.baseAddr || index >= perPcInsts.size())
        panic("profiler observed pc 0x%08x outside the program",
              addr);
    return index;
}

uint64_t
HotSpotProfiler::cyclesAt(size_t index) const
{
    if (!timer)
        return perPcInsts[index];
    const std::vector<uint64_t> &now = timer->slotCycles();
    return (index < now.size() ? now[index] : 0) -
           (index < cycleBase.size() ? cycleBase[index] : 0);
}

void
HotSpotProfiler::onRun(const sim::RunEvent &run)
{
    for (uint32_t i = 0; i < run.n; i++) {
        const uint32_t addr = run.pcAt(i);
        perPcInsts[indexOf(addr)]++;
        const sim::BasicBlock &block =
            blockMap.block(blockMap.blockOf(addr));
        if (addr == block.startAddr)
            blockEntries[block.id]++;
    }
    total += run.n;
}

uint64_t
HotSpotProfiler::instCount(uint32_t addr) const
{
    return perPcInsts[indexOf(addr)];
}

uint64_t
HotSpotProfiler::cycleCount(uint32_t addr) const
{
    return cyclesAt(indexOf(addr));
}

uint64_t
HotSpotProfiler::totalCycles() const
{
    uint64_t cycles = 0;
    for (size_t i = 0; i < perPcInsts.size(); i++)
        cycles += cyclesAt(i);
    return cycles;
}

std::vector<HotSpotProfiler::BlockProfile>
HotSpotProfiler::rankedBlocks() const
{
    std::vector<BlockProfile> ranked;
    for (const sim::BasicBlock &block : blockMap.blocks()) {
        BlockProfile profile;
        profile.blockId = block.id;
        profile.startAddr = block.startAddr;
        profile.numInsts = block.numInsts;
        profile.entries = blockEntries[block.id];
        profile.insts = 0;
        profile.cycles = 0;
        size_t first = (block.startAddr - prog.baseAddr) / 4;
        for (uint32_t i = 0; i < block.numInsts; i++) {
            profile.insts += perPcInsts[first + i];
            profile.cycles += cyclesAt(first + i);
        }
        if (profile.insts)
            ranked.push_back(profile);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const BlockProfile &a, const BlockProfile &b) {
                  if (a.cycles != b.cycles)
                      return a.cycles > b.cycles;
                  if (a.insts != b.insts)
                      return a.insts > b.insts;
                  return a.blockId < b.blockId;
              });
    return ranked;
}

std::string
HotSpotProfiler::render(size_t top_blocks) const
{
    std::vector<BlockProfile> ranked = rankedBlocks();
    uint64_t cycles = totalCycles();

    std::string out = strprintf(
        "NPE32 hot-spot profile: %llu insts, %llu cycles%s, "
        "%zu of %u blocks executed\n",
        static_cast<unsigned long long>(total),
        static_cast<unsigned long long>(cycles),
        timer ? "" : " (CPI 1, no timing model)",
        ranked.size(), blockMap.numBlocks());
    if (total == 0)
        return out;

    out += strprintf("%5s %7s %7s %12s %12s %10s  %s\n", "rank",
                     "%cyc", "%cum", "cycles", "insts", "entries",
                     "block");
    double cum = 0.0;
    for (size_t i = 0; i < ranked.size(); i++) {
        const BlockProfile &b = ranked[i];
        double pct =
            cycles ? 100.0 * static_cast<double>(b.cycles) /
                         static_cast<double>(cycles)
                   : 0.0;
        cum += pct;
        out += strprintf(
            "%5zu %6.1f%% %6.1f%% %12llu %12llu %10llu  "
            "#%u @0x%08x (%u insts)\n",
            i + 1, pct, cum,
            static_cast<unsigned long long>(b.cycles),
            static_cast<unsigned long long>(b.insts),
            static_cast<unsigned long long>(b.entries), b.blockId,
            b.startAddr, b.numInsts);
    }

    size_t annotate = std::min(top_blocks, ranked.size());
    for (size_t i = 0; i < annotate; i++) {
        const BlockProfile &b = ranked[i];
        out += strprintf("\nblock #%u @0x%08x — %llu insts, "
                         "%llu cycles:\n",
                         b.blockId, b.startAddr,
                         static_cast<unsigned long long>(b.insts),
                         static_cast<unsigned long long>(b.cycles));
        size_t first = (b.startAddr - prog.baseAddr) / 4;
        for (uint32_t w = 0; w < b.numInsts; w++) {
            uint32_t addr = b.startAddr + w * 4;
            isa::Inst inst = isa::decode(prog.words[first + w]);
            out += strprintf(
                "  0x%08x %10llu %10llu  %s\n", addr,
                static_cast<unsigned long long>(
                    perPcInsts[first + w]),
                static_cast<unsigned long long>(cyclesAt(first + w)),
                isa::disassemble(inst, addr).c_str());
        }
    }
    return out;
}

void
HotSpotProfiler::reset()
{
    std::fill(perPcInsts.begin(), perPcInsts.end(), 0);
    std::fill(blockEntries.begin(), blockEntries.end(), 0);
    total = 0;
    if (timer)
        cycleBase = timer->slotCycles();
}

} // namespace pb::obs
