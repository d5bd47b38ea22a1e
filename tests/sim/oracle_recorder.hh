/**
 * @file
 * A deliberately naive per-instruction accounting recorder: the
 * oracle the PacketRecorder is tested against.
 *
 * It flattens every straight-line run the CPU reports into its
 * instructions and their memory accesses, in execution order, and
 * keeps plain sets and maps of what they touched.  It produces the
 * same PacketStats and run-level aggregates as sim::PacketRecorder
 * with none of its cleverness (run heads, suffix covers, epochs, bit
 * maps), so each of its rules can be checked by reading it.
 */

#ifndef PB_TESTS_SIM_ORACLE_RECORDER_HH
#define PB_TESTS_SIM_ORACLE_RECORDER_HH

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sim/accounting.hh"
#include "sim/bblock.hh"
#include "sim/cpu.hh"
#include "sim/memmap.hh"

namespace pb::test
{

class OracleRecorder : public sim::ExecObserver
{
  public:
    OracleRecorder(const isa::Program &prog, const sim::BlockMap &blocks,
                   sim::RecorderConfig cfg = {})
        : cfg(cfg), prog(prog), blocks(blocks)
    {}

    void
    beginPacket()
    {
        current = sim::PacketStats{};
        packetWords.clear();
        packetBlocks.clear();
    }

    sim::PacketStats endPacket() { return std::move(current); }

    void
    onMemAccessAt(const sim::MemAccessEvent &event,
                  uint32_t offsetInRun) override
    {
        pending.emplace_back(offsetInRun, event);
    }

    void
    onRun(const sim::RunEvent &run) override
    {
        auto access = pending.begin();
        for (uint32_t i = 0; i < run.n; i++) {
            instruction(run.pcAt(i), run.insts[i]);
            for (; access != pending.end() && access->first == i;
                 ++access)
                memAccess(access->second);
        }
        pending.clear();
    }

    /** @name Run-level aggregates, as PacketRecorder names them. @{ */
    uint64_t totalInsts() const { return insts; }
    uint64_t instMemoryBytes() const { return 4 * wordsEver.size(); }
    uint64_t dataMemoryBytes() const { return bytesEver.size(); }

    std::array<uint64_t, sim::numInstClasses>
    classCounts() const
    {
        std::array<uint64_t, sim::numInstClasses> counts{};
        for (auto [cls, count] : mix)
            counts[static_cast<size_t>(cls)] = count;
        return counts;
    }
    /** @} */

  private:
    void
    instruction(uint32_t pc, const isa::Inst &inst)
    {
        insts++;
        current.instCount++;
        mix[isa::opInfo(inst.op).cls]++;
        if (cfg.instTrace)
            current.instTrace.push_back(pc);
        // Footprints count only words of the recorder's own program.
        if (pc < prog.baseAddr || pc >= prog.endAddr())
            return;
        wordsEver.insert(pc);
        if (!packetWords.insert(pc).second)
            return;
        current.uniqueInstCount++;
        const uint32_t block = blocks.blockOf(pc);
        if (cfg.blockSets && packetBlocks.insert(block).second)
            current.blocks.push_back(block);
    }

    void
    memAccess(const sim::MemAccessEvent &event)
    {
        const bool packet = event.region == sim::MemRegion::Packet;
        if (event.isStore)
            (packet ? current.packetWrites : current.nonPacketWrites)++;
        else
            (packet ? current.packetReads : current.nonPacketReads)++;
        // The data footprint covers the data, packet and stack
        // regions; text constants and unmapped addresses are not
        // data memory.
        if (event.region != sim::MemRegion::Text &&
            event.region != sim::MemRegion::Unmapped) {
            for (uint32_t b = 0; b < event.size; b++)
                bytesEver.insert(event.addr + b);
        }
        if (cfg.memTrace)
            current.memTrace.push_back({current.instCount, event});
    }

    const sim::RecorderConfig cfg;
    const isa::Program &prog;
    const sim::BlockMap &blocks;

    /** Accesses of the run the next onRun() reports. */
    std::vector<std::pair<uint32_t, sim::MemAccessEvent>> pending;

    sim::PacketStats current;
    std::set<uint32_t> packetWords;  ///< pcs executed this packet
    std::set<uint32_t> packetBlocks; ///< blocks executed this packet

    uint64_t insts = 0;
    std::map<isa::InstClass, uint64_t> mix;
    std::set<uint32_t> wordsEver; ///< pcs executed in any packet
    std::set<uint32_t> bytesEver; ///< data bytes accessed, any packet
};

} // namespace pb::test

#endif // PB_TESTS_SIM_ORACLE_RECORDER_HH
