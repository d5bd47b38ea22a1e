/**
 * @file
 * Pipeline timing model implementation.
 */

#include "timing.hh"

namespace pb::sim
{

using isa::Format;
using isa::InstClass;
using isa::Op;

PipelineTimer::PipelineTimer(TimingParams params)
    : params_(params),
      icache(params.icacheBytes, params.cacheLineBytes,
             params.cacheWays),
      dcache(params.dcacheBytes, params.cacheLineBytes,
             params.cacheWays),
      predictor()
{}

uint64_t
PipelineTimer::issueCycles(uint32_t addr, const isa::Inst &inst)
{
    uint64_t cycles = 1;
    if (!icache.access(addr))
        cycles += params_.icacheMissPenalty;

    const isa::OpInfo &info = isa::opInfo(inst.op);

    // Load-use interlock: does this instruction read the register a
    // load produced in the immediately preceding cycle?
    if (pendingLoadReg != 0xff && pendingLoadReg != 0) {
        bool uses = inst.rs == pendingLoadReg &&
                    info.format != Format::Jump &&
                    info.format != Format::Sys &&
                    inst.op != Op::LUI;
        // rt is a source for R-type and branches; rd is the *source*
        // for stores.
        if (info.format == Format::RType ||
            info.format == Format::Branch) {
            uses = uses || inst.rt == pendingLoadReg;
        }
        if (info.format == Format::Store)
            uses = uses || inst.rd == pendingLoadReg;
        if (uses)
            cycles += params_.loadUseStall;
    }
    pendingLoadReg =
        info.cls == InstClass::Load ? inst.rd : 0xff;

    if (info.cls == InstClass::IntMul)
        cycles += params_.mulLatency;
    if (info.cls == InstClass::Jump)
        cycles += params_.jumpBubble;
    return cycles;
}

void
PipelineTimer::onRun(const RunEvent &run)
{
    if (slotCycles_.size() < run.slot + run.n)
        slotCycles_.resize(run.slot + run.n);
    uint64_t *const slots = slotCycles_.data() + run.slot;
    auto charge = [&](uint32_t i, uint64_t cycles) {
        slots[i] += cycles;
        cycles_ += cycles;
    };
    for (uint32_t i = 0; i < run.n; i++)
        charge(i, issueCycles(run.pcAt(i), run.insts[i]));
    for (uint32_t i : missOffsets)
        charge(i, params_.dcacheMissPenalty);
    missOffsets.clear();
    if (run.endsInBranch()) {
        uint64_t before = predictor.mispredicts();
        predictor.update(run.pcAt(run.n - 1), run.taken);
        if (predictor.mispredicts() != before)
            charge(run.n - 1, params_.branchMispredict);
    }
    insts_ += run.n;
}

void
PipelineTimer::onMemAccessAt(const MemAccessEvent &event,
                             uint32_t offsetInRun)
{
    if (!dcache.access(event.addr))
        missOffsets.push_back(offsetInRun);
}

} // namespace pb::sim
