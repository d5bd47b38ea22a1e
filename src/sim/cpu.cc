/**
 * @file
 * NPE32 interpreter implementation.
 *
 * Two dispatch loops share one set of memory/ALU semantics:
 * runSliceRef() here is the per-instruction reference loop (debugger
 * single-step, differential-test oracle), which reports every
 * instruction as a one-instruction run; runBlocked<ObsT>() in
 * cpu_blocked.cc is the production loop, which hoists fetch-bounds,
 * alignment, and budget checks to once per straight-line run and
 * reports each run once.  The two loops are bit-identical: same
 * RunResult, registers, memory effects, observer event stream
 * (flattened to instructions), recorded statistics, and faults
 * (type, message, and pc).
 */

#include "cpu.hh"

#include "common/bitops.hh"
#include "sim/accounting.hh"
#include "sim/memmap.hh"

namespace pb::sim
{

using isa::Inst;
using isa::Op;

Cpu::Cpu(Memory &mem_) : mem(mem_)
{
    resetRegs();
}

void
Cpu::resetRegs()
{
    for (auto &r : regs)
        r = 0;
    regs[isa::regSp] = layout::stackTop;
}

void
Cpu::loadProgram(const isa::Program &program)
{
    if (program.baseAddr < layout::textBase ||
        program.endAddr() > layout::textBase + layout::textSize) {
        fatal("program [0x%x, 0x%x) does not fit in the text region",
              program.baseAddr, program.endAddr());
    }
    mem.writeWords(program.baseAddr, program.words);
    prog = program;
    decoded.clear();
    decoded.reserve(prog.words.size());
    for (uint32_t word : prog.words)
        decoded.push_back(isa::decode(word));

    // Straight-line run lengths for the block-stepped loop: distance
    // (inclusive) from each slot to the next control-flow instruction
    // or undecodable word, clamped to the program end.  Undecodable
    // words terminate a run so the instructions before one execute
    // unchecked and the fault fires exactly where the reference loop
    // fires it.
    runLen.assign(decoded.size(), 1);
    for (size_t i = decoded.size(); i-- > 0;) {
        if (isa::isControlFlow(decoded[i].op) ||
            decoded[i].op == Op::INVALID || i + 1 == decoded.size())
            runLen[i] = 1;
        else
            runLen[i] = runLen[i + 1] + 1;
    }
    buildExecTable();
}

uint32_t
Cpu::load(const Inst &inst)
{
    const uint32_t addr = reg(inst.rs) + static_cast<uint32_t>(inst.imm);
    MemRegion region = MemRegion::Unmapped;
    uint32_t value = 0;
    uint8_t size = 0;
    switch (inst.op) {
      case Op::LW:
        size = 4;
        value = mem.read32(addr, region);
        break;
      case Op::LH:
        size = 2;
        value = static_cast<uint32_t>(sext(mem.read16(addr, region), 16));
        break;
      case Op::LHU:
        size = 2;
        value = mem.read16(addr, region);
        break;
      case Op::LB:
        size = 1;
        value = static_cast<uint32_t>(sext(mem.read8(addr, region), 8));
        break;
      case Op::LBU:
        size = 1;
        value = mem.read8(addr, region);
        break;
      default:
        throw SimError("load() called for a non-load opcode");
    }
    if (obs)
        obs->onMemAccessAt({addr, size, false, region}, 0);
    return value;
}

void
Cpu::store(const Inst &inst)
{
    const uint32_t addr = reg(inst.rs) + static_cast<uint32_t>(inst.imm);
    const uint32_t value = reg(inst.rd);
    MemRegion region = MemRegion::Unmapped;
    uint8_t size = 0;
    switch (inst.op) {
      case Op::SW:
        size = 4;
        mem.write32(addr, value, region);
        break;
      case Op::SH:
        size = 2;
        mem.write16(addr, static_cast<uint16_t>(value), region);
        break;
      case Op::SB:
        size = 1;
        mem.write8(addr, static_cast<uint8_t>(value), region);
        break;
      default:
        throw SimError("store() called for a non-store opcode");
    }
    if (obs)
        obs->onMemAccessAt({addr, size, true, region}, 0);
}

RunResult
Cpu::run(uint32_t entry, uint64_t max_insts)
{
    RunResult result = runSlice(entry, max_insts);
    if (result.hitBudget) {
        throw BudgetError(strprintf(
            "instruction budget (%llu) exhausted at pc=0x%x",
            static_cast<unsigned long long>(max_insts),
            result.nextPc));
    }
    return result;
}

RunResult
Cpu::runSliceRef(uint32_t entry, uint64_t max_insts)
{
    if (decoded.empty())
        fatal("Cpu::run called with no program loaded");

    const uint32_t base = prog.baseAddr;
    const uint32_t end = prog.endAddr();
    uint32_t pc = entry;
    uint64_t count = 0;

    while (true) {
        if (pc < base || pc >= end) {
            throw MemoryError(strprintf(
                "instruction fetch outside program: pc=0x%x", pc));
        }
        if (!isAligned(pc, 4)) {
            throw AlignmentError(
                strprintf("misaligned instruction fetch: pc=0x%x", pc));
        }
        if (count >= max_insts) {
            lifetimeInsts += count;
            RunResult result{isa::SysCode::Done, reg(isa::regA1),
                             count};
            result.hitBudget = true;
            result.nextPc = pc;
            return result;
        }

        const uint32_t slot = (pc - base) / 4;
        const Inst &inst = decoded[slot];
        if (inst.op == Op::INVALID) {
            throw DecodeError(strprintf(
                "undecodable instruction word at pc=0x%x", pc));
        }
        count++;

        // The instruction is a one-instruction run of its
        // straight-line run, reported once it executed, or once its
        // memory access faulted.
        RunEvent run{&inst, slot, pc, runLen[slot], 1, false, 0};
        const uint32_t rs = reg(inst.rs);
        const uint32_t rt = reg(inst.rt);
        const uint32_t uimm = static_cast<uint32_t>(inst.imm);

        try {
            switch (inst.op) {
              case Op::ADD:
                setReg(inst.rd, rs + rt);
                break;
              case Op::SUB:
                setReg(inst.rd, rs - rt);
                break;
              case Op::AND:
                setReg(inst.rd, rs & rt);
                break;
              case Op::OR:
                setReg(inst.rd, rs | rt);
                break;
              case Op::XOR:
                setReg(inst.rd, rs ^ rt);
                break;
              case Op::SLL:
                setReg(inst.rd, rs << (rt & 31));
                break;
              case Op::SRL:
                setReg(inst.rd, rs >> (rt & 31));
                break;
              case Op::SRA:
                setReg(inst.rd, static_cast<uint32_t>(
                                    static_cast<int32_t>(rs) >> (rt & 31)));
                break;
              case Op::MUL:
                setReg(inst.rd, rs * rt);
                break;
              case Op::SLT:
                setReg(inst.rd, static_cast<int32_t>(rs) <
                                        static_cast<int32_t>(rt)
                                    ? 1
                                    : 0);
                break;
              case Op::SLTU:
                setReg(inst.rd, rs < rt ? 1 : 0);
                break;

              case Op::ADDI:
                setReg(inst.rd, rs + uimm);
                break;
              case Op::ANDI:
                setReg(inst.rd, rs & uimm);
                break;
              case Op::ORI:
                setReg(inst.rd, rs | uimm);
                break;
              case Op::XORI:
                setReg(inst.rd, rs ^ uimm);
                break;
              case Op::SLLI:
                setReg(inst.rd, rs << (uimm & 31));
                break;
              case Op::SRLI:
                setReg(inst.rd, rs >> (uimm & 31));
                break;
              case Op::SRAI:
                setReg(inst.rd, static_cast<uint32_t>(
                                    static_cast<int32_t>(rs) >> (uimm & 31)));
                break;
              case Op::SLTI:
                setReg(inst.rd, static_cast<int32_t>(rs) < inst.imm ? 1 : 0);
                break;
              case Op::SLTIU:
                setReg(inst.rd, rs < uimm ? 1 : 0);
                break;
              case Op::LUI:
                setReg(inst.rd, uimm << 16);
                break;

              case Op::LW:
              case Op::LH:
              case Op::LHU:
              case Op::LB:
              case Op::LBU:
                setReg(inst.rd, load(inst));
                break;
              case Op::SW:
              case Op::SH:
              case Op::SB:
                store(inst);
                break;

              case Op::BEQ:
              case Op::BNE:
              case Op::BLT:
              case Op::BGE:
              case Op::BLTU:
              case Op::BGEU: {
                bool taken;
                switch (inst.op) {
                  case Op::BEQ:
                    taken = rs == rt;
                    break;
                  case Op::BNE:
                    taken = rs != rt;
                    break;
                  case Op::BLT:
                    taken = static_cast<int32_t>(rs) <
                            static_cast<int32_t>(rt);
                    break;
                  case Op::BGE:
                    taken = static_cast<int32_t>(rs) >=
                            static_cast<int32_t>(rt);
                    break;
                  case Op::BLTU:
                    taken = rs < rt;
                    break;
                  default:
                    taken = rs >= rt;
                    break;
                }
                run.taken = taken;
                if (taken)
                    run.target = pc + 4 + uimm * 4;
                break;
              }

              case Op::J:
                run.taken = true;
                run.target = pc + 4 + uimm * 4;
                break;
              case Op::JAL:
                setReg(isa::regLr, pc + 4);
                run.taken = true;
                run.target = pc + 4 + uimm * 4;
                break;
              case Op::JR:
                run.taken = true;
                run.target = rs;
                break;
              case Op::JALR:
                setReg(inst.rd, pc + 4);
                run.taken = true;
                run.target = rs;
                break;

              case Op::SYS:
                break;

              case Op::INVALID:
                throw DecodeError("unreachable: INVALID opcode executed");
            }
        } catch (...) {
            if (obs)
                obs->onRun(run);
            throw;
        }
        if (obs)
            obs->onRun(run);

        if (inst.op == Op::SYS) {
            lifetimeInsts += count;
            return {static_cast<isa::SysCode>(inst.imm),
                    reg(isa::regA1), count};
        }
        pc = run.taken ? run.target : pc + 4;
    }
}

} // namespace pb::sim
