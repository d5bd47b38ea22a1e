/**
 * @file
 * NPE32 interpreter implementation.
 *
 * Two dispatch loops share one set of memory/ALU semantics:
 * runSliceRef() is the per-instruction reference loop (debugger
 * single-step, differential-test oracle); runBlocked<ObsT>() is the
 * production loop, which hoists fetch-bounds, alignment, and budget
 * checks to once per straight-line run, compiles the observer
 * notifications out entirely when no observer is attached, and
 * charges a lone accounting recorder once per run.  The two are
 * bit-identical: same RunResult, registers, memory effects, observer
 * event stream, recorded statistics, and faults (type, message, and
 * pc).
 */

#include "cpu.hh"

#include <type_traits>

#include "common/bitops.hh"
#include "sim/accounting.hh"
#include "sim/memmap.hh"

namespace pb::sim
{

using isa::Inst;
using isa::Op;

namespace
{

/** Observer whose events compile to nothing (no-observer loop). */
struct NoObs
{
    void onMemAccess(const MemAccessEvent &) {}
};

} // namespace

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
    prog = program;
    decoded.clear();
    decoded.reserve(prog.words.size());
    for (size_t i = 0; i < prog.words.size(); i++) {
        uint32_t word = prog.words[i];
        mem.write32(prog.baseAddr + static_cast<uint32_t>(i) * 4, word);
        decoded.push_back(isa::decode(word));
    }

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
}

inline uint32_t
Cpu::loadValue(const Inst &inst, uint32_t &addr, uint8_t &size,
               MemRegion &region)
{
    addr = reg(inst.rs) + static_cast<uint32_t>(inst.imm);
    switch (inst.op) {
      case Op::LW:
        size = 4;
        return mem.read32(addr, region);
      case Op::LH:
        size = 2;
        return static_cast<uint32_t>(sext(mem.read16(addr, region), 16));
      case Op::LHU:
        size = 2;
        return mem.read16(addr, region);
      case Op::LB:
        size = 1;
        return static_cast<uint32_t>(sext(mem.read8(addr, region), 8));
      case Op::LBU:
        size = 1;
        return mem.read8(addr, region);
      default:
        throw SimError("load() called for a non-load opcode");
    }
}

inline void
Cpu::storeValue(const Inst &inst, uint32_t &addr, uint8_t &size,
                MemRegion &region)
{
    addr = reg(inst.rs) + static_cast<uint32_t>(inst.imm);
    uint32_t value = reg(inst.rd);
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
}

uint32_t
Cpu::load(const Inst &inst)
{
    uint32_t addr;
    uint8_t size;
    MemRegion region;
    uint32_t value = loadValue(inst, addr, size, region);
    if (obs)
        obs->onMemAccess({addr, size, false, region});
    return value;
}

void
Cpu::store(const Inst &inst)
{
    uint32_t addr;
    uint8_t size;
    MemRegion region;
    storeValue(inst, addr, size, region);
    if (obs)
        obs->onMemAccess({addr, size, true, region});
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
Cpu::runSlice(uint32_t entry, uint64_t max_insts)
{
    if (dispatch == DispatchMode::Reference)
        return runSliceRef(entry, max_insts);
    if (recObs)
        return runBlocked(entry, max_insts, recObs);
    if (obs)
        return runBlocked(entry, max_insts, obs);
    NoObs none;
    return runBlocked(entry, max_insts, &none);
}

/**
 * The block-stepped production loop, templated on the concrete
 * observer type (NoObs / PacketRecorder / ExecObserver).  The outer
 * loop performs the fetch-bounds, alignment, and budget checks once
 * per straight-line run — they hold for every instruction of the run:
 * the pc only moves sequentially inside one, runLen never crosses the
 * program end, and the run is clipped to the remaining budget.  The
 * inner loop is free of per-instruction guards: undecodable words are
 * detected at run setup (they can only sit in a run's last slot), and
 * operand reads index the register file directly (regs[regZero] is
 * invariantly 0 because setReg never writes it).
 *
 * Only a generic observer receives per-instruction events (onInst,
 * onBranch), so only it needs the pc maintained per instruction.  The
 * other two observer types reconstruct a control-flow instruction's
 * address from the instruction pointer: only a run's last slot can
 * hold one.
 *
 * The PacketRecorder is charged once per run (onRun), with the run's
 * decoded slots and full length from this CPU's tables and the
 * number of instructions that reached execution: after the run,
 * after the executed prefix of a run whose memory access faults (the
 * faulting instruction included, its access not), and before the
 * SYS that ends the slice returns.  A budget-clipped run is charged
 * its clipped length; an undecodable word ending a run never is.
 * Each memory access goes to onMemAccessAt with its offset in the
 * run.  The recorder ignores onBranch, so not delivering it loses
 * nothing.
 */
template <typename ObsT>
RunResult
Cpu::runBlocked(uint32_t entry, uint64_t max_insts, ObsT *o)
{
    // Tracked mode delivers (pc, inst) events per instruction;
    // untracked mode elides the pc bookkeeping.
    constexpr bool kTracked = std::is_same_v<ObsT, ExecObserver>;
    constexpr bool kPerRun = std::is_same_v<ObsT, PacketRecorder>;

    if (decoded.empty())
        fatal("Cpu::run called with no program loaded");

    const uint32_t base = prog.baseAddr;
    // base is 4-aligned (loadProgram stores the image with write32),
    // so one unsigned offset folds the bounds check (wrap catches
    // pc < base) and carries the alignment bits.
    const uint32_t text_len = prog.endAddr() - base;
    const Inst *const insts = decoded.data();
    const uint32_t *const lens = runLen.data();
    const uint32_t *const r = regs;
    uint32_t pc = entry;
    uint64_t count = 0;
    uint64_t blocks = 0;

    while (true) {
        // Same checks, same order, as the reference loop applies
        // before each instruction.
        const uint32_t pcoff = pc - base;
        if (pcoff >= text_len) {
            throw MemoryError(strprintf(
                "instruction fetch outside program: pc=0x%x", pc));
        }
        if (pcoff & 3) {
            throw AlignmentError(
                strprintf("misaligned instruction fetch: pc=0x%x", pc));
        }
        if (count >= max_insts) {
            lifetimeInsts += count;
            lifetimeBlocks += blocks;
            RunResult result{isa::SysCode::Done, reg(isa::regA1),
                             count};
            result.hitBudget = true;
            result.nextPc = pc;
            return result;
        }

        const uint32_t slot = pcoff / 4;
        uint64_t n = lens[slot];
        if (n > max_insts - count)
            n = max_insts - count; // budget expires mid-run
        blocks++;

        const Inst *const run = insts + slot;
        const Inst *ip = run;
        const Inst *stop = run + n;
        // An undecodable word can only occupy a run's last slot (it
        // terminates runLen), so hoist its detection out of the inner
        // loop: execute the straight-line prefix, then fault exactly
        // where — and exactly as uncounted/unobserved as — the
        // reference loop does.  A budget-clipped run never ends on
        // one (the clip lands strictly inside the prefix).
        const bool ends_invalid = stop[-1].op == Op::INVALID;
        if (ends_invalid)
            stop--;

        // Untracked mode: where a taken control transfer (always the
        // run's last instruction) sent the pc, if anywhere.
        [[maybe_unused]] uint32_t pc_redirect = 0;
        [[maybe_unused]] bool redirected = false;
        // Executed the SYS that ends the slice (a run's last slot).
        bool halted = false;

        try {
            for (; ip != stop; ++ip) {
                const Inst &inst = *ip;
                uint32_t next_pc = 0;
                if constexpr (kTracked) {
                    o->onInst(pc, inst);
                    next_pc = pc + 4;
                }
                // Address of the current instruction, reconstructed on
                // demand in untracked mode.
                auto ipc = [&] {
                    if constexpr (kTracked)
                        return pc;
                    else
                        return base +
                               (static_cast<uint32_t>(ip - insts) << 2);
                };
                auto notify = [&](const MemAccessEvent &event) {
                    if constexpr (kPerRun)
                        o->onMemAccessAt(event,
                                         static_cast<uint32_t>(ip - run));
                    else
                        o->onMemAccess(event);
                };

                const uint32_t rs = r[inst.rs];
                const uint32_t rt = r[inst.rt];
                const uint32_t uimm = static_cast<uint32_t>(inst.imm);

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
                    setReg(inst.rd,
                           static_cast<uint32_t>(static_cast<int32_t>(rs) >>
                                                 (rt & 31)));
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
                    setReg(inst.rd,
                           static_cast<uint32_t>(static_cast<int32_t>(rs) >>
                                                 (uimm & 31)));
                    break;
                  case Op::SLTI:
                    setReg(inst.rd,
                           static_cast<int32_t>(rs) < inst.imm ? 1 : 0);
                    break;
                  case Op::SLTIU:
                    setReg(inst.rd, rs < uimm ? 1 : 0);
                    break;
                  case Op::LUI:
                    setReg(inst.rd, uimm << 16);
                    break;

                  case Op::LW: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    const uint32_t value = mem.read32(addr, region);
                    notify({addr, 4, false, region});
                    setReg(inst.rd, value);
                    break;
                  }
                  case Op::LH: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    const uint32_t value = static_cast<uint32_t>(
                        sext(mem.read16(addr, region), 16));
                    notify({addr, 2, false, region});
                    setReg(inst.rd, value);
                    break;
                  }
                  case Op::LHU: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    const uint32_t value = mem.read16(addr, region);
                    notify({addr, 2, false, region});
                    setReg(inst.rd, value);
                    break;
                  }
                  case Op::LB: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    const uint32_t value = static_cast<uint32_t>(
                        sext(mem.read8(addr, region), 8));
                    notify({addr, 1, false, region});
                    setReg(inst.rd, value);
                    break;
                  }
                  case Op::LBU: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    const uint32_t value = mem.read8(addr, region);
                    notify({addr, 1, false, region});
                    setReg(inst.rd, value);
                    break;
                  }

                  case Op::SW: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    mem.write32(addr, r[inst.rd], region);
                    notify({addr, 4, true, region});
                    break;
                  }
                  case Op::SH: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    mem.write16(addr, static_cast<uint16_t>(r[inst.rd]),
                                region);
                    notify({addr, 2, true, region});
                    break;
                  }
                  case Op::SB: {
                    const uint32_t addr = rs + uimm;
                    MemRegion region;
                    mem.write8(addr, static_cast<uint8_t>(r[inst.rd]),
                               region);
                    notify({addr, 1, true, region});
                    break;
                  }

                  case Op::BEQ: {
                    const bool taken = rs == rt;
                    if constexpr (kTracked) {
                        const uint32_t target = pc + 4 + uimm * 4;
                        o->onBranch(pc, taken, target);
                        if (taken)
                            next_pc = target;
                    } else if (taken) {
                        pc_redirect = ipc() + 4 + uimm * 4;
                        redirected = true;
                    }
                    break;
                  }
                  case Op::BNE: {
                    const bool taken = rs != rt;
                    if constexpr (kTracked) {
                        const uint32_t target = pc + 4 + uimm * 4;
                        o->onBranch(pc, taken, target);
                        if (taken)
                            next_pc = target;
                    } else if (taken) {
                        pc_redirect = ipc() + 4 + uimm * 4;
                        redirected = true;
                    }
                    break;
                  }
                  case Op::BLT: {
                    const bool taken = static_cast<int32_t>(rs) <
                                       static_cast<int32_t>(rt);
                    if constexpr (kTracked) {
                        const uint32_t target = pc + 4 + uimm * 4;
                        o->onBranch(pc, taken, target);
                        if (taken)
                            next_pc = target;
                    } else if (taken) {
                        pc_redirect = ipc() + 4 + uimm * 4;
                        redirected = true;
                    }
                    break;
                  }
                  case Op::BGE: {
                    const bool taken = static_cast<int32_t>(rs) >=
                                       static_cast<int32_t>(rt);
                    if constexpr (kTracked) {
                        const uint32_t target = pc + 4 + uimm * 4;
                        o->onBranch(pc, taken, target);
                        if (taken)
                            next_pc = target;
                    } else if (taken) {
                        pc_redirect = ipc() + 4 + uimm * 4;
                        redirected = true;
                    }
                    break;
                  }
                  case Op::BLTU: {
                    const bool taken = rs < rt;
                    if constexpr (kTracked) {
                        const uint32_t target = pc + 4 + uimm * 4;
                        o->onBranch(pc, taken, target);
                        if (taken)
                            next_pc = target;
                    } else if (taken) {
                        pc_redirect = ipc() + 4 + uimm * 4;
                        redirected = true;
                    }
                    break;
                  }
                  case Op::BGEU: {
                    const bool taken = rs >= rt;
                    if constexpr (kTracked) {
                        const uint32_t target = pc + 4 + uimm * 4;
                        o->onBranch(pc, taken, target);
                        if (taken)
                            next_pc = target;
                    } else if (taken) {
                        pc_redirect = ipc() + 4 + uimm * 4;
                        redirected = true;
                    }
                    break;
                  }

                  case Op::J:
                    if constexpr (kTracked) {
                        next_pc = pc + 4 + uimm * 4;
                    } else {
                        pc_redirect = ipc() + 4 + uimm * 4;
                        redirected = true;
                    }
                    break;
                  case Op::JAL:
                    setReg(isa::regLr, ipc() + 4);
                    if constexpr (kTracked) {
                        next_pc = pc + 4 + uimm * 4;
                    } else {
                        pc_redirect = ipc() + 4 + uimm * 4;
                        redirected = true;
                    }
                    break;
                  case Op::JR:
                    if constexpr (kTracked) {
                        next_pc = rs;
                    } else {
                        pc_redirect = rs;
                        redirected = true;
                    }
                    break;
                  case Op::JALR:
                    setReg(inst.rd, ipc() + 4);
                    if constexpr (kTracked) {
                        next_pc = rs;
                    } else {
                        pc_redirect = rs;
                        redirected = true;
                    }
                    break;

                  case Op::SYS:
                    halted = true;
                    break;

                  case Op::INVALID:
                    // Hoisted to run setup (ends_invalid); unreachable.
                    throw DecodeError(strprintf(
                        "undecodable instruction word at pc=0x%x",
                        ipc()));
                }

                if constexpr (kTracked)
                    pc = next_pc;
            }
        } catch (...) {
            // ip is the faulting instruction: it reached execution.
            if constexpr (kPerRun)
                o->onRun(run, slot, lens[slot],
                         static_cast<uint32_t>(ip - run) + 1);
            throw;
        }
        const auto ran = static_cast<uint32_t>(stop - run);
        count += ran;
        if constexpr (kPerRun)
            o->onRun(run, slot, lens[slot], ran);
        if (halted) {
            lifetimeInsts += count;
            lifetimeBlocks += blocks;
            return {static_cast<isa::SysCode>(stop[-1].imm),
                    reg(isa::regA1), count};
        }
        if constexpr (!kTracked) {
            pc = redirected
                     ? pc_redirect
                     : base + (static_cast<uint32_t>(stop - insts)
                               << 2);
        }
        if (ends_invalid) {
            // pc advanced through the straight-line prefix and now
            // sits on the undecodable slot.
            throw DecodeError(strprintf(
                "undecodable instruction word at pc=0x%x", pc));
        }
        // Only a run's last instruction can redirect control, so pc
        // now points wherever the terminator (or the budget clip)
        // left it; loop around to re-validate it.
    }
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

        const Inst &inst = decoded[(pc - base) / 4];
        if (inst.op == Op::INVALID) {
            throw DecodeError(strprintf(
                "undecodable instruction word at pc=0x%x", pc));
        }
        count++;
        if (obs)
            obs->onInst(pc, inst);

        uint32_t next_pc = pc + 4;
        const uint32_t rs = reg(inst.rs);
        const uint32_t rt = reg(inst.rt);
        const uint32_t uimm = static_cast<uint32_t>(inst.imm);

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
            uint32_t target = pc + 4 + uimm * 4;
            if (obs)
                obs->onBranch(pc, taken, target);
            if (taken)
                next_pc = target;
            break;
          }

          case Op::J:
            next_pc = pc + 4 + uimm * 4;
            break;
          case Op::JAL:
            setReg(isa::regLr, pc + 4);
            next_pc = pc + 4 + uimm * 4;
            break;
          case Op::JR:
            next_pc = rs;
            break;
          case Op::JALR:
            setReg(inst.rd, pc + 4);
            next_pc = rs;
            break;

          case Op::SYS: {
            lifetimeInsts += count;
            return {static_cast<isa::SysCode>(inst.imm),
                    reg(isa::regA1), count};
          }

          case Op::INVALID:
            throw DecodeError("unreachable: INVALID opcode executed");
        }

        pc = next_pc;
    }
}

} // namespace pb::sim
