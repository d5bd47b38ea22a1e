/**
 * @file
 * The block-stepped production loop, Cpu::runBlocked(), and the
 * execution table it runs from, built by Cpu::buildExecTable().
 *
 * The loop is threaded code: each opcode has its own handler, and
 * each handler that does not end a run dispatches the next slot with
 * its own indirect jump (labels as values, a GNU extension that GCC
 * and Clang support), so the host predicts each jump from the opcode
 * it leaves instead of through one jump shared by all.  GCC merges
 * those jumps back into one unless this file is built with
 * -fno-gcse -fno-crossjumping, and code linked ahead of the loop
 * shifts its internal alignment unless the file's functions, jumps
 * and loops are aligned; src/sim/CMakeLists.txt sets those flags for
 * this file only, and ci/check_dispatch.py checks the built loop.
 */

#include <array>
#include <iterator>

#include "common/bitops.hh"
#include "cpu.hh"
#include "sim/accounting.hh"
#include "sim/memmap.hh"

namespace pb::sim
{

using isa::Format;
using isa::Inst;
using isa::Op;

namespace
{

/** Observer whose events compile to nothing (no-observer loop). */
struct NoObs
{
    void onRun(const RunEvent &) {}
    void onMemAccessAt(const MemAccessEvent &, uint32_t) {}
};

/**
 * The loop's handlers, in the order of its label table: one per
 * opcode, in isa::allOps order, then the two that end a run without
 * executing their slot.
 */
enum Handler : uint8_t
{
    hADD, hSUB, hAND, hOR, hXOR, hSLL, hSRL, hSRA, hMUL, hSLT, hSLTU,
    hADDI, hANDI, hORI, hXORI, hSLLI, hSRLI, hSRAI, hSLTI, hSLTIU, hLUI,
    hLW, hLH, hLHU, hLB, hLBU, hSW, hSH, hSB,
    hBEQ, hBNE, hBLT, hBGE, hBLTU, hBGEU,
    hJ, hJAL, hJR, hJALR,
    hSYS,
    hINVALID, ///< an undecodable word: fault after the run's prefix
    hCUT,     ///< the run stops here: the program or the budget ends
    numHandlers
};

static_assert(std::size(isa::allOps) == hINVALID);
static_assert(isa::allOps[hADD] == Op::ADD && isa::allOps[hSLTU] == Op::SLTU &&
              isa::allOps[hADDI] == Op::ADDI && isa::allOps[hLUI] == Op::LUI &&
              isa::allOps[hLW] == Op::LW && isa::allOps[hSB] == Op::SB &&
              isa::allOps[hBEQ] == Op::BEQ && isa::allOps[hBGEU] == Op::BGEU &&
              isa::allOps[hJ] == Op::J && isa::allOps[hJALR] == Op::JALR &&
              isa::allOps[hSYS] == Op::SYS);

/** Handler by opcode byte. */
constexpr std::array<uint8_t, 256> handlerOf = [] {
    std::array<uint8_t, 256> table{};
    table.fill(hINVALID);
    for (size_t h = 0; h < std::size(isa::allOps); h++)
        table[static_cast<uint8_t>(isa::allOps[h])] = static_cast<uint8_t>(h);
    return table;
}();

/** True when @p op writes its rd field (a store reads it instead). */
bool
writesRd(Op op)
{
    const Format fmt = isa::opInfo(op).format;
    return fmt == Format::RType || fmt == Format::IType ||
           fmt == Format::Load || op == Op::JALR;
}

/** Memory's checked read of a T, reporting the region it resolved. */
template <typename T>
T
readChecked(const Memory &mem, uint32_t addr, MemRegion &region)
{
    if constexpr (sizeof(T) == 1)
        return mem.read8(addr, region);
    else if constexpr (sizeof(T) == 2)
        return mem.read16(addr, region);
    else
        return mem.read32(addr, region);
}

/** Memory's checked write of a T, reporting the region it resolved. */
template <typename T>
void
writeChecked(Memory &mem, uint32_t addr, T value, MemRegion &region)
{
    if constexpr (sizeof(T) == 1)
        mem.write8(addr, value, region);
    else if constexpr (sizeof(T) == 2)
        mem.write16(addr, value, region);
    else
        mem.write32(addr, value, region);
}

} // namespace

/** Inline a lambda into each caller, whatever the call count. */
#define PB_INLINE __attribute__((always_inline))

void
Cpu::buildExecTable()
{
    const uint32_t base = prog.baseAddr;
    exec.assign(decoded.size() + 1, ExecSlot{});
    for (size_t i = 0; i < decoded.size(); i++) {
        const Inst &inst = decoded[i];
        const Format fmt = isa::opInfo(inst.op).format;
        ExecSlot &e = exec[i];
        e.handler = handlerOf[static_cast<uint8_t>(inst.op)];
        e.rd = writesRd(inst.op) && inst.rd == isa::regZero ? regSink
                                                             : inst.rd;
        e.rs = inst.rs;
        e.imm = static_cast<uint32_t>(inst.imm);
        if (fmt == Format::Load || fmt == Format::Store) {
            // Stack slots address sp; everything else starts out as
            // data and re-learns from its first miss (packet buffers).
            e.region = inst.rs == isa::regSp ? MemRegion::Stack
                                             : MemRegion::Data;
        } else {
            e.rt = inst.rt;
        }
        if (fmt == Format::Branch || fmt == Format::Jump)
            e.imm = base + static_cast<uint32_t>(i) * 4 + 4 + e.imm * 4;
    }
    exec.back().handler = hCUT;
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
 * observer type (NoObs / PacketRecorder / ExecObserver); the three
 * instantiations differ only in how the observer calls compile.  Each
 * run starts with the fetch-bounds, alignment, and budget checks —
 * they hold for every instruction of the run: the pc only moves
 * sequentially inside one, runLen never crosses the program end, and a
 * run the budget cuts short is ended early.  Then its slots execute
 * with no per-instruction guard: each handler jumps straight to the
 * next slot's, and the run ends in the handler of its last slot — a
 * control transfer or SYS, an undecodable word (which faults after the
 * slots before it executed, exactly as the reference loop does), or
 * hCUT.  hCUT sits in the slot past the program's end, and stands in
 * for the handler of the first slot a clipped run must not execute.
 * Operand reads index the register file directly: regs[regZero] is
 * invariantly 0, because an r0 destination writes regSink instead.
 * The pc is kept per run, and an instruction's address is
 * reconstructed from its slot on demand.
 *
 * The observer hears each run once (onRun), with its decoded slots
 * and full length from this CPU's tables and the number of
 * instructions that reached execution: after the run, after the
 * executed prefix of a run whose memory access faults (the faulting
 * instruction included, its access not), and before the SYS that
 * ends the slice returns.  A budget-clipped run is reported with its
 * clipped length; an undecodable word ending a run never executes.
 * Each memory access goes to onMemAccessAt, ahead of its run, with
 * its offset in the run.
 */
template <typename ObsT>
RunResult
Cpu::runBlocked(uint32_t entry, uint64_t max_insts, ObsT *o)
{
    if (decoded.empty())
        fatal("Cpu::run called with no program loaded");

    // One label per Handler, in its order.
    static const void *const handlers[] = {
        &&do_add,  &&do_sub,  &&do_and,   &&do_or,    &&do_xor,
        &&do_sll,  &&do_srl,  &&do_sra,   &&do_mul,   &&do_slt,
        &&do_sltu, &&do_addi, &&do_andi,  &&do_ori,   &&do_xori,
        &&do_slli, &&do_srli, &&do_srai,  &&do_slti,  &&do_sltiu,
        &&do_lui,  &&do_lw,   &&do_lh,    &&do_lhu,   &&do_lb,
        &&do_lbu,  &&do_sw,   &&do_sh,    &&do_sb,    &&do_beq,
        &&do_bne,  &&do_blt,  &&do_bge,   &&do_bltu,  &&do_bgeu,
        &&do_j,    &&do_jal,  &&do_jr,    &&do_jalr,  &&do_sys,
        &&do_invalid, &&do_cut,
    };
    static_assert(std::size(handlers) == numHandlers);

    const uint32_t base = prog.baseAddr;
    // base is 4-aligned (loadProgram stores the image as words),
    // so one unsigned offset folds the bounds check (wrap catches
    // pc < base) and carries the alignment bits.
    const uint32_t text_len = prog.endAddr() - base;
    ExecSlot *const ex = exec.data();
    const uint32_t *const lens = runLen.data();
    uint32_t *const r = regs;
    uint32_t pc = entry;
    uint64_t count = 0;
    uint64_t blocks = 0;

    // The run in progress: its first slot, the slot executing now,
    // and whether a fault there is the run's to report.
    uint32_t slot = 0;
    ExecSlot *run = ex;
    ExecSlot *ip = ex;
    bool open = false;
    // Where the run's last instruction sent control, if anywhere.
    bool taken = false;
    uint32_t target = 0;
    // The slot a budget clip gave hCUT, and the handler it had.
    ExecSlot *clip = nullptr;
    uint8_t clipped = 0;

    // The helpers are inlined into every handler that uses them, so
    // no handler pays a call.
    auto slotOf = [&](const ExecSlot *e) PB_INLINE {
        return static_cast<uint32_t>(e - ex);
    };
    auto pcOf = [&](const ExecSlot *e) PB_INLINE {
        return base + (slotOf(e) << 2);
    };
    auto notify = [&](uint32_t addr, uint8_t size, bool is_store,
                      MemRegion region) PB_INLINE {
        o->onMemAccessAt({addr, size, is_store, region},
                         static_cast<uint32_t>(ip - run));
    };
    // A load or store of a T through the slot's predicted region.  A
    // miss takes Memory's checked path, which faults as it always
    // does, and the slot re-learns its region from the access.
    auto load = [&](auto width) PB_INLINE {
        using T = decltype(width);
        const uint32_t addr = r[ip->rs] + ip->imm;
        MemRegion region = ip->region;
        T value = 0;
        if (!mem.loadIn(region, addr, value)) [[unlikely]] {
            value = readChecked<T>(mem, addr, region);
            ip->region = region;
        }
        notify(addr, sizeof(T), false, region);
        return value;
    };
    auto store = [&](auto value) PB_INLINE {
        using T = decltype(value);
        const uint32_t addr = r[ip->rs] + ip->imm;
        MemRegion region = ip->region;
        if (!mem.storeIn(region, addr, value)) [[unlikely]] {
            writeChecked<T>(mem, addr, value, region);
            ip->region = region;
        }
        notify(addr, sizeof(T), true, region);
    };
    // Report the run's slots before @p stop as executed.
    auto close = [&](const ExecSlot *stop) PB_INLINE {
        if (clip) {
            clip->handler = clipped;
            clip = nullptr;
        }
        open = false;
        const auto ran = static_cast<uint32_t>(stop - run);
        count += ran;
        o->onRun({decoded.data() + slot, slot, pc, lens[slot], ran, taken,
                  target});
    };

// Execute the next slot of the run: every handler has its own copy of
// this jump.
#define PB_NEXT() goto *handlers[(++ip)->handler]

    try {
    next_run:
        {
            // Same checks, same order, as the reference loop applies
            // before each instruction.
            const uint32_t pcoff = pc - base;
            if (pcoff >= text_len) {
                throw MemoryError(strprintf(
                    "instruction fetch outside program: pc=0x%x", pc));
            }
            if (pcoff & 3) {
                throw AlignmentError(strprintf(
                    "misaligned instruction fetch: pc=0x%x", pc));
            }
            if (count >= max_insts) {
                lifetimeInsts += count;
                lifetimeBlocks += blocks;
                RunResult result{isa::SysCode::Done, r[isa::regA1],
                                 count};
                result.hitBudget = true;
                result.nextPc = pc;
                return result;
            }
            slot = pcoff / 4;
            if (lens[slot] > max_insts - count) {
                // The budget expires mid-run, strictly before the
                // run's last slot.
                clip = ex + slot + (max_insts - count);
                clipped = clip->handler;
                clip->handler = hCUT;
            }
            blocks++;
            run = ip = ex + slot;
            taken = false;
            target = 0;
            open = true;
        }
        goto *handlers[ip->handler];

    do_add:
        r[ip->rd] = r[ip->rs] + r[ip->rt];
        PB_NEXT();
    do_sub:
        r[ip->rd] = r[ip->rs] - r[ip->rt];
        PB_NEXT();
    do_and:
        r[ip->rd] = r[ip->rs] & r[ip->rt];
        PB_NEXT();
    do_or:
        r[ip->rd] = r[ip->rs] | r[ip->rt];
        PB_NEXT();
    do_xor:
        r[ip->rd] = r[ip->rs] ^ r[ip->rt];
        PB_NEXT();
    do_sll:
        r[ip->rd] = r[ip->rs] << (r[ip->rt] & 31);
        PB_NEXT();
    do_srl:
        r[ip->rd] = r[ip->rs] >> (r[ip->rt] & 31);
        PB_NEXT();
    do_sra:
        r[ip->rd] = static_cast<uint32_t>(static_cast<int32_t>(r[ip->rs]) >>
                                          (r[ip->rt] & 31));
        PB_NEXT();
    do_mul:
        r[ip->rd] = r[ip->rs] * r[ip->rt];
        PB_NEXT();
    do_slt:
        r[ip->rd] = static_cast<int32_t>(r[ip->rs]) <
                            static_cast<int32_t>(r[ip->rt])
                        ? 1
                        : 0;
        PB_NEXT();
    do_sltu:
        r[ip->rd] = r[ip->rs] < r[ip->rt] ? 1 : 0;
        PB_NEXT();

    do_addi:
        r[ip->rd] = r[ip->rs] + ip->imm;
        PB_NEXT();
    do_andi:
        r[ip->rd] = r[ip->rs] & ip->imm;
        PB_NEXT();
    do_ori:
        r[ip->rd] = r[ip->rs] | ip->imm;
        PB_NEXT();
    do_xori:
        r[ip->rd] = r[ip->rs] ^ ip->imm;
        PB_NEXT();
    do_slli:
        r[ip->rd] = r[ip->rs] << (ip->imm & 31);
        PB_NEXT();
    do_srli:
        r[ip->rd] = r[ip->rs] >> (ip->imm & 31);
        PB_NEXT();
    do_srai:
        r[ip->rd] = static_cast<uint32_t>(static_cast<int32_t>(r[ip->rs]) >>
                                          (ip->imm & 31));
        PB_NEXT();
    do_slti:
        r[ip->rd] = static_cast<int32_t>(r[ip->rs]) <
                            static_cast<int32_t>(ip->imm)
                        ? 1
                        : 0;
        PB_NEXT();
    do_sltiu:
        r[ip->rd] = r[ip->rs] < ip->imm ? 1 : 0;
        PB_NEXT();
    do_lui:
        r[ip->rd] = ip->imm << 16;
        PB_NEXT();

    do_lw:
        r[ip->rd] = load(uint32_t{});
        PB_NEXT();
    do_lh:
        r[ip->rd] = static_cast<uint32_t>(sext(load(uint16_t{}), 16));
        PB_NEXT();
    do_lhu:
        r[ip->rd] = load(uint16_t{});
        PB_NEXT();
    do_lb:
        r[ip->rd] = static_cast<uint32_t>(sext(load(uint8_t{}), 8));
        PB_NEXT();
    do_lbu:
        r[ip->rd] = load(uint8_t{});
        PB_NEXT();
    do_sw:
        store(r[ip->rd]);
        PB_NEXT();
    do_sh:
        store(static_cast<uint16_t>(r[ip->rd]));
        PB_NEXT();
    do_sb:
        store(static_cast<uint8_t>(r[ip->rd]));
        PB_NEXT();

    do_beq:
        if (r[ip->rs] == r[ip->rt])
            goto do_j;
        goto ran;
    do_bne:
        if (r[ip->rs] != r[ip->rt])
            goto do_j;
        goto ran;
    do_blt:
        if (static_cast<int32_t>(r[ip->rs]) < static_cast<int32_t>(r[ip->rt]))
            goto do_j;
        goto ran;
    do_bge:
        if (static_cast<int32_t>(r[ip->rs]) >= static_cast<int32_t>(r[ip->rt]))
            goto do_j;
        goto ran;
    do_bltu:
        if (r[ip->rs] < r[ip->rt])
            goto do_j;
        goto ran;
    do_bgeu:
        if (r[ip->rs] >= r[ip->rt])
            goto do_j;
        goto ran;

    do_j:
        taken = true;
        target = ip->imm;
        goto ran;
    do_jal:
        r[isa::regLr] = pcOf(ip) + 4;
        goto do_j;
    do_jr:
        taken = true;
        target = r[ip->rs];
        goto ran;
    do_jalr:
        taken = true;
        target = r[ip->rs];
        r[ip->rd] = pcOf(ip) + 4;
        goto ran;

    ran:
        // The run's last instruction executed.
        close(ip + 1);
        pc = taken ? target : pcOf(ip + 1);
        goto next_run;
    do_cut:
        // ip did not execute: pc is where the run stopped.
        close(ip);
        pc = pcOf(ip);
        goto next_run;
    do_invalid:
        // The straight-line prefix before the undecodable word ran.
        close(ip);
        pc = pcOf(ip);
        throw DecodeError(
            strprintf("undecodable instruction word at pc=0x%x", pc));
    do_sys:
        close(ip + 1);
        lifetimeInsts += count;
        lifetimeBlocks += blocks;
        return {static_cast<isa::SysCode>(ip->imm), r[isa::regA1], count};
    } catch (...) {
        if (clip)
            clip->handler = clipped;
        if (open) {
            // ip is the faulting instruction: it reached execution.
            o->onRun({decoded.data() + slot, slot, pc, lens[slot],
                      static_cast<uint32_t>(ip - run) + 1, false, 0});
        }
        throw;
    }
#undef PB_NEXT
}

#undef PB_INLINE

} // namespace pb::sim
