/**
 * @file
 * CRC-32 payload application: table-driven, byte at a time, exactly
 * the host pb::crc32() algorithm.
 */

#include "crc_app.hh"

#include "apps/asmdefs.hh"
#include "common/hash.hh"
#include "isa/assembler.hh"

namespace pb::apps
{

uint32_t
CrcApp::tableBase() const
{
    return appDataBase;
}

uint32_t
CrcApp::resultAddr() const
{
    return appDataBase + 256 * 4;
}

isa::Program
CrcApp::setup(sim::Memory &mem) const
{
    mem.writeWords(tableBase(), std::span(crc32Table(), 256));
    mem.write32(resultAddr(), 0);

    std::string src = asmPreamble();
    src += strprintf(".equ CRCTAB, 0x%08x\n"
                     ".equ RESULT, 0x%08x\n",
                     tableBase(), resultAddr());
    src += R"(
main:
        # crc = 0xffffffff; over all captured bytes (a1 of them)
        li   t0, -1
        li   t1, 0
crc_loop:
        bge  t1, a1, crc_done
        add  at, a0, t1
        lbu  t2, 0(at)
        xor  t2, t2, t0
        andi t2, t2, 0xff
        slli t2, t2, 2
        li   at, CRCTAB
        add  t2, t2, at
        lw   t2, 0(t2)
        srli t0, t0, 8
        xor  t0, t0, t2
        addi t1, t1, 1
        b    crc_loop
crc_done:
        li   at, -1
        xor  t0, t0, at
        li   at, RESULT
        sw   t0, 0(at)
        li   a1, 0
        sys  SYS_SEND
)";

    return isa::Assembler(sim::layout::textBase)
        .assemble(src, "crc32.s");
}

uint32_t
CrcApp::simResult(const sim::Memory &mem) const
{
    return mem.read32(resultAddr());
}

} // namespace pb::apps
