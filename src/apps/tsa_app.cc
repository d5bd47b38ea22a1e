/**
 * @file
 * TSA application: anonymization tables in simulated memory plus the
 * NPE32 handler.
 *
 * Data layout (from appDataBase):
 *   +0                          top table (2^16 x 2 bytes)
 *   +topBytes                   replicated subtree bitmap (8 KiB)
 *   +topBytes+subtreeBytes      record write pointer (1 word)
 *   +topBytes+subtreeBytes+4    header records, 44-byte stride
 */

#include "tsa_app.hh"

#include "apps/asmdefs.hh"
#include "isa/assembler.hh"

namespace pb::apps
{

using namespace anon::tsalayout;

TsaApp::TsaApp(uint32_t key, uint32_t record_slots)
    : tsa(key), slots(record_slots)
{
    if (record_slots == 0)
        fatal("TsaApp: record ring needs at least one slot");
}

uint32_t
TsaApp::topBase() const
{
    return appDataBase;
}

uint32_t
TsaApp::subtreeBase() const
{
    return topBase() + topBytes;
}

uint32_t
TsaApp::recCtrl() const
{
    return subtreeBase() + subtreeBytes;
}

uint32_t
TsaApp::recCount() const
{
    return recCtrl() + 4;
}

uint32_t
TsaApp::recBase() const
{
    return recCtrl() + 8;
}

isa::Program
TsaApp::setup(sim::Memory &mem) const
{
    // Top table: little-endian 16-bit entries (lhu loads them).
    const auto &top = tsa.topTable();
    std::vector<uint8_t> top_bytes(topBytes);
    for (size_t i = 0; i < top.size(); i++) {
        top_bytes[i * 2] = static_cast<uint8_t>(top[i]);
        top_bytes[i * 2 + 1] = static_cast<uint8_t>(top[i] >> 8);
    }
    mem.writeBlock(topBase(), top_bytes.data(), topBytes);
    mem.writeBlock(subtreeBase(), tsa.subtree().data(), subtreeBytes);
    mem.write32(recCtrl(), recBase());
    mem.write32(recCount(), 0);

    // The ring wraps after `slots` records (a measurement host
    // drains it in a real deployment).
    uint32_t rec_limit = recBase() + slots * recordStride;

    std::string src = asmPreamble();
    src += strprintf(".equ TOP_BASE, 0x%08x\n"
                     ".equ SUBTREE_BASE, 0x%08x\n"
                     ".equ REC_CTRL, 0x%08x\n"
                     ".equ REC_COUNT, 0x%08x\n"
                     ".equ REC_BASE, 0x%08x\n"
                     ".equ REC_LIMIT, 0x%08x\n"
                     ".equ REC_STRIDE, %u\n",
                     topBase(), subtreeBase(), recCtrl(), recCount(),
                     recBase(), rec_limit, recordStride);
    src += R"(
main:
        # ---- IPv4 sanity ----
        lbu  t0, 0(a0)
        srli t0, t0, 4
        li   at, 4
        bne  t0, at, drop
        # ---- anonymize source address ----
        lbu  t0, 12(a0)
        slli t0, t0, 8
        lbu  at, 13(a0)
        or   t0, t0, at
        slli t0, t0, 8
        lbu  at, 14(a0)
        or   t0, t0, at
        slli t0, t0, 8
        lbu  at, 15(a0)
        or   t0, t0, at
        call anonymize
        srli at, t1, 24
        sb   at, 12(a0)
        srli at, t1, 16
        sb   at, 13(a0)
        srli at, t1, 8
        sb   at, 14(a0)
        sb   t1, 15(a0)
        # ---- anonymize destination address ----
        lbu  t0, 16(a0)
        slli t0, t0, 8
        lbu  at, 17(a0)
        or   t0, t0, at
        slli t0, t0, 8
        lbu  at, 18(a0)
        or   t0, t0, at
        slli t0, t0, 8
        lbu  at, 19(a0)
        or   t0, t0, at
        call anonymize
        srli at, t1, 24
        sb   at, 16(a0)
        srli at, t1, 16
        sb   at, 17(a0)
        srli at, t1, 8
        sb   at, 18(a0)
        sb   t1, 19(a0)
        # ---- collect layer 3/4 headers ----
        li   t2, REC_CTRL
        lw   t3, 0(t2)          # record address
        lbu  t4, 9(a0)          # protocol decides L4 bytes kept
        li   at, 6
        li   t5, 36             # TCP: 20 + 16
        beq  t4, at, have_len
        li   at, 17
        li   t5, 28             # UDP: 20 + 8
        beq  t4, at, have_len
        li   t5, 24             # other: 20 + 4
have_len:
        sw   t5, 0(t3)          # record length word
        li   t4, 0
copy_loop:
        bge  t4, t5, copy_done
        add  at, a0, t4
        lw   s0, 0(at)
        add  at, t3, t4
        sw   s0, 4(at)
        addi t4, t4, 4
        b    copy_loop
copy_done:
        li   t4, REC_COUNT      # total records written
        lw   t5, 0(t4)
        addi t5, t5, 1
        sw   t5, 0(t4)
        addi t3, t3, REC_STRIDE
        li   at, REC_LIMIT
        blt  t3, at, rec_ok
        li   t3, REC_BASE       # ring wraps
rec_ok:
        sw   t3, 0(t2)
        li   a1, 0
        sys  SYS_SEND
drop:
        sys  SYS_DROP

        # anonymize: t0 = address -> t1 = anonymized address.
        # Clobbers t2-t5, s0, s1, a2, a3, at.  Leaf function.
anonymize:
        srli t1, t0, 16
        slli t1, t1, 1
        li   at, TOP_BASE
        add  t1, t1, at
        lhu  t1, 0(t1)          # anonymized top half
        andi t2, t0, 0xffff     # original bottom half
        li   t3, 0              # path of original bits
        li   t4, 0              # level base: (1 << level) - 1
        li   t5, 15             # bit position, 15 .. 0
        li   s1, 0              # anonymized bottom accumulator
anon_loop:
        srl  s0, t2, t5
        andi s0, s0, 1          # original bit
        add  a2, t4, t3         # subtree bit index
        srli a3, a2, 3
        li   at, SUBTREE_BASE
        add  a3, a3, at
        lbu  a3, 0(a3)
        andi a2, a2, 7
        srl  a3, a3, a2
        andi a3, a3, 1          # flip bit
        xor  a3, s0, a3
        slli s1, s1, 1
        or   s1, s1, a3
        slli t3, t3, 1
        or   t3, t3, s0
        slli t4, t4, 1
        addi t4, t4, 1
        addi t5, t5, -1
        bge  t5, zero, anon_loop
        slli t1, t1, 16
        or   t1, t1, s1
        ret
)";

    return isa::Assembler(sim::layout::textBase)
        .assemble(src, "tsa.s");
}

uint32_t
TsaApp::simRecordCount(const sim::Memory &mem) const
{
    return mem.read32(recCount());
}

uint32_t
TsaApp::simRecordLen(const sim::Memory &mem, uint32_t index) const
{
    return mem.read32(recBase() + index * recordStride);
}

std::vector<uint8_t>
TsaApp::simRecordData(const sim::Memory &mem, uint32_t index) const
{
    uint32_t len = simRecordLen(mem, index);
    std::vector<uint8_t> data(len);
    mem.readBlock(recBase() + index * recordStride + 4, data.data(),
                  len);
    return data;
}

} // namespace pb::apps
