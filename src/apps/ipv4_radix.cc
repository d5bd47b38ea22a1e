/**
 * @file
 * IPv4-radix application: the table image, built once with the app,
 * and the NPE32 program in unoptimized-compiler style.
 *
 * Stack frame of main (64 bytes):
 *   0(sp)  p       packet pointer
 *   4(sp)  sum     checksum accumulator
 *   8(sp)  i       loop counter
 *  12(sp)  ttl
 *  16(sp)  dstb[4] destination address bytes, one word each
 *  32(sp)  node    current radix node address
 *  36(sp)  best    best next hop so far (-1 = none)
 *  40(sp)  depth
 *  44(sp)  b       current address bit
 *  48(sp)  saved lr
 */

#include "ipv4_radix.hh"

#include "apps/asmdefs.hh"
#include "isa/assembler.hh"

namespace pb::apps
{

Ipv4RadixApp::Ipv4RadixApp(std::vector<route::RouteEntry> entries)
    : table(entries, appDataBase)
{}

isa::Program
Ipv4RadixApp::setup(sim::Memory &mem) const
{
    if (table.image().size() * 4 > sim::layout::dataSize / 2)
        fatal("radix image too large for the data region");
    mem.writeWords(appDataBase, table.image());

    std::string src = asmPreamble();
    src += strprintf(".equ RADIX_ROOT, 0x%08x\n", appDataBase);
    src += R"(
main:
        addi sp, sp, -64
        sw   lr, 48(sp)
        sw   a0, 0(sp)
        # ---- version / IHL (locals on stack, -O0 style) ----
        lw   t0, 0(sp)
        lbu  t1, 0(t0)
        srli t2, t1, 4
        li   at, 4
        bne  t2, at, drop_frame
        lw   t0, 0(sp)
        lbu  t1, 0(t0)
        andi t2, t1, 15
        li   at, 5
        blt  t2, at, drop_frame
        # ---- verify header checksum ----
        sw   zero, 4(sp)
        sw   zero, 8(sp)
vloop:
        lw   t0, 8(sp)
        li   at, 10
        bge  t0, at, vdone
        lw   t0, 0(sp)
        lw   t1, 8(sp)
        slli t1, t1, 1
        add  t0, t0, t1
        lhu  t2, 0(t0)
        lw   t3, 4(sp)
        add  t3, t3, t2
        sw   t3, 4(sp)
        lw   t0, 8(sp)
        addi t0, t0, 1
        sw   t0, 8(sp)
        b    vloop
vdone:
        lw   t0, 4(sp)
        srli t1, t0, 16
        andi t0, t0, 0xffff
        add  t0, t0, t1
        srli t1, t0, 16
        andi t0, t0, 0xffff
        add  t0, t0, t1
        li   at, 0xffff
        bne  t0, at, drop_frame
        # ---- TTL > 1 ----
        lw   t0, 0(sp)
        lbu  t1, 8(t0)
        sw   t1, 12(sp)
        lw   t1, 12(sp)
        li   at, 1
        bleu t1, at, drop_frame
        # ---- martian source (0/8, 127/8) ----
        lw   t0, 0(sp)
        lbu  t1, 12(t0)
        beqz t1, drop_frame
        li   at, 127
        beq  t1, at, drop_frame
        # ---- destination bytes (BSD keys are byte strings) ----
        lw   t0, 0(sp)
        lbu  t1, 16(t0)
        sw   t1, 16(sp)
        lw   t0, 0(sp)
        lbu  t1, 17(t0)
        sw   t1, 20(sp)
        lw   t0, 0(sp)
        lbu  t1, 18(t0)
        sw   t1, 24(sp)
        lw   t0, 0(sp)
        lbu  t1, 19(t0)
        sw   t1, 28(sp)
        # ---- no multicast forwarding (224/4) ----
        lw   t0, 16(sp)
        srli t0, t0, 4
        li   at, 0xe
        beq  t0, at, drop_frame
        # ---- radix walk: node=root, best=-1, depth=0 ----
        li   t0, RADIX_ROOT
        sw   t0, 32(sp)
        li   t0, -1
        sw   t0, 36(sp)
        sw   zero, 40(sp)
walk_loop:
        lw   t0, 32(sp)
        beqz t0, walk_done
        # if (node->valid) best = node->hop
        lw   t0, 32(sp)
        lw   t1, 8(t0)
        beqz t1, walk_novalid
        lw   t0, 32(sp)
        lw   t1, 12(t0)
        sw   t1, 36(sp)
walk_novalid:
        # if (depth >= 32) break
        lw   t0, 40(sp)
        li   at, 32
        bge  t0, at, walk_done
        # b = (dstb[depth >> 3] >> (7 - (depth & 7))) & 1
        lw   t0, 40(sp)
        srli t1, t0, 3
        slli t1, t1, 2
        addi t2, sp, 16
        add  t2, t2, t1
        lw   t3, 0(t2)
        lw   t0, 40(sp)
        andi t0, t0, 7
        li   t1, 7
        sub  t1, t1, t0
        srl  t3, t3, t1
        andi t3, t3, 1
        sw   t3, 44(sp)
        # node = radix_step(node, b)
        lw   a0, 32(sp)
        lw   a1, 44(sp)
        call radix_step
        sw   a0, 32(sp)
        # depth++
        lw   t0, 40(sp)
        addi t0, t0, 1
        sw   t0, 40(sp)
        b    walk_loop
walk_done:
        lw   a1, 36(sp)
        li   at, -1
        beq  a1, at, drop_frame
        # restore and forward
        lw   a0, 0(sp)
        lw   lr, 48(sp)
        addi sp, sp, 64
)";
    src += asmRfc1812Forward();
    src += R"(
drop_frame:
        lw   lr, 48(sp)
        addi sp, sp, 64
        sys  SYS_DROP

        # child = bit ? node->right : node->left, with its own
        # frame, the way unoptimized compiled C calls behave.
radix_step:
        addi sp, sp, -16
        sw   a0, 0(sp)
        sw   a1, 4(sp)
        lw   at, 4(sp)
        beqz at, step_left
        lw   at, 0(sp)
        lw   a0, 4(at)
        b    step_done
step_left:
        lw   at, 0(sp)
        lw   a0, 0(at)
step_done:
        addi sp, sp, 16
        ret
)";

    return isa::Assembler(sim::layout::textBase)
        .assemble(src, "ipv4_radix.s");
}

} // namespace pb::apps
