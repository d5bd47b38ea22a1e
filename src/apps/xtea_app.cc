/**
 * @file
 * XTEA payload-encryption application.
 *
 * The payload is everything after the IP header, clamped to the
 * captured bytes; whole 8-byte blocks are encrypted in place (ECB),
 * a trailing fragment is passed through unmodified.
 */

#include "xtea_app.hh"

#include "apps/asmdefs.hh"
#include "isa/assembler.hh"
#include "net/ipv4.hh"

namespace pb::apps
{

XteaApp::XteaApp(std::array<uint32_t, 4> key) : xtea(key) {}

isa::Program
XteaApp::setup(sim::Memory &mem) const
{
    mem.writeWords(appDataBase, xtea.keyWords());

    std::string src = asmPreamble();
    src += strprintf(".equ KEY_BASE, 0x%08x\n", appDataBase);
    src += R"(
main:
        # ---- locate the payload ----
        lbu  t0, 0(a0)
        srli t5, t0, 4
        li   at, 4
        bne  t5, at, drop
        andi t0, t0, 15
        slli t0, t0, 2          # header length
        lbu  t1, 2(a0)          # IP total length
        slli t1, t1, 8
        lbu  at, 3(a0)
        or   t1, t1, at
        bleu t1, a1, len_ok     # clamp to the captured bytes
        move t1, a1
len_ok:
        sub  t1, t1, t0         # payload length
        blt  t1, zero, drop
        add  t2, a0, t0         # payload pointer
        # ---- encrypt whole 8-byte blocks in place ----
blk_loop:
        li   at, 8
        blt  t1, at, done
        lw   s0, 0(t2)
        lw   s1, 4(t2)
        call encrypt_block
        sw   s0, 0(t2)
        sw   s1, 4(t2)
        addi t2, t2, 8
        addi t1, t1, -8
        b    blk_loop
done:
        li   a1, 0
        sys  SYS_SEND
drop:
        sys  SYS_DROP

        # encrypt_block: (s0, s1) -> XTEA(s0, s1).
        # Clobbers t3, t4, a2, a3, at.  Leaf function.
encrypt_block:
        li   t3, 0              # sum
        li   t4, 32             # rounds
round_loop:
        # v0 += (((v1 << 4) ^ (v1 >> 5)) + v1) ^ (sum + key[sum & 3])
        slli a2, s1, 4
        srli a3, s1, 5
        xor  a2, a2, a3
        add  a2, a2, s1
        andi a3, t3, 3
        slli a3, a3, 2
        li   at, KEY_BASE
        add  a3, a3, at
        lw   a3, 0(a3)
        add  a3, a3, t3
        xor  a2, a2, a3
        add  s0, s0, a2
        # sum += delta
        li   at, 0x9e3779b9
        add  t3, t3, at
        # v1 += (((v0 << 4) ^ (v0 >> 5)) + v0)
        #       ^ (sum + key[(sum >> 11) & 3])
        slli a2, s0, 4
        srli a3, s0, 5
        xor  a2, a2, a3
        add  a2, a2, s0
        srli a3, t3, 11
        andi a3, a3, 3
        slli a3, a3, 2
        li   at, KEY_BASE
        add  a3, a3, at
        lw   a3, 0(a3)
        add  a3, a3, t3
        xor  a2, a2, a3
        add  s1, s1, a2
        addi t4, t4, -1
        bnez t4, round_loop
        ret
)";

    return isa::Assembler(sim::layout::textBase)
        .assemble(src, "xtea.s");
}

void
XteaApp::referenceProcess(net::Packet &packet) const
{
    if (packet.l3Len() < net::ipv4::minHeaderLen)
        return;
    net::Ipv4ConstView ip(packet.l3());
    if (ip.version() != 4)
        return;
    unsigned hlen = ip.headerLen();
    unsigned avail = std::min<unsigned>(ip.totalLen(), packet.l3Len());
    if (avail < hlen)
        return;
    xtea.encryptBuffer(packet.l3() + hlen, avail - hlen);
}

} // namespace pb::apps
