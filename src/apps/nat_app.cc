/**
 * @file
 * NAT application: binding table in simulated memory plus the NPE32
 * translation handler.
 */

#include "nat_app.hh"

#include "apps/asmdefs.hh"
#include "isa/assembler.hh"

namespace pb::apps
{

using namespace flow::natlayout;

NatApp::NatApp(uint32_t external_addr, uint16_t port_base,
               uint32_t num_buckets)
    : extAddr(external_addr),
      portBase(port_base),
      numBuckets(num_buckets),
      table(external_addr, port_base)
{
    if (num_buckets == 0 || (num_buckets & (num_buckets - 1)) != 0)
        fatal("NatApp: bucket count must be a power of two");
}

isa::Program
NatApp::setup(sim::Memory &mem) const
{
    uint32_t buckets_addr = appDataBase + offBuckets;
    uint32_t heap_addr = buckets_addr + numBuckets * 4;
    mem.write32(appDataBase + offAllocNext, heap_addr);
    mem.write32(appDataBase + offBindingCount, 0);
    mem.write32(appDataBase + offNextPort, portBase);

    std::string src = asmPreamble();
    src += strprintf(".equ NAT_CTRL, 0x%08x\n"
                     ".equ NAT_COUNT, 0x%08x\n"
                     ".equ NAT_NEXTPORT, 0x%08x\n"
                     ".equ BUCKETS_BASE, 0x%08x\n"
                     ".equ BUCKET_MASK, %u\n"
                     ".equ EXT_IP, 0x%08x\n",
                     appDataBase, appDataBase + offBindingCount,
                     appDataBase + offNextPort, buckets_addr,
                     numBuckets - 1, extAddr);
    src += R"(
main:
        # Translate only canonical (IHL=5) TCP/UDP IPv4; everything
        # else passes through unchanged.
        lbu  t0, 0(a0)
        li   at, 0x45
        bne  t0, at, pass
        lbu  t4, 9(a0)          # protocol
        li   at, 6
        beq  t4, at, do_nat
        li   at, 17
        beq  t4, at, do_nat
pass:
        li   a1, 0
        sys  SYS_SEND
do_nat:
        # ---- binding key: source address + (port << 16 | proto) ----
        lbu  t3, 12(a0)
        slli t3, t3, 8
        lbu  at, 13(a0)
        or   t3, t3, at
        slli t3, t3, 8
        lbu  at, 14(a0)
        or   t3, t3, at
        slli t3, t3, 8
        lbu  at, 15(a0)
        or   t3, t3, at         # source address
        lbu  t5, 20(a0)
        slli t5, t5, 8
        lbu  at, 21(a0)
        or   t5, t5, at         # source port
        slli t5, t5, 16
        or   t5, t5, t4         # (port << 16) | proto
        # ---- hash into the binding buckets ----
        xor  t1, t3, t5
        srli at, t1, 16
        xor  t1, t1, at
        srli at, t1, 8
        xor  t1, t1, at
        li   at, BUCKET_MASK
        and  t1, t1, at
        slli t1, t1, 2
        li   at, BUCKETS_BASE
        add  t1, t1, at         # &bucket head
        lw   t2, 0(t1)
chain_loop:
        beqz t2, new_binding
        lw   at, 0(t2)
        bne  at, t3, next_node
        lw   at, 4(t2)
        bne  at, t5, next_node
        lw   s0, 8(t2)          # existing external port
        b    rewrite
next_node:
        lw   t2, 12(t2)
        b    chain_loop
new_binding:
        li   at, NAT_CTRL
        lw   t2, 0(at)          # allocNext
        sw   t3, 0(t2)
        sw   t5, 4(t2)
        li   at, NAT_NEXTPORT
        lw   s0, 0(at)          # allocate the next external port
        addi s1, s0, 1
        sw   s1, 0(at)
        sw   s0, 8(t2)
        lw   s1, 0(t1)          # link at the bucket head
        sw   s1, 12(t2)
        sw   t2, 0(t1)
        addi s1, t2, 16
        li   at, NAT_CTRL
        sw   s1, 0(at)
        li   at, NAT_COUNT
        lw   s1, 0(at)
        addi s1, s1, 1
        sw   s1, 0(at)
rewrite:
        # ---- source address <- EXT_IP ----
        li   t2, EXT_IP
        srli at, t2, 24
        sb   at, 12(a0)
        srli at, t2, 16
        sb   at, 13(a0)
        srli at, t2, 8
        sb   at, 14(a0)
        sb   t2, 15(a0)
        # ---- source port <- external port ----
        srli at, s0, 8
        sb   at, 20(a0)
        sb   s0, 21(a0)
        # ---- recompute the IP header checksum ----
        sb   zero, 10(a0)
        sb   zero, 11(a0)
        li   t0, 0
        li   t2, 0
        move t3, a0
nat_cksum:
        lhu  at, 0(t3)
        add  t0, t0, at
        addi t3, t3, 2
        addi t2, t2, 1
        li   at, 10
        blt  t2, at, nat_cksum
        srli at, t0, 16
        andi t0, t0, 0xffff
        add  t0, t0, at
        srli at, t0, 16
        andi t0, t0, 0xffff
        add  t0, t0, at
        li   at, 0xffff
        xor  t0, t0, at
        sh   t0, 10(a0)
        li   a1, 0
        sys  SYS_SEND
)";

    return isa::Assembler(sim::layout::textBase)
        .assemble(src, "nat.s");
}

uint32_t
NatApp::simBindingCount(const sim::Memory &mem) const
{
    return mem.read32(appDataBase + offBindingCount);
}

} // namespace pb::apps
