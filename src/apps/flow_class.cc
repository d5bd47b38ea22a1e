/**
 * @file
 * Flow classification application.
 *
 * The handler copies the 5-tuple bytes onto the stack, hashes them
 * with Jenkins one-at-a-time (the same function the host reference
 * uses), indexes the bucket array, walks the chain, and either
 * updates the matching flow's counters or allocates a new node from
 * the bump heap.
 */

#include "flow_class.hh"

#include "apps/asmdefs.hh"
#include "isa/assembler.hh"

namespace pb::apps
{

using namespace flow::flowlayout;

FlowClassApp::FlowClassApp(uint32_t num_buckets)
    : numBuckets(num_buckets)
{
    if (num_buckets == 0 || (num_buckets & (num_buckets - 1)) != 0)
        fatal("FlowClassApp: bucket count must be a power of two");
}

uint32_t
FlowClassApp::bucketsAddr() const
{
    return appDataBase + offBuckets;
}

uint32_t
FlowClassApp::heapAddr() const
{
    return bucketsAddr() + numBuckets * 4;
}

isa::Program
FlowClassApp::setup(sim::Memory &mem) const
{
    // Control block: bump-allocator pointer and flow counter.
    mem.write32(appDataBase + offAllocNext, heapAddr());
    mem.write32(appDataBase + offFlowCount, 0);

    std::string src = asmPreamble();
    src += strprintf(".equ FLOW_CTRL, 0x%08x\n"
                     ".equ BUCKETS_BASE, 0x%08x\n"
                     ".equ BUCKET_MASK, %u\n",
                     appDataBase, bucketsAddr(), numBuckets - 1);
    src += R"(
main:
        addi sp, sp, -16        # 4-word tuple struct
        # ---- IPv4 sanity ----
        lbu  t0, 0(a0)
        srli t2, t0, 4
        li   at, 4
        bne  t2, at, drop
        andi t5, t0, 15
        slli t5, t5, 2          # header length in bytes
        # ---- extract the 5-tuple into a stack struct ----
        lbu  s1, 12(a0)         # source address
        lbu  at, 13(a0)
        slli s1, s1, 8
        or   s1, s1, at
        lbu  at, 14(a0)
        slli s1, s1, 8
        or   s1, s1, at
        lbu  at, 15(a0)
        slli s1, s1, 8
        or   s1, s1, at
        sw   s1, 0(sp)
        lbu  a2, 16(a0)         # destination address
        lbu  at, 17(a0)
        slli a2, a2, 8
        or   a2, a2, at
        lbu  at, 18(a0)
        slli a2, a2, 8
        or   a2, a2, at
        lbu  at, 19(a0)
        slli a2, a2, 8
        or   a2, a2, at
        sw   a2, 4(sp)
        lbu  t4, 9(a0)          # protocol
        sw   t4, 12(sp)
        li   a3, 0              # ports word (0 unless TCP/UDP)
        li   at, 6
        beq  t4, at, have_ports
        li   at, 17
        beq  t4, at, have_ports
        b    ports_done
have_ports:
        add  t3, a0, t5
        lbu  a3, 0(t3)
        lbu  at, 1(t3)
        slli a3, a3, 8
        or   a3, a3, at
        lbu  at, 2(t3)
        slli a3, a3, 8
        or   a3, a3, at
        lbu  at, 3(t3)
        slli a3, a3, 8
        or   a3, a3, at
ports_done:
        sw   a3, 8(sp)
        # ---- total length (for the byte counter) -> s0 ----
        lbu  s0, 2(a0)
        slli s0, s0, 8
        lbu  at, 3(a0)
        or   s0, s0, at
        # ---- Jenkins one-at-a-time over the 4 tuple words ----
        li   t1, 0              # hash
        li   t2, 0              # byte offset
jloop:
        add  t0, sp, t2
        lw   t0, 0(t0)
        add  t1, t1, t0
        slli at, t1, 10
        add  t1, t1, at
        srli at, t1, 6
        xor  t1, t1, at
        addi t2, t2, 4
        li   at, 16
        blt  t2, at, jloop
        slli at, t1, 3
        add  t1, t1, at
        srli at, t1, 11
        xor  t1, t1, at
        slli at, t1, 15
        add  t1, t1, at
        # ---- bucket ----
        li   at, BUCKET_MASK
        and  t1, t1, at
        slli t1, t1, 2
        li   at, BUCKETS_BASE
        add  t1, t1, at         # &bucket head
        lw   t3, 0(t1)          # chain node
chain_loop:
        beqz t3, new_flow
        lw   at, 0(t3)
        bne  at, s1, next_node
        lw   at, 4(t3)
        bne  at, a2, next_node
        lw   at, 8(t3)
        bne  at, a3, next_node
        lw   at, 12(t3)
        bne  at, t4, next_node
        # ---- existing flow: update counters ----
        lw   at, 16(t3)
        addi at, at, 1
        sw   at, 16(t3)
        lw   at, 20(t3)
        add  at, at, s0
        sw   at, 20(t3)
        b    send_ok
next_node:
        lw   t3, 24(t3)
        b    chain_loop
new_flow:
        # ---- allocate and link a node ----
        li   at, FLOW_CTRL
        lw   t3, 0(at)          # allocNext
        sw   s1, 0(t3)
        sw   a2, 4(t3)
        sw   a3, 8(t3)
        sw   t4, 12(t3)
        li   t0, 1
        sw   t0, 16(t3)
        sw   s0, 20(t3)
        sw   zero, 28(t3)       # clear the reserved word
        lw   t0, 0(t1)          # old head
        sw   t0, 24(t3)
        sw   t3, 0(t1)          # bucket head = node
        addi t0, t3, 32
        li   at, FLOW_CTRL
        sw   t0, 0(at)
        li   at, FLOW_CTRL
        lw   t0, 4(at)
        addi t0, t0, 1
        sw   t0, 4(at)
send_ok:
        addi sp, sp, 16
        li   a1, 0
        sys  SYS_SEND
drop:
        addi sp, sp, 16
        sys  SYS_DROP
)";

    return isa::Assembler(sim::layout::textBase)
        .assemble(src, "flow_class.s");
}

uint32_t
FlowClassApp::simFlowCount(const sim::Memory &mem) const
{
    return mem.read32(appDataBase + offFlowCount);
}

flow::FlowStats
FlowClassApp::simLookup(const sim::Memory &mem,
                        const net::FiveTuple &tuple) const
{
    uint32_t bucket = flow::hashTuple(tuple) & (numBuckets - 1);
    uint32_t node = mem.read32(bucketsAddr() + bucket * 4);
    uint32_t ports =
        (static_cast<uint32_t>(tuple.srcPort) << 16) | tuple.dstPort;
    while (node != 0) {
        if (mem.read32(node + nodeOffSrc) == tuple.src &&
            mem.read32(node + nodeOffDst) == tuple.dst &&
            mem.read32(node + nodeOffPorts) == ports &&
            mem.read32(node + nodeOffProto) == tuple.proto) {
            return {mem.read32(node + nodeOffPackets),
                    mem.read32(node + nodeOffBytes)};
        }
        node = mem.read32(node + nodeOffNext);
    }
    return {};
}

} // namespace pb::apps
