/**
 * @file
 * Disabled-tracing overhead microbenchmark: instrumentation points
 * cost one relaxed load and a branch when the tracer is off, so a
 * packet loop carrying *extra* disabled macros must run within 2% of
 * the same loop without them.  The median time ratio over many
 * back-to-back pairs of short loops keeps the comparison stable
 * under scheduler noise.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <span>
#include <vector>

#include "core/packetbench.hh"
#include "isa/assembler.hh"
#include "net/tracegen.hh"
#include "obs/tracing.hh"
#include "sim/memmap.hh"

namespace
{

using namespace pb;
using namespace pb::obs;

/** Table 2-style header-processing handler: checksum the header. */
class HeaderApp : public core::Application
{
  public:
    std::string name() const override { return "header-sum"; }

    isa::Program
    setup(sim::Memory &mem) const override
    {
        (void)mem;
        return isa::Assembler(sim::layout::textBase).assemble(R"(
main:
    li  t0, 0
    li  t1, 0
loop:
    lw  t2, 0(a0)
    add t1, t1, t2
    addi a0, a0, 4
    addi t0, t0, 4
    blt t0, a1, loop
    li  a1, 1
    sys 1
)");
    }
};

/** The packets every timed loop replays, made before any timing. */
std::vector<net::Packet>
makePackets(uint32_t count)
{
    net::SyntheticTrace trace(net::Profile::MRA, count, 11);
    std::vector<net::Packet> packets;
    while (auto packet = trace.next())
        packets.push_back(std::move(*packet));
    return packets;
}

uint64_t
timePacketLoop(core::PacketBench &bench, std::span<net::Packet> packets,
               bool extra_macros)
{
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < packets.size(); i++) {
        if (extra_macros) {
            // The marginal cost under test: additional disabled
            // instrumentation points in the per-packet loop.
            PB_TRACE_SPAN("bench", "extra");
            PB_TRACE_INSTANT("bench", "extra.instant");
            PB_TRACE_COUNTER("bench", "extra.counter", i);
            bench.processPacket(packets[i]);
        } else {
            bench.processPacket(packets[i]);
        }
    }
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

TEST(TracingOverhead, DisabledMacrosStayUnderTwoPercent)
{
    ASSERT_FALSE(traceEnabled());
    HeaderApp app;
    core::PacketBench bench(app, {});

    // The handler only reads its packet, so every loop replays the
    // same pre-generated packets: trace generation and its
    // allocations stay out of the timed region.
    std::vector<net::Packet> packets = makePackets(1'500);
    // Warm-up: fault in code paths, caches, and the first-touch cost
    // of simulated memory before timing anything.
    timePacketLoop(bench, packets, false);

    // Each pair times one 300-packet slice without and with the
    // extra hook back to back, alternating which runs first, so both
    // halves of a pair see the same host load.  The median ratio
    // over the pairs ignores the pairs a preemption or a busy
    // sibling core landed in, where the minimum time of each loop
    // would compare two different quiet moments.
    constexpr size_t slice = 300;
    constexpr int pairs = 200;
    std::vector<double> ratios;
    for (int p = 0; p < pairs; p++) {
        std::span<net::Packet> part(
            packets.data() + (p % (packets.size() / slice)) * slice,
            slice);
        uint64_t ns[2] = {};
        for (bool extra : {p % 2 == 0, p % 2 != 0})
            ns[extra] = timePacketLoop(bench, part, extra);
        ratios.push_back(static_cast<double>(ns[1]) /
                         static_cast<double>(ns[0]));
    }
    std::nth_element(ratios.begin(), ratios.begin() + pairs / 2,
                     ratios.end());
    double overhead = ratios[pairs / 2] - 1.0;
    // <2% is the acceptance bound; the measured cost of three
    // disabled instrumentation points is a handful of nanoseconds
    // against a multi-microsecond simulated packet.
    EXPECT_LT(overhead, 0.02)
        << "median extra/base time ratio " << ratios[pairs / 2]
        << " over " << pairs << " pairs";
}

} // namespace
