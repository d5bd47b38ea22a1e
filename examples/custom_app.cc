/**
 * @file
 * Writing a new PacketBench application from scratch.
 *
 * The paper's Section III sells PacketBench on how little it takes
 * to plug in a new packet-processing function.  This example defines
 * a brand-new application inline — a TTL-threshold filter with
 * per-interface accounting — implements core::Application, and runs
 * it with full workload statistics, including a disassembly of the
 * generated program.
 *
 * Usage: custom_app [ttl_threshold]
 */

#include <cstdio>

#include "common/strutil.hh"
#include "core/packetbench.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
#include "net/tracegen.hh"
#include "sim/memmap.hh"

namespace
{

using namespace pb;

/**
 * Drops packets whose TTL is below a threshold; forwards the rest on
 * an interface chosen by destination-address parity, counting
 * per-interface packets in simulated memory.
 */
class TtlFilterApp : public core::Application
{
  public:
    explicit TtlFilterApp(uint8_t threshold) : threshold(threshold) {}

    std::string name() const override { return "ttl-filter"; }

    /** Packet counters live at the start of the data region. */
    static constexpr uint32_t countersBase = sim::layout::dataBase;

    isa::Program
    setup(sim::Memory &mem) const override
    {
        mem.write32(countersBase, 0);     // interface 0 count
        mem.write32(countersBase + 4, 0); // interface 1 count

        std::string src = strprintf(".equ COUNTERS, 0x%08x\n"
                                    ".equ THRESHOLD, %u\n",
                                    countersBase, threshold);
        src += R"(
            # a0 = packet (layer 3), a1 = captured length
main:
            lbu  t0, 8(a0)          # TTL
            li   at, THRESHOLD
            blt  t0, at, drop
            lbu  t1, 19(a0)         # low byte of destination
            andi t1, t1, 1          # interface = dst & 1
            slli t2, t1, 2
            li   at, COUNTERS
            add  t2, t2, at
            lw   t3, 0(t2)          # counters[interface]++
            addi t3, t3, 1
            sw   t3, 0(t2)
            move a1, t1
            sys  1                  # send on the chosen interface
drop:
            sys  2
)";
        return isa::Assembler(sim::layout::textBase)
            .assemble(src, "ttl_filter.s");
    }

  private:
    uint8_t threshold;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace pb;
    try {
        uint8_t threshold = 16;
        if (argc > 1) {
            if (auto v = parseInt(argv[1]))
                threshold = static_cast<uint8_t>(*v);
        }

        TtlFilterApp app(threshold);
        core::PacketBench bench(app);

        std::printf("generated NPE32 program:\n%s\n",
                    isa::disassemble(bench.program()).c_str());

        net::SyntheticTrace trace(net::Profile::LAN, 2000, 3);
        uint32_t sent[2] = {0, 0};
        uint32_t dropped = 0;
        uint64_t insts = 0;
        while (auto packet = trace.next()) {
            core::PacketOutcome outcome =
                bench.processPacket(*packet);
            insts += outcome.stats.instCount;
            if (outcome.verdict == isa::SysCode::Send)
                sent[outcome.outInterface & 1]++;
            else
                dropped++;
        }

        std::printf("TTL threshold %u: sent %u on if0, %u on if1, "
                    "dropped %u\n", threshold, sent[0], sent[1],
                    dropped);
        std::printf("simulated counters agree: if0=%u if1=%u\n",
                    bench.memory().read32(TtlFilterApp::countersBase),
                    bench.memory().read32(
                        TtlFilterApp::countersBase + 4));
        std::printf("cost: %.1f instructions/packet (a trivial app — "
                    "compare Table II)\n",
                    static_cast<double>(insts) / 2000);
        return 0;
    } catch (const Error &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
