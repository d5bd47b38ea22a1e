/**
 * @file
 * Interpreter hot-path microbenchmark: simulated MIPS per application
 * for every dispatch mode x observer configuration, plus the
 * blocked-over-reference speedups the trajectory tracks.
 *
 * Unlike the table/figure benches this one bypasses PacketBench and
 * drives Memory/Cpu directly, so the numbers isolate the interpreter
 * (and, in the accounting configuration, the observer fan-out) from
 * framework per-packet work.  The measured loop is exactly the
 * framework's accounting boundary: place packet bytes, reset
 * registers, run the handler.
 *
 * Output: a human-readable table on stdout and a JSON document
 * (default BENCH_interp.json, `--out=FILE`) with schema
 * "packetbench.bench_interp.v1", including a provenance block: the
 * source tree, compiler, flags and build type stamped when CMake
 * configured the build, and the CPU model it ran on.
 * ci/check_bench.py validates it; the committed copy at the repo root
 * is the baseline snapshot.
 *
 * Options: --packets=N (per measured pass), --repeats=N (best-of),
 * --out=FILE, plus the usual --report/--prom/--trace.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"

#include "core/packetbench.hh"
#include "net/tracegen.hh"
#include "obs/buildinfo.hh"
#include "obs/json.hh"
#include "sim/accounting.hh"
#include "sim/bblock.hh"
#include "sim/cpu.hh"
#include "sim/memmap.hh"
#include "sim/memory.hh"

namespace
{

using namespace pb;

constexpr uint64_t instBudget = 10'000'000;

/** One app on one simulated machine, PacketBench's calling convention. */
struct Harness
{
    sim::Memory mem;
    sim::Cpu cpu{mem};
    uint32_t entry = 0;
    std::unique_ptr<core::Application> app;
    std::unique_ptr<sim::BlockMap> blockMap;
    std::unique_ptr<sim::PacketRecorder> rec;
    sim::FanoutObserver fanout;
    uint32_t prevLen = 0;

    explicit Harness(an::AppKind kind)
    {
        an::ExperimentConfig cfg;
        app = an::makeApp(kind, cfg);
        isa::Program prog = app->setup(mem);
        cpu.loadProgram(prog);
        entry = prog.entry("main");
        blockMap = std::make_unique<sim::BlockMap>(prog);
        rec = std::make_unique<sim::PacketRecorder>(prog, *blockMap);
        fanout.add(rec.get());
    }

    uint64_t
    runOne(const net::Packet &packet, bool accounting)
    {
        uint32_t l3_len = packet.l3Len();
        if (prevLen > l3_len)
            mem.fill(sim::layout::packetBase + l3_len,
                     prevLen - l3_len);
        mem.writeBlock(sim::layout::packetBase, packet.l3(), l3_len);
        prevLen = l3_len;
        cpu.resetRegs();
        cpu.setReg(isa::regA0, sim::layout::packetBase);
        cpu.setReg(isa::regA1, l3_len);
        if (accounting)
            rec->beginPacket();
        sim::RunResult result = cpu.run(entry, instBudget);
        if (accounting)
            rec->endPacket();
        return result.instCount;
    }
};

struct Sample
{
    uint64_t insts = 0;
    double mips = 0;
};

/** One dispatch-mode x observer configuration under measurement. */
struct Config
{
    sim::DispatchMode mode;
    bool accounting;
    std::unique_ptr<Harness> harness;
    Sample best;
};

/**
 * Best-of-@p repeats measurement of all four configurations of one
 * app.  Rounds are interleaved (each round times every configuration
 * once) so slow drift — CPU frequency boost decay, background load —
 * hits all configurations evenly instead of whichever happened to be
 * measured last.
 */
std::array<Sample, 4>
measureApp(an::AppKind kind, const std::vector<net::Packet> &packets,
           uint32_t repeats)
{
    std::array<Config, 4> configs{
        Config{sim::DispatchMode::Reference, false, nullptr, {}},
        Config{sim::DispatchMode::Reference, true, nullptr, {}},
        Config{sim::DispatchMode::Blocked, false, nullptr, {}},
        Config{sim::DispatchMode::Blocked, true, nullptr, {}},
    };
    for (auto &c : configs) {
        c.harness = std::make_unique<Harness>(kind);
        c.harness->cpu.setDispatchMode(c.mode);
        c.harness->cpu.setObserver(c.accounting ? &c.harness->fanout
                                                : nullptr);
        for (const auto &p : packets) // warm up
            c.harness->runOne(p, c.accounting);
    }
    for (uint32_t r = 0; r < repeats; r++) {
        for (auto &c : configs) {
            uint64_t insts = 0;
            auto start = std::chrono::steady_clock::now();
            for (const auto &p : packets)
                insts += c.harness->runOne(p, c.accounting);
            double ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - start)
                            .count();
            double mips =
                ns > 0 ? static_cast<double>(insts) * 1e3 / ns : 0;
            if (mips > c.best.mips)
                c.best = {insts, mips};
        }
    }
    return {configs[0].best, configs[1].best, configs[2].best,
            configs[3].best};
}

/** The host CPU's model name, or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t start = line.find_first_not_of(" \t:", line.find(':'));
        return start == std::string::npos ? "unknown" : line.substr(start);
    }
    return "unknown";
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::benchMain(argc, argv, [&] {
        uint32_t n_packets = bench::packetArg(argc, argv, 5000);
        uint32_t repeats = bench::uintArg(argc, argv, "repeats", 3);
        std::string out = bench::fileArg(argc, argv, "out")
                              .value_or("BENCH_interp.json");

        bench::banner(
            "interpreter simulated MIPS "
            "(dispatch mode x observer configuration)",
            "substrate benchmark; no paper counterpart");

        obs::JsonValue::Array apps_json;
        double geo_none = 0, geo_acct = 0;
        std::printf("%-14s %12s %12s %12s %12s %9s %9s\n", "app",
                    "ref/none", "ref/acct", "blk/none", "blk/acct",
                    "x none", "x acct");
        for (an::AppKind kind : an::allAppKinds) {
            // Same synthetic packets for every configuration of an
            // app, regenerated per app so harness state never leaks.
            std::vector<net::Packet> packets;
            packets.reserve(n_packets);
            net::SyntheticTrace gen(net::Profile::MRA, n_packets, 2);
            while (auto p = gen.next())
                packets.push_back(*p);

            auto [ref_none, ref_acct, blk_none, blk_acct] =
                measureApp(kind, packets, repeats);
            if (ref_none.insts != blk_none.insts ||
                ref_acct.insts != blk_acct.insts)
                fatal("dispatch modes disagree on instruction count");

            double sp_none = ref_none.mips > 0
                                 ? blk_none.mips / ref_none.mips
                                 : 0;
            double sp_acct = ref_acct.mips > 0
                                 ? blk_acct.mips / ref_acct.mips
                                 : 0;
            geo_none += std::log(sp_none);
            geo_acct += std::log(sp_acct);

            std::string title = an::appTitle(kind);
            std::printf("%-14s %12.1f %12.1f %12.1f %12.1f %8.2fx "
                        "%8.2fx\n",
                        title.c_str(), ref_none.mips, ref_acct.mips,
                        blk_none.mips, blk_acct.mips, sp_none,
                        sp_acct);

            apps_json.push_back(obs::JsonValue(obs::JsonValue::Object{
                {"app", title},
                {"insts_per_packet",
                 static_cast<double>(blk_none.insts) / n_packets},
                {"mips",
                 obs::JsonValue(obs::JsonValue::Object{
                     {"reference",
                      obs::JsonValue(obs::JsonValue::Object{
                          {"none", ref_none.mips},
                          {"accounting", ref_acct.mips}})},
                     {"blocked",
                      obs::JsonValue(obs::JsonValue::Object{
                          {"none", blk_none.mips},
                          {"accounting", blk_acct.mips}})}})},
                {"speedup",
                 obs::JsonValue(obs::JsonValue::Object{
                     {"none", sp_none}, {"accounting", sp_acct}})}}));
        }
        size_t n_apps = std::size(an::allAppKinds);
        geo_none = std::exp(geo_none / static_cast<double>(n_apps));
        geo_acct = std::exp(geo_acct / static_cast<double>(n_apps));
        std::printf("%-14s %12s %12s %12s %12s %8.2fx %8.2fx\n",
                    "geomean", "", "", "", "", geo_none, geo_acct);

        obs::JsonValue doc(obs::JsonValue::Object{
            {"schema", "packetbench.bench_interp.v1"},
            {"packets", static_cast<uint64_t>(n_packets)},
            {"repeats", static_cast<uint64_t>(repeats)},
            {"apps", std::move(apps_json)},
            {"geomean_speedup",
             obs::JsonValue(obs::JsonValue::Object{
                 {"none", geo_none}, {"accounting", geo_acct}})},
            {"provenance",
             obs::JsonValue(obs::JsonValue::Object{
                 {"commit", obs::buildinfo::gitDescribe},
                 {"compiler", obs::buildinfo::compiler},
                 {"flags", obs::buildinfo::flags},
                 {"build_type", obs::buildinfo::buildType},
                 {"cpu", cpuModel()}})}});
        std::ofstream file(out);
        if (!file)
            fatal("cannot write %s", out.c_str());
        file << doc.dump(2) << "\n";
        std::fprintf(stderr, "benchmark written to %s\n", out.c_str());
    });
}
