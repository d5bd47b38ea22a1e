/**
 * @file
 * Golden hot-spot profiles of the paper's four applications.
 *
 * Each application runs 500 MRA packets with the pipeline timer and
 * the profiler attached, and the profiler's rendering of its five
 * hottest blocks (instruction and modeled-cycle counts per pc) must
 * match tests/golden/profile_<app>.txt byte for byte.  On a mismatch
 * the actual rendering is written next to the other golden outputs
 * in the build tree (profile_<app>.out) for diffing.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "analysis/experiments.hh"
#include "core/packetbench.hh"
#include "net/tracegen.hh"

namespace
{

using namespace pb;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
expectProfileMatchesGolden(an::AppKind kind, const std::string &name)
{
    constexpr uint32_t packets = 500;
    an::ExperimentConfig cfg;
    auto app = an::makeApp(kind, cfg);
    core::BenchConfig bcfg = an::benchConfigFor(net::Profile::MRA, cfg);
    bcfg.profile = true;
    bcfg.timing = true;
    core::PacketBench bench(*app, bcfg);
    net::SyntheticTrace trace(net::Profile::MRA, packets, cfg.traceSeed);
    bench.run(trace, packets);

    const std::string got = bench.profiler()->render(5);
    const std::string golden =
        std::string(PB_GOLDEN_DIR) + "/profile_" + name + ".txt";
    if (got == readFile(golden))
        return;
    const std::string out =
        std::string(PB_GOLDEN_OUT_DIR) + "/profile_" + name + ".out";
    std::ofstream(out, std::ios::binary) << got;
    ADD_FAILURE() << "profile differs from " << golden
                  << "; actual written to " << out << ":\n"
                  << got;
}

TEST(ProfileGolden, Radix)
{
    expectProfileMatchesGolden(an::AppKind::Ipv4Radix, "radix");
}

TEST(ProfileGolden, Trie)
{
    expectProfileMatchesGolden(an::AppKind::Ipv4Trie, "trie");
}

TEST(ProfileGolden, Flow)
{
    expectProfileMatchesGolden(an::AppKind::FlowClass, "flow");
}

TEST(ProfileGolden, Tsa)
{
    expectProfileMatchesGolden(an::AppKind::Tsa, "tsa");
}

} // namespace
