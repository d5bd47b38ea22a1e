/**
 * @file
 * Run-report tests: a real PacketBench run over a synthetic trace
 * must serialize into valid JSON that round-trips through the parser
 * and carries at least ten distinct metrics — the artifact contract
 * every bench binary's `--report` flag relies on.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include <unistd.h>

#include "core/packetbench.hh"
#include "isa/assembler.hh"
#include "net/tracegen.hh"
#include "obs/json.hh"
#include "obs/report.hh"

namespace
{

using namespace pb;
using namespace pb::obs;

/** Tiny app: reads one header word, then forwards. */
class ForwardApp : public core::Application
{
  public:
    std::string name() const override { return "forward"; }

    isa::Program
    setup(sim::Memory &mem) const override
    {
        (void)mem;
        // a0 arrives holding the packet base address.
        return isa::Assembler(sim::layout::textBase).assemble(R"(
            main:
                lw  t1, 0(a0)
                li  a1, 1
                sys 1
        )");
    }
};

JsonValue
reportAfterRun()
{
    ForwardApp app;
    core::PacketBench bench(app);
    net::SyntheticTrace trace(net::Profile::LAN, 50, 1);
    bench.run(trace, 50);

    RunMeta meta;
    meta.tool = "pb_test_obs";
    meta.args = {"--packets=50"};
    meta.wallSeconds = 0.5;
    meta.set("trace", "LAN");

    std::stringstream out;
    writeRunReport(out, meta, defaultRegistry());
    return JsonValue::parse(out.str());
}

TEST(RunReport, RoundTripsThroughParser)
{
    JsonValue doc = reportAfterRun();
    EXPECT_EQ(doc.at("schema").asString(), "packetbench.report.v1");

    const JsonValue &meta = doc.at("meta");
    EXPECT_EQ(meta.at("tool").asString(), "pb_test_obs");
    EXPECT_EQ(meta.at("args").asArray().size(), 1u);
    EXPECT_EQ(meta.at("wall_seconds").asNumber(), 0.5);
    EXPECT_EQ(meta.at("trace").asString(), "LAN");
    EXPECT_FALSE(meta.at("git").asString().empty());
    // ISO-8601 UTC: "YYYY-MM-DDThh:mm:ssZ".
    const std::string &created = meta.at("created").asString();
    ASSERT_EQ(created.size(), 20u);
    EXPECT_EQ(created[10], 'T');
    EXPECT_EQ(created.back(), 'Z');
}

TEST(RunReport, CarriesAtLeastTenDistinctMetrics)
{
    JsonValue doc = reportAfterRun();
    size_t metrics = doc.at("counters").asObject().size() +
                     doc.at("gauges").asObject().size() +
                     doc.at("histograms").asObject().size();
    EXPECT_GE(metrics, 10u);

    // The headline framework metrics are all present.
    const JsonValue &counters = doc.at("counters");
    for (const char *name :
         {"pb.packets", "pb.insts", "pb.sent", "pb.dropped",
          "sim.interp.run_ns", "trace.packets_read",
          "trace.bytes_read", "phase.trace_read_ns"}) {
        EXPECT_NE(counters.find(name), nullptr)
            << "missing counter " << name;
    }
    EXPECT_NE(doc.at("gauges").find("sim.interp.mips"), nullptr);
    EXPECT_NE(doc.at("histograms").find("pb.insts_per_packet"),
              nullptr);
}

TEST(RunReport, CountersAreExactAndConsistent)
{
    JsonValue doc = reportAfterRun();
    const JsonValue &counters = doc.at("counters");
    // Each reportAfterRun() call pushes 50 more packets through the
    // process-global registry; the published totals stay coherent.
    auto value = [&](const char *name) {
        return static_cast<uint64_t>(counters.at(name).asNumber());
    };
    EXPECT_GE(value("pb.packets"), 50u);
    EXPECT_EQ(value("pb.packets"), value("pb.sent") +
                                   value("pb.dropped"));
    EXPECT_GT(value("pb.insts"), value("pb.packets"));
    EXPECT_GE(value("trace.packets_read"), value("pb.packets"));
}

TEST(RunReport, HistogramsSerializeDistribution)
{
    JsonValue doc = reportAfterRun();
    const JsonValue &hist =
        doc.at("histograms").at("pb.insts_per_packet");
    auto count = static_cast<uint64_t>(hist.at("count").asNumber());
    EXPECT_GE(count, 50u);
    EXPECT_GT(hist.at("mean").asNumber(), 0.0);
    EXPECT_GE(hist.at("p99").asNumber(), hist.at("p50").asNumber());
    EXPECT_GE(hist.at("max").asNumber(), hist.at("min").asNumber());

    const auto &buckets = hist.at("buckets").asArray();
    ASSERT_FALSE(buckets.empty());
    uint64_t in_buckets = 0;
    double prev_le = -1.0;
    for (const JsonValue &bucket : buckets) {
        in_buckets +=
            static_cast<uint64_t>(bucket.at("count").asNumber());
        EXPECT_GT(bucket.at("le").asNumber(), prev_le);
        prev_le = bucket.at("le").asNumber();
    }
    EXPECT_EQ(in_buckets, count);
}

TEST(RunReport, GitStampDoesNotDependOnWorkingDirectory)
{
    // The stamp is taken when the build is configured, so a report
    // written from a directory outside any repository still names
    // the tree the binary was built from.
    std::string here = gitDescribe();
    ASSERT_FALSE(here.empty());
    std::filesystem::path cwd = std::filesystem::current_path();
    std::filesystem::path elsewhere =
        std::filesystem::temp_directory_path() /
        ("pb_report_cwd_" + std::to_string(getpid()));
    std::filesystem::create_directories(elsewhere);
    std::filesystem::current_path(elsewhere);
    std::string there = gitDescribe();
    std::filesystem::current_path(cwd);
    std::filesystem::remove_all(elsewhere);
    EXPECT_EQ(there, here);
}

TEST(RunReport, FileWriterIsFatalOnBadPath)
{
    RunMeta meta;
    meta.tool = "t";
    EXPECT_THROW(writeRunReportFile("/nonexistent-dir/x.json", meta,
                                    defaultRegistry()),
                 FatalError);
}

TEST(RunReport, MetaFromArgvTakesBasename)
{
    char prog[] = "/usr/bin/bench_table2";
    char arg1[] = "--packets=7";
    char *argv[] = {prog, arg1, nullptr};
    RunMeta meta = RunMeta::fromArgv(2, argv);
    EXPECT_EQ(meta.tool, "bench_table2");
    ASSERT_EQ(meta.args.size(), 1u);
    EXPECT_EQ(meta.args[0], "--packets=7");
}

} // namespace
