/**
 * @file
 * Prometheus text-exposition tests: format, name sanitization,
 * cumulative histogram buckets, special float values, and the file
 * writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/metrics.hh"

namespace
{

using namespace pb::obs;

std::string
expose(const Registry &reg)
{
    std::ostringstream out;
    reg.writePrometheus(out);
    return out.str();
}

TEST(Prometheus, CountersAndGauges)
{
    Registry reg;
    reg.counter("pb.faults.total").add(3);
    reg.gauge("sim.interp.mips").set(112.5);

    std::string text = expose(reg);
    EXPECT_NE(text.find("# TYPE pb_faults_total counter\n"
                        "pb_faults_total 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE sim_interp_mips gauge\n"
                        "sim_interp_mips 112.5\n"),
              std::string::npos);
}

TEST(Prometheus, HelpLinesForEverySeries)
{
    Registry reg;
    reg.counter("pb.faults.total").add(1);
    reg.gauge("stats.engine0.pps").set(5.0);
    reg.counter("some.unknown.metric").add(1);

    std::string text = expose(reg);
    // Known series carry their specific help text...
    EXPECT_NE(text.find("# HELP pb_faults_total Faulted packets "
                        "across all fault kinds\n"),
              std::string::npos);
    // ...numbered per-engine families match by prefix...
    EXPECT_NE(text.find("# HELP stats_engine0_pps Live per-engine "
                        "rates over the stats-pump interval\n"),
              std::string::npos);
    // ...and unknown names still get a generic HELP line.
    EXPECT_NE(text.find("# HELP some_unknown_metric "
                        "PacketBench metric\n"),
              std::string::npos);

    // Exactly one HELP per TYPE: every series is annotated.
    size_t helps = 0, types = 0;
    for (size_t pos = 0;
         (pos = text.find("# HELP ", pos)) != std::string::npos;
         pos += 7)
        helps++;
    for (size_t pos = 0;
         (pos = text.find("# TYPE ", pos)) != std::string::npos;
         pos += 7)
        types++;
    EXPECT_EQ(helps, types);
    EXPECT_EQ(helps, 3u);
}

TEST(Prometheus, NameSanitization)
{
    Registry reg;
    reg.counter("mc.engine0.faults").add(1);
    reg.counter("0weird-name").add(1);

    std::string text = expose(reg);
    EXPECT_NE(text.find("mc_engine0_faults 1\n"), std::string::npos);
    // Leading digit gets a prefix; '-' flattens to '_'.
    EXPECT_NE(text.find("_0weird_name 1\n"), std::string::npos);
}

TEST(Prometheus, HistogramBucketsAreCumulative)
{
    Registry reg;
    Histogram &h = reg.histogram("test.lat");
    h.observe(0);
    h.observe(1);
    h.observe(2);
    h.observe(2);
    h.observe(5);

    std::string text = expose(reg);
    EXPECT_NE(text.find("# TYPE test_lat histogram\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_lat_bucket{le=\"0\"} 1\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_lat_bucket{le=\"1\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_lat_bucket{le=\"2\"} 4\n"),
              std::string::npos);
    // 5 lands in (4, 8]; the le="4" bucket stays at 4 cumulative.
    EXPECT_NE(text.find("test_lat_bucket{le=\"4\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_lat_bucket{le=\"8\"} 5\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_lat_bucket{le=\"+Inf\"} 5\n"),
              std::string::npos);
    EXPECT_NE(text.find("test_lat_sum 10\n"), std::string::npos);
    EXPECT_NE(text.find("test_lat_count 5\n"), std::string::npos);
}

TEST(Prometheus, SpecialFloatValues)
{
    Registry reg;
    reg.gauge("test.nan").set(std::numeric_limits<double>::quiet_NaN());
    reg.gauge("test.pinf").set(std::numeric_limits<double>::infinity());
    reg.gauge("test.ninf")
        .set(-std::numeric_limits<double>::infinity());

    std::string text = expose(reg);
    EXPECT_NE(text.find("test_nan NaN\n"), std::string::npos);
    EXPECT_NE(text.find("test_pinf +Inf\n"), std::string::npos);
    EXPECT_NE(text.find("test_ninf -Inf\n"), std::string::npos);
}

TEST(Prometheus, FileWriterRoundTrips)
{
    Registry reg;
    reg.counter("test.events").add(11);

    std::string path = ::testing::TempDir() + "prom_test.txt";
    writePrometheusFile(path, reg);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    EXPECT_EQ(content.str(), expose(reg));
    std::remove(path.c_str());
}

} // namespace
