/**
 * @file
 * Paper-experiment harness implementation.
 */

#include "experiments.hh"

#include "analysis/blockstats.hh"
#include "analysis/instpattern.hh"
#include "analysis/occurrence.hh"
#include "apps/crc_app.hh"
#include "apps/flow_class.hh"
#include "apps/ipv4_radix.hh"
#include "apps/ipv4_trie.hh"
#include "apps/nat_app.hh"
#include "apps/tsa_app.hh"
#include "apps/xtea_app.hh"
#include "common/strutil.hh"
#include "common/texttable.hh"
#include "obs/metrics.hh"
#include "route/prefix.hh"

namespace pb::an
{

std::string
appTitle(AppKind kind)
{
    switch (kind) {
      case AppKind::Ipv4Radix:
        return "IPv4-radix";
      case AppKind::Ipv4Trie:
        return "IPv4-trie";
      case AppKind::FlowClass:
        return "Flow Class.";
      case AppKind::Tsa:
        return "TSA";
      case AppKind::Crc32:
        return "CRC32";
      case AppKind::XteaEnc:
        return "XTEA-enc";
      case AppKind::Nat:
        return "NAT";
    }
    return "?";
}

std::unique_ptr<core::Application>
makeApp(AppKind kind, const ExperimentConfig &cfg)
{
    switch (kind) {
      case AppKind::Ipv4Radix:
        return std::make_unique<apps::Ipv4RadixApp>(
            route::generateCoreTable(cfg.coreTablePrefixes,
                                     cfg.tableSeed));
      case AppKind::Ipv4Trie:
        return std::make_unique<apps::Ipv4TrieApp>(
            route::generateSmallTable(cfg.smallTablePrefixes,
                                      cfg.tableSeed));
      case AppKind::FlowClass:
        return std::make_unique<apps::FlowClassApp>(cfg.flowBuckets);
      case AppKind::Tsa:
        return std::make_unique<apps::TsaApp>(cfg.tsaKey);
      case AppKind::Crc32:
        return std::make_unique<apps::CrcApp>();
      case AppKind::XteaEnc:
        return std::make_unique<apps::XteaApp>();
      case AppKind::Nat:
        return std::make_unique<apps::NatApp>();
    }
    panic("unknown application kind");
}

core::BenchConfig
benchConfigFor(net::Profile profile, const ExperimentConfig &cfg,
               sim::RecorderConfig recorder)
{
    core::BenchConfig bench;
    bench.recorder = recorder;
    bench.scramble = net::profileInfo(profile).nlanrRenumber;
    bench.scrambleKey = cfg.scrambleKey;
    return bench;
}

double
AppRun::meanInsts() const
{
    double total = 0;
    for (const auto &s : stats)
        total += static_cast<double>(s.instCount);
    return stats.empty() ? 0.0 : total / static_cast<double>(stats.size());
}

double
AppRun::meanPacketAccesses() const
{
    double total = 0;
    for (const auto &s : stats)
        total += s.packetAccesses();
    return stats.empty() ? 0.0 : total / static_cast<double>(stats.size());
}

double
AppRun::meanNonPacketAccesses() const
{
    double total = 0;
    for (const auto &s : stats)
        total += s.nonPacketAccesses();
    return stats.empty() ? 0.0 : total / static_cast<double>(stats.size());
}

AppRun
runApp(AppKind kind, net::Profile profile, uint32_t packets,
       const ExperimentConfig &cfg, sim::RecorderConfig recorder)
{
    std::unique_ptr<core::Application> app = makeApp(kind, cfg);
    core::PacketBench bench(*app,
                            benchConfigFor(profile, cfg, recorder));
    net::SyntheticTrace trace(profile, packets, cfg.traceSeed);

    AppRun run;
    run.stats.reserve(packets);
    while (auto packet = trace.next()) {
        core::PacketOutcome outcome = bench.processPacket(*packet);
        if (outcome.verdict == isa::SysCode::Drop)
            run.dropped++;
        run.stats.push_back(std::move(outcome.stats));
    }
    bench.publishInterpMetrics();
    run.instMemoryBytes = bench.recorder().instMemoryBytes();
    run.dataMemoryBytes = bench.recorder().dataMemoryBytes();
    run.numBlocks = bench.blocks().numBlocks();
    return run;
}

std::string
renderTable1()
{
    TextTable table(4);
    table.header({"Trace Name", "Type", "Packets (paper)",
                  "Link"});
    for (net::Profile profile : net::allProfiles) {
        const auto &info = net::profileInfo(profile);
        table.row({std::string(info.name), std::string(info.linkDesc),
                   withCommas(info.paperPackets),
                   info.link == net::LinkType::Ethernet ? "Ethernet"
                                                        : "raw IP"});
    }
    return table.render();
}

namespace
{

/** Shared driver for Tables II and III (apps x traces). */
std::vector<std::vector<AppRun>>
runMatrix(const ExperimentConfig &cfg, uint32_t packets)
{
    std::vector<std::vector<AppRun>> matrix;
    for (net::Profile profile : net::allProfiles) {
        std::vector<AppRun> row;
        for (AppKind kind : allAppKinds)
            row.push_back(runApp(kind, profile, packets, cfg));
        matrix.push_back(std::move(row));
    }
    return matrix;
}

std::string
fmt1(double v)
{
    return strprintf("%.1f", v);
}

std::string
fmt0(double v)
{
    return withCommas(static_cast<uint64_t>(v + 0.5));
}

} // namespace

std::string
renderTable2(const ExperimentConfig &cfg, uint32_t packets_per_trace)
{
    auto matrix = runMatrix(cfg, packets_per_trace);
    PB_SCOPED_TIMER("phase.analyze_ns");
    TextTable table(5);
    table.header({"Trace Name", "IPv4-radix", "IPv4-trie",
                  "Flow Classification", "TSA"});
    std::vector<double> sums(4, 0.0);
    for (size_t t = 0; t < matrix.size(); t++) {
        std::vector<std::string> cells{std::string(
            net::profileInfo(net::allProfiles[t]).name)};
        for (size_t a = 0; a < matrix[t].size(); a++) {
            double mean = matrix[t][a].meanInsts();
            sums[a] += mean;
            cells.push_back(fmt0(mean));
        }
        table.row(std::move(cells));
    }
    table.rule();
    std::vector<std::string> avg{"Average"};
    for (double sum : sums)
        avg.push_back(fmt0(sum / static_cast<double>(matrix.size())));
    table.row(std::move(avg));
    return table.render();
}

std::string
renderTable3(const ExperimentConfig &cfg, uint32_t packets_per_trace)
{
    auto matrix = runMatrix(cfg, packets_per_trace);
    PB_SCOPED_TIMER("phase.analyze_ns");
    TextTable table(9);
    table.header({"Trace Name", "radix Pkt", "radix Non-pkt",
                  "trie Pkt", "trie Non-pkt", "flow Pkt",
                  "flow Non-pkt", "TSA Pkt", "TSA Non-pkt"});
    std::vector<double> sums(8, 0.0);
    for (size_t t = 0; t < matrix.size(); t++) {
        std::vector<std::string> cells{std::string(
            net::profileInfo(net::allProfiles[t]).name)};
        for (size_t a = 0; a < matrix[t].size(); a++) {
            double pkt = matrix[t][a].meanPacketAccesses();
            double nonpkt = matrix[t][a].meanNonPacketAccesses();
            sums[a * 2] += pkt;
            sums[a * 2 + 1] += nonpkt;
            cells.push_back(fmt1(pkt));
            cells.push_back(fmt1(nonpkt));
        }
        table.row(std::move(cells));
    }
    table.rule();
    std::vector<std::string> avg{"Average"};
    for (double sum : sums)
        avg.push_back(fmt1(sum / static_cast<double>(matrix.size())));
    table.row(std::move(avg));
    return table.render();
}

std::string
renderTable4(const ExperimentConfig &cfg, uint32_t packets)
{
    TextTable table(3);
    table.header({"Application", "Instr. memory size",
                  "Data memory size"});
    for (AppKind kind : allAppKinds) {
        AppRun run = runApp(kind, net::Profile::MRA, packets, cfg);
        table.row({appTitle(kind), withCommas(run.instMemoryBytes),
                   withCommas(run.dataMemoryBytes)});
    }
    return table.render();
}

namespace
{

/** Shared driver for Tables V and VI. */
std::string
renderVariationTable(const ExperimentConfig &cfg, uint32_t packets,
                     bool unique)
{
    TextTable table(7);
    table.header({"Application", "1st", "2nd", "3rd", "Minimum",
                  "Maximum", "Average"});
    for (AppKind kind : allAppKinds) {
        AppRun run = runApp(kind, net::Profile::COS, packets, cfg);
        std::vector<uint64_t> values;
        values.reserve(run.stats.size());
        for (const auto &s : run.stats) {
            values.push_back(unique ? s.uniqueInstCount
                                    : s.instCount);
        }
        OccurrenceSummary summary = summarize(values, 3);
        std::vector<std::string> cells{appTitle(kind)};
        for (size_t i = 0; i < 3; i++) {
            if (i < summary.top.size()) {
                cells.push_back(strprintf(
                    "%s (%.2f%%)",
                    withCommas(summary.top[i].value).c_str(),
                    summary.top[i].pct));
            } else {
                cells.push_back("-");
            }
        }
        cells.push_back(strprintf(
            "%s (%.2f%%)", withCommas(summary.min.value).c_str(),
            summary.min.pct));
        cells.push_back(strprintf(
            "%s (%.2f%%)", withCommas(summary.max.value).c_str(),
            summary.max.pct));
        cells.push_back(fmt0(summary.average));
        table.row(std::move(cells));
    }
    return table.render();
}

/** Shared driver for the per-packet series figures (3, 4, 5). */
std::string
renderSeries(const ExperimentConfig &cfg, uint32_t packets,
             const char *what,
             uint32_t (*metric)(const sim::PacketStats &))
{
    std::string out;
    for (AppKind kind : {AppKind::Ipv4Radix, AppKind::FlowClass}) {
        AppRun run = runApp(kind, net::Profile::MRA, packets, cfg);
        out += strprintf("# %s: %s per packet (MRA, first %u "
                         "packets)\n# packet  value\n",
                         appTitle(kind).c_str(), what, packets);
        for (size_t i = 0; i < run.stats.size(); i++) {
            out += strprintf("%zu %u\n", i, metric(run.stats[i]));
        }
        out += "\n";
    }
    return out;
}

} // namespace

std::string
renderTable5(const ExperimentConfig &cfg, uint32_t packets)
{
    return renderVariationTable(cfg, packets, false);
}

std::string
renderTable6(const ExperimentConfig &cfg, uint32_t packets)
{
    return renderVariationTable(cfg, packets, true);
}

std::string
renderFig3(const ExperimentConfig &cfg, uint32_t packets)
{
    return renderSeries(cfg, packets, "instructions",
                        [](const sim::PacketStats &s) {
                            return static_cast<uint32_t>(s.instCount);
                        });
}

std::string
renderFig4(const ExperimentConfig &cfg, uint32_t packets)
{
    return renderSeries(cfg, packets, "packet memory accesses",
                        [](const sim::PacketStats &s) {
                            return s.packetAccesses();
                        });
}

std::string
renderFig5(const ExperimentConfig &cfg, uint32_t packets)
{
    return renderSeries(cfg, packets, "non-packet memory accesses",
                        [](const sim::PacketStats &s) {
                            return s.nonPacketAccesses();
                        });
}

std::string
renderFig6(const ExperimentConfig &cfg)
{
    sim::RecorderConfig recorder;
    recorder.instTrace = true;
    std::string out;
    for (AppKind kind : {AppKind::Ipv4Radix, AppKind::FlowClass}) {
        AppRun run = runApp(kind, net::Profile::MRA, 1, cfg, recorder);
        const auto &trace = run.stats.at(0).instTrace;
        std::vector<uint32_t> series = uniqueIndexSeries(trace);
        out += strprintf("# %s: instruction access pattern, one MRA "
                         "packet\n# instruction  unique_index\n",
                         appTitle(kind).c_str());
        for (size_t i = 0; i < series.size(); i++)
            out += strprintf("%zu %u\n", i, series[i]);
        out += "\n";
    }
    return out;
}

std::string
renderFig7(const ExperimentConfig &cfg, uint32_t packets)
{
    sim::RecorderConfig recorder;
    recorder.blockSets = true;
    std::string out;
    for (AppKind kind : {AppKind::Ipv4Radix, AppKind::FlowClass}) {
        AppRun run =
            runApp(kind, net::Profile::MRA, packets, cfg, recorder);
        std::vector<double> probabilities =
            blockProbabilities(run.stats, run.numBlocks);
        out += strprintf("# %s: basic block execution probability "
                         "(MRA, %u packets)\n# block  probability\n",
                         appTitle(kind).c_str(), packets);
        for (size_t b = 0; b < probabilities.size(); b++)
            out += strprintf("%zu %.4f\n", b, probabilities[b]);
        out += "\n";
    }
    return out;
}

std::string
renderFig8(const ExperimentConfig &cfg, uint32_t packets)
{
    sim::RecorderConfig recorder;
    recorder.blockSets = true;
    std::string out;
    for (AppKind kind : {AppKind::Ipv4Radix, AppKind::FlowClass}) {
        AppRun run =
            runApp(kind, net::Profile::MRA, packets, cfg, recorder);
        auto curve = coverageCurve(run.stats, run.numBlocks);
        uint32_t sweet = blocksForCoverage(curve, 0.9);
        out += strprintf("# %s: packet coverage vs installed basic "
                         "blocks (MRA, %u packets)\n"
                         "# >=90%% coverage at %u blocks (of %u)\n"
                         "# blocks  coverage\n",
                         appTitle(kind).c_str(), packets, sweet,
                         run.numBlocks);
        for (const auto &point : curve) {
            out += strprintf("%u %.4f\n", point.blocks,
                             point.packetFraction);
        }
        out += "\n";
    }
    return out;
}

std::string
renderFig9(const ExperimentConfig &cfg)
{
    sim::RecorderConfig recorder;
    recorder.memTrace = true;
    std::string out;
    for (AppKind kind : {AppKind::Ipv4Radix, AppKind::FlowClass}) {
        AppRun run = runApp(kind, net::Profile::MRA, 1, cfg, recorder);
        out += strprintf("# %s: data memory accesses, one MRA packet\n"
                         "# instruction  region(+1=packet,-1=other)  "
                         "rw\n",
                         appTitle(kind).c_str());
        for (const auto &access : run.stats.at(0).memTrace) {
            int region =
                access.event.region == sim::MemRegion::Packet ? 1 : -1;
            out += strprintf("%llu %d %c",
                             static_cast<unsigned long long>(
                                 access.instIndex),
                             region,
                             access.event.isStore ? 'W' : 'R');
            out += "\n";
        }
        out += "\n";
    }
    return out;
}

} // namespace pb::an
