/**
 * @file
 * Structured run report implementation.
 *
 * The writer streams JSON directly (instead of building a JsonValue)
 * so uint64 counters serialize exactly over the full range.
 */

#include "report.hh"

#include <cinttypes>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "obs/buildinfo.hh"
#include "obs/json.hh"

namespace pb::obs
{

RunMeta
RunMeta::fromArgv(int argc, char **argv)
{
    RunMeta meta;
    if (argc > 0 && argv[0]) {
        std::string path = argv[0];
        size_t slash = path.find_last_of('/');
        meta.tool = slash == std::string::npos
                        ? path
                        : path.substr(slash + 1);
    }
    for (int i = 1; i < argc; i++)
        meta.args.emplace_back(argv[i]);
    return meta;
}

std::string
gitDescribe()
{
    return buildinfo::gitDescribe;
}

std::string
isoTimestamp()
{
    std::time_t now = std::time(nullptr);
    std::tm tm_utc{};
    gmtime_r(&now, &tm_utc);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
    return buf;
}

namespace
{

std::string
quoted(const std::string &s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
gaugeToJson(double v)
{
    // JSON has no inf/nan; gauges are ratios and rates, so clamp to
    // null rather than emit an invalid document.
    if (v != v || v - v != 0.0)
        return "null";
    return strprintf("%.17g", v);
}

void
writeHistogram(std::ostream &out, const Histogram::Snapshot &hist,
               const char *pad)
{
    out << "{\n";
    out << pad << "  \"count\": " << hist.count << ",\n";
    out << pad << "  \"sum\": " << hist.sum << ",\n";
    out << pad << "  \"min\": " << hist.min << ",\n";
    out << pad << "  \"max\": " << hist.max << ",\n";
    out << pad << "  \"mean\": "
        << strprintf("%.17g", hist.mean()) << ",\n";
    out << pad << "  \"p50\": " << hist.quantile(0.5) << ",\n";
    out << pad << "  \"p99\": " << hist.quantile(0.99) << ",\n";
    out << pad << "  \"buckets\": [";
    for (size_t i = 0; i < hist.buckets.size(); i++) {
        if (i)
            out << ", ";
        out << "{\"le\": " << Histogram::bucketUpperBound(i)
            << ", \"count\": " << hist.buckets[i] << "}";
    }
    out << "]\n" << pad << "}";
}

void
writeSection(std::ostream &out, const char *name, MetricKind kind,
             const std::vector<Registry::Entry> &entries, bool last)
{
    out << "  \"" << name << "\": {";
    bool first = true;
    for (const Registry::Entry &e : entries) {
        if (e.kind != kind)
            continue;
        if (!first)
            out << ",";
        first = false;
        out << "\n    " << quoted(e.name) << ": ";
        switch (kind) {
          case MetricKind::Counter:
            out << e.counter;
            break;
          case MetricKind::Gauge:
            out << gaugeToJson(e.gauge);
            break;
          case MetricKind::Histogram:
            writeHistogram(out, e.hist, "    ");
            break;
        }
    }
    out << (first ? "}" : "\n  }") << (last ? "\n" : ",\n");
}

} // namespace

void
writeRunReport(std::ostream &out, const RunMeta &meta,
               const Registry &registry)
{
    std::vector<Registry::Entry> entries = registry.snapshot();

    out << "{\n";
    out << "  \"schema\": \"packetbench.report.v1\",\n";
    out << "  \"meta\": {\n";
    out << "    \"tool\": " << quoted(meta.tool) << ",\n";
    out << "    \"args\": [";
    for (size_t i = 0; i < meta.args.size(); i++) {
        if (i)
            out << ", ";
        out << quoted(meta.args[i]);
    }
    out << "],\n";
    out << "    \"created\": " << quoted(isoTimestamp()) << ",\n";
    out << "    \"git\": " << quoted(gitDescribe()) << ",\n";
    out << "    \"wall_seconds\": "
        << strprintf("%.6f", meta.wallSeconds);
    for (const auto &[key, value] : meta.extra)
        out << ",\n    " << quoted(key) << ": " << quoted(value);
    out << "\n  },\n";
    writeSection(out, "counters", MetricKind::Counter, entries,
                 false);
    writeSection(out, "gauges", MetricKind::Gauge, entries, false);
    writeSection(out, "histograms", MetricKind::Histogram, entries,
                 true);
    out << "}\n";
}

std::string
renderRunReport(const RunMeta &meta, const Registry &registry)
{
    std::ostringstream out;
    writeRunReport(out, meta, registry);
    return out.str();
}

void
writeRunReportFile(const std::string &path, const RunMeta &meta,
                   const Registry &registry)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write report to '%s'", path.c_str());
    writeRunReport(out, meta, registry);
}

} // namespace pb::obs
