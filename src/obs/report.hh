/**
 * @file
 * Structured run reports.
 *
 * Serializes a metrics Registry plus run metadata (tool, arguments,
 * application/trace labels, git revision, wall time) as one JSON
 * document, so every bench binary and example produces a comparable,
 * machine-readable artifact.  Schema (version packetbench.report.v1):
 *
 *   {
 *     "schema": "packetbench.report.v1",
 *     "meta": {
 *       "tool": "bench_table2_complexity",
 *       "args": ["--packets=1000"],
 *       "created": "2026-08-05T12:00:00Z",
 *       "git": "695c6f6",
 *       "wall_seconds": 1.25,
 *       ...caller-provided extra string pairs (app, trace, config)
 *     },
 *     "counters":   { "pb.packets": 1000, ... },
 *     "gauges":     { "sim.interp.mips": 112.4, ... },
 *     "histograms": {
 *       "pb.insts_per_packet": {
 *         "count": 1000, "sum": 204000, "min": 150, "max": 5100,
 *         "mean": 204.0, "p50": 256, "p99": 8192,
 *         "buckets": [{"le": 0, "count": 0}, ...]
 *       }
 *     }
 *   }
 *
 * Counters serialize as exact integers; histogram bucket bounds are
 * the inclusive upper edges of the log2 buckets (obs/metrics.hh).
 */

#ifndef PB_OBS_REPORT_HH
#define PB_OBS_REPORT_HH

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hh"

namespace pb::obs
{

/** Metadata describing one tool run. */
struct RunMeta
{
    /** Tool name (binary basename or experiment id). */
    std::string tool;

    /** Command-line arguments, in order, without argv[0]. */
    std::vector<std::string> args;

    /** End-to-end wall time of the run, in seconds. */
    double wallSeconds = 0.0;

    /** Extra string pairs ("app", "trace", "config", ...). */
    std::vector<std::pair<std::string, std::string>> extra;

    /** Convenience: append one extra pair. */
    void
    set(const std::string &key, const std::string &value)
    {
        extra.emplace_back(key, value);
    }

    /** Build from main()'s arguments (tool = basename(argv[0])). */
    static RunMeta fromArgv(int argc, char **argv);
};

/**
 * `git describe --always --dirty` of the source tree, stamped when
 * CMake configured the build ("unknown" when the tree was not a git
 * work tree).  The same wherever the binary runs.
 */
std::string gitDescribe();

/** Current UTC time as "YYYY-MM-DDThh:mm:ssZ". */
std::string isoTimestamp();

/** The report as a pretty-printed JSON string. */
std::string renderRunReport(const RunMeta &meta,
                            const Registry &registry);

/** Write the report to @p out. */
void writeRunReport(std::ostream &out, const RunMeta &meta,
                    const Registry &registry);

/**
 * Write the report to @p path (fatal() when the file cannot be
 * created).
 */
void writeRunReportFile(const std::string &path, const RunMeta &meta,
                        const Registry &registry);

} // namespace pb::obs

#endif // PB_OBS_REPORT_HH
