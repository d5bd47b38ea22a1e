/**
 * @file
 * Live telemetry plane: per-engine since-start totals and the stats
 * pump that turns them into live rates.
 *
 * Everything the registry (obs/metrics.hh) exports is
 * cumulative-since-start and written once at process exit; this
 * module makes the run observable *while it happens*:
 *
 *  - Telemetry is the process-global hub of per-engine
 *    EngineTelemetry records.  Every engine counts each packet it
 *    processes into its record's since-start totals (packets, layer-3
 *    bytes, instructions, faults), gate or no gate.  While an NDJSON
 *    pump runs, PacketBench also feeds the record's
 *    instructions-per-packet histogram and space-saving top-K flow
 *    table (obs/topk.hh), and the dispatcher samples queue depth per
 *    batch.
 *
 *  - StatsPump is a background thread that, every interval, reads
 *    the registry's and every engine's totals back to back and hands
 *    the one sample to up to three sinks: an NDJSON record (schema
 *    packetbench.stats.v1, one JSON object per line) appended to the
 *    `--stats` file, a rewrite of the `--prom` Prometheus snapshot so
 *    scrapers see live values mid-run, and a console speed line
 *    (packetbenchd's "[packetbenchd] X Mpps ..." line).
 *
 * A live rate has one definition: the change in a since-start total
 * over the tick's interval_ns.  The pump takes every total as its
 * previous sample at start(), so the first record covers only what
 * ran after start, and each engine's insts_per_packet holds the
 * histogram buckets added since the previous tick.
 *
 * Record schema (one line each):
 *
 *   {"schema": "packetbench.stats.v1", "seq": 3, "wall_ns": ...,
 *    "interval_ns": ..., "snapshot_ns": ...,
 *    "process": {"packets": N, "pps": r, "insts": N, "mips": r,
 *                "sent": N, "dropped": N, "faults": N,
 *                "fault_pps": r, "trace_dropped": N},
 *    "engines": [
 *      {"engine": 0, "packets": N, "pps": r, "bps": r, "mips": r,
 *       "faults": N, "fault_pps": r, "queue_depth": n,
 *       "insts_per_packet": {"count": n, "mean": r, "p50": n,
 *                            "p99": n},
 *       "topk": [{"flow": "a:p > b:q/proto", "hash": h,
 *                 "packets": N, "bytes": N, "faults": N,
 *                 "error": N}, ...]} ...]}
 *
 * Counts (packets, insts, faults...) are since-start totals; every
 * rate is its total's delta over interval_ns.  wall_ns counts from
 * pump start and is strictly monotone across records;
 * ci/check_stats.py validates a stream, rates included.
 *
 * Cost contract: with no NDJSON pump running, statsEnabled() is
 * false and the gated part of the per-packet hook — the histogram
 * and flow accounting — is one relaxed atomic load plus a branch
 * (same bar as tracing, enforced by the StatsOverhead test).  The
 * totals cost a relaxed load and store each on a cache line only the
 * engine writes, so the console line needs no gate.
 */

#ifndef PB_OBS_STATS_HH
#define PB_OBS_STATS_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/topk.hh"

namespace pb::obs
{

namespace detail
{
/** Global flow-accounting gate; read on every per-packet hook. */
extern std::atomic<bool> statsEnabledFlag;
} // namespace detail

/** True while an NDJSON StatsPump is running (one relaxed load). */
inline bool
statsEnabled()
{
    return detail::statsEnabledFlag.load(std::memory_order_relaxed);
}

/**
 * Raise or lower the per-packet telemetry gate directly.  An NDJSON
 * StatsPump toggles it around start()/stop(); tests and overhead
 * probes flip it to time the two paths.
 */
inline void
setStatsEnabled(bool on)
{
    detail::statsEnabledFlag.store(on, std::memory_order_relaxed);
}

/**
 * One engine's live state.  Written by the engine's worker thread
 * (or the single bench thread), read concurrently by the pump; all
 * members are individually thread-safe, so no outer lock exists to
 * contend on the per-packet path.
 */
struct EngineTelemetry
{
    /**
     * Since-start totals over every packet the engine processed,
     * completed or faulted, kept whether or not the gate is up.
     * Only the owning engine writes them, on a cache line of their
     * own: the dispatcher stores queueDepth every batch.
     */
    struct alignas(cacheLineBytes) Totals
    {
        std::atomic<uint64_t> packets{0};
        std::atomic<uint64_t> bytes{0};
        std::atomic<uint64_t> insts{0};
        std::atomic<uint64_t> faults{0};
    };
    Totals totals;

    uint32_t engineId = 0;

    /**
     * Instructions per completed packet, fed only while
     * statsEnabled(), like pb.insts_per_packet.  Not registered: the
     * pump reports the buckets added since its previous tick.
     */
    Histogram instsPerPacket;

    /** Dispatcher queue occupancy in batches (parallel runs). */
    std::atomic<uint64_t> queueDepth{0};

    FlowTopK topk;

    /**
     * Add one processed packet to totals.  One writer owns an engine
     * id at a time (see Telemetry), so a relaxed load and store
     * replace a locked read-modify-write on the packet path.
     */
    void
    count(uint64_t insts_n, uint64_t bytes_n)
    {
        bump(totals.packets, 1);
        bump(totals.bytes, bytes_n);
        bump(totals.insts, insts_n);
    }

    /** count() one faulted packet, and add it to the fault total. */
    void
    countFault(uint64_t insts_n, uint64_t bytes_n)
    {
        count(insts_n, bytes_n);
        bump(totals.faults, 1);
    }

    /** Zero the totals, the histogram and the flow table (test hook). */
    void reset();

  private:
    static void
    bump(std::atomic<uint64_t> &total, uint64_t n)
    {
        total.store(total.load(std::memory_order_relaxed) + n,
                    std::memory_order_relaxed);
    }
};

/**
 * Process-global hub of per-engine telemetry.  engine(id) is
 * find-or-create and the returned reference is stable for the
 * process lifetime, so engines resolve it once at construction.
 * One writer owns an id at a time (MultiCoreBench gives each worker
 * a distinct id; sequential owners are ordered by thread joins).
 */
class Telemetry
{
  public:
    static Telemetry &instance();

    /** The record for engine @p id (find-or-create, stable ref). */
    EngineTelemetry &engine(uint32_t id);

    /** Every registered engine, ordered by id. */
    std::vector<EngineTelemetry *> engines() const;

    /** reset() every engine record (test hook). */
    void reset();

  private:
    Telemetry() = default;

    mutable std::mutex mu;
    std::vector<std::unique_ptr<EngineTelemetry>> records;
};

/**
 * The one live-rate reporter.  start() spawns the pump thread;
 * stop() (or destruction) runs one final tick and joins.  Each tick
 * reads every since-start total once and feeds the configured sinks:
 * the NDJSON record (start() with a path), the Prometheus rewrite
 * (setPromPath) and the console speed line (setConsole).  An NDJSON
 * pump publishes its own cost as obs.stats.snapshot_ns /
 * obs.stats.records in the default registry, so the run report shows
 * what observing the run cost.
 */
class StatsPump
{
  public:
    /** Service-specific text appended to each console line. */
    using ConsoleTail = std::function<std::string()>;

    // Out of line: members reference std::ofstream, which is
    // deliberately incomplete here (<iosfwd>).
    StatsPump();
    ~StatsPump();

    StatsPump(const StatsPump &) = delete;
    StatsPump &operator=(const StatsPump &) = delete;

    /** PB_STATS_MS from the environment (1000 when unset; min 10). */
    static uint32_t defaultIntervalMs();

    /**
     * Also rewrite this Prometheus snapshot on every tick (the
     * `--prom` path) via write-to-temp-then-rename, so a concurrent
     * scraper never reads a half-written file.  The temp name is
     * pid-qualified so two processes sharing a promPath never
     * clobber each other's staging file; a failed write or rename
     * warns, unlinks the temp, and counts into
     * obs.stats.prom_fail (successes count obs.stats.prom_writes).
     * Call before start().
     */
    void setPromPath(const std::string &path);

    /**
     * Also print one speed line to stderr on every tick:
     * "[label] X Mpps Y Gbps Z MIPS | e0=.. e1=..", summed over
     * engines 0 .. @p num_engines - 1 (the MultiCoreBench ids),
     * followed by @p tail().  Call before start().
     */
    void setConsole(std::string label, uint32_t num_engines,
                    ConsoleTail tail);

    /**
     * Start ticking every @p interval_ms.  With a non-empty @p path,
     * each tick appends one NDJSON record there (fatal() when the
     * file cannot be created) and statsEnabled() stays up until
     * stop().  With an empty @p path only the Prometheus and console
     * sinks run, and the per-packet gate stays down.
     */
    void start(const std::string &path, uint32_t interval_ms);

    /** Run a final tick, stop the thread, close the stream. */
    void stop();

    /** Ticks emitted so far. */
    uint64_t
    records() const
    {
        return written.load(std::memory_order_relaxed);
    }

  private:
    /**
     * One engine as a tick saw it: its since-start totals, and their
     * rates over the tick's interval.
     */
    struct EngineSample
    {
        const EngineTelemetry *telem = nullptr;
        uint64_t packets = 0;
        uint64_t bytes = 0;
        uint64_t insts = 0;
        uint64_t faults = 0;
        uint64_t queueDepth = 0;
        Histogram::Snapshot instsPerPacket; ///< since start
        double pps = 0.0;
        double bps = 0.0;
        double mips = 0.0;
        double faultPps = 0.0;
        Histogram::Snapshot addedInstsPerPacket; ///< this interval
    };

    /** The one sample a tick hands to every sink. */
    struct Sample
    {
        uint64_t wallNs = 0;
        uint64_t intervalNs = 0;
        uint64_t packets = 0;
        uint64_t insts = 0;
        uint64_t sent = 0;
        uint64_t dropped = 0;
        uint64_t faults = 0;
        uint64_t traceDropped = 0;
        double pps = 0.0;
        double mips = 0.0;
        double faultPps = 0.0;
        std::map<uint32_t, EngineSample> engines; ///< by engine id
    };

    /** Read every since-start total, back to back. */
    Sample readTotals() const;
    /** Fill @p now's rates: its totals' growth since prev. */
    void computeRates(Sample &now) const;
    void loop();
    void tick();
    void writeRecord(const Sample &now, uint64_t tick_start);
    void rewriteProm();
    void printConsole(const Sample &now) const;

    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
    bool running = false;

    std::string promPath;
    std::string consoleLabel;
    uint32_t consoleEngines = 0;
    ConsoleTail consoleTail;
    uint32_t intervalMs = 1000;
    uint64_t startNs = 0;
    uint64_t seq = 0;

    /** The previous tick's sample (start()'s for the first tick). */
    Sample prev;

    std::atomic<uint64_t> written{0};
    std::unique_ptr<std::ofstream> out;
};

} // namespace pb::obs

#endif // PB_OBS_STATS_HH
