/**
 * @file
 * Live telemetry plane: per-engine windowed state and the streaming
 * stats pump.
 *
 * Everything the registry (obs/metrics.hh) exports is
 * cumulative-since-start and written once at process exit; this
 * module makes the run observable *while it happens*:
 *
 *  - Telemetry is the process-global hub of per-engine
 *    EngineTelemetry records: sliding-window rates (packets, bytes,
 *    instructions, faults — obs/window.hh), a rolling
 *    instructions-per-packet histogram, a space-saving top-K flow
 *    table (obs/topk.hh), and the dispatcher's queue-occupancy
 *    sample.  While a pump runs, PacketBench feeds its engine's
 *    record on every packet and the dispatcher samples queue depth
 *    per batch.  Gate or no gate, each engine also keeps since-start
 *    packet/byte/instruction totals in its record, which is what the
 *    packetbenchd console speed line differences between ticks.
 *
 *  - StatsPump is a background thread that, every PB_STATS_MS
 *    milliseconds (default 1000), snapshots the registry plus the
 *    hub and appends one NDJSON record (schema packetbench.stats.v1,
 *    one JSON object per line) to the file named by the `--stats`
 *    bench flag, and optionally rewrites the `--prom` Prometheus
 *    snapshot in place so scrapers see live values mid-run.
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
 *       "insts_per_packet": {"p50": n, "p99": n, "mean": r},
 *       "topk": [{"flow": "a:p > b:q/proto", "hash": h,
 *                 "packets": N, "bytes": N, "faults": N,
 *                 "error": N}, ...]} ...]}
 *
 * All rates are windowed (obs/window.hh, one-second window), not
 * since-start averages; process pps/fault_pps are deltas over the
 * pump interval.  wall_ns counts from pump start and is strictly
 * monotone across records; ci/check_stats.py validates a stream.
 *
 * Cost contract: with no pump running, statsEnabled() is false and
 * the entire per-packet hook — windowed records and flow accounting
 * alike — is one relaxed atomic load plus a branch (same bar as
 * tracing, enforced by the StatsOverhead test).  Enabled, the
 * windowed rate updates reuse timestamps the framework already
 * takes, so the pump adds no clock reads to the hot path.
 */

#ifndef PB_OBS_STATS_HH
#define PB_OBS_STATS_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "obs/topk.hh"
#include "obs/window.hh"

namespace pb::obs
{

namespace detail
{
/** Global flow-accounting gate; read on every per-packet hook. */
extern std::atomic<bool> statsEnabledFlag;
} // namespace detail

/** True while a StatsPump is running (one relaxed load). */
inline bool
statsEnabled()
{
    return detail::statsEnabledFlag.load(std::memory_order_relaxed);
}

/**
 * Raise or lower the per-packet telemetry gate directly.  StatsPump
 * toggles it around start()/stop(); tests and overhead probes flip
 * it to time the two paths.
 */
inline void
setStatsEnabled(bool on)
{
    detail::statsEnabledFlag.store(on, std::memory_order_relaxed);
}

/** Nanoseconds on the telemetry clock (steady, process-wide). */
inline uint64_t
telemetryNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
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
    };
    Totals totals;

    uint32_t engineId = 0;

    WindowedRate packets;
    WindowedRate bytes;
    WindowedRate insts;
    WindowedRate faults;
    WindowedHistogram instsPerPacket;

    /** Dispatcher queue occupancy in batches (parallel runs). */
    std::atomic<uint64_t> queueDepth{0};

    FlowTopK topk;

    /**
     * Windowed per-packet accounting — called by PacketBench for
     * every completed or faulted packet while a pump runs, with the
     * timestamp it already took for sim-time accounting.
     */
    void
    record(uint64_t now_ns, uint64_t insts_n, uint64_t bytes_n,
           bool fault)
    {
        packets.add(1, now_ns);
        bytes.add(bytes_n, now_ns);
        insts.add(insts_n, now_ns);
        if (fault)
            faults.add(1, now_ns);
        instsPerPacket.observe(insts_n, now_ns);
    }

    /**
     * Add one processed packet to totals.  One writer owns an engine
     * id at a time (see Telemetry), so a relaxed load and store
     * replace a locked read-modify-write on the packet path.
     */
    void
    count(uint64_t insts_n, uint64_t bytes_n)
    {
        auto bump = [](std::atomic<uint64_t> &total, uint64_t n) {
            total.store(total.load(std::memory_order_relaxed) + n,
                        std::memory_order_relaxed);
        };
        bump(totals.packets, 1);
        bump(totals.bytes, bytes_n);
        bump(totals.insts, insts_n);
    }

    /** Zero every window, the totals and the flow table (test hook). */
    void reset();
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
 * Background stats streamer.  start() spawns the pump thread and
 * raises statsEnabled(); stop() (or destruction) writes one final
 * record and joins.  The pump publishes its own cost as
 * obs.stats.snapshot_ns / obs.stats.records in the default registry,
 * so the run report shows what observing the run cost.
 */
class StatsPump
{
  public:
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
     * Begin streaming NDJSON records to @p path every
     * @p interval_ms.  fatal() when the file cannot be created.
     */
    void start(const std::string &path, uint32_t interval_ms);

    /** Write a final record, stop the thread, close the stream. */
    void stop();

    /** Records written so far. */
    uint64_t
    records() const
    {
        return written.load(std::memory_order_relaxed);
    }

  private:
    void loop();
    void emitRecord();

    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
    bool running = false;

    std::string statsPath;
    std::string promPath;
    uint32_t intervalMs = 1000;
    uint64_t startNs = 0;
    uint64_t seq = 0;
    uint64_t lastWallNs = 0;

    /** Previous registry totals, for interval-delta process rates. */
    uint64_t prevPackets = 0;
    uint64_t prevFaults = 0;

    std::atomic<uint64_t> written{0};
    std::unique_ptr<std::ofstream> out;
};

} // namespace pb::obs

#endif // PB_OBS_STATS_HH
