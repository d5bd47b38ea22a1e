/**
 * @file
 * Live telemetry plane: each engine's packet counts, and the stats
 * pump that turns them into live rates.
 *
 * Everything the registry (obs/metrics.hh) exports is
 * cumulative-since-start and written once at process exit; this
 * module makes the run observable *while it happens*:
 *
 *  - EngineCounts is the one place a PacketBench counts its packets:
 *    verdicts, faults by kind, instructions, layer-3 bytes and time
 *    inside Cpu::run, gate or no gate.  Telemetry, the
 *    process-global hub, reads every bench's record under its engine
 *    id, keeps what destroyed benches counted, and backs the
 *    registry's pb.* and sim.interp.run_ns series, which are views of
 *    its sums.  Per engine id it also keeps an EngineTelemetry: while
 *    an NDJSON pump runs, PacketBench feeds its
 *    instructions-per-packet histogram and space-saving top-K flow
 *    table (obs/topk.hh), and the dispatcher samples queue depth per
 *    batch.
 *
 *  - StatsPump is a background thread that, every interval, reads
 *    every engine's counts once under the hub's lock, sums them into
 *    the process block, and hands the one sample to up to three
 *    sinks: an NDJSON record (schema packetbench.stats.v1, one JSON
 *    object per line) appended to the `--stats` file, a rewrite of
 *    the `--prom` Prometheus snapshot so scrapers see live values
 *    mid-run, and a console speed line (packetbenchd's
 *    "[packetbenchd] X Mpps ..." line).
 *
 * A live rate has one definition: the change in a since-start count
 * over the tick's interval_ns.  The pump takes every count as its
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
 * Counts (packets, insts, faults...) are since-start totals, and the
 * process counts are the engines' sums, so every record balances:
 * packets == sent + dropped + faults, and the engines sum to the
 * process.  Every rate is its total's delta over interval_ns.
 * wall_ns counts from pump start and is strictly monotone across
 * records; ci/check_stats.py validates a stream, rates and balance
 * included.
 *
 * Cost contract: with no NDJSON pump running, statsEnabled() is
 * false and the gated part of the per-packet hook — the histogram
 * and flow accounting — is one relaxed atomic load plus a branch
 * (same bar as tracing, enforced by the StatsOverhead test).  The
 * counts cost a relaxed load and store each on cache lines only the
 * bench writes, so the console line needs no gate.
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
 * One PacketBench's packet accounting, and the only place it counts
 * what its packets cost: verdicts, faults by kind, instructions,
 * layer-3 bytes and wall time inside Cpu::run.  Packets and faults
 * are derived from the verdicts and fault kinds, so every Reading
 * balances by construction.
 *
 * One thread writes a record, the one processing the bench's
 * packets, so a count is a relaxed load and store, never a locked
 * read-modify-write; readers load each count relaxed.  The record
 * sits on cache lines of its own.
 */
struct alignas(cacheLineBytes) EngineCounts
{
    /** A count with one writer. */
    class Count
    {
      public:
        void
        add(uint64_t n = 1)
        {
            v.store(v.load(std::memory_order_relaxed) + n,
                    std::memory_order_relaxed);
        }

        uint64_t value() const { return v.load(std::memory_order_relaxed); }

      private:
        std::atomic<uint64_t> v{0};
    };

    Count sent;        ///< the handler executed SYS SEND
    Count dropped;     ///< the handler executed SYS DROP
    Count malformed;   ///< faults: rejected before the handler ran
    Count simFaults;   ///< faults: simulator fault in the handler
    Count budget;      ///< faults: instruction budget exceeded
    Count quarantined; ///< faulted packets written to quarantine
    Count insts;       ///< instructions, faulted packets' included
    Count bytes;       ///< layer-3 bytes of every packet
    Count runNs;       ///< wall nanoseconds inside Cpu::run

    /** The counts at one instant, or a sum of such readings. */
    struct Reading
    {
        uint64_t sent = 0;
        uint64_t dropped = 0;
        uint64_t malformed = 0;
        uint64_t simFaults = 0;
        uint64_t budget = 0;
        uint64_t quarantined = 0;
        uint64_t insts = 0;
        uint64_t bytes = 0;
        uint64_t runNs = 0;

        uint64_t faults() const { return malformed + simFaults + budget; }
        uint64_t packets() const { return sent + dropped + faults(); }

        Reading &operator+=(const Reading &other);
    };

    Reading read() const;
};

/**
 * One engine id's live state beyond its counts: the gated
 * instructions-per-packet histogram and flow table, and the
 * dispatcher's queue depth.  Written by the engine's worker thread
 * (or the single bench thread) and the dispatcher, read concurrently
 * by the pump; every member is individually thread-safe, so no outer
 * lock exists to contend on the per-packet path.
 */
struct EngineTelemetry
{
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

  private:
    friend class Telemetry;

    /**
     * The records of live benches on this id, and the sum of the
     * final readings of those destroyed; the hub's lock guards both.
     */
    std::vector<const EngineCounts *> attached;
    EngineCounts::Reading retired;
};

/**
 * Process-global hub of per-engine telemetry, and the sums behind
 * the registry's pb.* and sim.interp.run_ns series.  engine(id) is
 * find-or-create and the returned reference is stable for the
 * process lifetime, so engines resolve it once at construction.
 *
 * Each PacketBench attaches its EngineCounts under its engine id when
 * built and retires it when destroyed, which folds the record's
 * counts into the id's retired total: an engine's since-start counts
 * never decrease, however many benches come and go on its id.  Built
 * on first use, the hub registers the pb.* series in the default
 * registry as views of total(), and it is never destroyed, so it
 * outlives every registry read at exit.  Locks are taken registry
 * first, then hub: the hub never calls the registry holding its own.
 */
class Telemetry
{
  public:
    static Telemetry &instance();

    /** The record for engine @p id (find-or-create, stable ref). */
    EngineTelemetry &engine(uint32_t id);

    /** Count @p counts under engine @p id until retire(). */
    EngineTelemetry &attach(uint32_t id, const EngineCounts &counts);

    /** Stop reading @p counts; add its final reading to @p id's. */
    void retire(uint32_t id, const EngineCounts &counts);

    /** One engine's since-start counts at one reading. */
    struct EngineReading
    {
        const EngineTelemetry *telem = nullptr;
        EngineCounts::Reading counts;
    };

    /** Every engine, each read once under the hub's lock. */
    std::vector<EngineReading> read() const;

    /** The sum of read(): the process's since-start counts. */
    EngineCounts::Reading total() const;

  private:
    Telemetry();

    /** engine() with the lock held. */
    EngineTelemetry &find(uint32_t id);

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
     * One engine as a tick saw it: its since-start counts, and their
     * rates over the tick's interval.
     */
    struct EngineSample
    {
        const EngineTelemetry *telem = nullptr;
        EngineCounts::Reading counts;
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
        EngineCounts::Reading counts; ///< the engines' sum
        uint64_t traceDropped = 0;
        double pps = 0.0;
        double mips = 0.0;
        double faultPps = 0.0;
        std::map<uint32_t, EngineSample> engines; ///< by engine id
    };

    /** Read every engine once; the process is their sum. */
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
