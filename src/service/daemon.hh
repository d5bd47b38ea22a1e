/**
 * @file
 * packetbenchd core: a persistent packet-processing service built
 * from the batch-bench pieces.
 *
 * PacketBenchd wires together, for one service run:
 *
 *   TraceReplayer --> IngestRing --> IngestSource --> MultiCoreBench
 *     (producer        (bounded       (TraceSource      (dispatcher +
 *      thread,          SPSC           adapter)           N engine
 *      paced)           queue)                            workers)
 *
 * Every hand-off, ring and engine queues alike, is one SpscQueue
 * (common/spscqueue.hh) with one producer and one consumer.
 *
 * A periodic console speed line (Mpps / Gbps / MIPS, aggregate and
 * per engine, then ring occupancy and replayer progress) comes from
 * an obs::StatsPump with only its console sink.  Like every live
 * rate, it is the change in the since-start totals each engine keeps
 * in the telemetry hub (obs/stats.hh) over the tick's interval, so
 * the line needs no per-packet telemetry gate: only a `--stats` pump
 * raises it.
 *
 * Shutdown: SIGINT/SIGTERM (installed by the binary via
 * common/shutdown.hh) stops the dispatcher, which drains every
 * packet it handed out through the engines; run() then closes the
 * ring, releasing a replayer parked on it, and returns normally — so
 * the caller's flush paths (stats, trace, prom, report) all execute
 * and the process exits 0.
 */

#ifndef PB_SERVICE_DAEMON_HH
#define PB_SERVICE_DAEMON_HH

#include <cstdint>

#include "core/multicore.hh"
#include "service/ingest.hh"
#include "service/replay.hh"

namespace pb::service
{

/** Everything a service run needs beyond the app factory. */
struct ServiceConfig
{
    /** Number of processing engines (worker threads in parallel
     *  mode). */
    uint32_t engines = 1;

    /** Per-engine framework config (parallel, dispatch policy,
     *  batch, queue depth, fault policy...). */
    core::BenchConfig bench;

    /** IngestRing capacity in packets. */
    size_t ringCapacity = 4096;

    /** Producer pacing/looping policy. */
    ReplayConfig replay;

    /** Console speed-line period; 0 prints no speed line. */
    uint32_t speedIntervalMs = 1000;
};

/** Outcome of one service run. */
struct ServiceResult
{
    /** Per-engine totals, exactly as a batch run would report. */
    core::MultiCoreResult mc;

    /** Packets the replayer offered to the ring. */
    uint64_t replayed = 0;

    /** Complete passes over the corpus. */
    uint64_t loops = 0;

    /** Packets the full ring refused (dropWhenFull overruns). */
    uint64_t ringDropped = 0;

    /** Host wall-clock of the whole run. */
    double wallSeconds = 0.0;

    /** True when the run ended because of SIGINT/SIGTERM. */
    bool shutdownBySignal = false;
};

/** The persistent service: replayer + ring + engines + speed line. */
class PacketBenchd
{
  public:
    /**
     * @param factory per-engine application factory (each engine
     *                owns independent state, as in MultiCoreBench)
     * @param cfg     service topology and pacing
     */
    PacketBenchd(core::MultiCoreBench::AppFactory factory,
                 ServiceConfig cfg);

    /**
     * Run the service until the producer finishes (corpus exhausted
     * without `loop`, maxPackets reached) or a shutdown is
     * requested.  Blocks the calling thread; the engines, producer,
     * and speed-line pump run on their own threads per cfg.
     *
     * @param source_factory creates one trace pass for the replayer
     *                       (called once per loop pass)
     */
    ServiceResult
    run(TraceReplayer::SourceFactory source_factory);

    /** The engine array (state inspection in tests). */
    core::MultiCoreBench &bench() { return mc; }

  private:
    ServiceConfig cfg;
    core::MultiCoreBench mc;
};

} // namespace pb::service

#endif // PB_SERVICE_DAEMON_HH
