/**
 * @file
 * Multi-engine simulation: one application replicated across N
 * processing engines with flow-pinned dispatch.
 *
 * Network processors exploit packet-level parallelism by running the
 * same application on many engines (paper Section I and its
 * reference [31], "Pipelining vs. multiprocessors").  Stateful
 * applications require packets of one flow to visit the same engine
 * (flow pinning), so the dispatcher hashes the 5-tuple; packets with
 * no parseable 5-tuple fall back to round-robin.  This class
 * instantiates N independent simulated machines — each with its own
 * memory and application state — and reports the resulting load
 * balance, which bounds the achievable speedup.  The per-engine
 * totals are the engines' own PacketBench::counts(), summed when
 * result() reads them; the bench keeps no count of its own.
 *
 * Execution modes (BenchConfig::parallel):
 *  - serial (default): every engine runs on the calling thread, the
 *    reference path;
 *  - parallel: one worker thread per engine, each owning its
 *    PacketBench, fed by a dispatcher thread through one bounded
 *    SpscQueue of packets per engine (queueDepth x dispatchBatch
 *    packets).  The dispatcher hands over dispatchBatch packets at a
 *    time and a worker pops up to as many; both spin briefly on the
 *    non-waiting calls before parking in the queue.  Dispatch
 *    decisions are made on the dispatcher thread in trace order with
 *    the same hash, so each engine sees the identical packet
 *    subsequence in the identical order as the serial path —
 *    per-engine outcomes are bit-identical; only wall-clock time
 *    changes.
 */

#ifndef PB_CORE_MULTICORE_HH
#define PB_CORE_MULTICORE_HH

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/packetbench.hh"

namespace pb::core
{

/**
 * One engine's totals since its bench was built, read from the
 * engine's PacketBench::counts().
 */
struct EngineLoad
{
    uint64_t packets = 0;
    uint64_t instructions = 0;
    uint64_t bytes = 0;  ///< layer-3 bytes handed to the engine
    uint64_t faults = 0; ///< faulted packets (Drop/Quarantine policy)
};

/** Result of a multi-engine run. */
struct MultiCoreResult
{
    std::vector<EngineLoad> engines;
    uint64_t totalPackets = 0;
    uint64_t totalInstructions = 0;
    uint64_t totalFaults = 0;

    /** Host wall-clock time of the run() that produced this. */
    uint64_t wallNs = 0;

    /** Max engine instructions / mean engine instructions (>= 1). */
    double imbalance() const;

    /**
     * Speedup over one engine under run-to-completion: total work
     * divided by the most loaded engine's work.
     */
    double speedup() const;
};

/** N replicated engines with flow-pinned packet dispatch. */
class MultiCoreBench
{
  public:
    /** Factory for per-engine application instances. */
    using AppFactory =
        std::function<std::unique_ptr<Application>()>;

    /**
     * @param factory     creates one application per engine (each
     *                    engine owns independent state)
     * @param num_engines number of processing engines
     * @param cfg         per-engine framework configuration; its
     *                    parallel/dispatchBatch/queueDepth fields
     *                    select the run() execution mode
     */
    MultiCoreBench(const AppFactory &factory, uint32_t num_engines,
                   BenchConfig cfg = {});

    /**
     * Dispatch one packet on the calling thread: 5-tuple-hashed to
     * an engine (round-robin for packets without a parseable
     * 5-tuple) and processed there.
     * @return the engine index used
     */
    uint32_t processPacket(net::Packet &packet);

    /**
     * Run up to @p max_packets from @p source — serially, or with
     * one worker thread per engine when cfg.parallel is set.  The
     * first exception thrown by any worker is rethrown here after
     * all threads have shut down cleanly.
     */
    MultiCoreResult run(net::TraceSource &source,
                        uint64_t max_packets);

    /** Result so far: each engine's counts since it was built. */
    MultiCoreResult result() const;

    uint32_t numEngines() const
    {
        return static_cast<uint32_t>(engines.size());
    }

    /** Access one engine's machine (for state inspection). */
    PacketBench &engine(uint32_t index) { return *engines.at(index); }

  private:
    /**
     * Engine choice for one packet, per cfg.dispatchPolicy:
     *
     *  - Pinned: the 5-tuple hash (independent of the applications'
     *    own bucket hashes);
     *  - Stealing: the flow's recorded home engine, or — for a flow
     *    seen for the first time — the engine with the fewest
     *    packets dispatched so far ("mc.dispatch.stolen" counts the
     *    flows this steers away from their hash home).
     *
     * Packets with no parseable 5-tuple (non-IPv4, truncated) go
     * round-robin under Pinned and least-loaded under Stealing, so
     * they cannot pile up on engine 0 and skew the reported
     * imbalance.  Either way the decision is a deterministic
     * function of the packet sequence so far, made on the
     * dispatching thread in trace order — which is what keeps the
     * serial path the bit-identical per-engine oracle of the
     * parallel path for both policies.
     */
    uint32_t dispatchIndex(const net::Packet &packet);

    /**
     * The policy core of dispatchIndex(), taking the parse outcome
     * and (when @p has_tuple) the packet's flow hash.  The batched
     * parallel dispatcher computes hashes for 16 headers per call
     * (net::hashPacketBatch) and feeds them through here
     * one at a time in trace order, so placement state advances
     * exactly as in the serial path.
     */
    uint32_t placeByHash(bool has_tuple, uint32_t hash);

    /** Least-loaded engine by dispatched packet count (ties low). */
    uint32_t leastLoadedEngine() const;

    MultiCoreResult runSerial(net::TraceSource &source,
                              uint64_t max_packets);
    MultiCoreResult runParallel(net::TraceSource &source,
                                uint64_t max_packets);

    /** Publish mc.* metrics for a finished run(). */
    void publishRunMetrics(const MultiCoreResult &res);

    BenchConfig cfg;
    std::vector<std::unique_ptr<Application>> apps;
    std::vector<std::unique_ptr<PacketBench>> engines;
    uint32_t rrNext = 0; ///< round-robin cursor for no-5-tuple packets

    /**
     * @name Stealing-policy dispatcher state.
     * Touched only by the dispatching thread (the caller of
     * processPacket()/run()), never by workers, so it needs no
     * locking.  flowHome grows one entry per distinct flow hash for
     * the lifetime of the bench — bounded by the corpus for replay,
     * a deliberate memory/adaptivity trade documented in
     * docs/SERVICE.md.
     * @{
     */
    std::unordered_map<uint64_t, uint32_t> flowHome;
    std::vector<uint64_t> dispatchedPackets;
    /** @} */
};

} // namespace pb::core

#endif // PB_CORE_MULTICORE_HH
