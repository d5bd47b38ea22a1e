/**
 * @file
 * The PacketBench framework: runs applications over packet traces on
 * the NPE32 simulator and collects per-packet workload statistics.
 *
 * Framework responsibilities (paper Section III-A):
 *  - read packets from a trace source and place them in simulated
 *    packet memory (unaccounted — specialized hardware does this on
 *    a real NP),
 *  - optionally preprocess (IP address scrambling, Section IV-B),
 *  - invoke the application's packet handler on the simulated core
 *    with *selective accounting* enabled,
 *  - collect the SEND/DROP verdict and per-packet statistics,
 *  - optionally write accepted packets to an output trace.
 *
 * Each instance counts every packet once, in its own
 * obs::EngineCounts record (counts()); the registry's pb.* series,
 * the stats pump and MultiCoreResult are all reads of those records.
 */

#ifndef PB_CORE_PACKETBENCH_HH
#define PB_CORE_PACKETBENCH_HH

#include <memory>
#include <vector>

#include "core/app.hh"
#include "core/fault.hh"
#include "net/ipv4.hh"
#include "net/scramble.hh"
#include "net/trace.hh"
#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "obs/stats.hh"
#include "obs/tracing.hh"
#include "sim/accounting.hh"
#include "sim/cpu.hh"
#include "sim/timing.hh"
#include "sim/uarch.hh"

namespace pb::core
{

/**
 * Default heartbeat interval: PB_HEARTBEAT_MS from the environment
 * (parsed once), 5000 ms when unset or malformed; 0 disables.
 */
uint32_t defaultHeartbeatMs();

/**
 * How MultiCoreBench assigns flows to engines (core/multicore.hh).
 *
 * Both policies keep flow order: every packet of one 5-tuple visits
 * the same engine, in trace order.  Both are deterministic functions
 * of the packet sequence, decided by the dispatcher in trace order,
 * so for either policy the serial run is the bit-identical per-engine
 * oracle of the parallel run.
 */
enum class DispatchPolicy : uint8_t
{
    /** Static 5-tuple-hash pinning (the historical behavior). */
    Pinned,

    /**
     * Flow stealing for skewed traffic: a *new* flow is assigned to
     * the engine with the fewest packets dispatched so far (ties to
     * the lowest index) instead of its hash home, so mice flows are
     * steered away from the engine an elephant flow is saturating.
     * Established flows stay put — flow order per 5-tuple holds.
     */
    Stealing,
};

/** Framework configuration. */
struct BenchConfig
{
    /** Per-packet detail level. */
    sim::RecorderConfig recorder;

    /** Per-packet instruction budget (runaway guard). */
    uint64_t instBudget = 10'000'000;

    /**
     * Which interpreter loop runs the handler (sim/cpu.hh).  Blocked
     * is the production hot path; Reference is the per-instruction
     * loop, bit-identical but slower — for differential testing and
     * A/B measurement (bench_micro_interp).
     */
    sim::DispatchMode dispatch = sim::DispatchMode::Blocked;

    /**
     * Scramble IP addresses before processing (the paper's
     * preprocessing for NLANR traces).
     */
    bool scramble = false;
    uint32_t scrambleKey = 0x5ca1ab1e;

    /** Attach the microarchitectural models (caches, predictor). */
    bool microArch = false;

    /** Attach the pipeline timing model (per-packet cycle counts). */
    bool timing = false;
    sim::TimingParams timingParams;

    /** Attach the NPE32 hot-spot profiler (obs/profiler.hh). */
    bool profile = false;

    /**
     * What to do when a packet cannot be processed — malformed input
     * (no L3 bytes, oversized) or a simulator fault in the handler
     * (bad access, bad opcode, blown instruction budget).  Abort
     * preserves the historical throwing behavior; Drop and Quarantine
     * record the fault in the PacketOutcome and the instance's
     * counts (the pb.faults.* series) and leave the engine clean for
     * the next packet.
     */
    FaultPolicy faultPolicy = FaultPolicy::Abort;

    /**
     * Destination for faulting packets under FaultPolicy::Quarantine
     * (ignored otherwise).  Use a QuarantineSink when several engines
     * share one sink.  May be null: Quarantine then degrades to Drop.
     */
    net::TraceSink *quarantine = nullptr;

    /**
     * Emit a PB_LOG(Info) heartbeat at most every this many
     * milliseconds of wall time in run(); 0 disables.  Defaults to
     * the PB_HEARTBEAT_MS environment variable (5000 when unset).
     * The line carries the instance's packets, the instantaneous
     * pkt/s over the interval since the previous beat ("now") next to
     * the cumulative run average ("avg"), and its instructions,
     * sim-MIPS and faults, all read from counts().  Silent unless
     * PB_LOG_LEVEL allows Info.
     */
    uint32_t heartbeatMs = defaultHeartbeatMs();

    /**
     * Engine index this instance simulates (annotates per-packet
     * trace spans; MultiCoreBench numbers its engines 0..N-1, a
     * lone PacketBench is engine 0).
     */
    uint32_t engineId = 0;

    /**
     * @name Multi-engine execution (core/multicore.hh).
     * Only MultiCoreBench reads these; a lone PacketBench ignores
     * them.
     * @{
     */

    /**
     * Run MultiCoreBench::run() with one worker thread per engine,
     * fed by one bounded SpscQueue of packets per engine from a
     * dispatcher thread.  Off by default: the serial path is the
     * reference the parallel path must match bit-for-bit (same
     * flow-pinned dispatch, so the per-engine packet sequences are
     * identical either way).
     */
    bool parallel = false;

    /**
     * Packets per dispatcher-to-worker hand-off batch in the
     * parallel run loop; larger batches amortize queue
     * synchronization at the cost of latency to first dispatch.
     */
    uint32_t dispatchBatch = 64;

    /**
     * Per-engine queue bound in hand-off batches: the queue holds
     * queueDepth x dispatchBatch packets (back-pressure bound).
     */
    uint32_t queueDepth = 8;

    /**
     * Flow-to-engine assignment policy.  Pinned is the static hash
     * the paper's run-to-completion model implies; Stealing adapts
     * placement of new flows to the observed load for skewed flow
     * distributions (service mode's heavy-tail traffic).
     */
    DispatchPolicy dispatchPolicy = DispatchPolicy::Pinned;
    /** @} */
};

/** Outcome of processing one packet. */
struct PacketOutcome
{
    sim::PacketStats stats;
    isa::SysCode verdict = isa::SysCode::Drop;
    uint32_t outInterface = 0; ///< a1 at SYS SEND
    uint64_t cycles = 0;       ///< modeled cycles (0 unless timing)

    /** Why processing failed (None when it succeeded). */
    FaultKind fault = FaultKind::None;

    /** Diagnostic for a faulted packet (empty when none). */
    std::string faultMessage;

    /** True when this packet faulted instead of completing. */
    bool faulted() const { return fault != FaultKind::None; }
};

/** One application instance bound to a simulated core. */
class PacketBench
{
  public:
    /**
     * Set up @p app on a fresh simulated machine.
     * The application object must outlive the framework.
     */
    explicit PacketBench(Application &app, BenchConfig cfg = {});

    /** Retires counts() into its engine's since-start total. */
    ~PacketBench();

    // The telemetry hub holds the address of counts().
    PacketBench(const PacketBench &) = delete;
    PacketBench &operator=(const PacketBench &) = delete;

    /**
     * Process one packet and return its statistics and verdict.
     * Accepted packets (SEND) have their possibly-modified bytes
     * copied back into @p packet, so callers can chain into a
     * TraceSink (the paper's write_packet_to_file()).
     */
    PacketOutcome processPacket(net::Packet &packet);

    /**
     * Process up to @p max_packets from @p source.
     * @param sink if non-null, packets the application sent are
     *             appended to this trace
     */
    std::vector<PacketOutcome> run(net::TraceSource &source,
                                   uint32_t max_packets,
                                   net::TraceSink *sink = nullptr);

    /**
     * Publish this engine's sim.interp.{mips,blocks,block_len}
     * gauges.  processPacket() leaves them alone, so engines never
     * store to the shared gauges per packet: run() publishes once
     * at its end, MultiCoreBench once per hand-off batch and at the
     * end of its run(), and a caller that loops over processPacket()
     * itself calls this when it wants the gauges current.
     */
    void publishInterpMetrics();

    /** @name Component access for analyses and tests. @{ */
    const sim::BlockMap &blocks() const { return *blockMap; }
    const sim::PacketRecorder &recorder() const { return *rec; }
    const sim::MicroArchModel *microArch() const { return uarch.get(); }
    const sim::PipelineTimer *timing() const { return timer.get(); }
    const obs::HotSpotProfiler *profiler() const { return prof.get(); }
    sim::Memory &memory() { return mem; }
    sim::Cpu &core() { return cpu; }
    const sim::Cpu &core() const { return cpu; }
    const isa::Program &program() const { return cpu.program(); }
    uint64_t packetsProcessed() const { return tally.read().packets(); }

    /**
     * Everything this instance's packets cost: the one count behind
     * the registry's pb.* series, the stats pump and MultiCoreResult.
     */
    const obs::EngineCounts &counts() const { return tally; }
    /** @} */

  private:
    Application &app;
    BenchConfig cfg;
    sim::Memory mem;
    sim::Cpu cpu;
    std::unique_ptr<sim::BlockMap> blockMap;
    std::unique_ptr<sim::PacketRecorder> rec;
    std::unique_ptr<sim::MicroArchModel> uarch;
    std::unique_ptr<sim::PipelineTimer> timer;
    std::unique_ptr<obs::HotSpotProfiler> prof;
    sim::FanoutObserver fanout;
    net::AddressScrambler scrambler;
    uint32_t entry = 0;

    /**
     * This instance's packet accounting, written only by the thread
     * processing its packets and attached to the telemetry hub under
     * cfg.engineId from construction to destruction.
     */
    obs::EngineCounts tally;

    /**
     * Sampled NPE32 event stream (obs/tracing.hh): attached to the
     * fanout for exactly the packets selected by
     * Tracer::npeSamplePeriod() while tracing is enabled.
     */
    obs::NpeTraceSampler npeSampler;

    /** App name interned for trace-span annotation (stable ptr). */
    const char *tracedAppName = nullptr;

    /**
     * Layer-3 extent of the previous packet in simulated packet
     * memory; the next packet clears exactly the stale tail beyond
     * its own length so applications can never observe another
     * packet's bytes.
     */
    uint32_t prevPacketLen = 0;

    /**
     * Record one faulted packet (policy is Drop or Quarantine):
     * builds the Faulted outcome, counts the fault by kind, and — when
     * quarantining — writes @p capture (the packet as read from the
     * trace, pre-scramble) to cfg.quarantine.  Partial work the
     * handler did before faulting arrives via @p stats / @p cycles /
     * @p sim_ns so instruction and time accounting stay truthful.
     * @p flow is the packet's pre-scramble 5-tuple when
     * @p flow_valid (parsed only while a stats pump runs), so the
     * live flow table attributes faults to the dispatcher's flow.
     */
    PacketOutcome recordFault(const net::Packet &capture,
                              FaultKind kind, std::string message,
                              sim::PacketStats stats, uint64_t cycles,
                              uint64_t sim_ns, bool flow_valid,
                              const net::FiveTuple &flow);

    /**
     * Live telemetry (obs/stats.hh) for this engine id.  The
     * instructions-per-packet histogram and the per-flow top-K table
     * are fed only while a stats pump runs (obs::statsEnabled()); the
     * disabled path is one relaxed load and a branch.
     */
    obs::EngineTelemetry *telem = nullptr;

    /** @name Published telemetry (obs/metrics.hh). @{ */
    void publishUarchMetrics();

    obs::Gauge *interpMipsGauge;
    obs::Gauge *interpBlocksGauge;
    obs::Gauge *interpBlockLenGauge;
    obs::Histogram *instHist;
    obs::Histogram *uniqueHist;
    obs::Histogram *cycleHist = nullptr;

    /**
     * Cached uarch metric references, resolved at construction like
     * the gauges above (non-null only when cfg.microArch).
     * Per-instance members, not function-local statics: a static
     * would be shared across instances and would dangle if a test
     * ever swapped the default registry.
     */
    obs::Counter *uarchIcacheHitsCtr = nullptr;
    obs::Counter *uarchIcacheMissesCtr = nullptr;
    obs::Counter *uarchDcacheHitsCtr = nullptr;
    obs::Counter *uarchDcacheMissesCtr = nullptr;
    obs::Counter *uarchBranchLookupsCtr = nullptr;
    obs::Counter *uarchBranchMispredictsCtr = nullptr;
    obs::Gauge *uarchIcacheRateGauge = nullptr;
    obs::Gauge *uarchDcacheRateGauge = nullptr;
    obs::Gauge *uarchBranchRateGauge = nullptr;

    /** Last published uarch totals, for delta publishing. */
    struct UarchSnapshot
    {
        uint64_t icacheAccesses = 0, icacheMisses = 0;
        uint64_t dcacheAccesses = 0, dcacheMisses = 0;
        uint64_t branchLookups = 0, branchMispredicts = 0;
    } prevUarch;
    /** @} */
};

} // namespace pb::core

#endif // PB_CORE_PACKETBENCH_HH
