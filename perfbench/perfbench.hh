/**
 * @file
 * Shared pieces of the end-to-end benchmark: metric output, host
 * clocks and memory readings, in-memory packet sources, and the
 * workload interface main.cc runs.
 *
 * The benchmark drives only public entry points of the program
 * (core::PacketBench::run, service::PacketBenchd::run) and measures
 * layers from outside: by timing its own calls into each layer and by
 * reading the counters and spans the program already publishes.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiments.hh"
#include "net/trace.hh"
#include "obs/tracing.hh"

namespace perfbench
{

using namespace pb;

/** One named, unit-carrying result. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Ordered metric list (printed in insertion order). */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        list.push_back({name, value, unit});
    }

    const std::vector<Metric> &all() const { return list; }

  private:
    std::vector<Metric> list;
};

/** @name Host measurements. @{ */
/** Steady-clock seconds (arbitrary epoch). */
double wallNow();
/** Process CPU seconds, user + system, all threads. */
double cpuNow();
/** Current resident set, MiB (/proc/self/statm). */
double rssMb();
/** Peak resident set, MiB (VmHWM in /proc/self/status). */
double peakRssMb();
/** @p q-quantile of @p values, interpolated (0 when empty). */
double quantile(std::vector<double> values, double q);
/** Median of @p values (0 when empty). */
double median(std::vector<double> values);
/** @} */

/** 64-bit FNV-1a over every packet's bytes (input fingerprint). */
uint64_t packetDigest(const std::vector<net::Packet> &packets,
                      uint64_t seed = 1469598103934665603ull);

/** First @p count packets of a synthetic trace, generated up front. */
std::vector<net::Packet> generate(net::Profile profile, uint32_t count,
                                  uint32_t seed);

/** Time spent in, and packets drawn from, MemorySource::next(). */
struct SourceClock
{
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> packets{0};
};

/** Per-packet rewrite a source applies to its copy. */
using PacketTransform = std::function<void(net::Packet &)>;

/**
 * TraceSource over packets already in memory: the program receives
 * only generated inputs, and generation cost stays outside timing.
 * Like a trace reader, next() hands out a fresh copy of each packet.
 * When @p clock is non-null every next() call is timed into it (the
 * traced run's net.source_ns_per_pkt).
 */
class MemorySource : public net::TraceSource
{
  public:
    MemorySource(const std::vector<net::Packet> &packets,
                 PacketTransform transform = {},
                 SourceClock *clock = nullptr)
        : packets(packets), transform(std::move(transform)),
          clock(clock)
    {
    }

    std::optional<net::Packet> next() override;
    std::string name() const override { return "memory"; }

  private:
    const std::vector<net::Packet> &packets;
    PacketTransform transform;
    SourceClock *clock;
    size_t pos = 0;
};

/**
 * Packets per workload; the probes (probes.cc) reuse them to time
 * layers in isolation.
 */
struct ProbeStream
{
    std::vector<net::Packet> packets;
    bool nlanr = false;   ///< NLANR-renumbered profile
    bool scramble = false; ///< the workload scrambles these packets
};

/** What the layer probes run for one workload. */
struct ProbeSet
{
    std::vector<an::AppKind> apps;
    std::vector<ProbeStream> streams;
};

/** Result of one timed round of a workload. */
struct Round
{
    double wallS = 0;       ///< wall seconds of the round
    double cpuS = 0;        ///< process CPU seconds of the round
    uint64_t packets = 0;   ///< packets completed in the round
    uint64_t offered = 0;   ///< packets offered in the round
    uint64_t failed = 0;    ///< faults + drops + never completed
};

/** Registry counters whose per-round deltas the ledger reads. */
enum LedgerCounter
{
    RunNs,     ///< sim.interp.run_ns: time inside Cpu::run
    HashNs,    ///< simd.hash_ns: dispatcher's batched flow hashing
    McPackets, ///< mc.packets: packets the dispatcher placed
    McBatches, ///< mc.batches: hand-offs to engine queues
    numLedgerCounters
};
constexpr const char *ledgerCounterNames[numLedgerCounters] = {
    "sim.interp.run_ns", "simd.hash_ns", "mc.packets", "mc.batches"};

/** Sum and count of Complete spans of one name. */
struct SpanSum
{
    uint64_t ns = 0;
    uint64_t count = 0;
};

/** One traced round: its result, reduced spans, counter deltas. */
struct TracedRound
{
    Round round;
    uint64_t wallNs = 0; ///< tracer-clock length of the round
    uint64_t droppedEvents = 0;
    SpanSum packetSpans;   ///< "packet": per-call processPacket
    SpanSum dispatchSpans; ///< "dispatch": dispatcher hand-offs
    uint64_t busyNs = 0;   ///< summed "worker.batch" spans
    /** Summed worker.batch spans plus the gaps between them. */
    uint64_t busyIdleNs = 0;
    /** Delta of each LedgerCounter over the round. */
    uint64_t counters[numLedgerCounters] = {};
};

/** A named workload; main.cc runs its phases. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build apps, tables, programs, and engines from scratch,
     * discarding any earlier set-up first.
     * @return wall seconds of the build alone
     */
    virtual double setup() = 0;

    /** One timed round (inputs prepared before its clock starts). */
    virtual Round round() = 0;

    /**
     * Compare the first round after setup() against the oracle
     * (untimed); @p bias is added to one expected instruction total
     * so tests can prove the gate rejects a wrong value.
     */
    virtual bool verify(int64_t bias) = 0;

    /** Fingerprint of the generated inputs. */
    virtual uint64_t inputDigest() const = 0;

    /** Trace events one round may emit on one thread (ring size). */
    virtual size_t traceEventsPerRound() const = 0;

    /** Time every source next() call into sourceClock from now on. */
    void timeSource(bool on) { sourceTiming = on; }

    /**
     * Workload-specific part of the per-layer ledger (core.*,
     * net.hash, service.ring_drops, sim.insts_per_pkt, and the
     * stage-sum check).
     */
    virtual void ledger(const std::vector<TracedRound> &traced,
                        Metrics &out) = 0;

    /** Inputs the layer probes run. */
    virtual ProbeSet probeSet() const = 0;

    /** Engine worker threads (0: engines run on the caller). */
    virtual uint32_t workers() const = 0;

    /** A fresh looping source factory over the workload's inputs. */
    virtual std::function<std::unique_ptr<net::TraceSource>()>
    ingestFactory() const = 0;

    /** Time in, and packets from, sources while timeSource(true). */
    SourceClock sourceClock;

    /** RSS (MiB) sampled at each corpus pass / round start. */
    std::vector<double> rssSamples;

  protected:
    SourceClock *clockIfTiming()
    {
        return sourceTiming ? &sourceClock : nullptr;
    }

    bool sourceTiming = false;
};

/** Build a workload by name (nullptr when unknown). */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint32_t seed);

/** @name Layer probes (probes.cc). @{ */
/** Run every layer probe for @p wl; appends per-layer metrics. */
void runProbes(const Workload &wl, uint32_t seed, Metrics &out);
/** net::hashPacketBatch cost per packet over @p set's streams. */
double hashProbeNs(const ProbeSet &set);
/** @} */

/** @name Trace reductions (ledger.cc). @{ */
/**
 * Reduce the events of one round that ran over tracer-clock window
 * [t0, t0 + traced.wallNs) with @p engines workers into @p traced.
 * Per engine, idle is the gaps between its worker.batch spans
 * (lead-in and drain included), so busy + idle equals the window
 * exactly when every span lies inside it and no two overlap.
 */
void reduceEvents(const std::vector<obs::TraceEvent> &events,
                  uint64_t t0, uint32_t engines, TracedRound &traced);

/** Registry counter value by name (0 when absent). */
uint64_t counterValue(const char *name);
/** Registry gauge value by name (0 when absent). */
double gaugeValue(const char *name);
/** @} */

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
