/**
 * @file
 * Low-overhead event tracing with Chrome trace-event JSON export.
 *
 * Where the metrics registry (obs/metrics.hh) aggregates, the tracer
 * records *when*: scoped spans, instant events, and counter samples
 * flow into per-thread single-writer ring buffers and export as a
 * Chrome trace-event JSON file that loads directly in Perfetto or
 * `chrome://tracing`.  The instrumented pipeline shows trace read and
 * decode (src/net), dispatcher batching and queue occupancy
 * (core/multicore), one span per processed packet on each engine
 * (core/packetbench), and — opt-in, sampled — the NPE32 instruction
 * and memory event stream of individual packets (the paper's Fig. 9
 * intra-packet access sequences as a zoomable timeline).
 *
 * Cost model:
 *  - tracing disabled (default): every instrumentation point reduces
 *    to one relaxed atomic load and a predictable branch — no
 *    allocation, no locks, no stores;
 *  - tracing enabled: an event is a timestamp read plus a few word
 *    stores into a thread-local ring slot and one release store of
 *    the ring head.  No locks on the emission path; registration of
 *    a new thread's buffer takes the registry lock once per thread.
 *
 * Ring overflow keeps the *newest* events (old slots are
 * overwritten) and the number of overwritten events is published as
 * the "trace.dropped" counter when the tracer stops.
 *
 * Event strings (names, categories, argument keys) must be string
 * literals or pointers interned via Tracer::intern(); the ring
 * stores only the pointer.
 *
 * Threading contract: emission is safe from any number of threads
 * concurrently (buffers are per-thread).  collect(), writeJson(),
 * and reset() require emission to be quiescent — in practice they
 * run after worker threads have been joined, which is how
 * MultiCoreBench::run() and benchMain() sequence them.
 */

#ifndef PB_OBS_TRACING_HH
#define PB_OBS_TRACING_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hh" // PB_OBS_CAT; trace.dropped lives there
#include "sim/accounting.hh"
#include "sim/cpu.hh"

namespace pb::obs
{

namespace detail
{
/** Global emission gate; read on every instrumentation point. */
extern std::atomic<bool> traceEnabledFlag;
} // namespace detail

/** True while the tracer is recording (one relaxed load). */
inline bool
traceEnabled()
{
    return detail::traceEnabledFlag.load(std::memory_order_relaxed);
}

/**
 * One key/value annotation on an event.  Trivially constructible so
 * ring slots and span scopes carry no initialization cost.
 */
struct TraceArg
{
    enum class Kind : uint8_t
    {
        None = 0,
        U64,
        Str,
    };

    const char *key;
    union
    {
        uint64_t u64;
        const char *str;
    };
    Kind kind;
};

/** Chrome trace-event phases the tracer emits. */
enum class TracePhase : uint8_t
{
    Complete, ///< "X": a span with ts and dur
    Instant,  ///< "i": a point in time
    Counter,  ///< "C": a sampled numeric series
};

/** One fixed-size trace event (a ring-buffer slot). */
struct TraceEvent
{
    static constexpr size_t maxArgs = 6;

    uint64_t ts;  ///< ns since the tracer epoch
    uint64_t dur; ///< ns; Complete events only
    const char *name;
    const char *cat;
    TraceArg args[maxArgs];
    uint32_t tid;
    TracePhase phase;
    uint8_t numArgs;
};

/**
 * Per-thread single-writer ring of trace events.  Only the owning
 * thread writes; the head counter is released so a quiescent reader
 * (Tracer::collect) sees fully written slots.  The slots are left
 * uninitialized, since readers see only written ones: a ring sized
 * for a whole run costs no page until its thread fills it, so
 * building one inside a timed region does not zero-fill megabytes.
 */
class TraceRing
{
  public:
    TraceRing(uint32_t tid, size_t capacity);

    /** Append one event (owning thread only). */
    void emit(const TraceEvent &event);

    uint32_t tid() const { return tid_; }
    size_t capacity() const { return cap; }

    /** First slot of the ring's storage. */
    const TraceEvent *slots() const { return ring.get(); }

    /** Events overwritten so far (newest-kept overflow). */
    uint64_t
    dropped() const
    {
        uint64_t n = head.load(std::memory_order_acquire);
        return n > cap ? n - cap : 0;
    }

  private:
    friend class Tracer;
    const uint32_t tid_;
    const size_t cap;
    std::unique_ptr<TraceEvent[]> ring;
    std::atomic<uint64_t> head{0};
};

/**
 * The process-global tracer: owns every thread's ring, the interned
 * strings, and the export path.
 */
class Tracer
{
  public:
    static Tracer &instance();

    /** Default ring capacity, in events per thread. */
    static constexpr size_t defaultCapacity = 1 << 16;

    /**
     * Start recording: re-arms the epoch and enables emission.
     * Previously recorded events are kept (start/stop pairs nest a
     * run); call reset() first for a clean slate.
     */
    void start();

    /**
     * Stop recording: disables emission and folds every ring's
     * overwrite count into the "trace.dropped" counter of the
     * default metrics registry (delta since the last stop).
     */
    void stop();

    /**
     * Per-thread ring capacity for rings created after this call
     * (existing rings keep theirs); clamped to at least 16.  Also
     * settable via the PB_TRACE_CAP environment variable.
     */
    void setCapacity(size_t events_per_thread);

    /**
     * NPE32 sampling period: every Nth packet of each engine records
     * its full instruction/memory event stream (0 = off).  Also
     * settable via the PB_TRACE_SAMPLE environment variable.
     */
    void setNpeSamplePeriod(uint64_t period);
    uint64_t
    npeSamplePeriod() const
    {
        return npePeriod.load(std::memory_order_relaxed);
    }

    /** Apply PB_TRACE_CAP / PB_TRACE_SAMPLE from the environment. */
    void configureFromEnv();

    /** The calling thread's ring (created on first use). */
    TraceRing &threadRing();

    /** Label the calling thread's timeline row ("engine 3"). */
    void setThreadName(const std::string &name);

    /**
     * Intern @p s and return a pointer that stays valid for the
     * process lifetime (interned strings survive reset()).
     */
    const char *intern(const std::string &s);

    /** Nanoseconds since the tracer epoch. */
    uint64_t nowNs() const;

    /**
     * Merged copy of every ring's events, sorted by timestamp.
     * Requires quiescent emission.
     */
    std::vector<TraceEvent> collect() const;

    /** Sum of every ring's overwritten-event counts. */
    uint64_t droppedEvents() const;

    /**
     * Write the recorded events as Chrome trace-event JSON
     * ({"traceEvents": [...]}, timestamps in microseconds).
     * Requires quiescent emission.
     */
    void writeJson(std::ostream &out) const;

    /** writeJson() to @p path; fatal() when the file can't open. */
    void writeJsonFile(const std::string &path) const;

    /**
     * Discard all rings, thread registrations, and thread names
     * (test hook).  Interned strings are kept so cached pointers
     * never dangle.  Requires quiescent emission.
     */
    void reset();

  private:
    Tracer();

    mutable std::mutex mu;
    std::vector<std::unique_ptr<TraceRing>> rings;
    std::map<uint32_t, std::string> threadNames;
    std::set<std::string> interned;
    std::atomic<uint64_t> generation{1};
    std::atomic<uint64_t> npePeriod{0};
    size_t ringCapacity = defaultCapacity;
    uint64_t epochNs = 0;
    uint64_t droppedPublished = 0;
};

/**
 * RAII span: records one Complete event covering its scope.  When
 * tracing is disabled construction is a single relaxed-atomic branch
 * and the destructor a predictable branch; no fields beyond the
 * live flag are touched.
 */
class TraceSpan
{
  public:
    TraceSpan(const char *category, const char *name)
        : live(false)
    {
        if (traceEnabled())
            begin(category, name);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan()
    {
        if (live)
            end();
    }

    /** True when this span is recording (annotations will stick). */
    bool active() const { return live; }

    /** @name Annotations (no-ops when inactive). @{ */
    void
    arg(const char *key, uint64_t value)
    {
        if (live && numArgs < TraceEvent::maxArgs) {
            args[numArgs].key = key;
            args[numArgs].u64 = value;
            args[numArgs].kind = TraceArg::Kind::U64;
            numArgs++;
        }
    }

    void
    arg(const char *key, const char *value)
    {
        if (live && numArgs < TraceEvent::maxArgs) {
            args[numArgs].key = key;
            args[numArgs].str = value;
            args[numArgs].kind = TraceArg::Kind::Str;
            numArgs++;
        }
    }
    /** @} */

  private:
    void begin(const char *category, const char *name);
    void end();

    bool live;
    uint8_t numArgs;
    const char *cat;
    const char *name;
    uint64_t startNs;
    TraceArg args[TraceEvent::maxArgs];
};

/** Emit one instant event (call only when traceEnabled()). */
void traceInstant(const char *category, const char *name);

/** Instant event with one numeric argument. */
void traceInstant(const char *category, const char *name,
                  const char *key, uint64_t value);

/** Instant event with one string argument. */
void traceInstant(const char *category, const char *name,
                  const char *key, const char *value);

/** Emit one counter sample (call only when traceEnabled()). */
void traceCounter(const char *category, const char *name,
                  uint64_t value);

/**
 * ExecObserver that streams a sampled packet's NPE32 execution into
 * the tracer: a "npe.pc" counter series (the instruction timeline),
 * per-region "npe.mem.*" counter series of accessed addresses (the
 * paper's Fig. 9 access sequences), and "npe.branch" instants.  Each
 * run's events are emitted when the run is delivered, in execution
 * order: every instruction's pc, then its access.
 * PacketBench attaches it only for sampled packets
 * (Tracer::npeSamplePeriod), so the interpreter's hot loop pays
 * nothing for unsampled packets.
 */
class NpeTraceSampler : public sim::ExecObserver
{
  public:
    void onRun(const sim::RunEvent &run) override;
    void onMemAccessAt(const sim::MemAccessEvent &event,
                       uint32_t offsetInRun) override;

  private:
    /** Accesses of the run the next onRun() delivers, in order. */
    std::vector<std::pair<uint32_t, sim::MemAccessEvent>> pending;
};

} // namespace pb::obs

/**
 * Span over the rest of the enclosing scope.  Category and name must
 * be string literals (or interned pointers).
 */
#define PB_TRACE_SPAN(category, name)                                  \
    pb::obs::TraceSpan PB_OBS_CAT(pb_trace_span_,                      \
                                  __LINE__)(category, name)

/**
 * Named span: PB_TRACE_SPAN_NAMED(span, "core", "pb.packet") then
 * span.arg("engine", 3) to annotate.
 */
#define PB_TRACE_SPAN_NAMED(var, category, name)                       \
    pb::obs::TraceSpan var(category, name)

/** Instant event; extra args forward to traceInstant overloads. */
#define PB_TRACE_INSTANT(category, name, ...)                          \
    do {                                                               \
        if (pb::obs::traceEnabled())                                   \
            pb::obs::traceInstant(category, name, ##__VA_ARGS__);      \
    } while (0)

/** Counter sample. */
#define PB_TRACE_COUNTER(category, name, value)                        \
    do {                                                               \
        if (pb::obs::traceEnabled())                                   \
            pb::obs::traceCounter(category, name,                      \
                                  static_cast<uint64_t>(value));       \
    } while (0)

#endif // PB_OBS_TRACING_HH
