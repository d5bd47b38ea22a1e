/**
 * @file
 * Run-wide metrics registry.
 *
 * The paper's contribution is measurement, and this module gives the
 * reproduction the same discipline about *itself*: every layer
 * (framework, trace I/O, microarch models, analyses) publishes named
 * counters, gauges, and log-scale histograms into a process-global
 * registry.  A snapshot of the registry is deterministic (sorted by
 * name) and serializes into the structured run report
 * (obs/report.hh), so every bench binary emits comparable artifacts.
 *
 * Conventions:
 *  - names are dotted paths ("pb.packets", "uarch.icache.misses"),
 *  - wall-clock phase timers are counters in nanoseconds with a
 *    "_ns" suffix ("phase.trace_read_ns"),
 *  - a metric's kind is fixed at first registration; re-registering
 *    the same name with a different kind is a panic.
 *
 * All metric updates are thread-safe and cheap; registration takes a
 * lock, so hot paths should resolve a metric once and keep the
 * reference (see PB_COUNTER / PB_SCOPED_TIMER for the cached-static
 * idiom).  Counters and histograms are striped: each keeps
 * numStripes cache-line-aligned copies of its state, a thread
 * writes only the stripe it picked once (stripeIndex()), and reads
 * sum every stripe.  Engine workers that observe the same histogram
 * on every packet therefore never write the same cache line, the
 * per-core-counter idiom of packet-processing daemons.
 *
 * A counter can instead be a view of a count kept elsewhere
 * (Registry::counterViews), computed when read.  The packet counts
 * (pb.packets, pb.insts, pb.sent, pb.dropped, pb.faults.*) and
 * sim.interp.run_ns are one group of views of the engines' records
 * (obs/stats.hh), read once per snapshot, so nothing adds to them
 * per packet and every snapshot balances.
 *
 * Every series here is a since-start total or a last-written value.
 * Live rates are derived from them, not stored: the stats pump
 * (obs/stats.hh) differences totals between ticks, and a Histogram
 * works unregistered too, as each engine's instructions-per-packet
 * distribution, whose bucket counts the pump differences the same
 * way.
 */

#ifndef PB_OBS_METRICS_HH
#define PB_OBS_METRICS_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pb::obs
{

/** The metric kinds a registry can hold. */
enum class MetricKind
{
    Counter,
    Gauge,
    Histogram,
};

/** Kind name for reports ("counter", "gauge", "histogram"). */
const char *metricKindName(MetricKind kind);

/** Stripes per Counter and Histogram. */
inline constexpr size_t numStripes = 8;

/** Cache-line size the stripes are aligned to. */
inline constexpr size_t cacheLineBytes = 64;

namespace detail
{
/** This thread's stripe; numStripes until the thread picks one. */
inline thread_local size_t threadStripe = numStripes;

/** Pick the calling thread's stripe (round-robin over threads). */
size_t pickStripe();
} // namespace detail

/**
 * The stripe the calling thread writes, picked on its first metric
 * update and kept for the thread's lifetime.  Threads take stripes
 * round-robin, so up to numStripes concurrent writers never share
 * one.
 */
inline size_t
stripeIndex()
{
    size_t stripe = detail::threadStripe;
    return stripe < numStripes ? stripe : detail::pickStripe();
}

/**
 * Monotonically increasing event count.  A counter registered with
 * Registry::counterViews() is a view: its value is read from a count
 * kept elsewhere, and add() does not change it.
 */
class Counter
{
  public:
    void
    add(uint64_t n = 1)
    {
        stripes[stripeIndex()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /**
     * Sum over every stripe; for a view, what its source gained
     * since the registry's last reset().
     */
    uint64_t
    value() const
    {
        if (const View *v = view.load(std::memory_order_acquire))
            return v->since((*v->readAll)());
        uint64_t total = 0;
        for (const Stripe &stripe : stripes)
            total += stripe.value.load(std::memory_order_relaxed);
        return total;
    }

  private:
    friend class Registry;

    struct alignas(cacheLineBytes) Stripe
    {
        std::atomic<uint64_t> value{0};
    };
    Stripe stripes[numStripes];

    /**
     * One counter of a Registry::counterViews() group: entry @c index
     * of what the group's source reads, and that entry at the last
     * reset().
     */
    struct View
    {
        std::shared_ptr<const std::function<std::vector<uint64_t>()>>
            readAll;
        size_t index = 0;
        std::atomic<uint64_t> base{0};

        /** The count since the last reset, from the group's @p all. */
        uint64_t
        since(const std::vector<uint64_t> &all) const
        {
            const uint64_t now = all[index];
            const uint64_t b = base.load(std::memory_order_relaxed);
            return now > b ? now - b : 0;
        }
    };
    /** Set once by Registry::counterViews(), which owns it. */
    std::atomic<View *> view{nullptr};
};

/** Last-written instantaneous value (rates, sizes, ratios). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    friend class Registry;
    std::atomic<double> value_{0.0};
};

/**
 * Log2-bucketed histogram of non-negative integer samples.
 *
 * Bucket edges are exact powers of two, inclusive on the upper
 * side: bucket 0 holds zeros, bucket 1 holds {1}, and bucket i
 * (i >= 2) holds (2^(i-2), 2^(i-1)] — so a sample of exactly 2^k
 * lands in the bucket whose upper edge is 2^k, not in the next
 * decade up.  (An earlier revision bucketed by raw bit width, which
 * put power-of-two samples one bucket too high and reported "le"
 * edges of 2^i - 1.)  66 buckets cover the full uint64 domain, so
 * observe() never saturates or clips; the last bucket's upper edge
 * (2^64) is reported as UINT64_MAX.
 *
 * Each stripe holds a whole distribution behind its own mutex, so a
 * thread locks only the stripe it writes, and snapshot() merges the
 * stripes one at a time (every stripe is self-consistent, so the
 * merged count always equals the sum of the merged buckets).
 */
class Histogram
{
  public:
    static constexpr size_t numBuckets = 66;

    /** Record one sample. */
    void observe(uint64_t sample);

    /** Point-in-time copy of the distribution. */
    struct Snapshot
    {
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t min = 0; ///< 0 when count == 0
        uint64_t max = 0;
        /** Per-bucket counts, trimmed after the last non-zero. */
        std::vector<uint64_t> buckets;

        double
        mean() const
        {
            return count ? static_cast<double>(sum) / count : 0.0;
        }

        /**
         * Upper bound of the bucket holding the q-quantile sample
         * (q in [0, 1]); 0 when the histogram is empty.
         */
        uint64_t quantile(double q) const;
    };

    Snapshot snapshot() const;

    /** Zero every stripe. */
    void reset();

    /** Inclusive upper bound of bucket @p index. */
    static uint64_t bucketUpperBound(size_t index);

  private:
    struct alignas(cacheLineBytes) Stripe
    {
        mutable std::mutex mu;
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t min = 0;
        uint64_t max = 0;
        uint64_t buckets[numBuckets] = {};
    };
    Stripe stripes[numStripes];
};

/**
 * Named metrics, one namespace per registry.
 *
 * Lookup creates the metric on first use and returns a reference
 * whose address is stable for the registry's lifetime.  Values can
 * be zeroed (reset()) but metrics are never removed, so cached
 * references never dangle.
 */
class Registry
{
  public:
    /** Find-or-create; panics if @p name exists with another kind. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * Make counters @p names views of @p readAll, which returns one
     * since-start count per name, in order, kept outside the registry
     * and computed whenever a counter of the group is read.  snapshot()
     * and reset() call @p readAll once for the whole group, so its
     * counters read as of one instant (the packet series balance in
     * every snapshot).  reset() makes the views count from zero.
     * @p readAll may take its own lock: the registry calls it holding
     * the registry lock, so its source must never call the registry
     * while holding that lock.  Panics if a name is already a view.
     */
    void counterViews(const std::vector<std::string> &names,
                      std::function<std::vector<uint64_t>()> readAll);

    /** One metric in a snapshot; only the matching field is valid. */
    struct Entry
    {
        std::string name;
        MetricKind kind;
        uint64_t counter = 0;
        double gauge = 0.0;
        Histogram::Snapshot hist;
    };

    /** Deterministic (name-sorted) copy of all metrics. */
    std::vector<Entry> snapshot() const;

    /**
     * Prometheus text exposition (version 0.0.4) of every metric:
     * counters and gauges as single samples, histograms as
     * cumulative `_bucket{le="..."}` series plus `_sum` and
     * `_count`.  Dotted metric names are flattened to legal
     * Prometheus names ("pb.faults.total" -> "pb_faults_total"),
     * so scrapers see the registry without parsing JSON reports.
     */
    void writePrometheus(std::ostream &out) const;

    /** Number of registered metrics. */
    size_t size() const;

    /**
     * Zero every value, every stripe included, keeping all
     * registrations (test hook).
     */
    void reset();

  private:
    struct Slot
    {
        MetricKind kind;
        std::unique_ptr<Counter> c;
        std::unique_ptr<Counter::View> view;
        std::unique_ptr<Gauge> g;
        std::unique_ptr<Histogram> h;
    };

    Slot &slot(const std::string &name, MetricKind kind);

    mutable std::mutex mu;
    std::map<std::string, Slot> slots;
};

/** The process-global registry every layer publishes into. */
Registry &defaultRegistry();

/**
 * Registry::writePrometheus() to @p path (fatal() when the file
 * cannot be created) — the `--prom=FILE` bench flag lands here.
 */
void writePrometheusFile(const std::string &path,
                         const Registry &registry);

/**
 * Adds elapsed wall-clock nanoseconds to a counter when destroyed.
 * Used for phase accounting ("phase.trace_read_ns", ...).
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Counter &ns_counter)
        : target(ns_counter), start(std::chrono::steady_clock::now())
    {
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer() { target.add(elapsedNs()); }

    /** Nanoseconds since construction. */
    uint64_t
    elapsedNs() const
    {
        auto dt = std::chrono::steady_clock::now() - start;
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                .count());
    }

  private:
    Counter &target;
    std::chrono::steady_clock::time_point start;
};

} // namespace pb::obs

#define PB_OBS_CAT2(a, b) a##b
#define PB_OBS_CAT(a, b) PB_OBS_CAT2(a, b)

/**
 * Bump a default-registry counter by @p delta.  The lookup happens
 * once per call site (cached static reference), so this is safe on
 * per-packet paths.
 */
#define PB_COUNTER_ADD(name, delta)                                    \
    do {                                                               \
        static pb::obs::Counter &pb_counter_ref_ =                     \
            pb::obs::defaultRegistry().counter(name);                  \
        pb_counter_ref_.add(delta);                                    \
    } while (0)

/** Bump a default-registry counter by one. */
#define PB_COUNTER(name) PB_COUNTER_ADD(name, 1)

/**
 * Time the rest of the enclosing scope into a nanosecond counter in
 * the default registry.
 */
#define PB_SCOPED_TIMER(name)                                          \
    static pb::obs::Counter &PB_OBS_CAT(pb_timer_ref_, __LINE__) =     \
        pb::obs::defaultRegistry().counter(name);                      \
    pb::obs::ScopedTimer PB_OBS_CAT(pb_timer_, __LINE__)(              \
        PB_OBS_CAT(pb_timer_ref_, __LINE__))

#endif // PB_OBS_METRICS_HH
