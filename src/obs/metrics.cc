/**
 * @file
 * Metrics registry implementation.
 */

#include "metrics.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <ostream>
#include <string_view>

#include "common/logging.hh"

namespace pb::obs
{

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

namespace
{

size_t
bucketOf(uint64_t sample)
{
    // Power-of-two upper edges: 0 | 1 | 2 | (2,4] | (4,8] | ...
    // bit_width(sample - 1) + 1 maps 2^k onto the bucket whose
    // inclusive upper edge is 2^k (bucketing bit_width(sample)
    // directly would push exact powers of two one bucket too high).
    if (sample == 0)
        return 0;
    return static_cast<size_t>(std::bit_width(sample - 1)) + 1;
}

} // namespace

namespace detail
{

size_t
pickStripe()
{
    static std::atomic<size_t> nextStripe{0};
    threadStripe =
        nextStripe.fetch_add(1, std::memory_order_relaxed) % numStripes;
    return threadStripe;
}

} // namespace detail

void
Histogram::observe(uint64_t sample)
{
    Stripe &s = stripes[stripeIndex()];
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.count == 0 || sample < s.min)
        s.min = sample;
    if (sample > s.max)
        s.max = sample;
    s.count++;
    s.sum += sample;
    s.buckets[bucketOf(sample)]++;
}

void
Histogram::reset()
{
    for (Stripe &s : stripes) {
        std::lock_guard<std::mutex> lock(s.mu);
        s.count = s.sum = s.min = s.max = 0;
        std::fill(std::begin(s.buckets), std::end(s.buckets), 0);
    }
}

uint64_t
Histogram::bucketUpperBound(size_t index)
{
    if (index == 0)
        return 0;
    if (index >= 65)
        return UINT64_MAX; // true edge 2^64 does not fit in uint64
    return uint64_t{1} << (index - 1);
}

uint64_t
Histogram::Snapshot::quantile(double q) const
{
    if (count == 0)
        return 0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the q-quantile sample, 1-based.
    uint64_t rank = static_cast<uint64_t>(q * (count - 1)) + 1;
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); i++) {
        seen += buckets[i];
        if (seen >= rank)
            return bucketUpperBound(i);
    }
    return max;
}

Histogram::Snapshot
Histogram::snapshot() const
{
    Snapshot snap;
    uint64_t merged[numBuckets] = {};
    for (const Stripe &s : stripes) {
        std::lock_guard<std::mutex> lock(s.mu);
        if (s.count == 0)
            continue;
        if (snap.count == 0 || s.min < snap.min)
            snap.min = s.min;
        snap.max = std::max(snap.max, s.max);
        snap.count += s.count;
        snap.sum += s.sum;
        for (size_t i = 0; i < numBuckets; i++)
            merged[i] += s.buckets[i];
    }
    size_t last = 0;
    for (size_t i = 0; i < numBuckets; i++) {
        if (merged[i])
            last = i + 1;
    }
    snap.buckets.assign(merged, merged + last);
    return snap;
}

Registry::Slot &
Registry::slot(const std::string &name, MetricKind kind)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = slots.find(name);
    if (it == slots.end()) {
        Slot s;
        s.kind = kind;
        switch (kind) {
          case MetricKind::Counter:
            s.c = std::make_unique<Counter>();
            break;
          case MetricKind::Gauge:
            s.g = std::make_unique<Gauge>();
            break;
          case MetricKind::Histogram:
            s.h = std::make_unique<Histogram>();
            break;
        }
        it = slots.emplace(name, std::move(s)).first;
    } else if (it->second.kind != kind) {
        panic("metric '%s' is a %s, requested as %s", name.c_str(),
              metricKindName(it->second.kind), metricKindName(kind));
    }
    return it->second;
}

Counter &
Registry::counter(const std::string &name)
{
    return *slot(name, MetricKind::Counter).c;
}

void
Registry::counterViews(const std::vector<std::string> &names,
                       std::function<std::vector<uint64_t>()> readAll)
{
    auto source =
        std::make_shared<const std::function<std::vector<uint64_t>()>>(
            std::move(readAll));
    for (size_t i = 0; i < names.size(); i++) {
        Slot &s = slot(names[i], MetricKind::Counter);
        std::lock_guard<std::mutex> lock(mu);
        if (s.view)
            panic("counter '%s' is already a view", names[i].c_str());
        s.view = std::make_unique<Counter::View>();
        s.view->readAll = source;
        s.view->index = i;
        s.c->view.store(s.view.get(), std::memory_order_release);
    }
}

namespace
{

/**
 * Each view group's reading, taken once per snapshot() or reset(), so
 * the counters of one group read as of one instant.
 */
class GroupReadings
{
  public:
    using Source = std::function<std::vector<uint64_t>()>;

    const std::vector<uint64_t> &
    of(const std::shared_ptr<const Source> &source)
    {
        auto [it, fresh] = readings.try_emplace(source.get());
        if (fresh)
            it->second = (*source)();
        return it->second;
    }

  private:
    std::map<const void *, std::vector<uint64_t>> readings;
};

} // namespace

Gauge &
Registry::gauge(const std::string &name)
{
    return *slot(name, MetricKind::Gauge).g;
}

Histogram &
Registry::histogram(const std::string &name)
{
    return *slot(name, MetricKind::Histogram).h;
}

std::vector<Registry::Entry>
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<Entry> entries;
    entries.reserve(slots.size());
    GroupReadings groups;
    // std::map iterates in name order, so the snapshot is already
    // deterministic.
    for (const auto &[name, s] : slots) {
        Entry e;
        e.name = name;
        e.kind = s.kind;
        switch (s.kind) {
          case MetricKind::Counter:
            e.counter = s.view ? s.view->since(groups.of(s.view->readAll))
                               : s.c->value();
            break;
          case MetricKind::Gauge:
            e.gauge = s.g->value();
            break;
          case MetricKind::Histogram:
            e.hist = s.h->snapshot();
            break;
        }
        entries.push_back(std::move(e));
    }
    return entries;
}

size_t
Registry::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return slots.size();
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    GroupReadings groups;
    for (auto &[name, s] : slots) {
        switch (s.kind) {
          case MetricKind::Counter:
            for (auto &stripe : s.c->stripes)
                stripe.value.store(0, std::memory_order_relaxed);
            if (s.view)
                s.view->base.store(
                    groups.of(s.view->readAll)[s.view->index],
                    std::memory_order_relaxed);
            break;
          case MetricKind::Gauge:
            s.g->value_.store(0.0, std::memory_order_relaxed);
            break;
          case MetricKind::Histogram:
            s.h->reset();
            break;
        }
    }
}

namespace
{

/** Flatten a dotted metric name into [a-zA-Z0-9_:]. */
std::string
promName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':';
        out.push_back(ok ? c : '_');
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

/** Render a gauge value; Prometheus allows NaN and +/-Inf. */
std::string
promValue(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    return strprintf("%.17g", v);
}

/** One help-table row: exact metric name (or family prefix). */
struct HelpRow
{
    std::string_view name;
    std::string_view help;
    bool prefix = false;
};

/**
 * HELP strings for every series the framework publishes.  Numbered
 * per-engine families (mc.engine0.packets, stats.engine1.pps,
 * mc.queue3, ...) match by prefix; anything not listed falls back to
 * a generic line so every series still carries # HELP.
 */
constexpr HelpRow helpTable[] = {
    {"pb.packets", "Packets processed by the framework"},
    {"pb.insts", "NPE32 instructions executed (selective accounting)"},
    {"pb.sent", "Packets the application accepted (SYS SEND)"},
    {"pb.dropped", "Packets the application dropped (SYS DROP)"},
    {"pb.faults.total", "Faulted packets across all fault kinds"},
    {"pb.faults.malformed", "Packets rejected before the handler ran"},
    {"pb.faults.sim", "Simulator faults inside the handler"},
    {"pb.faults.budget", "Packets that blew the instruction budget"},
    {"pb.faults.quarantined",
     "Faulted packets written to the quarantine trace"},
    {"pb.insts_per_packet",
     "Per-packet instruction counts (paper Table 2)"},
    {"pb.unique_insts_per_packet",
     "Per-packet unique static instructions touched"},
    {"pb.cycles_per_packet", "Modeled pipeline cycles per packet"},
    {"pb.program_bytes", "Loaded NPE32 program size in bytes"},
    {"pb.static_blocks", "Static basic blocks in the loaded program"},
    {"sim.interp.run_ns", "Wall nanoseconds spent inside Cpu::run"},
    {"sim.interp.mips",
     "Simulated MIPS (instructions per wall microsecond)"},
    {"sim.interp.blocks", "Distinct basic blocks executed"},
    {"sim.interp.block_len", "Mean executed basic-block length"},
    {"mc.packets", "Packets dispatched across all engines"},
    {"mc.batches", "Dispatcher-to-worker batch hand-offs"},
    {"mc.engines", "Engines in the multi-core configuration"},
    {"mc.imbalance", "Max over mean per-engine instruction load"},
    {"mc.speedup", "Ideal parallel speedup from the load split"},
    {"mc.parallel", "1 when the run used the parallel path"},
    {"mc.wall_ns", "Multi-core run wall time in nanoseconds"},
    {"mc.dispatch.no_tuple",
     "Packets without a 5-tuple (round-robin dispatched)"},
    {"mc.engine",
     "Per-engine totals since the multi-core bench was built", true},
    {"mc.queue", "Per-engine dispatch queue occupancy", true},
    {"trace.packets_read", "Packets read from trace sources"},
    {"trace.packets_written", "Packets written to trace sinks"},
    {"trace.bytes_read", "Bytes read from trace sources"},
    {"trace.malformed", "Malformed records seen by trace sources"},
    {"trace.gen", "Synthetic trace generator output", true},
    {"trace.injected_faults",
     "Faults injected by the fault-injection trace source"},
    {"trace.dropped",
     "Trace events dropped by the ring (capacity pressure)"},
    {"uarch.icache.hits", "Instruction cache hits"},
    {"uarch.icache.misses", "Instruction cache misses"},
    {"uarch.icache.miss_rate", "Instruction cache miss rate"},
    {"uarch.dcache.hits", "Data cache hits"},
    {"uarch.dcache.misses", "Data cache misses"},
    {"uarch.dcache.miss_rate", "Data cache miss rate"},
    {"uarch.branch.lookups", "Branch predictor lookups"},
    {"uarch.branch.mispredicts", "Branch mispredictions"},
    {"uarch.branch.mispredict_rate", "Branch misprediction rate"},
    {"obs.stats.records", "NDJSON records emitted by the stats pump"},
    {"obs.stats.snapshot_ns",
     "Wall nanoseconds the stats pump spent snapshotting"},
    {"stats.engine",
     "Live per-engine rates over the stats-pump interval", true},
};

/** HELP text for @p name (dotted registry name, pre-sanitization). */
std::string_view
promHelp(const std::string &name)
{
    for (const HelpRow &row : helpTable) {
        if (row.prefix ? name.compare(0, row.name.size(), row.name) == 0
                       : name == row.name)
            return row.help;
    }
    return "PacketBench metric";
}

} // namespace

void
Registry::writePrometheus(std::ostream &out) const
{
    for (const Entry &e : snapshot()) {
        std::string name = promName(e.name);
        out << "# HELP " << name << " " << promHelp(e.name) << "\n";
        out << "# TYPE " << name << " "
            << metricKindName(e.kind) << "\n";
        switch (e.kind) {
          case MetricKind::Counter:
            out << name << " " << e.counter << "\n";
            break;
          case MetricKind::Gauge:
            out << name << " " << promValue(e.gauge) << "\n";
            break;
          case MetricKind::Histogram: {
            // Prometheus histogram buckets are cumulative and end
            // with +Inf; the snapshot's are per-bucket and trimmed.
            uint64_t cumulative = 0;
            for (size_t i = 0; i < e.hist.buckets.size(); i++) {
                cumulative += e.hist.buckets[i];
                out << name << "_bucket{le=\""
                    << Histogram::bucketUpperBound(i) << "\"} "
                    << cumulative << "\n";
            }
            out << name << "_bucket{le=\"+Inf\"} " << e.hist.count
                << "\n";
            out << name << "_sum " << e.hist.sum << "\n";
            out << name << "_count " << e.hist.count << "\n";
            break;
          }
        }
    }
}

Registry &
defaultRegistry()
{
    static Registry registry;
    return registry;
}

void
writePrometheusFile(const std::string &path, const Registry &registry)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write metrics to '%s'", path.c_str());
    registry.writePrometheus(out);
}

} // namespace pb::obs
