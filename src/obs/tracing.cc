/**
 * @file
 * Event tracer implementation: rings, export, NPE32 sampler.
 */

#include "tracing.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <type_traits>

#include "common/logging.hh"
#include "obs/json.hh"
#include "sim/memmap.hh"

namespace pb::obs
{

namespace detail
{
std::atomic<bool> traceEnabledFlag{false};
} // namespace detail

namespace
{

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Thread-local ring pointer, revalidated against the tracer
 * generation so reset() (which frees all rings) can't leave a
 * dangling cache in other test cases on the same thread.
 */
struct RingCache
{
    TraceRing *ring = nullptr;
    uint64_t generation = 0;
};

thread_local RingCache tlsRing;

} // namespace

// Ring slots are never read before they are written, so they may
// stay uninitialized (and their pages untouched) until emit().
static_assert(std::is_trivially_default_constructible_v<TraceEvent>);

TraceRing::TraceRing(uint32_t tid, size_t capacity)
    : tid_(tid), cap(std::max<size_t>(capacity, 16)),
      ring(std::make_unique_for_overwrite<TraceEvent[]>(cap))
{
}

void
TraceRing::emit(const TraceEvent &event)
{
    uint64_t h = head.load(std::memory_order_relaxed);
    TraceEvent &slot = ring[h % cap];
    slot = event;
    slot.tid = tid_;
    head.store(h + 1, std::memory_order_release);
}

Tracer::Tracer() : epochNs(steadyNowNs()) {}

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

void
Tracer::start()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (epochNs == 0)
            epochNs = steadyNowNs();
    }
    detail::traceEnabledFlag.store(true, std::memory_order_release);
}

void
Tracer::stop()
{
    detail::traceEnabledFlag.store(false, std::memory_order_release);
    // Publish the overwrite count as a delta so repeated start/stop
    // cycles don't double-count.  Always touch the counter so a
    // clean run reports trace.dropped = 0 instead of omitting the
    // series from reports and scrapes.
    uint64_t total = droppedEvents();
    std::lock_guard<std::mutex> lock(mu);
    Counter &dropped = defaultRegistry().counter("trace.dropped");
    if (total > droppedPublished) {
        dropped.add(total - droppedPublished);
        droppedPublished = total;
    }
}

void
Tracer::setCapacity(size_t events_per_thread)
{
    std::lock_guard<std::mutex> lock(mu);
    ringCapacity = std::max<size_t>(events_per_thread, 16);
}

void
Tracer::setNpeSamplePeriod(uint64_t period)
{
    npePeriod.store(period, std::memory_order_relaxed);
}

void
Tracer::configureFromEnv()
{
    if (const char *cap = std::getenv("PB_TRACE_CAP")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(cap, &end, 10);
        if (end && *end == '\0' && v > 0)
            setCapacity(static_cast<size_t>(v));
        else
            warn("ignoring malformed PB_TRACE_CAP='%s'", cap);
    }
    if (const char *sample = std::getenv("PB_TRACE_SAMPLE")) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(sample, &end, 10);
        if (end && *end == '\0')
            setNpeSamplePeriod(v);
        else
            warn("ignoring malformed PB_TRACE_SAMPLE='%s'", sample);
    }
}

TraceRing &
Tracer::threadRing()
{
    uint64_t gen = generation.load(std::memory_order_acquire);
    if (tlsRing.ring && tlsRing.generation == gen)
        return *tlsRing.ring;
    std::lock_guard<std::mutex> lock(mu);
    auto ring = std::make_unique<TraceRing>(
        static_cast<uint32_t>(rings.size()), ringCapacity);
    tlsRing.ring = ring.get();
    tlsRing.generation = gen;
    rings.push_back(std::move(ring));
    return *tlsRing.ring;
}

void
Tracer::setThreadName(const std::string &name)
{
    uint32_t tid = threadRing().tid();
    std::lock_guard<std::mutex> lock(mu);
    threadNames[tid] = name;
}

const char *
Tracer::intern(const std::string &s)
{
    std::lock_guard<std::mutex> lock(mu);
    return interned.insert(s).first->c_str();
}

uint64_t
Tracer::nowNs() const
{
    return steadyNowNs() - epochNs;
}

std::vector<TraceEvent>
Tracer::collect() const
{
    std::vector<TraceEvent> events;
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &ring : rings) {
        uint64_t n = ring->head.load(std::memory_order_acquire);
        size_t cap = ring->cap;
        uint64_t first = n > cap ? n - cap : 0;
        for (uint64_t i = first; i < n; i++)
            events.push_back(ring->ring[i % cap]);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.ts < b.ts;
                     });
    return events;
}

uint64_t
Tracer::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mu);
    uint64_t total = 0;
    for (const auto &ring : rings)
        total += ring->dropped();
    return total;
}

namespace
{

void
writeArgs(std::ostream &out, const TraceArg *args, size_t count)
{
    out << "{";
    for (size_t i = 0; i < count; i++) {
        if (i)
            out << ",";
        out << "\"" << jsonEscape(args[i].key) << "\":";
        if (args[i].kind == TraceArg::Kind::Str)
            out << "\"" << jsonEscape(args[i].str) << "\"";
        else
            out << args[i].u64;
    }
    out << "}";
}

} // namespace

void
Tracer::writeJson(std::ostream &out) const
{
    std::vector<TraceEvent> events = collect();
    std::map<uint32_t, std::string> names;
    {
        std::lock_guard<std::mutex> lock(mu);
        names = threadNames;
    }

    out << "{\"traceEvents\":[\n";
    bool first = true;
    // Metadata rows: process name plus any named thread timelines.
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
           "\"process_name\",\"args\":{\"name\":\"packetbench\"}}";
    first = false;
    for (const auto &[tid, name] : names) {
        out << ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << jsonEscape(name.c_str()) << "\"}}";
    }
    for (const TraceEvent &e : events) {
        if (!first)
            out << ",\n";
        first = false;
        // Chrome trace timestamps are microseconds; keep ns
        // precision in the fraction.
        out << "{\"ph\":\"";
        switch (e.phase) {
          case TracePhase::Complete:
            out << 'X';
            break;
          case TracePhase::Instant:
            out << 'i';
            break;
          case TracePhase::Counter:
            out << 'C';
            break;
        }
        out << "\",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":"
            << strprintf("%llu.%03u",
                         static_cast<unsigned long long>(e.ts / 1000),
                         static_cast<unsigned>(e.ts % 1000));
        if (e.phase == TracePhase::Complete)
            out << ",\"dur\":"
                << strprintf(
                       "%llu.%03u",
                       static_cast<unsigned long long>(e.dur / 1000),
                       static_cast<unsigned>(e.dur % 1000));
        if (e.phase == TracePhase::Instant)
            out << ",\"s\":\"t\"";
        out << ",\"cat\":\"" << jsonEscape(e.cat)
            << "\",\"name\":\"" << jsonEscape(e.name) << "\"";
        if (e.numArgs) {
            out << ",\"args\":";
            writeArgs(out, e.args, e.numArgs);
        }
        out << "}";
    }
    out << "\n]}\n";
}

void
Tracer::writeJsonFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write trace to '%s'", path.c_str());
    writeJson(out);
}

void
Tracer::reset()
{
    detail::traceEnabledFlag.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mu);
    rings.clear();
    threadNames.clear();
    droppedPublished = 0;
    epochNs = steadyNowNs();
    // Invalidate every thread's cached ring pointer.
    generation.fetch_add(1, std::memory_order_release);
}

void
TraceSpan::begin(const char *category, const char *name_)
{
    live = true;
    numArgs = 0;
    cat = category;
    name = name_;
    startNs = Tracer::instance().nowNs();
}

void
TraceSpan::end()
{
    Tracer &tracer = Tracer::instance();
    TraceEvent event;
    event.ts = startNs;
    event.dur = tracer.nowNs() - startNs;
    event.name = name;
    event.cat = cat;
    event.phase = TracePhase::Complete;
    event.numArgs = numArgs;
    for (uint8_t i = 0; i < numArgs; i++)
        event.args[i] = args[i];
    tracer.threadRing().emit(event);
}

namespace
{

void
emitSimple(TracePhase phase, const char *category, const char *name,
           const TraceArg *args, uint8_t num_args)
{
    Tracer &tracer = Tracer::instance();
    TraceEvent event;
    event.ts = tracer.nowNs();
    event.dur = 0;
    event.name = name;
    event.cat = category;
    event.phase = phase;
    event.numArgs = num_args;
    for (uint8_t i = 0; i < num_args; i++)
        event.args[i] = args[i];
    tracer.threadRing().emit(event);
}

} // namespace

void
traceInstant(const char *category, const char *name)
{
    emitSimple(TracePhase::Instant, category, name, nullptr, 0);
}

void
traceInstant(const char *category, const char *name, const char *key,
             uint64_t value)
{
    TraceArg arg;
    arg.key = key;
    arg.u64 = value;
    arg.kind = TraceArg::Kind::U64;
    emitSimple(TracePhase::Instant, category, name, &arg, 1);
}

void
traceInstant(const char *category, const char *name, const char *key,
             const char *value)
{
    TraceArg arg;
    arg.key = key;
    arg.str = value;
    arg.kind = TraceArg::Kind::Str;
    emitSimple(TracePhase::Instant, category, name, &arg, 1);
}

void
traceCounter(const char *category, const char *name, uint64_t value)
{
    TraceArg arg;
    arg.key = "value";
    arg.u64 = value;
    arg.kind = TraceArg::Kind::U64;
    emitSimple(TracePhase::Counter, category, name, &arg, 1);
}

namespace
{

/**
 * The counter series of an access to @p region: one per region, so
 * packet vs. non-packet access sequences (paper Fig. 9) separate into
 * distinct tracks.
 */
const char *
npeMemSeries(sim::MemRegion region)
{
    switch (region) {
      case sim::MemRegion::Packet:
        return "npe.mem.packet";
      case sim::MemRegion::Data:
        return "npe.mem.data";
      case sim::MemRegion::Stack:
        return "npe.mem.stack";
      default:
        return "npe.mem.other";
    }
}

} // namespace

void
NpeTraceSampler::onMemAccessAt(const sim::MemAccessEvent &event,
                               uint32_t offsetInRun)
{
    pending.emplace_back(offsetInRun, event);
}

void
NpeTraceSampler::onRun(const sim::RunEvent &run)
{
    if (traceEnabled()) {
        auto access = pending.begin();
        for (uint32_t i = 0; i < run.n; i++) {
            traceCounter("npe", "npe.pc", run.pcAt(i));
            for (; access != pending.end() && access->first == i; ++access)
                traceCounter("npe", npeMemSeries(access->second.region),
                             access->second.addr);
        }
        if (run.endsInBranch()) {
            const uint32_t addr = run.pcAt(run.n - 1);
            traceInstant("npe",
                         run.taken ? "npe.branch.taken"
                                   : "npe.branch.not_taken",
                         "target", run.taken ? run.target : addr + 4);
        }
    }
    pending.clear();
}

} // namespace pb::obs
