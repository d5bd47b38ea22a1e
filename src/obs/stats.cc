/**
 * @file
 * Telemetry hub and stats-pump implementation.
 *
 * NDJSON is streamed directly (like obs/report.cc) so uint64
 * counters serialize exactly; every record is one line, flushed as
 * written, so a consumer tailing the file sees complete records.
 */

#include "stats.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"

namespace pb::obs
{

namespace detail
{
std::atomic<bool> statsEnabledFlag{false};
} // namespace detail

namespace
{

/** Nanoseconds on the steady clock: the pump's tick timestamps. */
uint64_t
telemetryNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

EngineCounts::Reading &
EngineCounts::Reading::operator+=(const Reading &other)
{
    sent += other.sent;
    dropped += other.dropped;
    malformed += other.malformed;
    simFaults += other.simFaults;
    budget += other.budget;
    quarantined += other.quarantined;
    insts += other.insts;
    bytes += other.bytes;
    runNs += other.runNs;
    return *this;
}

EngineCounts::Reading
EngineCounts::read() const
{
    Reading r;
    r.sent = sent.value();
    r.dropped = dropped.value();
    r.malformed = malformed.value();
    r.simFaults = simFaults.value();
    r.budget = budget.value();
    r.quarantined = quarantined.value();
    r.insts = insts.value();
    r.bytes = bytes.value();
    r.runNs = runNs.value();
    return r;
}

Telemetry &
Telemetry::instance()
{
    // Never destroyed: the registry's views read it, and a registry
    // read may come after static destruction has begun.
    static Telemetry *hub = new Telemetry();
    return *hub;
}

Telemetry::Telemetry()
{
    // The run-wide packet series add nothing per packet: each is a
    // sum over every engine's record, computed when read.
    using Field = uint64_t (*)(const EngineCounts::Reading &);
    using R = const EngineCounts::Reading &;
    const std::pair<const char *, Field> views[] = {
        {"pb.packets", [](R r) { return r.packets(); }},
        {"pb.insts", [](R r) { return r.insts; }},
        {"pb.sent", [](R r) { return r.sent; }},
        {"pb.dropped", [](R r) { return r.dropped; }},
        {"pb.faults.total", [](R r) { return r.faults(); }},
        {"pb.faults.malformed", [](R r) { return r.malformed; }},
        {"pb.faults.sim", [](R r) { return r.simFaults; }},
        {"pb.faults.budget", [](R r) { return r.budget; }},
        {"pb.faults.quarantined", [](R r) { return r.quarantined; }},
        {"sim.interp.run_ns", [](R r) { return r.runNs; }},
    };
    std::vector<std::string> names;
    std::vector<Field> fields;
    for (auto [name, field] : views) {
        names.emplace_back(name);
        fields.push_back(field);
    }
    // One group: a registry snapshot reads every engine once, so the
    // series balance in it (pb.packets == sent + dropped + faults).
    defaultRegistry().counterViews(names, [this, fields] {
        const EngineCounts::Reading r = total();
        std::vector<uint64_t> counts;
        counts.reserve(fields.size());
        for (Field field : fields)
            counts.push_back(field(r));
        return counts;
    });
}

EngineTelemetry &
Telemetry::find(uint32_t id)
{
    for (auto &record : records) {
        if (record->engineId == id)
            return *record;
    }
    records.push_back(std::make_unique<EngineTelemetry>());
    records.back()->engineId = id;
    return *records.back();
}

EngineTelemetry &
Telemetry::engine(uint32_t id)
{
    std::lock_guard<std::mutex> lock(mu);
    return find(id);
}

EngineTelemetry &
Telemetry::attach(uint32_t id, const EngineCounts &counts)
{
    std::lock_guard<std::mutex> lock(mu);
    EngineTelemetry &telem = find(id);
    telem.attached.push_back(&counts);
    return telem;
}

void
Telemetry::retire(uint32_t id, const EngineCounts &counts)
{
    std::lock_guard<std::mutex> lock(mu);
    EngineTelemetry &telem = find(id);
    auto it = std::find(telem.attached.begin(), telem.attached.end(),
                        &counts);
    if (it == telem.attached.end())
        panic("retiring counts never attached to engine %u", id);
    telem.attached.erase(it);
    telem.retired += counts.read();
}

std::vector<Telemetry::EngineReading>
Telemetry::read() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<EngineReading> out;
    out.reserve(records.size());
    for (const auto &record : records) {
        EngineReading &r = out.emplace_back();
        r.telem = record.get();
        r.counts = record->retired;
        for (const EngineCounts *counts : record->attached)
            r.counts += counts->read();
    }
    return out;
}

EngineCounts::Reading
Telemetry::total() const
{
    EngineCounts::Reading sum;
    for (const EngineReading &r : read())
        sum += r.counts;
    return sum;
}

uint32_t
StatsPump::defaultIntervalMs()
{
    static const uint32_t cached = [] {
        const char *env = std::getenv("PB_STATS_MS");
        if (!env)
            return 1000u;
        char *end = nullptr;
        unsigned long v = std::strtoul(env, &end, 10);
        if (!end || *end != '\0' || v == 0 || v > UINT32_MAX) {
            warn("ignoring malformed PB_STATS_MS='%s'", env);
            return 1000u;
        }
        return std::max(static_cast<uint32_t>(v), 10u);
    }();
    return cached;
}

StatsPump::StatsPump() = default;

StatsPump::~StatsPump()
{
    stop();
}

void
StatsPump::setPromPath(const std::string &path)
{
    promPath = path;
}

void
StatsPump::setConsole(std::string label, uint32_t num_engines,
                      ConsoleTail tail)
{
    consoleLabel = std::move(label);
    consoleEngines = num_engines;
    consoleTail = std::move(tail);
}

void
StatsPump::start(const std::string &path, uint32_t interval_ms)
{
    if (running)
        panic("StatsPump::start() while already running");
    Registry &reg = defaultRegistry();
    if (!path.empty()) {
        out = std::make_unique<std::ofstream>(path);
        if (!*out)
            fatal("cannot write stats to '%s'", path.c_str());
        // Register the self-cost counters up front so the end-of-run
        // report shows them even for a run too short for one tick.
        reg.counter("obs.stats.snapshot_ns");
        reg.counter("obs.stats.records");
    }
    if (!promPath.empty()) {
        reg.counter("obs.stats.prom_writes");
        reg.counter("obs.stats.prom_fail");
    }
    intervalMs = std::max(interval_ms, 1u);
    startNs = telemetryNowNs();
    seq = 0;
    // Everything counted before start() is the first tick's baseline.
    prev = readTotals();
    written.store(0, std::memory_order_relaxed);
    stopping = false;
    running = true;
    if (out)
        setStatsEnabled(true);
    thread = std::thread([this] { loop(); });
}

void
StatsPump::stop()
{
    if (!running)
        return;
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    cv.notify_all();
    thread.join();
    if (out)
        setStatsEnabled(false);
    running = false;
    out.reset();
}

void
StatsPump::loop()
{
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        bool stop_now = cv.wait_for(
            lock, std::chrono::milliseconds(intervalMs),
            [this] { return stopping; });
        // Tick on every interval and once more on the way out, so
        // even a run shorter than one interval produces a final
        // record.
        lock.unlock();
        tick();
        lock.lock();
        if (stop_now)
            return;
    }
}

StatsPump::Sample
StatsPump::readTotals() const
{
    Sample s;
    s.traceDropped =
        defaultRegistry().counter("trace.dropped").value();
    for (const Telemetry::EngineReading &r :
         Telemetry::instance().read()) {
        EngineSample &e = s.engines[r.telem->engineId];
        e.telem = r.telem;
        e.counts = r.counts;
        e.queueDepth =
            r.telem->queueDepth.load(std::memory_order_relaxed);
        e.instsPerPacket = r.telem->instsPerPacket.snapshot();
        s.counts += r.counts;
    }
    return s;
}

namespace
{

/** Finite JSON number (rates can divide by ~0 wall time). */
std::string
jsonRate(double v)
{
    if (v != v || v - v != 0.0)
        return "0";
    return strprintf("%.6g", v);
}

/**
 * The samples @p now holds beyond @p before, an earlier snapshot of
 * the same histogram: count, sum and buckets (min and max are 0).
 */
Histogram::Snapshot
addedSince(const Histogram::Snapshot &now,
           const Histogram::Snapshot &before)
{
    Histogram::Snapshot added = now;
    added.count -= before.count;
    added.sum -= before.sum;
    added.min = added.max = 0;
    for (size_t i = 0; i < before.buckets.size(); i++)
        added.buckets[i] -= before.buckets[i];
    while (!added.buckets.empty() && added.buckets.back() == 0)
        added.buckets.pop_back();
    return added;
}

} // namespace

void
StatsPump::computeRates(Sample &now) const
{
    // One definition of a live rate: a total's growth over the
    // interval.  An engine new since the previous tick counts from 0.
    // Counts never decrease: a destroyed bench's stay in its
    // engine's retired total.
    double interval_ns = static_cast<double>(now.intervalNs);
    auto rate = [interval_ns](uint64_t total, uint64_t before) {
        return static_cast<double>(total - before) * 1e9 / interval_ns;
    };
    now.pps = rate(now.counts.packets(), prev.counts.packets());
    now.mips = rate(now.counts.insts, prev.counts.insts) / 1e6;
    now.faultPps = rate(now.counts.faults(), prev.counts.faults());
    static const EngineSample absent;
    for (auto &[id, e] : now.engines) {
        auto it = prev.engines.find(id);
        const EngineSample &before =
            it != prev.engines.end() ? it->second : absent;
        e.pps = rate(e.counts.packets(), before.counts.packets());
        e.bps = rate(e.counts.bytes, before.counts.bytes) * 8.0;
        e.mips = rate(e.counts.insts, before.counts.insts) / 1e6;
        e.faultPps = rate(e.counts.faults(), before.counts.faults());
        e.addedInstsPerPacket =
            addedSince(e.instsPerPacket, before.instsPerPacket);
    }
}

void
StatsPump::tick()
{
    uint64_t tick_start = telemetryNowNs();
    Sample now = readTotals();
    now.wallNs = tick_start - startNs;
    if (now.wallNs <= prev.wallNs)
        now.wallNs = prev.wallNs + 1; // keep wall_ns strictly monotone
    now.intervalNs = now.wallNs - prev.wallNs;
    computeRates(now);
    seq++;
    if (out)
        writeRecord(now, tick_start);
    if (!promPath.empty())
        rewriteProm();
    if (consoleTail)
        printConsole(now);
    prev = std::move(now);
    written.fetch_add(1, std::memory_order_relaxed);
}

void
StatsPump::writeRecord(const Sample &now, uint64_t tick_start)
{
    Registry &reg = defaultRegistry();
    std::ostringstream line;
    line << "{\"schema\": \"packetbench.stats.v1\""
         << ", \"seq\": " << seq << ", \"wall_ns\": " << now.wallNs
         << ", \"interval_ns\": " << now.intervalNs;

    line << ", \"process\": {\"packets\": " << now.counts.packets()
         << ", \"pps\": " << jsonRate(now.pps)
         << ", \"insts\": " << now.counts.insts
         << ", \"mips\": " << jsonRate(now.mips)
         << ", \"sent\": " << now.counts.sent
         << ", \"dropped\": " << now.counts.dropped
         << ", \"faults\": " << now.counts.faults()
         << ", \"fault_pps\": " << jsonRate(now.faultPps)
         << ", \"trace_dropped\": " << now.traceDropped << "}";

    line << ", \"engines\": [";
    bool first = true;
    for (const auto &[id, e] : now.engines) {
        const Histogram::Snapshot &ipp = e.addedInstsPerPacket;
        if (!first)
            line << ", ";
        first = false;
        line << "{\"engine\": " << id
             << ", \"packets\": " << e.counts.packets()
             << ", \"pps\": " << jsonRate(e.pps)
             << ", \"bps\": " << jsonRate(e.bps)
             << ", \"mips\": " << jsonRate(e.mips)
             << ", \"faults\": " << e.counts.faults()
             << ", \"fault_pps\": " << jsonRate(e.faultPps)
             << ", \"queue_depth\": " << e.queueDepth
             << ", \"insts_per_packet\": {\"count\": " << ipp.count
             << ", \"mean\": " << jsonRate(ipp.mean())
             << ", \"p50\": " << ipp.quantile(0.5)
             << ", \"p99\": " << ipp.quantile(0.99) << "}";
        line << ", \"topk\": [";
        std::vector<FlowTopK::Entry> top = e.telem->topk.top(10);
        for (size_t i = 0; i < top.size(); i++) {
            const FlowTopK::Entry &f = top[i];
            if (i)
                line << ", ";
            line << "{\"flow\": \""
                 << jsonEscape(formatFlowId(f.id)) << "\""
                 << ", \"hash\": " << f.key
                 << ", \"packets\": " << f.packets
                 << ", \"bytes\": " << f.bytes
                 << ", \"faults\": " << f.faults
                 << ", \"error\": " << f.error << "}";
        }
        line << "]}";

        // Mirror the engine rates into registry gauges so the live
        // Prometheus rewrite (and the final report) carries them too.
        reg.gauge(strprintf("stats.engine%u.pps", id)).set(e.pps);
        reg.gauge(strprintf("stats.engine%u.bps", id)).set(e.bps);
        reg.gauge(strprintf("stats.engine%u.mips", id)).set(e.mips);
        reg.gauge(strprintf("stats.engine%u.queue_depth", id))
            .set(static_cast<double>(e.queueDepth));
    }
    line << "]";

    // Close the record with its own cost, measured up to here; the
    // file write and prom rewrite below are part of the next gap.
    uint64_t snapshot_ns = telemetryNowNs() - tick_start;
    line << ", \"snapshot_ns\": " << snapshot_ns << "}";
    reg.counter("obs.stats.snapshot_ns").add(snapshot_ns);
    reg.counter("obs.stats.records").add(1);

    *out << line.str() << "\n";
    out->flush();
}

void
StatsPump::rewriteProm()
{
    // Write-then-rename: a scraper reading promPath never sees a
    // torn snapshot.  The temp name carries the pid so two processes
    // told to expose at the same promPath stage in distinct files
    // instead of clobbering each other; a failed write or rename
    // must not leak the staging file, and is counted so the run
    // report shows the exposure ever broke.
    Registry &reg = defaultRegistry();
    std::string tmp = strprintf("%s.tmp.%ld", promPath.c_str(),
                                static_cast<long>(getpid()));
    bool ok = false;
    try {
        writePrometheusFile(tmp, reg);
        ok = std::rename(tmp.c_str(), promPath.c_str()) == 0;
        if (!ok)
            warn("stats pump: cannot rename '%s' to '%s'",
                 tmp.c_str(), promPath.c_str());
    } catch (const Error &e) {
        // writePrometheusFile fatal()s when the temp cannot be
        // created; the pump must outlive one bad tick.
        warn("stats pump: %s", e.what());
    }
    if (ok) {
        reg.counter("obs.stats.prom_writes").add(1);
    } else {
        std::remove(tmp.c_str());
        reg.counter("obs.stats.prom_fail").add(1);
    }
}

void
StatsPump::printConsole(const Sample &now) const
{
    double pps = 0.0, bps = 0.0, mips = 0.0;
    std::string per_engine;
    for (uint32_t id = 0; id < consoleEngines; id++) {
        auto it = now.engines.find(id);
        if (it == now.engines.end())
            continue;
        const EngineSample &e = it->second;
        pps += e.pps;
        bps += e.bps;
        mips += e.mips;
        per_engine += strprintf(" e%u=%.2f", id, e.pps / 1e6);
    }
    fprintf(stderr, "[%s] %.3f Mpps %.3f Gbps %.1f MIPS |%s%s\n",
            consoleLabel.c_str(), pps / 1e6, bps / 1e9, mips,
            per_engine.c_str(), consoleTail().c_str());
    fflush(stderr);
}

} // namespace pb::obs
