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

void
EngineTelemetry::reset()
{
    totals.packets.store(0, std::memory_order_relaxed);
    totals.bytes.store(0, std::memory_order_relaxed);
    totals.insts.store(0, std::memory_order_relaxed);
    totals.faults.store(0, std::memory_order_relaxed);
    instsPerPacket.reset();
    queueDepth.store(0, std::memory_order_relaxed);
    topk.reset();
}

Telemetry &
Telemetry::instance()
{
    static Telemetry hub;
    return hub;
}

EngineTelemetry &
Telemetry::engine(uint32_t id)
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &record : records) {
        if (record->engineId == id)
            return *record;
    }
    records.push_back(std::make_unique<EngineTelemetry>());
    records.back()->engineId = id;
    return *records.back();
}

std::vector<EngineTelemetry *>
Telemetry::engines() const
{
    std::vector<EngineTelemetry *> out;
    {
        std::lock_guard<std::mutex> lock(mu);
        out.reserve(records.size());
        for (const auto &record : records)
            out.push_back(record.get());
    }
    std::sort(out.begin(), out.end(),
              [](const EngineTelemetry *a, const EngineTelemetry *b) {
                  return a->engineId < b->engineId;
              });
    return out;
}

void
Telemetry::reset()
{
    for (EngineTelemetry *engine : engines())
        engine->reset();
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
    Registry &reg = defaultRegistry();
    Sample s;
    s.packets = reg.counter("pb.packets").value();
    s.insts = reg.counter("pb.insts").value();
    s.sent = reg.counter("pb.sent").value();
    s.dropped = reg.counter("pb.dropped").value();
    s.faults = reg.counter("pb.faults.total").value();
    s.traceDropped = reg.counter("trace.dropped").value();
    for (const EngineTelemetry *telem : Telemetry::instance().engines()) {
        const EngineTelemetry::Totals &t = telem->totals;
        EngineSample &e = s.engines[telem->engineId];
        e.telem = telem;
        e.packets = t.packets.load(std::memory_order_relaxed);
        e.bytes = t.bytes.load(std::memory_order_relaxed);
        e.insts = t.insts.load(std::memory_order_relaxed);
        e.faults = t.faults.load(std::memory_order_relaxed);
        e.queueDepth = telem->queueDepth.load(std::memory_order_relaxed);
        e.instsPerPacket = telem->instsPerPacket.snapshot();
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
 * Growth of a since-start total between two ticks.  Totals only
 * grow, except when a test resets the hub: then count from zero.
 */
uint64_t
since(uint64_t now, uint64_t before)
{
    return now >= before ? now - before : now;
}

/**
 * The samples @p now holds beyond @p before, an earlier snapshot of
 * the same histogram: count, sum and buckets (min and max are 0).
 */
Histogram::Snapshot
addedSince(const Histogram::Snapshot &now,
           const Histogram::Snapshot &before)
{
    if (now.count < before.count ||
        now.buckets.size() < before.buckets.size())
        return now; // reset since: count from zero, as since() does
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
    double interval_ns = static_cast<double>(now.intervalNs);
    auto rate = [interval_ns](uint64_t total, uint64_t before) {
        return static_cast<double>(since(total, before)) * 1e9 /
               interval_ns;
    };
    now.pps = rate(now.packets, prev.packets);
    now.mips = rate(now.insts, prev.insts) / 1e6;
    now.faultPps = rate(now.faults, prev.faults);
    static const EngineSample absent;
    for (auto &[id, e] : now.engines) {
        auto it = prev.engines.find(id);
        const EngineSample &before =
            it != prev.engines.end() ? it->second : absent;
        e.pps = rate(e.packets, before.packets);
        e.bps = rate(e.bytes, before.bytes) * 8.0;
        e.mips = rate(e.insts, before.insts) / 1e6;
        e.faultPps = rate(e.faults, before.faults);
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

    line << ", \"process\": {\"packets\": " << now.packets
         << ", \"pps\": " << jsonRate(now.pps)
         << ", \"insts\": " << now.insts
         << ", \"mips\": " << jsonRate(now.mips)
         << ", \"sent\": " << now.sent
         << ", \"dropped\": " << now.dropped
         << ", \"faults\": " << now.faults
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
             << ", \"packets\": " << e.packets
             << ", \"pps\": " << jsonRate(e.pps)
             << ", \"bps\": " << jsonRate(e.bps)
             << ", \"mips\": " << jsonRate(e.mips)
             << ", \"faults\": " << e.faults
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
