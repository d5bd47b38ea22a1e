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

void
EngineTelemetry::reset()
{
    packets.reset();
    bytes.reset();
    insts.reset();
    faults.reset();
    instsPerPacket.reset();
    queueDepth.store(0, std::memory_order_relaxed);
    totals.packets.store(0, std::memory_order_relaxed);
    totals.bytes.store(0, std::memory_order_relaxed);
    totals.insts.store(0, std::memory_order_relaxed);
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
StatsPump::start(const std::string &path, uint32_t interval_ms)
{
    if (running)
        panic("StatsPump::start() while already running");
    out = std::make_unique<std::ofstream>(path);
    if (!*out)
        fatal("cannot write stats to '%s'", path.c_str());
    statsPath = path;
    intervalMs = std::max(interval_ms, 1u);
    startNs = telemetryNowNs();
    seq = 0;
    lastWallNs = 0;
    prevPackets = 0;
    prevFaults = 0;
    written.store(0, std::memory_order_relaxed);
    // Register the self-cost counters up front so the end-of-run
    // report shows them even for a run too short for one tick.
    defaultRegistry().counter("obs.stats.snapshot_ns");
    defaultRegistry().counter("obs.stats.records");
    if (!promPath.empty()) {
        defaultRegistry().counter("obs.stats.prom_writes");
        defaultRegistry().counter("obs.stats.prom_fail");
    }
    stopping = false;
    running = true;
    detail::statsEnabledFlag.store(true, std::memory_order_relaxed);
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
    detail::statsEnabledFlag.store(false, std::memory_order_relaxed);
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
        // Emit on every tick and once more on the way out, so even
        // a run shorter than one interval produces a final record.
        lock.unlock();
        emitRecord();
        lock.lock();
        if (stop_now)
            return;
    }
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

} // namespace

void
StatsPump::emitRecord()
{
    uint64_t snap_start = telemetryNowNs();
    uint64_t now = snap_start;
    uint64_t wall = now - startNs;
    if (wall <= lastWallNs)
        wall = lastWallNs + 1; // keep wall_ns strictly monotone
    uint64_t interval_ns = wall - lastWallNs;
    lastWallNs = wall;
    seq++;

    Registry &reg = defaultRegistry();
    uint64_t packets = reg.counter("pb.packets").value();
    uint64_t faults = reg.counter("pb.faults.total").value();
    double dt_s = static_cast<double>(interval_ns) / 1e9;
    double process_pps =
        dt_s > 0.0
            ? static_cast<double>(packets - prevPackets) / dt_s
            : 0.0;
    double process_fault_pps =
        dt_s > 0.0 ? static_cast<double>(faults - prevFaults) / dt_s
                   : 0.0;
    prevPackets = packets;
    prevFaults = faults;

    std::vector<EngineTelemetry *> engines =
        Telemetry::instance().engines();
    double process_mips = 0.0;
    for (const EngineTelemetry *e : engines)
        process_mips += e->insts.rate(now) / 1e6;

    std::ostringstream line;
    line << "{\"schema\": \"packetbench.stats.v1\""
         << ", \"seq\": " << seq << ", \"wall_ns\": " << wall
         << ", \"interval_ns\": " << interval_ns;

    line << ", \"process\": {\"packets\": " << packets
         << ", \"pps\": " << jsonRate(process_pps)
         << ", \"insts\": " << reg.counter("pb.insts").value()
         << ", \"mips\": " << jsonRate(process_mips)
         << ", \"sent\": " << reg.counter("pb.sent").value()
         << ", \"dropped\": " << reg.counter("pb.dropped").value()
         << ", \"faults\": " << faults
         << ", \"fault_pps\": " << jsonRate(process_fault_pps)
         << ", \"trace_dropped\": "
         << reg.counter("trace.dropped").value() << "}";

    line << ", \"engines\": [";
    bool first = true;
    for (EngineTelemetry *e : engines) {
        double pps = e->packets.rate(now);
        double bps = e->bytes.rate(now) * 8.0;
        double mips = e->insts.rate(now) / 1e6;
        double fault_pps = e->faults.rate(now);
        Histogram::Snapshot ipp = e->instsPerPacket.snapshot(now);
        if (!first)
            line << ", ";
        first = false;
        line << "{\"engine\": " << e->engineId
             << ", \"packets\": " << e->packets.total()
             << ", \"pps\": " << jsonRate(pps)
             << ", \"bps\": " << jsonRate(bps)
             << ", \"mips\": " << jsonRate(mips)
             << ", \"faults\": " << e->faults.total()
             << ", \"fault_pps\": " << jsonRate(fault_pps)
             << ", \"queue_depth\": "
             << e->queueDepth.load(std::memory_order_relaxed)
             << ", \"insts_per_packet\": {\"count\": " << ipp.count
             << ", \"mean\": " << jsonRate(ipp.mean())
             << ", \"p50\": " << ipp.quantile(0.5)
             << ", \"p99\": " << ipp.quantile(0.99) << "}";
        line << ", \"topk\": [";
        std::vector<FlowTopK::Entry> top = e->topk.top(10);
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

        // Mirror the windowed view into registry gauges so the live
        // Prometheus rewrite (and the final report) carries it too.
        reg.gauge(strprintf("stats.engine%u.pps", e->engineId))
            .set(pps);
        reg.gauge(strprintf("stats.engine%u.bps", e->engineId))
            .set(bps);
        reg.gauge(strprintf("stats.engine%u.mips", e->engineId))
            .set(mips);
        reg.gauge(strprintf("stats.engine%u.queue_depth",
                            e->engineId))
            .set(static_cast<double>(
                e->queueDepth.load(std::memory_order_relaxed)));
    }
    line << "]";

    // Close the record with its own cost, measured up to here; the
    // file write and prom rewrite below are part of the next gap.
    uint64_t snapshot_ns = telemetryNowNs() - snap_start;
    line << ", \"snapshot_ns\": " << snapshot_ns << "}";
    reg.counter("obs.stats.snapshot_ns").add(snapshot_ns);
    reg.counter("obs.stats.records").add(1);

    *out << line.str() << "\n";
    out->flush();
    written.fetch_add(1, std::memory_order_relaxed);

    if (!promPath.empty()) {
        // Write-then-rename: a scraper reading promPath never sees a
        // torn snapshot.  The temp name carries the pid so two
        // processes told to expose at the same promPath stage in
        // distinct files instead of clobbering each other; a failed
        // write or rename must not leak the staging file, and is
        // counted so the run report shows the exposure ever broke.
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
}

} // namespace pb::obs
