/**
 * @file
 * Host measurements, in-memory sources, and trace reductions shared
 * by the workloads and the probes.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <unistd.h>

#include "net/tracegen.hh"
#include "obs/metrics.hh"
#include "perfbench.hh"

namespace perfbench
{

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
rssMb()
{
    std::ifstream in("/proc/self/statm");
    unsigned long long size = 0, resident = 0;
    in >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        unsigned long long kb = 0;
        if (std::sscanf(line.c_str(), "VmHWM: %llu kB", &kb) == 1)
            return static_cast<double>(kb) / 1024.0;
    }
    return 0.0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

uint64_t
packetDigest(const std::vector<net::Packet> &packets, uint64_t seed)
{
    uint64_t h = seed;
    for (const net::Packet &p : packets) {
        for (uint8_t b : p.bytes) {
            h ^= b;
            h *= 1099511628211ull;
        }
    }
    return h;
}

std::vector<net::Packet>
generate(net::Profile profile, uint32_t count, uint32_t seed)
{
    net::SyntheticTrace trace(profile, count, seed);
    std::vector<net::Packet> packets;
    packets.reserve(count);
    while (auto packet = trace.next())
        packets.push_back(std::move(*packet));
    return packets;
}

std::optional<net::Packet>
MemorySource::next()
{
    if (pos >= packets.size())
        return std::nullopt;
    using Clock = std::chrono::steady_clock;
    Clock::time_point t0 = clock ? Clock::now() : Clock::time_point{};
    net::Packet packet = packets[pos++];
    if (transform)
        transform(packet);
    if (clock) {
        clock->ns.fetch_add(
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0)
                    .count()),
            std::memory_order_relaxed);
        clock->packets.fetch_add(1, std::memory_order_relaxed);
    }
    return packet;
}

void
reduceEvents(const std::vector<obs::TraceEvent> &events, uint64_t t0,
             uint32_t engines, TracedRound &traced)
{
    // collect() sorts by start time, so each engine's spans arrive in
    // order; the engine index is the span's "engine" argument.
    std::vector<uint64_t> cursor(engines, t0);
    for (const obs::TraceEvent &e : events) {
        if (e.phase != obs::TracePhase::Complete)
            continue;
        if (std::strcmp(e.name, "packet") == 0) {
            traced.packetSpans.ns += e.dur;
            traced.packetSpans.count++;
        } else if (std::strcmp(e.name, "dispatch") == 0) {
            traced.dispatchSpans.ns += e.dur;
            traced.dispatchSpans.count++;
        } else if (std::strcmp(e.name, "worker.batch") == 0) {
            for (uint8_t i = 0; i < e.numArgs; i++) {
                if (std::strcmp(e.args[i].key, "engine") != 0 ||
                    e.args[i].u64 >= engines)
                    continue;
                uint64_t &at = cursor[e.args[i].u64];
                traced.busyNs += e.dur;
                traced.busyIdleNs += e.dur + (e.ts > at ? e.ts - at : 0);
                at = e.ts + e.dur;
            }
        }
    }
    const uint64_t t1 = t0 + traced.wallNs;
    for (uint64_t at : cursor)
        traced.busyIdleNs += t1 > at ? t1 - at : 0;
}

uint64_t
counterValue(const char *name)
{
    return obs::defaultRegistry().counter(name).value();
}

double
gaugeValue(const char *name)
{
    return obs::defaultRegistry().gauge(name).value();
}

} // namespace perfbench
