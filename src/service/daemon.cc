/**
 * @file
 * PacketBenchd implementation: run-loop wiring, with the console
 * speed line as a console-only stats pump.
 */

#include "daemon.hh"

#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/shutdown.hh"
#include "obs/stats.hh"

namespace pb::service
{

PacketBenchd::PacketBenchd(core::MultiCoreBench::AppFactory factory,
                           ServiceConfig cfg_in)
    : cfg(std::move(cfg_in)),
      mc(factory, cfg.engines ? cfg.engines : 1, cfg.bench)
{
}

ServiceResult
PacketBenchd::run(TraceReplayer::SourceFactory source_factory)
{
    IngestRing ring(cfg.ringCapacity);
    TraceReplayer replayer(std::move(source_factory), ring,
                           cfg.replay);

    auto t0 = std::chrono::steady_clock::now();
    // The speed line is a pump with only the console sink: it
    // differences the engines' since-start totals, so it needs no
    // NDJSON file and leaves the per-packet gate down.
    obs::StatsPump speed;
    if (cfg.speedIntervalMs) {
        speed.setConsole(
            "packetbenchd", mc.numEngines(), [&ring, &replayer] {
                return strprintf(
                    " | ring %zu/%zu | replayed %llu (%llu loops,"
                    " %llu dropped)",
                    ring.size(), ring.capacity(),
                    static_cast<unsigned long long>(
                        replayer.packets()),
                    static_cast<unsigned long long>(replayer.loops()),
                    static_cast<unsigned long long>(
                        replayer.dropped()));
            });
        speed.start("", cfg.speedIntervalMs);
    }

    ServiceResult res;
    replayer.start();
    IngestSource source(ring, "ingest");
    std::exception_ptr error;
    try {
        res.mc = mc.run(source, UINT64_MAX);
    } catch (...) {
        error = std::current_exception();
    }

    // run() came back: the replayer closed the ring (corpus done), a
    // shutdown broke the dispatcher loop, or an engine failed.
    // Closing the ring releases a replayer parked on a full one, so
    // the process ends with a drained run or the engine's error, not
    // a hang.
    replayer.stop();
    ring.close();
    replayer.join();
    speed.stop();
    if (error)
        std::rethrow_exception(error);

    res.replayed = replayer.packets();
    res.loops = replayer.loops();
    res.ringDropped = replayer.dropped();
    res.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    res.shutdownBySignal = shutdownRequested();
    return res;
}

} // namespace pb::service
