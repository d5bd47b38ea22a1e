/**
 * @file
 * PacketBenchd implementation: run-loop wiring and the console
 * speed reporter.
 */

#include "daemon.hh"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.hh"
#include "common/shutdown.hh"
#include "obs/stats.hh"

namespace pb::service
{

namespace
{

/**
 * Periodic console speed line from the live telemetry hub, in the
 * spirit of per-core Mpps/Gbps lines from packet-analytics daemons.
 * Runs on its own thread; stop() wakes and joins it.
 */
class SpeedReporter
{
  public:
    SpeedReporter(const IngestRing &ring,
                  const TraceReplayer &replayer,
                  uint32_t interval_ms)
        : ring(ring), replayer(replayer), intervalMs(interval_ms)
    {
        thread = std::thread([this] { loop(); });
    }

    ~SpeedReporter() { stop(); }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            if (stopping)
                return;
            stopping = true;
        }
        cv.notify_all();
        thread.join();
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu);
        while (!cv.wait_for(
            lock, std::chrono::milliseconds(intervalMs),
            [this] { return stopping; })) {
            lock.unlock();
            emit();
            lock.lock();
        }
    }

    void
    emit()
    {
        uint64_t now = obs::telemetryNowNs();
        double pps = 0.0, bps = 0.0, mips = 0.0;
        std::string per_engine;
        for (const obs::EngineTelemetry *e :
             obs::Telemetry::instance().engines()) {
            double epps = e->packets.rate(now);
            pps += epps;
            bps += e->bytes.rate(now) * 8.0;
            mips += e->insts.rate(now) / 1e6;
            per_engine += strprintf(" e%u=%.2f", e->engineId,
                                    epps / 1e6);
        }
        fprintf(stderr,
                "[packetbenchd] %.3f Mpps %.3f Gbps %.1f MIPS |%s"
                " | ring %zu/%zu | replayed %llu (%llu loops,"
                " %llu dropped)\n",
                pps / 1e6, bps / 1e9, mips,
                per_engine.empty() ? " idle" : per_engine.c_str(),
                ring.size(), ring.capacity(),
                static_cast<unsigned long long>(replayer.packets()),
                static_cast<unsigned long long>(replayer.loops()),
                static_cast<unsigned long long>(ring.dropped()));
        fflush(stderr);
    }

    const IngestRing &ring;
    const TraceReplayer &replayer;
    uint32_t intervalMs;

    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
};

} // namespace

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

    // Light the per-packet telemetry gate so the reporter's windowed
    // rates are fed even without a --stats pump; restore the prior
    // state (a pump may own it) on every exit path.
    bool prev_stats = obs::statsEnabled();
    obs::setStatsEnabled(true);

    auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<SpeedReporter> reporter;
    if (cfg.speedIntervalMs)
        reporter = std::make_unique<SpeedReporter>(
            ring, replayer, cfg.speedIntervalMs);

    ServiceResult res;
    replayer.start();
    IngestSource source(ring, "ingest");
    try {
        res.mc = mc.run(source, UINT64_MAX);
    } catch (...) {
        // An engine failed: release the producer (push() observes
        // the closed ring) and the reporter before rethrowing, so
        // the process dies from the engine's error, not a hang.
        ring.close();
        replayer.stop();
        replayer.join();
        if (reporter)
            reporter->stop();
        obs::setStatsEnabled(prev_stats);
        throw;
    }

    // run() came back: either the replayer closed the ring (corpus
    // done) or a shutdown broke the dispatcher loop.  Either way the
    // producer unblocks promptly (push() polls the shutdown flag).
    replayer.stop();
    replayer.join();
    if (reporter)
        reporter->stop();

    res.replayed = replayer.packets();
    res.loops = replayer.loops();
    res.ringDropped = ring.dropped();
    res.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    res.shutdownBySignal = shutdownRequested();
    obs::setStatsEnabled(prev_stats);
    return res;
}

} // namespace pb::service
