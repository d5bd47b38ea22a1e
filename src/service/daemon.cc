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
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/shutdown.hh"
#include "obs/stats.hh"

namespace pb::service
{

namespace
{

/**
 * Periodic console speed line, in the spirit of per-core Mpps/Gbps
 * lines from packet-analytics daemons.  Rates are differences of the
 * engines' since-start totals (obs::EngineTelemetry::totals) between
 * ticks, so the line needs no per-packet telemetry gate.  Runs on
 * its own thread; stop() wakes and joins it.
 */
class SpeedReporter
{
  public:
    SpeedReporter(const IngestRing &ring,
                  const TraceReplayer &replayer, uint32_t num_engines,
                  uint32_t interval_ms)
        : ring(ring), replayer(replayer), intervalMs(interval_ms),
          prevNs(obs::telemetryNowNs())
    {
        for (uint32_t e = 0; e < num_engines; e++) {
            const obs::EngineTelemetry &telem =
                obs::Telemetry::instance().engine(e);
            engines.push_back({&telem, read(telem)});
        }
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
    /** One engine's since-start totals at a tick. */
    struct Totals
    {
        uint64_t packets = 0;
        uint64_t bytes = 0;
        uint64_t insts = 0;
    };

    struct Engine
    {
        const obs::EngineTelemetry *telem;
        Totals prev;
    };

    static Totals
    read(const obs::EngineTelemetry &telem)
    {
        const auto &t = telem.totals;
        return {t.packets.load(std::memory_order_relaxed),
                t.bytes.load(std::memory_order_relaxed),
                t.insts.load(std::memory_order_relaxed)};
    }

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
        uint64_t now_ns = obs::telemetryNowNs();
        double dt = static_cast<double>(now_ns - prevNs) / 1e9;
        prevNs = now_ns;
        // Totals only grow, except when a test resets the hub.
        auto rate = [dt](uint64_t now, uint64_t prev) {
            return static_cast<double>(now >= prev ? now - prev : now) /
                   dt;
        };
        double pps = 0.0, bps = 0.0, mips = 0.0;
        std::string per_engine;
        for (Engine &e : engines) {
            Totals now = read(*e.telem);
            double epps = rate(now.packets, e.prev.packets);
            pps += epps;
            bps += rate(now.bytes, e.prev.bytes) * 8.0;
            mips += rate(now.insts, e.prev.insts) / 1e6;
            per_engine += strprintf(" e%u=%.2f", e.telem->engineId,
                                    epps / 1e6);
            e.prev = now;
        }
        fprintf(stderr,
                "[packetbenchd] %.3f Mpps %.3f Gbps %.1f MIPS |%s"
                " | ring %zu/%zu | replayed %llu (%llu loops,"
                " %llu dropped)\n",
                pps / 1e6, bps / 1e9, mips, per_engine.c_str(),
                ring.size(), ring.capacity(),
                static_cast<unsigned long long>(replayer.packets()),
                static_cast<unsigned long long>(replayer.loops()),
                static_cast<unsigned long long>(replayer.dropped()));
        fflush(stderr);
    }

    const IngestRing &ring;
    const TraceReplayer &replayer;
    uint32_t intervalMs;
    uint64_t prevNs;
    std::vector<Engine> engines;

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

    auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<SpeedReporter> reporter;
    if (cfg.speedIntervalMs)
        reporter = std::make_unique<SpeedReporter>(
            ring, replayer, mc.numEngines(), cfg.speedIntervalMs);

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
    if (reporter)
        reporter->stop();
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
