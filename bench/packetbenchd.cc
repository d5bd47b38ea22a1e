/**
 * @file
 * packetbenchd: the persistent packet-processing service.
 *
 * Where every other bench binary runs a finite corpus to completion
 * and exits, packetbenchd keeps processing: a rate-controlled
 * replayer (token-bucket paced, optionally looping the corpus
 * forever) feeds an ingest ring, a dispatcher shards flows across N
 * engine workers, and live telemetry flows out through the usual
 * observability flags (`--stats` NDJSON stream, `--prom` snapshot
 * rewritten per tick) plus a periodic console speed line.  SIGINT or
 * SIGTERM drains and flushes everything, then exits 0.
 *
 * Flags (all `--name=value`, on top of the common `--report`,
 * `--prom`, `--trace`, `--stats`):
 *
 *   --app=flow|nat|tsa   application replicated per engine (flow)
 *   --profile=mra|cos|odu|lan  synthetic corpus profile     (mra)
 *   --packets=N          corpus size per pass               (20000)
 *   --seed=N             corpus generator seed              (7)
 *   --engines=N          processing engines / worker threads (2)
 *   --rate=PPS           offered packets/second; 0 = unpaced (0)
 *   --burst=N            token-bucket depth                 (64)
 *   --loop=0|1           recycle the corpus when exhausted  (0)
 *   --max=N              stop after N packets offered; 0 = ∞ (0)
 *   --duration=SECS      request shutdown after SECS; 0 = ∞ (0)
 *   --mode=pinned|stealing  flow-to-engine policy        (pinned)
 *   --drop-full=0|1      full ring drops (NIC) vs blocks    (0)
 *   --ring=N             ingest ring capacity in packets    (4096)
 *   --batch=N            dispatcher hand-off batch          (64)
 *   --depth=N            per-engine queue: depth x batch packets (8)
 *   --speed-ms=N         console speed line period; 0 = off (1000)
 *
 * Faulting packets are dropped and counted (FaultPolicy::Drop) —
 * a service must survive bad input, not abort on it.
 */

#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "apps/flow_class.hh"
#include "apps/nat_app.hh"
#include "apps/tsa_app.hh"
#include "bench_util.hh"
#include "common/texttable.hh"
#include "net/tracegen.hh"
#include "service/daemon.hh"

namespace
{

using namespace pb;

net::Profile
parseProfile(const std::string &name)
{
    if (name == "mra")
        return net::Profile::MRA;
    if (name == "cos")
        return net::Profile::COS;
    if (name == "odu")
        return net::Profile::ODU;
    if (name == "lan")
        return net::Profile::LAN;
    fatal("unknown --profile '%s' (mra|cos|odu|lan)", name.c_str());
}

core::MultiCoreBench::AppFactory
parseApp(const std::string &name)
{
    if (name == "flow")
        return [] { return std::make_unique<apps::FlowClassApp>(1024); };
    if (name == "nat")
        return [] { return std::make_unique<apps::NatApp>(); };
    if (name == "tsa")
        return [] { return std::make_unique<apps::TsaApp>(); };
    fatal("unknown --app '%s' (flow|nat|tsa)", name.c_str());
}

core::DispatchPolicy
parseMode(const std::string &name)
{
    if (name == "pinned")
        return core::DispatchPolicy::Pinned;
    if (name == "stealing")
        return core::DispatchPolicy::Stealing;
    fatal("unknown --mode '%s' (pinned|stealing)", name.c_str());
}

/**
 * Requests a graceful shutdown after a fixed wall-clock budget —
 * the `--duration` flag — through the same flag SIGTERM sets, so
 * timed runs and signaled runs exercise the identical drain path.
 */
class DurationGuard
{
  public:
    explicit DurationGuard(uint32_t seconds)
    {
        if (!seconds)
            return;
        thread = std::thread([this, seconds] {
            std::unique_lock<std::mutex> lock(mu);
            if (!cv.wait_for(lock, std::chrono::seconds(seconds),
                             [this] { return cancelled; }))
                requestShutdown(0);
        });
    }

    ~DurationGuard()
    {
        if (!thread.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mu);
            cancelled = true;
        }
        cv.notify_all();
        thread.join();
    }

  private:
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    bool cancelled = false;
};

} // namespace

int
main(int argc, char **argv)
{
    return bench::benchMain(argc, argv, [&] {
        std::string app =
            bench::fileArg(argc, argv, "app").value_or("flow");
        std::string profile =
            bench::fileArg(argc, argv, "profile").value_or("mra");
        std::string mode =
            bench::fileArg(argc, argv, "mode").value_or("pinned");
        uint32_t packets = bench::packetArg(argc, argv, 20'000);
        uint32_t seed = bench::uintArg(argc, argv, "seed", 7);

        service::ServiceConfig cfg;
        cfg.engines = bench::uintArg(argc, argv, "engines", 2);
        cfg.ringCapacity = bench::uintArg(argc, argv, "ring", 4096);
        cfg.speedIntervalMs =
            bench::uintArg(argc, argv, "speed-ms", 1000);
        cfg.replay.ratePps = bench::uintArg(argc, argv, "rate", 0);
        cfg.replay.burst = bench::uintArg(argc, argv, "burst", 64);
        cfg.replay.loop =
            bench::uintArg(argc, argv, "loop", 0) != 0;
        cfg.replay.maxPackets = bench::uintArg(argc, argv, "max", 0);
        cfg.replay.dropWhenFull =
            bench::uintArg(argc, argv, "drop-full", 0) != 0;
        cfg.bench.parallel = cfg.engines > 1;
        cfg.bench.dispatchBatch =
            bench::uintArg(argc, argv, "batch", 64);
        cfg.bench.queueDepth =
            bench::uintArg(argc, argv, "depth", 8);
        cfg.bench.dispatchPolicy = parseMode(mode);
        cfg.bench.faultPolicy = core::FaultPolicy::Drop;
        uint32_t duration =
            bench::uintArg(argc, argv, "duration", 0);

        bench::banner(
            strprintf("packetbenchd: %s x%u engines, %s corpus "
                      "(%u pkts/pass%s), rate=%llu pps, %s dispatch",
                      app.c_str(), cfg.engines, profile.c_str(),
                      packets, cfg.replay.loop ? ", looped" : "",
                      static_cast<unsigned long long>(
                          cfg.replay.ratePps),
                      mode.c_str()),
            "service mode: sustained rate-controlled processing, "
            "not run-to-completion");

        net::Profile prof = parseProfile(profile);
        service::PacketBenchd daemon(parseApp(app), cfg);

        DurationGuard guard(duration);
        service::ServiceResult res = daemon.run([prof, packets,
                                                 seed] {
            return std::make_unique<net::SyntheticTrace>(
                prof, packets, seed);
        });

        // End-of-run per-worker summary (the per-core Mpps/Gbps
        // table every packet daemon prints on exit).
        TextTable table(6);
        table.header({"engine", "packets", "Mpps", "Gbps",
                      "sim-MIPS", "faults"});
        double wall = res.wallSeconds > 0.0 ? res.wallSeconds : 1.0;
        for (size_t e = 0; e < res.mc.engines.size(); e++) {
            const core::EngineLoad &load = res.mc.engines[e];
            table.row(
                {strprintf("%zu", e),
                 strprintf("%llu", static_cast<unsigned long long>(
                                       load.packets)),
                 strprintf("%.4f", load.packets / wall / 1e6),
                 strprintf("%.4f",
                           load.bytes * 8.0 / wall / 1e9),
                 strprintf("%.2f", load.instructions / wall / 1e6),
                 strprintf("%llu", static_cast<unsigned long long>(
                                       load.faults))});
        }
        table.rule();
        table.row({"total",
                   strprintf("%llu", static_cast<unsigned long long>(
                                         res.mc.totalPackets)),
                   strprintf("%.4f",
                             res.mc.totalPackets / wall / 1e6),
                   "-",
                   strprintf("%.2f",
                             res.mc.totalInstructions / wall / 1e6),
                   strprintf("%llu", static_cast<unsigned long long>(
                                         res.mc.totalFaults))});
        std::printf("%s", table.render().c_str());
        std::printf("\nreplayed %llu packets in %llu passes, "
                    "%llu ring drops, %.2f s wall%s\n",
                    static_cast<unsigned long long>(res.replayed),
                    static_cast<unsigned long long>(res.loops),
                    static_cast<unsigned long long>(res.ringDropped),
                    res.wallSeconds,
                    res.shutdownBySignal
                        ? " (stopped by shutdown request)"
                        : "");
    });
}
