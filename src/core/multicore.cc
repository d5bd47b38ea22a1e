/**
 * @file
 * Multi-engine simulation implementation.
 */

#include "multicore.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <span>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/shutdown.hh"
#include "common/spscqueue.hh"
#include "net/ipv4.hh"
#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "obs/tracing.hh"

namespace pb::core
{

double
MultiCoreResult::imbalance() const
{
    if (engines.empty() || totalInstructions == 0)
        return 1.0;
    uint64_t max_insts = 0;
    for (const auto &load : engines)
        max_insts = std::max(max_insts, load.instructions);
    double mean = static_cast<double>(totalInstructions) /
                  static_cast<double>(engines.size());
    return mean > 0.0 ? static_cast<double>(max_insts) / mean : 1.0;
}

double
MultiCoreResult::speedup() const
{
    uint64_t max_insts = 0;
    for (const auto &load : engines)
        max_insts = std::max(max_insts, load.instructions);
    return max_insts
               ? static_cast<double>(totalInstructions) / max_insts
               : 1.0;
}

namespace
{

/**
 * @name Engine hand-off spin budget.
 * The dispatcher and the workers usually find their peer mid-stream,
 * so each retries the non-waiting queue call before parking in the
 * queue: handoffPauses pause instructions, then yields, handoffSpins
 * iterations in all.  Parking at once costs throughput here; the
 * queue itself never spins, so an idle daemon burns no CPU.
 * @{
 */
constexpr int handoffPauses = 256;
constexpr int handoffSpins = 2048;
/** @} */

/** Iteration @p i of the hand-off spin. */
void
spinPause(int i)
{
    if (i >= handoffPauses) {
        std::this_thread::yield();
        return;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
}

using PacketQueue = SpscQueue<net::Packet>;

/**
 * Dispatcher: queue every packet of @p packets, spinning on tryPush()
 * before parking in push().  Stops early only if the worker closed
 * the queue.
 */
void
spinThenPush(PacketQueue &queue, std::span<net::Packet> packets)
{
    size_t queued = queue.tryPush(packets);
    for (int i = 0; i < handoffSpins && queued < packets.size() &&
                    !queue.closed();
         i++) {
        spinPause(i);
        queued += queue.tryPush(packets.subspan(queued));
    }
    if (queued < packets.size())
        queue.push(packets.subspan(queued));
}

/**
 * Worker: append up to @p max packets to @p out, spinning on tryPop()
 * before parking in popBatch().  False once the queue is closed and
 * drained.
 */
bool
spinThenPop(PacketQueue &queue, std::vector<net::Packet> &out,
            size_t max)
{
    for (int i = 0; i < handoffSpins && !queue.closed(); i++) {
        if (queue.tryPop(out, max))
            return true;
        spinPause(i);
    }
    return queue.popBatch(out, max);
}

} // namespace

MultiCoreBench::MultiCoreBench(const AppFactory &factory,
                               uint32_t num_engines, BenchConfig cfg_)
    : cfg(cfg_)
{
    if (num_engines == 0)
        fatal("MultiCoreBench: need at least one engine");
    for (uint32_t i = 0; i < num_engines; i++) {
        apps.push_back(factory());
        BenchConfig engine_cfg = cfg;
        engine_cfg.engineId = i;
        engines.push_back(
            std::make_unique<PacketBench>(*apps.back(), engine_cfg));
    }
    dispatchedPackets.assign(num_engines, 0);
}

uint32_t
MultiCoreBench::leastLoadedEngine() const
{
    uint32_t best = 0;
    for (uint32_t e = 1; e < numEngines(); e++) {
        if (dispatchedPackets[e] < dispatchedPackets[best])
            best = e;
    }
    return best;
}

uint32_t
MultiCoreBench::placeByHash(bool has_tuple, uint32_t hash)
{
    const bool stealing =
        cfg.dispatchPolicy == DispatchPolicy::Stealing;
    if (!has_tuple) {
        // No 5-tuple (non-IPv4, truncated): spread instead of
        // pinning everything to engine 0, which would skew
        // mc.imbalance.  No flow identity means no order constraint,
        // so Stealing places each such packet least-loaded.
        PB_COUNTER("mc.dispatch.no_tuple");
        uint32_t e = stealing ? leastLoadedEngine()
                              : rrNext++ % numEngines();
        dispatchedPackets[e]++;
        return e;
    }
    uint32_t home = hash % numEngines();
    if (!stealing) {
        // Flow pinning: hash the 5-tuple so a flow's state stays on
        // one engine.  The dispatch hash is independent of the
        // application's own bucket hash to avoid correlated
        // imbalance.
        dispatchedPackets[home]++;
        return home;
    }
    // Stealing: an established flow stays on its recorded engine
    // (flow order per 5-tuple); a new flow goes to the least-loaded
    // engine, which steers mice away from an elephant's engine.
    auto [it, inserted] = flowHome.try_emplace(hash, 0);
    if (inserted) {
        it->second = leastLoadedEngine();
        if (it->second != home)
            PB_COUNTER("mc.dispatch.stolen");
    }
    dispatchedPackets[it->second]++;
    return it->second;
}

uint32_t
MultiCoreBench::dispatchIndex(const net::Packet &packet)
{
    net::FiveTuple tuple;
    bool has_tuple = parseFiveTuple(packet, tuple);
    return placeByHash(has_tuple,
                       has_tuple ? net::flowHash(tuple) : 0);
}

uint32_t
MultiCoreBench::processPacket(net::Packet &packet)
{
    uint32_t index = dispatchIndex(packet);
    engines[index]->processPacket(packet);
    PB_COUNTER("mc.packets");
    return index;
}

MultiCoreResult
MultiCoreBench::runSerial(net::TraceSource &source,
                          uint64_t max_packets)
{
    for (uint64_t i = 0; i < max_packets; i++) {
        // Graceful shutdown: stop pulling new packets; everything
        // processed so far stays recorded and flushes normally.
        if (shutdownRequested())
            break;
        auto packet = source.next();
        if (!packet)
            break;
        processPacket(*packet);
    }
    return result();
}

MultiCoreResult
MultiCoreBench::runParallel(net::TraceSource &source,
                            uint64_t max_packets)
{
    const uint32_t n = numEngines();
    const uint32_t batch_size = std::max<uint32_t>(1, cfg.dispatchBatch);
    const uint32_t depth = std::max<uint32_t>(1, cfg.queueDepth);

    std::vector<std::unique_ptr<PacketQueue>> queues;
    queues.reserve(n);
    for (uint32_t e = 0; e < n; e++)
        queues.push_back(std::make_unique<PacketQueue>(
            static_cast<size_t>(depth) * batch_size));

    std::mutex error_mu;
    std::exception_ptr first_error;
    std::atomic<bool> abort{false};

    // One worker per engine; only worker e touches engines[e], so
    // per-engine state needs no locking (thread start and join order
    // the accesses against this thread).  A worker that throws
    // records the exception, raises abort and closes its own queue,
    // which releases a dispatcher parked on it.
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (uint32_t e = 0; e < n; e++) {
        workers.emplace_back([&, e] {
            if (obs::traceEnabled())
                obs::Tracer::instance().setThreadName(
                    strprintf("engine %u", e));
            PacketQueue &queue = *queues[e];
            std::vector<net::Packet> batch;
            batch.reserve(batch_size);
            while (spinThenPop(queue, batch, batch_size)) {
                PB_TRACE_SPAN_NAMED(batch_span, "mc",
                                    "worker.batch");
                batch_span.arg("engine",
                               static_cast<uint64_t>(e));
                batch_span.arg("batch",
                               static_cast<uint64_t>(batch.size()));
                try {
                    // Under Drop/Quarantine a faulting packet is an
                    // outcome, not an exception, so it cannot poison
                    // the run; only Abort (or a framework bug)
                    // reaches the catch below.
                    for (auto &packet : batch)
                        engines[e]->processPacket(packet);
                    engines[e]->publishInterpMetrics();
                } catch (...) {
                    {
                        std::lock_guard<std::mutex> lock(error_mu);
                        if (!first_error)
                            first_error = std::current_exception();
                    }
                    abort.store(true, std::memory_order_release);
                    queue.close();
                    break;
                }
                batch.clear();
            }
        });
    }

    // The dispatcher (this thread) makes every dispatch decision in
    // trace order with the same hash as the serial path, so engine e
    // receives the identical packet subsequence either way.
    obs::Counter &packets_ctr =
        obs::defaultRegistry().counter("mc.packets");
    obs::Counter &batches_ctr =
        obs::defaultRegistry().counter("mc.batches");

    // Queue-occupancy counter series, one per engine ("mc.queue0",
    // ...); names are interned so rings can store bare pointers.
    std::vector<const char *> queue_names;
    if (obs::traceEnabled()) {
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.setThreadName("dispatcher");
        for (uint32_t e = 0; e < n; e++)
            queue_names.push_back(
                tracer.intern(strprintf("mc.queue%u", e)));
    }
    // Queue-occupancy sampling for the live telemetry plane: the
    // dispatcher publishes each queue's depth (in packets) after
    // every hand-off, so the stats pump reports how far each engine
    // is behind its feed.
    std::vector<obs::EngineTelemetry *> telem;
    telem.reserve(n);
    for (uint32_t e = 0; e < n; e++)
        telem.push_back(&obs::Telemetry::instance().engine(e));

    std::vector<std::vector<net::Packet>> pending(n);
    for (auto &batch : pending)
        batch.reserve(batch_size);
    auto push_batch = [&](uint32_t e) {
        PB_TRACE_SPAN_NAMED(span, "mc", "dispatch");
        span.arg("engine", static_cast<uint64_t>(e));
        span.arg("batch", static_cast<uint64_t>(pending[e].size()));
        spinThenPush(*queues[e], pending[e]);
        pending[e].clear();
        batches_ctr.add(1);
        telem[e]->queueDepth.store(queues[e]->size(),
                                   std::memory_order_relaxed);
        if (obs::traceEnabled())
            obs::traceCounter("mc", queue_names[e],
                              queues[e]->size());
    };
    // Batched front end: stage up to hash_batch packets, parse and
    // flow-hash their headers in one call, then make every placement
    // decision in trace order with the serial path's hash, so engine
    // e still receives exactly the serial path's packet subsequence.
    constexpr uint32_t hash_batch = 16;
    obs::Counter &hash_batches_ctr =
        obs::defaultRegistry().counter("mc.hash_batches");
    std::vector<net::Packet> staged;
    staged.reserve(hash_batch);
    const net::Packet *ptrs[hash_batch];
    uint32_t hash[hash_batch];
    bool valid[hash_batch];
    uint64_t taken = 0;
    bool stop = false;
    while (!stop) {
        staged.clear();
        while (staged.size() < hash_batch && taken < max_packets) {
            // Graceful shutdown / worker abort: stop pulling, then
            // fall through to the drain below — staged packets are
            // still placed, pending batches are pushed, queues are
            // closed, and every worker finishes what it was handed,
            // so the run ends with complete, flushable accounting.
            if (shutdownRequested() ||
                abort.load(std::memory_order_acquire)) {
                stop = true;
                break;
            }
            auto packet = source.next();
            if (!packet) {
                stop = true;
                break;
            }
            taken++;
            staged.push_back(std::move(*packet));
        }
        if (taken >= max_packets)
            stop = true;
        if (staged.empty())
            break;
        const unsigned count = static_cast<unsigned>(staged.size());
        for (unsigned i = 0; i < count; i++)
            ptrs[i] = &staged[i];
        {
            PB_SCOPED_TIMER("simd.hash_ns");
            net::hashPacketBatch(ptrs, count, hash, valid);
        }
        hash_batches_ctr.add(1);
        for (unsigned i = 0; i < count; i++) {
            uint32_t e = placeByHash(valid[i], hash[i]);
            packets_ctr.add(1);
            pending[e].push_back(std::move(staged[i]));
            if (pending[e].size() >= batch_size)
                push_batch(e);
        }
    }
    for (uint32_t e = 0; e < n; e++) {
        if (!pending[e].empty())
            push_batch(e);
        queues[e]->close();
    }
    for (auto &worker : workers)
        worker.join();
    // Drained: don't leave the last sampled depth dangling in the
    // live view after the run ends.
    for (uint32_t e = 0; e < n; e++)
        telem[e]->queueDepth.store(0, std::memory_order_relaxed);
    if (first_error)
        std::rethrow_exception(first_error);
    return result();
}

MultiCoreResult
MultiCoreBench::run(net::TraceSource &source, uint64_t max_packets)
{
    auto start = std::chrono::steady_clock::now();
    MultiCoreResult res = cfg.parallel && numEngines() > 1
                              ? runParallel(source, max_packets)
                              : runSerial(source, max_packets);
    res.wallNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    for (auto &engine : engines)
        engine->publishInterpMetrics();
    publishRunMetrics(res);
    return res;
}

void
MultiCoreBench::publishRunMetrics(const MultiCoreResult &res)
{
    obs::Registry &reg = obs::defaultRegistry();
    reg.gauge("mc.engines").set(numEngines());
    reg.gauge("mc.imbalance").set(res.imbalance());
    reg.gauge("mc.speedup").set(res.speedup());
    reg.gauge("mc.parallel").set(cfg.parallel ? 1.0 : 0.0);
    reg.gauge("mc.dispatch_stealing")
        .set(cfg.dispatchPolicy == DispatchPolicy::Stealing ? 1.0
                                                            : 0.0);
    reg.gauge("mc.dispatch.flows")
        .set(static_cast<double>(flowHome.size()));
    reg.counter("mc.wall_ns").add(res.wallNs);
    // Per-engine aggregation: one gauge pair per engine, so reports
    // expose the load split instead of one clobbered global value.
    for (uint32_t e = 0; e < numEngines(); e++) {
        reg.gauge(strprintf("mc.engine%u.packets", e))
            .set(static_cast<double>(res.engines[e].packets));
        reg.gauge(strprintf("mc.engine%u.insts", e))
            .set(static_cast<double>(res.engines[e].instructions));
        reg.gauge(strprintf("mc.engine%u.bytes", e))
            .set(static_cast<double>(res.engines[e].bytes));
        reg.gauge(strprintf("mc.engine%u.faults", e))
            .set(static_cast<double>(res.engines[e].faults));
    }
}

MultiCoreResult
MultiCoreBench::result() const
{
    MultiCoreResult res;
    for (const auto &engine : engines) {
        obs::EngineCounts::Reading counts = engine->counts().read();
        EngineLoad &load = res.engines.emplace_back();
        load.packets = counts.packets();
        load.instructions = counts.insts;
        load.bytes = counts.bytes;
        load.faults = counts.faults();
        res.totalPackets += load.packets;
        res.totalInstructions += load.instructions;
        res.totalFaults += load.faults;
    }
    return res;
}

} // namespace pb::core
