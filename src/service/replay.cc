/**
 * @file
 * TraceReplayer implementation.
 *
 * Termination paths all converge on closing the ring from run():
 * corpus exhausted (non-loop), maxPackets reached, stop() called,
 * process shutdown requested, or the consumer closed the ring.  A
 * consumer that did not close it then drains what is queued and sees
 * end-of-trace, so no packet accepted into the ring is lost to
 * teardown.
 */

#include "replay.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/shutdown.hh"
#include "obs/metrics.hh"
#include "service/ratelimit.hh"

namespace pb::service
{

TraceReplayer::TraceReplayer(SourceFactory factory, IngestRing &ring,
                             ReplayConfig cfg)
    : factory(std::move(factory)), ring(ring), cfg(cfg)
{
}

TraceReplayer::~TraceReplayer()
{
    stop();
    join();
}

void
TraceReplayer::start()
{
    bool expected = false;
    if (!started.compare_exchange_strong(expected, true))
        return;
    thread = std::thread([this] { run(); });
}

void
TraceReplayer::stop()
{
    stopRequested.store(true, std::memory_order_relaxed);
}

void
TraceReplayer::join()
{
    if (thread.joinable())
        thread.join();
}

void
TraceReplayer::run()
{
    TokenBucket bucket(cfg.ratePps, cfg.burst);
    const size_t batch_max = std::min(ingestBatch, ring.capacity());
    std::vector<net::Packet> batch;
    batch.reserve(batch_max);
    uint64_t taken = 0; // packets pulled into a batch (maxPackets)

    // Hand the local batch to the ring.  Returns false once the ring
    // is closed under us; dropped overruns are still offered packets.
    auto hand_over = [&] {
        if (batch.empty())
            return true;
        const size_t n = batch.size();
        const size_t queued =
            cfg.dropWhenFull ? ring.tryPush(batch) : ring.push(batch);
        batch.clear();
        PB_COUNTER_ADD("service.ingest.accepted", queued);
        uint64_t offered = queued;
        if (cfg.dropWhenFull) {
            offered = n;
            refused.fetch_add(n - queued, std::memory_order_relaxed);
            PB_COUNTER_ADD("service.ingest.dropped", n - queued);
        }
        sent.fetch_add(offered, std::memory_order_relaxed);
        PB_COUNTER_ADD("service.replay.packets", offered);
        return queued == n || (cfg.dropWhenFull && !ring.closed());
    };

    bool done = false;
    while (!done) {
        std::unique_ptr<net::TraceSource> source = factory();
        if (!source)
            break;
        bool pass_complete = true;
        for (;;) {
            if (stopRequested.load(std::memory_order_relaxed) ||
                shutdownRequested() ||
                (cfg.maxPackets && taken >= cfg.maxPackets)) {
                done = true;
                pass_complete = false;
                break;
            }
            std::optional<net::Packet> packet = source->next();
            if (!packet)
                break; // corpus exhausted: maybe loop
            // A paced producer hands over what it holds before it
            // sleeps for a token, so pacing never holds packets back.
            if (!bucket.tryAcquire() &&
                (!hand_over() || !bucket.acquire())) {
                done = true; // ring closed, or shutdown while pacing
                pass_complete = false;
                break;
            }
            batch.push_back(std::move(*packet));
            taken++;
            if (batch.size() >= batch_max && !hand_over()) {
                done = true;
                pass_complete = false;
                break;
            }
        }
        if (pass_complete) {
            passes.fetch_add(1, std::memory_order_relaxed);
            PB_COUNTER("service.replay.loops");
            if (!cfg.loop)
                done = true;
        }
    }
    hand_over();
    ring.close();
}

} // namespace pb::service
