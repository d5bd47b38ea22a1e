/**
 * @file
 * Rate-controlled trace replayer: the daemon's built-in packet
 * producer.
 *
 * TraceReplayer owns a producer thread that pulls packets from a
 * TraceSource (fresh instance per pass, via a factory, so `--loop`
 * can recycle a finite corpus indefinitely), paces them through a
 * TokenBucket (service/ratelimit.hh), and feeds them into an
 * IngestRing (service/ingest.hh), whose only producer it is.  When
 * the corpus is exhausted (or maxPackets reached, or stop()/shutdown
 * requested) it closes the ring, which is the end-of-input signal
 * the consumer side (IngestSource) turns into end-of-trace.  A ring
 * closed by its consumer ends the replay.
 *
 * Packets travel in batches: the producer fills a local batch of up
 * to ingestBatch packets and hands it over when it is full, before
 * the token bucket makes it sleep, and before it closes the ring —
 * so a paced replay never holds a packet back while it waits.
 * maxPackets and packets() still count single packets.
 *
 * Overrun policy: by default the replayer parks on a full ring
 * (back-pressure — no packet is lost, the effective rate degrades to
 * what the engines sustain).  With dropWhenFull it uses tryPush()
 * instead — NIC semantics: the offered rate is held and overruns are
 * counted as drops (dropped(), "service.ingest.dropped").
 */

#ifndef PB_SERVICE_REPLAY_HH
#define PB_SERVICE_REPLAY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "net/trace.hh"
#include "service/ingest.hh"

namespace pb::service
{

/** Producer-side configuration for TraceReplayer. */
struct ReplayConfig
{
    /** Target offered rate in packets/second; 0 = as fast as the
     *  ring accepts. */
    uint64_t ratePps = 0;

    /** Token-bucket depth: max back-to-back burst at rate > 0. */
    uint64_t burst = 64;

    /** Recycle the corpus when it runs out (a fresh source per
     *  pass), until stopped or maxPackets is hit. */
    bool loop = false;

    /** Stop after this many packets offered; 0 = unbounded. */
    uint64_t maxPackets = 0;

    /** Full ring: drop-and-count (true) vs block (false). */
    bool dropWhenFull = false;
};

/** Background thread replaying a trace into an IngestRing. */
class TraceReplayer
{
  public:
    /** Creates one trace pass; called again for each `loop` pass. */
    using SourceFactory =
        std::function<std::unique_ptr<net::TraceSource>()>;

    /**
     * @param factory per-pass trace source factory
     * @param ring    destination ring (not owned; must outlive join)
     * @param cfg     pacing/looping policy
     */
    TraceReplayer(SourceFactory factory, IngestRing &ring,
                  ReplayConfig cfg);

    ~TraceReplayer();

    TraceReplayer(const TraceReplayer &) = delete;
    TraceReplayer &operator=(const TraceReplayer &) = delete;

    /** Spawn the producer thread (once). */
    void start();

    /**
     * Ask the producer to finish: it hands over the packets it holds
     * and closes the ring.
     */
    void stop();

    /**
     * Wait for the producer to finish and close the ring.  Always
     * safe to call; returns immediately when never started.
     */
    void join();

    /** Packets offered to the ring so far. */
    uint64_t packets() const
    {
        return sent.load(std::memory_order_relaxed);
    }

    /** Completed passes over the corpus so far. */
    uint64_t loops() const
    {
        return passes.load(std::memory_order_relaxed);
    }

    /** Packets the full ring refused under dropWhenFull so far. */
    uint64_t dropped() const
    {
        return refused.load(std::memory_order_relaxed);
    }

  private:
    void run();

    SourceFactory factory;
    IngestRing &ring;
    ReplayConfig cfg;

    std::thread thread;
    std::atomic<bool> started{false};
    std::atomic<bool> stopRequested{false};
    std::atomic<uint64_t> sent{0};
    std::atomic<uint64_t> passes{0};
    std::atomic<uint64_t> refused{0};
};

} // namespace pb::service

#endif // PB_SERVICE_REPLAY_HH
