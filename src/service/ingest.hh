/**
 * @file
 * Packet-ingest ring: the boundary between packet producers and the
 * processing engines in service mode.
 *
 * A persistent daemon (service/daemon.hh) does not own its input the
 * way a batch run owns a trace file: packets arrive continuously
 * from whoever produces them — the built-in rate-controlled trace
 * replayer (service/replay.hh) today, sockets or shared-memory
 * producers tomorrow.  IngestRing is that boundary: a bounded MPMC
 * queue of packets that any number of producer threads feed and any
 * number of consumers drain (the daemon runs one consumer, the
 * MultiCoreBench dispatcher, which preserves arrival order into the
 * flow-ordered per-engine queues).
 *
 * The ring moves packets in batches: one lock and one wake-up per
 * batch of up to maxBatch packets, not per packet.  Producers fill a
 * local batch and hand it over; consumers take a batch and drain it
 * locally.  Capacity stays a bound in packets.
 *
 * Semantics:
 *  - pushBatch() blocks while the ring is full (back-pressure onto
 *    the producer — replay pacing), and stops once the ring is
 *    closed or a process shutdown is requested, so a parked
 *    producer can never deadlock a terminating daemon;
 *  - tryPushBatch() never blocks: packets that do not fit are
 *    dropped and counted ("service.ingest.dropped"), which is NIC
 *    semantics for an overrun — the mode for producers that must
 *    not stall;
 *  - popBatch() blocks while the ring is empty and returns false
 *    once the ring is closed *and* drained (close() wakes all
 *    waiters);
 *  - IngestSource adapts the consumer side to net::TraceSource, so
 *    the whole existing engine/bench stack runs off a live ring
 *    unchanged.
 *
 * The ring is mutex-based: a lock + condvar keeps parked producers
 * and consumers at near-zero CPU, which is the daemon's idle
 * contract, and batching keeps the lock off the per-packet path.
 */

#ifndef PB_SERVICE_INGEST_HH
#define PB_SERVICE_INGEST_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "net/trace.hh"

namespace pb::service
{

/** Bounded MPMC packet queue between producers and the dispatcher. */
class IngestRing
{
  public:
    /** Most packets the replayer and IngestSource move per lock. */
    static constexpr size_t maxBatch = 64;

    /** @param capacity maximum queued packets (back-pressure bound) */
    explicit IngestRing(size_t capacity);

    IngestRing(const IngestRing &) = delete;
    IngestRing &operator=(const IngestRing &) = delete;

    /**
     * Enqueue every packet of @p batch in order, blocking while the
     * ring is full, and leave @p batch empty.  Stops early — the
     * rest of @p batch is discarded, not queued — once the ring is
     * closed or a graceful shutdown is requested
     * (common/shutdown.hh), so a producer parked on a full ring
     * always unblocks on teardown.
     * @return packets queued (batch.size() unless it stopped early)
     */
    size_t pushBatch(std::vector<net::Packet> &batch);

    /**
     * Non-blocking enqueue of @p batch, leaving it empty.  Packets
     * that do not fit in a full (or closed) ring are refused and
     * counted into dropped() / "service.ingest.dropped".
     * @return packets queued
     */
    size_t tryPushBatch(std::vector<net::Packet> &batch);

    /**
     * Append up to @p max queued packets to @p out, blocking while
     * the ring is empty.  Returns false — leaving @p out alone —
     * once the ring is closed and fully drained.
     */
    bool popBatch(std::vector<net::Packet> &out, size_t max = maxBatch);

    /**
     * No further pushes will be accepted; wakes every parked
     * producer and consumer.  Consumers still drain queued packets.
     */
    void close();

    /** True once close() was called (packets may still be queued). */
    bool closed() const;

    /** Current occupancy in packets. */
    size_t size() const;

    /** Maximum occupancy in packets. */
    size_t capacity() const { return slots.size(); }

    /** Packets accepted into the ring so far. */
    uint64_t
    accepted() const
    {
        return accepted_.load(std::memory_order_relaxed);
    }

    /** Packets refused by tryPushBatch() so far. */
    uint64_t
    dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * Move packets from @p batch[from..] into free slots, as many as
     * fit; caller holds mu.  Returns the number moved.
     */
    size_t enqueueLocked(std::vector<net::Packet> &batch, size_t from);

    mutable std::mutex mu;
    std::condition_variable notFull;
    std::condition_variable notEmpty;
    /** Circular buffer of capacity() packets; guarded by mu. */
    std::vector<net::Packet> slots;
    size_t head = 0;  ///< oldest queued packet; guarded by mu
    size_t count = 0; ///< queued packets; guarded by mu
    bool closed_ = false;

    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> dropped_{0};
};

/**
 * TraceSource view of an IngestRing's consumer side: next() hands
 * out a locally held batch and blocks on the live ring only to take
 * the next one; it reports end-of-trace when the ring is closed and
 * drained.  This is what lets MultiCoreBench::run() — and with it
 * every dispatch, fault, and telemetry behavior of the batch path —
 * serve continuous ingest unchanged.
 */
class IngestSource : public net::TraceSource
{
  public:
    explicit IngestSource(IngestRing &ring,
                          std::string label = "ingest")
        : ring(ring), label(std::move(label))
    {
    }

    std::optional<net::Packet> next() override;
    std::string name() const override { return label; }

  private:
    IngestRing &ring;
    std::string label;
    std::vector<net::Packet> local;
    size_t nextLocal = 0;
};

} // namespace pb::service

#endif // PB_SERVICE_INGEST_HH
