/**
 * @file
 * Bounded single-producer/single-consumer queue: the one queue every
 * packet hand-off uses.
 *
 * The daemon's replayer feeds the dispatcher through one
 * (service/ingest.hh), and the parallel multi-engine run loop
 * (core/multicore.hh) feeds each engine's worker through another.
 * Each pairing is exactly SPSC, so the fast path needs no lock: a
 * ring buffer with a head/tail pair of monotonic item counts.  Items
 * move in batches, one index store and one wake check per batch, and
 * the bounded capacity (in items) is the back-pressure.
 *
 * A side that must wait parks on a condition variable at once; the
 * peer takes the lock to wake it only when someone is parked, so the
 * streaming path stays an acquire load of the peer's index, a seq_cst
 * store of its own and an uncontended flag load.  Parked sides burn
 * no CPU, which is the daemon's idle contract.  A caller that expects
 * its peer to be streaming spins on tryPush()/tryPop() first (the
 * engine hand-off in core/multicore.cc does).
 *
 * Contract:
 *  - exactly one thread pushes, exactly one pops; either may close(),
 *  - push() queues items in order, parking while the queue is full,
 *    and stops once the queue is closed,
 *  - popBatch() parks while the queue is empty and returns false
 *    once the queue is closed *and* drained,
 *  - a closed queue refuses pushes and wakes both sides.
 */

#ifndef PB_COMMON_SPSCQUEUE_HH
#define PB_COMMON_SPSCQUEUE_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

namespace pb
{

/** Bounded SPSC ring buffer holding up to capacity() items. */
template <typename T>
class SpscQueue
{
  public:
    /** @param capacity most queued items; 0 means 1 */
    explicit SpscQueue(size_t capacity) : slots(capacity ? capacity : 1)
    {
    }

    SpscQueue(const SpscQueue &) = delete;
    SpscQueue &operator=(const SpscQueue &) = delete;

    /**
     * Producer: move @p items into the queue in order, parking while
     * it is full.  Stops once the queue is closed; the items not
     * queued are left in @p items.
     * @return items queued, a prefix of @p items
     */
    size_t
    push(std::span<T> items)
    {
        size_t queued = tryPush(items);
        while (queued < items.size() && !closed()) {
            park([this] { return closed() || !full(); });
            queued += tryPush(items.subspan(queued));
        }
        return queued;
    }

    /**
     * Producer: move the prefix of @p items that fits now; never
     * waits.  A closed queue takes nothing.
     * @return items queued
     */
    size_t
    tryPush(std::span<T> items)
    {
        if (closed())
            return 0;
        const size_t h = head.load(std::memory_order_relaxed);
        const size_t free =
            slots.size() - (h - tail.load(std::memory_order_acquire));
        const size_t n = std::min(items.size(), free);
        if (n == 0)
            return 0;
        size_t pos = h % slots.size();
        for (size_t i = 0; i < n; i++) {
            slots[pos] = std::move(items[i]);
            if (++pos == slots.size())
                pos = 0;
        }
        head.store(h + n, std::memory_order_seq_cst);
        wakePeer();
        return n;
    }

    /**
     * Consumer: append up to @p max (>= 1) queued items to @p out,
     * parking while the queue is empty.  Returns false, leaving
     * @p out alone, once the queue is closed and drained.
     */
    bool
    popBatch(std::vector<T> &out, size_t max)
    {
        while (tryPop(out, max) == 0) {
            // Re-check after seeing closed: the producer's last
            // items are visible once its close() is.
            if (closed())
                return tryPop(out, max) > 0;
            park([this] { return closed() || !empty(); });
        }
        return true;
    }

    /**
     * Consumer: append up to @p max items queued now to @p out;
     * never waits.
     * @return items appended
     */
    size_t
    tryPop(std::vector<T> &out, size_t max)
    {
        const size_t t = tail.load(std::memory_order_relaxed);
        const size_t n =
            std::min(max, head.load(std::memory_order_acquire) - t);
        if (n == 0)
            return 0;
        size_t pos = t % slots.size();
        for (size_t i = 0; i < n; i++) {
            out.push_back(std::move(slots[pos]));
            if (++pos == slots.size())
                pos = 0;
        }
        tail.store(t + n, std::memory_order_seq_cst);
        wakePeer();
        return n;
    }

    /**
     * Either side: refuse further pushes and wake both sides.  The
     * consumer still drains what is queued.
     */
    void
    close()
    {
        closed_.store(true, std::memory_order_release);
        // Always lock-and-notify: a parked side must observe closed.
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
    }

    /** True once close() was called (items may still be queued). */
    bool
    closed() const
    {
        return closed_.load(std::memory_order_acquire);
    }

    /** Maximum number of queued items. */
    size_t capacity() const { return slots.size(); }

    /**
     * Approximate occupancy (racy by nature: either index may move
     * while we read).  Good enough for back-pressure telemetry.
     */
    size_t
    size() const
    {
        // Tail first, so the head read cannot be older than it.
        size_t t = tail.load(std::memory_order_acquire);
        size_t h = head.load(std::memory_order_acquire);
        return std::min(h - t, slots.size());
    }

  private:
    /** Park predicate: reads the consumer's index seq_cst. */
    bool
    full() const
    {
        return head.load(std::memory_order_relaxed) -
                   tail.load(std::memory_order_seq_cst) ==
               slots.size();
    }

    /** Park predicate: reads the producer's index seq_cst. */
    bool
    empty() const
    {
        return head.load(std::memory_order_seq_cst) ==
               tail.load(std::memory_order_relaxed);
    }

    /**
     * Dekker-style wake.  The waker stores its index, then loads
     * sleepers; the sleeper increments sleepers, then loads the
     * waker's index in its predicate.  All four are seq_cst, so they
     * fall in one total order, and whichever of the two first
     * accesses comes first in it is seen by the other side: either
     * the waker sees the sleeper and notifies, or the sleeper sees
     * the new index and does not wait.  The outcome where the waker
     * sees no sleeper while the sleeper sees the old index is
     * forbidden.  Notify under the mutex so a wake cannot slip
     * between the sleeper's final re-check and its wait.
     */
    void
    wakePeer()
    {
        if (sleepers.load(std::memory_order_seq_cst) == 0)
            return;
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
    }

    /** Park the calling side until @p ready() holds. */
    template <typename Ready>
    void
    park(Ready ready)
    {
        std::unique_lock<std::mutex> lock(mu);
        sleepers.fetch_add(1, std::memory_order_seq_cst);
        while (!ready()) {
            // Bounded wait as a belt-and-braces backstop; the seq_cst
            // protocol in wakePeer() makes a lost wake impossible, so
            // this only turns "impossible" into "100 ms hiccup".
            cv.wait_for(lock, std::chrono::milliseconds(100));
        }
        sleepers.fetch_sub(1, std::memory_order_relaxed);
    }

    std::vector<T> slots;
    /// Items ever pushed; producer-owned.  Slot = index % capacity.
    std::atomic<size_t> head{0};
    /// Items ever popped; consumer-owned.
    std::atomic<size_t> tail{0};
    std::atomic<bool> closed_{false};

    /** Threads parked (or about to park) on cv. */
    std::atomic<uint32_t> sleepers{0};
    std::mutex mu;
    std::condition_variable cv;
};

} // namespace pb

#endif // PB_COMMON_SPSCQUEUE_HH
