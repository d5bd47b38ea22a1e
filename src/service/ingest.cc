/**
 * @file
 * IngestRing / IngestSource implementation.
 *
 * Blocking waits use a bounded wait_for so a parked thread re-checks
 * the process shutdown flag (common/shutdown.hh) even if it misses a
 * wakeup; close() and shutdown both resolve every waiter promptly.
 */

#include "ingest.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/shutdown.hh"
#include "obs/metrics.hh"

namespace pb::service
{

namespace
{
/** Backstop for blocking waits; shutdown poll period when parked. */
constexpr std::chrono::milliseconds kParkSlice{50};
} // namespace

IngestRing::IngestRing(size_t capacity)
    : slots(capacity ? capacity : 1)
{
}

size_t
IngestRing::enqueueLocked(std::vector<net::Packet> &batch, size_t from)
{
    const size_t cap = slots.size();
    size_t n = std::min(batch.size() - from, cap - count);
    size_t tail = head + count < cap ? head + count : head + count - cap;
    for (size_t i = 0; i < n; i++) {
        slots[tail] = std::move(batch[from + i]);
        if (++tail == cap)
            tail = 0;
    }
    count += n;
    accepted_.fetch_add(n, std::memory_order_relaxed);
    return n;
}

size_t
IngestRing::pushBatch(std::vector<net::Packet> &batch)
{
    size_t queued = 0;
    while (queued < batch.size()) {
        std::unique_lock<std::mutex> lock(mu);
        while (count == slots.size() && !closed_) {
            if (shutdownRequested())
                break;
            notFull.wait_for(lock, kParkSlice);
        }
        if (closed_ || shutdownRequested())
            break;
        queued += enqueueLocked(batch, queued);
        lock.unlock();
        notEmpty.notify_all();
    }
    batch.clear();
    PB_COUNTER_ADD("service.ingest.accepted", queued);
    return queued;
}

size_t
IngestRing::tryPushBatch(std::vector<net::Packet> &batch)
{
    size_t queued = 0;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!closed_)
            queued = enqueueLocked(batch, 0);
    }
    if (queued)
        notEmpty.notify_all();
    size_t refused = batch.size() - queued;
    batch.clear();
    PB_COUNTER_ADD("service.ingest.accepted", queued);
    dropped_.fetch_add(refused, std::memory_order_relaxed);
    PB_COUNTER_ADD("service.ingest.dropped", refused);
    return queued;
}

bool
IngestRing::popBatch(std::vector<net::Packet> &out, size_t max)
{
    {
        std::unique_lock<std::mutex> lock(mu);
        while (count == 0) {
            if (closed_)
                return false;
            notEmpty.wait_for(lock, kParkSlice);
        }
        size_t n = std::min(count, std::max<size_t>(max, 1));
        for (size_t i = 0; i < n; i++) {
            out.push_back(std::move(slots[head]));
            if (++head == slots.size())
                head = 0;
        }
        count -= n;
    }
    notFull.notify_all();
    return true;
}

void
IngestRing::close()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        closed_ = true;
    }
    notFull.notify_all();
    notEmpty.notify_all();
}

bool
IngestRing::closed() const
{
    std::lock_guard<std::mutex> lock(mu);
    return closed_;
}

size_t
IngestRing::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return count;
}

std::optional<net::Packet>
IngestSource::next()
{
    if (nextLocal == local.size()) {
        local.clear();
        nextLocal = 0;
        if (!ring.popBatch(local))
            return std::nullopt;
    }
    return std::move(local[nextLocal++]);
}

} // namespace pb::service
