/**
 * @file
 * SPSC queue tests: FIFO order across batch boundaries, the prefix
 * tryPush() takes, close/drain from either side, batches larger than
 * the queue, parking and waking, the zero-capacity bound, move-only
 * payloads, and two-thread transfers (the TSan targets for every
 * packet hand-off).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/spscqueue.hh"

namespace
{

using pb::SpscQueue;

/** The values first, first + 1, ..., first + n - 1. */
std::vector<int>
sequence(int first, int n)
{
    std::vector<int> items(n);
    std::iota(items.begin(), items.end(), first);
    return items;
}

TEST(SpscQueue, FifoOrderSingleThread)
{
    SpscQueue<int> queue(8);
    EXPECT_EQ(queue.capacity(), 8u);
    std::vector<int> first = sequence(0, 2), second = sequence(2, 3);
    ASSERT_EQ(queue.push(first), 2u);
    ASSERT_EQ(queue.tryPush(second), 3u);
    EXPECT_EQ(queue.size(), 5u);
    // Pops need not line up with pushes: order is per item.
    std::vector<int> out;
    ASSERT_TRUE(queue.popBatch(out, 3));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(queue.tryPop(out, 8), 2u) << "tryPop appends";
    EXPECT_EQ(out, sequence(0, 5));
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(queue.tryPop(out, 8), 0u) << "empty queue, no wait";
}

TEST(SpscQueue, TryPushQueuesThePrefixThatFits)
{
    SpscQueue<int> queue(2);
    std::vector<int> three = sequence(1, 3);
    EXPECT_EQ(queue.tryPush(three), 2u)
        << "a full queue must refuse the overrun";
    std::vector<int> one{9};
    EXPECT_EQ(queue.tryPush(one), 0u);
    std::vector<int> out;
    ASSERT_EQ(queue.tryPop(out, 1), 1u);
    EXPECT_EQ(queue.tryPush(one), 1u)
        << "space freed by a pop must be reusable";
    ASSERT_TRUE(queue.popBatch(out, 8));
    EXPECT_EQ(out, (std::vector<int>{1, 2, 9}));
}

TEST(SpscQueue, CloseDrainsRemainingThenStops)
{
    SpscQueue<int> queue(8);
    std::vector<int> items{1, 2};
    ASSERT_EQ(queue.push(items), 2u);
    queue.close();
    EXPECT_TRUE(queue.closed());
    std::vector<int> out;
    EXPECT_TRUE(queue.popBatch(out, 1));
    EXPECT_TRUE(queue.popBatch(out, 1));
    EXPECT_FALSE(queue.popBatch(out, 1)) << "closed and drained";
    EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(SpscQueue, ClosedQueueRefusesPushes)
{
    SpscQueue<int> queue(8);
    queue.close();
    std::vector<int> items{1, 2};
    EXPECT_EQ(queue.push(items), 0u);
    EXPECT_EQ(queue.tryPush(items), 0u);
    EXPECT_EQ(queue.size(), 0u);
    std::vector<int> out;
    EXPECT_FALSE(queue.popBatch(out, 8));
}

TEST(SpscQueue, ZeroCapacityHoldsOneItem)
{
    SpscQueue<int> queue(0);
    EXPECT_EQ(queue.capacity(), 1u);
    std::vector<int> two{1, 2};
    EXPECT_EQ(queue.tryPush(two), 1u);
    std::vector<int> out;
    ASSERT_TRUE(queue.popBatch(out, 8));
    EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(SpscQueue, MoveOnlyPayload)
{
    SpscQueue<std::unique_ptr<int>> queue(2);
    std::vector<std::unique_ptr<int>> in;
    in.push_back(std::make_unique<int>(42));
    ASSERT_EQ(queue.push(in), 1u);
    EXPECT_EQ(in[0], nullptr) << "push moves the item";
    std::vector<std::unique_ptr<int>> out;
    ASSERT_TRUE(queue.popBatch(out, 1));
    ASSERT_NE(out[0], nullptr);
    EXPECT_EQ(*out[0], 42);
}

TEST(SpscQueue, BatchLargerThanCapacityArrivesInOrder)
{
    // Capacity bounds items, not batches: a 100-item batch into a
    // 16-item queue moves in pieces as the consumer makes room.
    SpscQueue<int> queue(16);
    std::vector<int> batch = sequence(0, 100);
    size_t queued = 0;
    std::thread producer([&] { queued = queue.push(batch); });
    std::vector<int> out;
    while (out.size() < 100 && queue.popBatch(out, 7)) {
    }
    producer.join();
    EXPECT_EQ(queued, 100u);
    EXPECT_EQ(out, sequence(0, 100));
}

TEST(SpscQueue, TwoThreadTransferKeepsOrder)
{
    // Capacity far below the item count, so the producer hits the
    // full-queue wait path and the consumer hits the empty-queue
    // wait path many times.
    constexpr int items = 100'000;
    SpscQueue<int> queue(8);
    std::thread producer([&] {
        for (int i = 0; i < items; i++) {
            std::vector<int> one{i};
            EXPECT_EQ(queue.push(one), 1u);
        }
        queue.close();
    });
    int expected = 0;
    std::vector<int> out;
    while (queue.popBatch(out, 1)) {
        ASSERT_EQ(out[0], expected);
        expected++;
        out.clear();
    }
    producer.join();
    EXPECT_EQ(expected, items);
}

TEST(SpscQueue, TwoThreadBatchStressConservesEveryItem)
{
    // Batches of 1 to 64 items (most larger than the queue) against
    // pops of 1 to 64, both sides hitting the full/empty park paths
    // and the partial hand-offs.  Each item's value encodes its
    // sequence number, so the checks catch loss, duplication and
    // reordering, not just counts.
    constexpr uint64_t kItems = 20'000;
    SpscQueue<uint64_t> queue(32);
    std::thread producer([&] {
        std::vector<uint64_t> batch;
        size_t batch_len = 1;
        for (uint64_t i = 0; i < kItems; i++) {
            batch.push_back(i);
            if (batch.size() == batch_len || i + 1 == kItems) {
                EXPECT_EQ(queue.push(batch), batch.size());
                batch.clear();
                batch_len = batch_len % 64 + 1;
            }
        }
        queue.close();
    });

    uint64_t popped = 0, sum = 0, next = 0;
    bool ordered = true;
    std::vector<uint64_t> out;
    size_t max = 1;
    while (queue.popBatch(out, max)) {
        EXPECT_LE(out.size(), max);
        for (uint64_t v : out) {
            ordered = ordered && v == next;
            next = v + 1;
            sum += v;
        }
        popped += out.size();
        out.clear();
        max = max % 64 + 1;
    }
    producer.join();

    EXPECT_EQ(popped, kItems);
    EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
    EXPECT_TRUE(ordered);
    EXPECT_EQ(queue.size(), 0u);
}

/** CPU time consumed by the calling thread so far, in nanoseconds. */
long
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1'000'000'000L + ts.tv_nsec;
}

TEST(SpscQueue, ParkedConsumerWakesOnPush)
{
    // A consumer blocked on an empty queue parks, then wakes
    // promptly when the producer finally pushes.
    SpscQueue<int> queue(4);
    std::thread consumer([&] {
        std::vector<int> out;
        ASSERT_TRUE(queue.popBatch(out, 4));
        EXPECT_EQ(out, (std::vector<int>{7}));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::vector<int> one{7};
    queue.push(one);
    consumer.join();
}

TEST(SpscQueue, ParkedConsumerWakesOnClose)
{
    SpscQueue<int> queue(4);
    std::thread consumer([&] {
        std::vector<int> out;
        EXPECT_FALSE(queue.popBatch(out, 4))
            << "closed-empty queue must end the stream";
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    queue.close();
    consumer.join();
}

TEST(SpscQueue, ParkedProducerWakesOnPop)
{
    SpscQueue<int> queue(2);
    std::vector<int> full{1, 2};
    ASSERT_EQ(queue.push(full), 2u);
    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        std::vector<int> one{3};
        queue.push(one); // full: parks
        pushed.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_FALSE(pushed.load()) << "push through a full queue?";
    std::vector<int> out;
    ASSERT_TRUE(queue.popBatch(out, 1));
    producer.join();
    EXPECT_TRUE(pushed.load());
    ASSERT_TRUE(queue.popBatch(out, 8));
    EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(SpscQueue, ParkedProducerReleasedWhenConsumerCloses)
{
    // A consumer that gives up (a failed engine, a daemon shutting
    // down) closes the queue; a producer parked on it must return,
    // reporting what it queued, instead of hanging.
    SpscQueue<int> queue(2);
    std::vector<int> full{1, 2};
    ASSERT_EQ(queue.push(full), 2u);
    std::atomic<bool> returned{false};
    std::atomic<size_t> queued{99};
    std::thread producer([&] {
        std::vector<int> more{3, 4};
        queued.store(queue.push(more));
        returned.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(returned.load()) << "push through a full queue?";
    queue.close();
    producer.join();
    EXPECT_TRUE(returned.load());
    EXPECT_EQ(queued.load(), 0u);
}

TEST(SpscQueue, IdleConsumerBurnsAlmostNoCpu)
{
    // The daemon's idle contract: a worker parked on an empty queue
    // must not spin a core.  The consumer blocks for ~400 ms of wall
    // time; its *CPU* time over that window must be a small fraction.
    SpscQueue<int> queue(4);
    std::atomic<long> cpu_ns{-1};
    std::thread consumer([&] {
        long before = threadCpuNs();
        std::vector<int> out;
        ASSERT_TRUE(queue.popBatch(out, 4));
        cpu_ns.store(threadCpuNs() - before);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    std::vector<int> one{1};
    queue.push(one);
    consumer.join();
    ASSERT_GE(cpu_ns.load(), 0);
    EXPECT_LT(cpu_ns.load(), 200'000'000L)
        << "an idle (parked) consumer burned most of the wait as "
           "CPU time: the yield-spin bug is back";
}

} // namespace
