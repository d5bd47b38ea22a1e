/**
 * @file
 * Metrics registry tests: counter/gauge/histogram semantics,
 * deterministic snapshots, kind safety, striping under concurrent
 * writers and readers, timers, and the macros.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace
{

using namespace pb;
using namespace pb::obs;

TEST(Metrics, CounterAddsAndReads)
{
    Registry reg;
    Counter &c = reg.counter("test.events");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Find-or-create returns the same object.
    EXPECT_EQ(&reg.counter("test.events"), &c);
}

TEST(Metrics, CounterViewReadsItsSourceAndResetsToZero)
{
    Registry reg;
    uint64_t source = 5;
    reg.counterViews({"test.view"}, [&source] {
        return std::vector<uint64_t>{source};
    });
    Counter &view = reg.counter("test.view");
    EXPECT_EQ(view.value(), 5u);
    source = 12;
    EXPECT_EQ(view.value(), 12u);
    reg.reset();
    EXPECT_EQ(view.value(), 0u);
    source = 20;
    EXPECT_EQ(view.value(), 8u);
    // Snapshots and the exposition read the view too.
    EXPECT_EQ(reg.snapshot().at(0).counter, 8u);
    EXPECT_EQ(reg.snapshot().at(0).kind, MetricKind::Counter);
    EXPECT_THROW(reg.counterViews({"test.view"},
                                  [] { return std::vector<uint64_t>{0}; }),
                 PanicError);
}

TEST(Metrics, CounterViewGroupIsReadOncePerSnapshot)
{
    // A source that moves on every read: the counters of one group
    // must still agree within each snapshot.
    Registry reg;
    uint64_t reads = 0;
    reg.counterViews({"group.a", "group.b", "group.sum"}, [&reads] {
        reads++;
        return std::vector<uint64_t>{reads, reads, 2 * reads};
    });
    auto check = [&](uint64_t want) {
        uint64_t a = 0, b = 0, sum = 0;
        for (const Registry::Entry &e : reg.snapshot()) {
            (e.name == "group.a" ? a : e.name == "group.b" ? b : sum) =
                e.counter;
        }
        EXPECT_EQ(a, want);
        EXPECT_EQ(b, want);
        EXPECT_EQ(sum, a + b);
    };
    check(1);
    check(2);
    reg.reset(); // one read, the group's new base
    check(1);
    EXPECT_EQ(reads, 4u);
    EXPECT_EQ(reg.counter("group.b").value(), 2u);
}

TEST(Metrics, GaugeHoldsLastValue)
{
    Registry reg;
    Gauge &g = reg.gauge("test.rate");
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-1.25);
    EXPECT_EQ(g.value(), -1.25);
}

TEST(Metrics, HistogramBucketsByPowerOfTwo)
{
    Registry reg;
    Histogram &h = reg.histogram("test.sizes");
    // Bucket 0 holds zeros, bucket 1 holds {1}, bucket i (i >= 2)
    // holds (2^(i-2), 2^(i-1)] — exact powers of two sit on their
    // own upper edge.
    h.observe(0);
    h.observe(1);
    h.observe(2);
    h.observe(3);
    h.observe(1024);

    Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 5u);
    EXPECT_EQ(snap.sum, 1030u);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 1024u);
    EXPECT_DOUBLE_EQ(snap.mean(), 206.0);
    ASSERT_EQ(snap.buckets.size(), 12u); // trimmed after bucket 11
    EXPECT_EQ(snap.buckets[0], 1u);      // 0
    EXPECT_EQ(snap.buckets[1], 1u);      // 1
    EXPECT_EQ(snap.buckets[2], 1u);      // 2 (le=2)
    EXPECT_EQ(snap.buckets[3], 1u);      // 3 (le=4)
    EXPECT_EQ(snap.buckets[11], 1u);     // 1024 (le=1024)
}

TEST(Metrics, HistogramQuantiles)
{
    Registry reg;
    Histogram &h = reg.histogram("test.q");
    for (int i = 0; i < 99; i++)
        h.observe(5); // bucket 4, upper bound 8
    h.observe(1'000'000); // bucket 21, upper bound 2^20

    Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.quantile(0.5), 8u);
    EXPECT_EQ(snap.quantile(0.0), 8u);
    EXPECT_EQ(snap.quantile(1.0), 1u << 20);

    Histogram::Snapshot empty = reg.histogram("test.empty").snapshot();
    EXPECT_EQ(empty.quantile(0.5), 0u);
}

TEST(Metrics, HistogramPowerOfTwoBoundaries)
{
    // Regression: an earlier revision bucketed by raw bit width,
    // which pushed a sample of exactly 2^k one bucket too high.
    // Pin the edges: 2^k lands in the bucket whose inclusive upper
    // bound is 2^k, and 2^k + 1 lands in the next one up.
    Registry reg;
    for (size_t k = 1; k < 63; k++) {
        Histogram &h = reg.histogram("test.edge" + std::to_string(k));
        uint64_t edge = uint64_t{1} << k;
        h.observe(edge);
        h.observe(edge + 1);
        Histogram::Snapshot snap = h.snapshot();
        ASSERT_EQ(snap.buckets.size(), k + 3);
        EXPECT_EQ(snap.buckets[k + 1], 1u) << "2^" << k;
        EXPECT_EQ(snap.buckets[k + 2], 1u) << "2^" << k << " + 1";
        EXPECT_EQ(Histogram::bucketUpperBound(k + 1), edge);
    }
}

TEST(Metrics, HistogramNeverSaturates)
{
    Registry reg;
    Histogram &h = reg.histogram("test.wide");
    h.observe(UINT64_MAX);
    Histogram::Snapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 1u);
    EXPECT_EQ(snap.max, UINT64_MAX);
    EXPECT_EQ(snap.buckets.size(), Histogram::numBuckets);
}

TEST(Metrics, BucketUpperBounds)
{
    EXPECT_EQ(Histogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(Histogram::bucketUpperBound(1), 1u);
    EXPECT_EQ(Histogram::bucketUpperBound(2), 2u);
    EXPECT_EQ(Histogram::bucketUpperBound(10), 512u);
    EXPECT_EQ(Histogram::bucketUpperBound(64), uint64_t{1} << 63);
    // The true edge of the last bucket is 2^64, clamped to
    // UINT64_MAX because it does not fit.
    EXPECT_EQ(Histogram::bucketUpperBound(65), UINT64_MAX);
}

TEST(Metrics, SnapshotIsSortedAndComplete)
{
    Registry reg;
    reg.counter("zz.last").add(1);
    reg.gauge("aa.first").set(2.0);
    reg.histogram("mm.middle").observe(3);

    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "aa.first");
    EXPECT_EQ(snap[0].kind, MetricKind::Gauge);
    EXPECT_EQ(snap[0].gauge, 2.0);
    EXPECT_EQ(snap[1].name, "mm.middle");
    EXPECT_EQ(snap[1].kind, MetricKind::Histogram);
    EXPECT_EQ(snap[1].hist.count, 1u);
    EXPECT_EQ(snap[2].name, "zz.last");
    EXPECT_EQ(snap[2].kind, MetricKind::Counter);
    EXPECT_EQ(snap[2].counter, 1u);
}

TEST(Metrics, KindMismatchPanics)
{
    Registry reg;
    reg.counter("test.metric");
    EXPECT_THROW(reg.gauge("test.metric"), PanicError);
    EXPECT_THROW(reg.histogram("test.metric"), PanicError);
}

TEST(Metrics, ResetZeroesButKeepsRegistrations)
{
    Registry reg;
    Counter &c = reg.counter("test.c");
    c.add(5);
    reg.gauge("test.g").set(1.5);
    reg.histogram("test.h").observe(9);

    reg.reset();
    EXPECT_EQ(reg.size(), 3u);
    // The cached reference is still the live metric after reset.
    EXPECT_EQ(c.value(), 0u);
    c.add(2);
    EXPECT_EQ(reg.counter("test.c").value(), 2u);
    EXPECT_EQ(reg.gauge("test.g").value(), 0.0);
    EXPECT_EQ(reg.histogram("test.h").snapshot().count, 0u);
}

TEST(Metrics, CountersAreThreadSafe)
{
    Registry reg;
    Counter &c = reg.counter("test.mt");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([&c] {
            for (int i = 0; i < 10'000; i++)
                c.add();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(c.value(), 40'000u);
}

TEST(Metrics, StripesKeepExactTotalsUnderConcurrentSnapshots)
{
    // More writers than stripes, so some threads share a stripe,
    // while another thread snapshots the registry throughout.  Every
    // snapshot is self-consistent and never goes backwards, and the
    // final totals equal a single-threaded reference exactly.
    constexpr int kWriters = 2 * static_cast<int>(numStripes) + 3;
    constexpr uint64_t kPerWriter = 4'000;
    Registry reg;
    Counter &events = reg.counter("test.events");
    Histogram &sizes = reg.histogram("test.sizes");
    auto sample = [](int t, uint64_t i) {
        // Spans many buckets; writer t owns [t * 2^20, t * 2^20 + N).
        return (static_cast<uint64_t>(t) << 20) + i * (i % 7);
    };

    std::atomic<bool> writing{true};
    std::atomic<int> bad_snapshots{0};
    std::thread reader([&] {
        uint64_t last_count = 0, last_events = 0;
        while (writing.load()) {
            for (const Registry::Entry &e : reg.snapshot()) {
                if (e.kind == MetricKind::Counter) {
                    if (e.counter < last_events)
                        bad_snapshots++;
                    last_events = e.counter;
                    continue;
                }
                uint64_t in_buckets = 0;
                for (uint64_t b : e.hist.buckets)
                    in_buckets += b;
                if (in_buckets != e.hist.count ||
                    e.hist.count < last_count ||
                    (e.hist.count && e.hist.min > e.hist.max))
                    bad_snapshots++;
                last_count = e.hist.count;
            }
        }
    });
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; t++) {
        writers.emplace_back([&, t] {
            for (uint64_t i = 0; i < kPerWriter; i++) {
                events.add(i % 3 + 1);
                sizes.observe(sample(t, i));
            }
        });
    }
    for (auto &writer : writers)
        writer.join();
    writing.store(false);
    reader.join();

    Registry ref_reg;
    Histogram &ref = ref_reg.histogram("ref");
    uint64_t ref_events = 0;
    for (int t = 0; t < kWriters; t++) {
        for (uint64_t i = 0; i < kPerWriter; i++) {
            ref_events += i % 3 + 1;
            ref.observe(sample(t, i));
        }
    }
    EXPECT_EQ(bad_snapshots.load(), 0);
    EXPECT_EQ(events.value(), ref_events);
    Histogram::Snapshot got = sizes.snapshot();
    Histogram::Snapshot want = ref.snapshot();
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.sum, want.sum);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.buckets, want.buckets);
}

TEST(Metrics, ResetZeroesEveryStripe)
{
    // Threads take stripes round-robin, so numStripes threads started
    // one after another write every stripe between them.
    Registry reg;
    Counter &c = reg.counter("test.c");
    Histogram &h = reg.histogram("test.h");
    for (size_t t = 0; t < numStripes; t++) {
        std::thread([&, t] {
            c.add(t + 1);
            h.observe(1000 * (t + 1));
        }).join();
    }
    EXPECT_EQ(c.value(), numStripes * (numStripes + 1) / 2);
    EXPECT_EQ(h.snapshot().count, numStripes);

    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    Histogram::Snapshot empty = h.snapshot();
    EXPECT_EQ(empty.count, 0u);
    EXPECT_EQ(empty.sum, 0u);
    EXPECT_EQ(empty.max, 0u);
    EXPECT_TRUE(empty.buckets.empty());

    // A small sample after reset is the new minimum on every stripe.
    for (size_t t = 0; t < numStripes; t++)
        std::thread([&] { h.observe(3); }).join();
    Histogram::Snapshot after = h.snapshot();
    EXPECT_EQ(after.count, numStripes);
    EXPECT_EQ(after.min, 3u);
    EXPECT_EQ(after.max, 3u);
}

TEST(Metrics, ScopedTimerAccumulates)
{
    Registry reg;
    Counter &ns = reg.counter("test.ns");
    {
        ScopedTimer timer(ns);
        // Burn a little time so elapsedNs() is visibly nonzero.
        volatile int sink = 0;
        for (int i = 0; i < 1000; i++)
            sink = sink + i;
        EXPECT_GE(timer.elapsedNs(), 0u);
    }
    uint64_t first = ns.value();
    EXPECT_GT(first, 0u);
    {
        ScopedTimer timer(ns);
    }
    EXPECT_GE(ns.value(), first);
}

TEST(Metrics, MacrosHitDefaultRegistry)
{
    uint64_t before =
        defaultRegistry().counter("test.macro_events").value();
    PB_COUNTER("test.macro_events");
    PB_COUNTER_ADD("test.macro_events", 9);
    EXPECT_EQ(defaultRegistry().counter("test.macro_events").value(),
              before + 10);

    uint64_t ns_before =
        defaultRegistry().counter("test.macro_ns").value();
    {
        PB_SCOPED_TIMER("test.macro_ns");
    }
    EXPECT_GE(defaultRegistry().counter("test.macro_ns").value(),
              ns_before);
}

TEST(Metrics, KindNames)
{
    EXPECT_STREQ(metricKindName(MetricKind::Counter), "counter");
    EXPECT_STREQ(metricKindName(MetricKind::Gauge), "gauge");
    EXPECT_STREQ(metricKindName(MetricKind::Histogram), "histogram");
}

} // namespace
