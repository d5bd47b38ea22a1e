/**
 * @file
 * Event tracer tests: JSON round-trip, ring overflow semantics,
 * disabled no-op, concurrent emission (TSan exercises the memory
 * model), rings that leave their pages untouched until used, NPE32
 * sampling, fault-annotated spans, and serial vs parallel
 * per-engine span equivalence.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "../support/resident_pages.hh"
#include "core/multicore.hh"
#include "isa/assembler.hh"
#include "net/tracegen.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/tracing.hh"
#include "sim/memmap.hh"

namespace
{

using namespace pb;
using namespace pb::obs;

/** Minimal handler: accept every packet. */
class AcceptApp : public core::Application
{
  public:
    std::string name() const override { return "accept"; }

    isa::Program
    setup(sim::Memory &mem) const override
    {
        (void)mem;
        return isa::Assembler(sim::layout::textBase).assemble(R"(
main:
    lw  t0, 0(a0)
    li  a1, 1
    sys 1
)");
    }
};

/** Handler that faults on every packet (wild load from address 0). */
class FaultApp : public core::Application
{
  public:
    std::string name() const override { return "always-fault"; }

    isa::Program
    setup(sim::Memory &mem) const override
    {
        (void)mem;
        return isa::Assembler(sim::layout::textBase).assemble(R"(
main:
    lw  t0, 0(zero)
    sys 2
)");
    }
};

/**
 * The tracer is a process-global singleton, so every test starts and
 * ends from a stopped, empty, default-configured state.
 */
class Tracing : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Tracer &tracer = Tracer::instance();
        tracer.stop();
        tracer.reset();
        tracer.setCapacity(Tracer::defaultCapacity);
        tracer.setNpeSamplePeriod(0);
    }

    void TearDown() override { SetUp(); }
};

/** "engine" argument of a packet span, or UINT64_MAX when absent. */
uint64_t
engineArg(const TraceEvent &event)
{
    for (uint8_t i = 0; i < event.numArgs; i++) {
        if (std::strcmp(event.args[i].key, "engine") == 0 &&
            event.args[i].kind == TraceArg::Kind::U64)
            return event.args[i].u64;
    }
    return UINT64_MAX;
}

/** Complete "packet" spans per engine, and the set of tids used. */
std::map<uint64_t, uint64_t>
packetSpansPerEngine(const std::vector<TraceEvent> &events,
                     std::set<uint32_t> *tids = nullptr)
{
    std::map<uint64_t, uint64_t> per_engine;
    for (const TraceEvent &event : events) {
        if (event.phase != TracePhase::Complete ||
            std::strcmp(event.name, "packet") != 0)
            continue;
        per_engine[engineArg(event)]++;
        if (tids)
            tids->insert(event.tid);
    }
    return per_engine;
}

TEST_F(Tracing, DisabledEmitsNothing)
{
    EXPECT_FALSE(traceEnabled());
    {
        PB_TRACE_SPAN("test", "noop");
        PB_TRACE_INSTANT("test", "noop.instant");
        PB_TRACE_COUNTER("test", "noop.counter", 7);
    }
    EXPECT_TRUE(Tracer::instance().collect().empty());
}

TEST_F(Tracing, SpansRecordDurationAndArgs)
{
    Tracer &tracer = Tracer::instance();
    tracer.start();
    {
        PB_TRACE_SPAN_NAMED(span, "test", "outer");
        EXPECT_TRUE(span.active());
        span.arg("count", uint64_t{42});
        span.arg("label", "hello");
    }
    traceInstant("test", "tick");
    traceCounter("test", "depth", 3);
    tracer.stop();

    auto events = tracer.collect();
    ASSERT_EQ(events.size(), 3u);
    // collect() sorts by timestamp; the span's ts is earliest.
    EXPECT_EQ(std::string(events[0].name), "outer");
    EXPECT_EQ(events[0].phase, TracePhase::Complete);
    EXPECT_EQ(events[0].numArgs, 2);
    EXPECT_EQ(std::string(events[0].args[0].key), "count");
    EXPECT_EQ(events[0].args[0].u64, 42u);
    EXPECT_EQ(std::string(events[0].args[1].str), "hello");
    EXPECT_EQ(events[1].phase, TracePhase::Instant);
    EXPECT_EQ(events[2].phase, TracePhase::Counter);
    EXPECT_EQ(events[2].args[0].u64, 3u);
}

TEST_F(Tracing, JsonRoundTripsThroughParser)
{
    Tracer &tracer = Tracer::instance();
    tracer.start();
    tracer.setThreadName("main");
    {
        PB_TRACE_SPAN_NAMED(span, "cat", "span \"quoted\"");
        span.arg("value", uint64_t{123});
        span.arg("text", "a\\b");
    }
    traceInstant("cat", "mark");
    traceCounter("cat", "gauge", 9);
    tracer.stop();

    std::ostringstream out;
    tracer.writeJson(out);
    JsonValue doc = JsonValue::parse(out.str());

    const auto &events = doc.at("traceEvents").asArray();
    // process_name + thread_name metadata + 3 recorded events.
    ASSERT_EQ(events.size(), 5u);
    EXPECT_EQ(events[0].at("ph").asString(), "M");
    EXPECT_EQ(events[0].at("name").asString(), "process_name");

    const JsonValue *span = nullptr;
    for (const auto &event : events) {
        if (event.at("ph").asString() == "X")
            span = &event;
    }
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->at("name").asString(), "span \"quoted\"");
    EXPECT_EQ(span->at("cat").asString(), "cat");
    EXPECT_GE(span->at("dur").asNumber(), 0.0);
    EXPECT_EQ(span->at("args").at("value").asNumber(), 123.0);
    EXPECT_EQ(span->at("args").at("text").asString(), "a\\b");
}

TEST_F(Tracing, OverflowKeepsNewestAndCountsDropped)
{
    Tracer &tracer = Tracer::instance();
    tracer.setCapacity(16);
    uint64_t dropped_before =
        defaultRegistry().counter("trace.dropped").value();
    tracer.start();
    for (uint64_t i = 0; i < 100; i++)
        traceCounter("test", "seq", i);
    tracer.stop();

    auto events = tracer.collect();
    ASSERT_EQ(events.size(), 16u);
    // Newest-kept overflow: the survivors are exactly 84..99.
    for (size_t i = 0; i < events.size(); i++)
        EXPECT_EQ(events[i].args[0].u64, 84 + i);
    EXPECT_EQ(tracer.droppedEvents(), 84u);
    // stop() publishes the overwrite count into the registry.
    EXPECT_EQ(defaultRegistry().counter("trace.dropped").value(),
              dropped_before + 84);
}

TEST_F(Tracing, LargeRingIsNotPrefaulted)
{
    // A thread builds its ring on its first event, inside whatever
    // region is being timed, and a ring sized for a whole round is
    // tens of megabytes: building one must not touch its slots.
    // mincore(2) on the ring's own pages, not process RSS, so
    // sanitizer shadow memory cannot blur the count.
    TraceRing ring(1, size_t{1} << 18);
    size_t bytes = ring.capacity() * sizeof(TraceEvent);
    ASSERT_GT(bytes, size_t{40} << 20);
    size_t pages = 0;
    size_t resident = test::residentPages(ring.slots(), bytes, pages);
    EXPECT_LT(resident * 10, pages)
        << resident << " of " << pages << " ring pages resident";

    // Emitting still lands in the (untouched) storage.
    TraceEvent event{};
    event.name = "ring";
    ring.emit(event);
    EXPECT_EQ(ring.slots()[0].name, event.name);
    EXPECT_EQ(ring.slots()[0].tid, 1u);
}

TEST_F(Tracing, ConcurrentEmissionIsSafe)
{
    Tracer &tracer = Tracer::instance();
    tracer.start();
    constexpr int threads = 4;
    constexpr int per_thread = 2'000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; t++) {
        workers.emplace_back([t] {
            for (int i = 0; i < per_thread; i++) {
                PB_TRACE_SPAN_NAMED(span, "test", "work");
                span.arg("thread", static_cast<uint64_t>(t));
                PB_TRACE_COUNTER("test", "progress", i);
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    tracer.stop();
    EXPECT_EQ(tracer.collect().size(),
              static_cast<size_t>(threads) * per_thread * 2);
    EXPECT_EQ(tracer.droppedEvents(), 0u);
}

TEST_F(Tracing, EnvironmentConfiguresSampling)
{
    setenv("PB_TRACE_SAMPLE", "7", 1);
    setenv("PB_TRACE_CAP", "32", 1);
    Tracer &tracer = Tracer::instance();
    tracer.configureFromEnv();
    unsetenv("PB_TRACE_SAMPLE");
    unsetenv("PB_TRACE_CAP");
    EXPECT_EQ(tracer.npeSamplePeriod(), 7u);

    // The capacity applies to rings created from here on.
    tracer.start();
    for (uint64_t i = 0; i < 100; i++)
        traceCounter("test", "seq", i);
    tracer.stop();
    EXPECT_EQ(tracer.collect().size(), 32u);
}

TEST_F(Tracing, PacketSpansAnnotateFaults)
{
    FaultApp app;
    core::BenchConfig cfg;
    cfg.faultPolicy = core::FaultPolicy::Quarantine;
    core::PacketBench bench(app, cfg);

    Tracer &tracer = Tracer::instance();
    tracer.start();
    net::SyntheticTrace trace(net::Profile::MRA, 5, 1);
    auto outcomes = bench.run(trace, 5);
    tracer.stop();

    ASSERT_EQ(outcomes.size(), 5u);
    for (const auto &outcome : outcomes)
        EXPECT_TRUE(outcome.faulted());

    uint64_t fault_spans = 0;
    for (const TraceEvent &event : tracer.collect()) {
        if (event.phase != TracePhase::Complete ||
            std::strcmp(event.name, "packet") != 0)
            continue;
        bool has_fault = false;
        for (uint8_t i = 0; i < event.numArgs; i++) {
            if (std::strcmp(event.args[i].key, "fault") == 0) {
                has_fault = true;
                EXPECT_EQ(std::string(event.args[i].str),
                          "sim-fault");
            }
        }
        EXPECT_TRUE(has_fault);
        fault_spans++;
    }
    EXPECT_EQ(fault_spans, 5u);
}

TEST_F(Tracing, NpeSamplerEmitsInstructionStream)
{
    AcceptApp app;
    core::PacketBench bench(app, {});

    Tracer &tracer = Tracer::instance();
    tracer.setNpeSamplePeriod(2); // sample packets 0 and 2
    tracer.start();
    net::SyntheticTrace trace(net::Profile::MRA, 3, 1);
    auto outcomes = bench.run(trace, 3);
    tracer.stop();

    uint64_t pc_samples = 0, mem_samples = 0;
    for (const TraceEvent &event : tracer.collect()) {
        if (event.phase != TracePhase::Counter)
            continue;
        if (std::strcmp(event.name, "npe.pc") == 0)
            pc_samples++;
        if (std::strncmp(event.name, "npe.mem.", 8) == 0)
            mem_samples++;
    }
    // The sampler sees exactly the instructions selective accounting
    // counted, for the two sampled packets (0 and 2) only.
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(pc_samples, outcomes[0].stats.instCount +
                              outcomes[2].stats.instCount);
    // The lw from packet memory is sampled on each sampled packet.
    EXPECT_GE(mem_samples, 2u);
}

TEST_F(Tracing, SerialAndParallelEmitIdenticalSpanCounts)
{
    auto factory = [] { return std::make_unique<AcceptApp>(); };
    constexpr uint32_t packets = 400;
    Tracer &tracer = Tracer::instance();

    core::BenchConfig serial_cfg;
    core::MultiCoreBench serial(factory, 4, serial_cfg);
    tracer.start();
    {
        net::SyntheticTrace trace(net::Profile::MRA, packets, 3);
        serial.run(trace, packets);
    }
    tracer.stop();
    std::set<uint32_t> serial_tids;
    auto serial_spans =
        packetSpansPerEngine(tracer.collect(), &serial_tids);
    tracer.reset();

    core::BenchConfig parallel_cfg;
    parallel_cfg.parallel = true;
    parallel_cfg.dispatchBatch = 8;
    core::MultiCoreBench parallel(factory, 4, parallel_cfg);
    tracer.start();
    {
        net::SyntheticTrace trace(net::Profile::MRA, packets, 3);
        parallel.run(trace, packets);
    }
    tracer.stop();
    std::set<uint32_t> parallel_tids;
    auto events = tracer.collect();
    auto parallel_spans = packetSpansPerEngine(events, &parallel_tids);

    // Same flow-pinned dispatch => identical per-engine span counts.
    EXPECT_EQ(serial_spans, parallel_spans);
    uint64_t total = 0;
    for (const auto &[engine, count] : parallel_spans)
        total += count;
    EXPECT_EQ(total, packets);

    // Serial runs on one thread; parallel spreads engines across
    // worker threads and emits dispatcher spans on its own row.
    EXPECT_EQ(serial_tids.size(), 1u);
    EXPECT_GT(parallel_tids.size(), 1u);
    uint64_t dispatch_spans = 0;
    for (const TraceEvent &event : events) {
        if (event.phase == TracePhase::Complete &&
            std::strcmp(event.name, "dispatch") == 0)
            dispatch_spans++;
    }
    EXPECT_GT(dispatch_spans, 0u);
}

} // namespace
