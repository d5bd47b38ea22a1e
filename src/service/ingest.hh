/**
 * @file
 * Packet ingest: the boundary between the daemon's packet producer
 * and its dispatcher.
 *
 * A persistent daemon (service/daemon.hh) does not own its input the
 * way a batch run owns a trace file: packets arrive continuously from
 * the rate-controlled trace replayer (service/replay.hh).  The ingest
 * ring is that boundary: the same bounded SPSC queue the engines are
 * fed through (common/spscqueue.hh), with one producer, the
 * replayer, and one consumer, the MultiCoreBench dispatcher, which
 * preserves arrival order into the flow-ordered per-engine queues.
 * Its capacity is a bound in packets; packets move in batches of up
 * to ingestBatch.
 *
 * IngestSource adapts the consumer side to net::TraceSource, so the
 * whole existing engine/bench stack runs off a live ring unchanged.
 */

#ifndef PB_SERVICE_INGEST_HH
#define PB_SERVICE_INGEST_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/spscqueue.hh"
#include "net/trace.hh"

namespace pb::service
{

/** Bounded packet queue from the replayer to the dispatcher. */
using IngestRing = SpscQueue<net::Packet>;

/** Most packets the replayer and IngestSource move per hand-off. */
constexpr size_t ingestBatch = 64;

/**
 * TraceSource view of an IngestRing's consumer side: next() hands
 * out a locally held batch and waits on the live ring only to take
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
