/**
 * @file
 * Space-saving top-K heavy-hitter tracking for per-flow accounting.
 *
 * A network processor's load is dominated by its heaviest flows, and
 * the live telemetry plane (obs/stats.hh) must report them while
 * traffic flows — without a per-flow hash table that grows with the
 * flow count.  FlowTopK implements the space-saving algorithm
 * (Metwally et al.): a fixed set of counters; a hit increments its
 * counter, a miss on a full table evicts the minimum counter and the
 * newcomer inherits its count as an overestimate, with the inherited
 * amount recorded as the entry's error bound.  Guarantees:
 *
 *  - est - error <= true count <= est for every tracked flow,
 *  - any flow whose true count exceeds N/capacity is in the table
 *    (N = packets observed), so genuinely heavy flows on skewed
 *    traffic are reported exactly (error 0 once they never evict).
 *
 * Flows are keyed by the dispatcher's 5-tuple hash (net::flowHash —
 * the same value that pins a flow to an engine), and each entry
 * remembers the 5-tuple fields for human-readable reporting.  The
 * obs layer sits below net in the library graph, so the tuple is
 * mirrored here as a plain FlowId rather than a net::FiveTuple.
 *
 * Threading: observe() is called by the owning engine's worker
 * thread, top() by the stats pump; a plain mutex guards the table.
 * The per-packet cost is an uncontended lock plus one hash lookup
 * (the pump takes the lock a few times per second for a copy of at
 * most `capacity` entries), and callers gate observe() behind
 * statsEnabled() so the disabled path costs one relaxed load.
 */

#ifndef PB_OBS_TOPK_HH
#define PB_OBS_TOPK_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace pb::obs
{

/** 5-tuple mirror (host byte order), for reporting only. */
struct FlowId
{
    uint32_t src = 0;
    uint32_t dst = 0;
    uint16_t srcPort = 0;
    uint16_t dstPort = 0;
    uint8_t proto = 0;
};

/** "a.b.c.d:p > e.f.g.h:q/proto" rendering of a FlowId. */
std::string formatFlowId(const FlowId &id);

/** Space-saving top-K tracker of per-flow packets/bytes/faults. */
class FlowTopK
{
  public:
    /** One tracked flow. */
    struct Entry
    {
        uint64_t key = 0; ///< dispatcher 5-tuple hash
        FlowId id;
        uint64_t packets = 0; ///< estimate (may overcount by error)
        uint64_t bytes = 0;   ///< since this key entered the table
        uint64_t faults = 0;  ///< since this key entered the table
        uint64_t error = 0;   ///< max overcount inherited on entry
    };

    /** @param capacity counters kept (the K in top-K) */
    explicit FlowTopK(uint32_t capacity = 64);

    /** Account one packet of flow @p key. */
    void observe(uint64_t key, const FlowId &id, uint64_t bytes,
                 bool fault);

    /**
     * The tracked flows, heaviest (by packet estimate) first,
     * at most @p n entries (0 = all).
     */
    std::vector<Entry> top(size_t n = 0) const;

    /** Packets observed in total (tracked or not). */
    uint64_t observedPackets() const;

    uint32_t capacity() const { return cap; }

  private:
    const uint32_t cap;
    mutable std::mutex mu;
    std::vector<Entry> entries;
    std::unordered_map<uint64_t, size_t> index; ///< key -> entries[]
    uint64_t observed = 0;
};

} // namespace pb::obs

#endif // PB_OBS_TOPK_HH
