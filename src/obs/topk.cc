/**
 * @file
 * Space-saving top-K implementation.
 */

#include "topk.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pb::obs
{

std::string
formatFlowId(const FlowId &id)
{
    return strprintf("%u.%u.%u.%u:%u > %u.%u.%u.%u:%u/%u",
                     id.src >> 24, (id.src >> 16) & 0xff,
                     (id.src >> 8) & 0xff, id.src & 0xff, id.srcPort,
                     id.dst >> 24, (id.dst >> 16) & 0xff,
                     (id.dst >> 8) & 0xff, id.dst & 0xff, id.dstPort,
                     id.proto);
}

FlowTopK::FlowTopK(uint32_t capacity) : cap(std::max(capacity, 1u))
{
    entries.reserve(cap);
}

void
FlowTopK::observe(uint64_t key, const FlowId &id, uint64_t bytes,
                  bool fault)
{
    std::lock_guard<std::mutex> lock(mu);
    observed++;
    auto it = index.find(key);
    if (it != index.end()) {
        Entry &e = entries[it->second];
        e.packets++;
        e.bytes += bytes;
        if (fault)
            e.faults++;
        return;
    }
    if (entries.size() < cap) {
        Entry e;
        e.key = key;
        e.id = id;
        e.packets = 1;
        e.bytes = bytes;
        e.faults = fault ? 1 : 0;
        index.emplace(key, entries.size());
        entries.push_back(e);
        return;
    }
    // Table full: evict the minimum-count entry and let the newcomer
    // inherit its count (the space-saving overestimate).  The evicted
    // count becomes the newcomer's error bound; bytes and faults are
    // not inherited — they restart as exact since-takeover values.
    // The linear min scan runs only on a miss with a full table and
    // cap is small (tens), so the cost stays bounded per packet.
    size_t min_at = 0;
    for (size_t i = 1; i < entries.size(); i++) {
        if (entries[i].packets < entries[min_at].packets)
            min_at = i;
    }
    Entry &slot = entries[min_at];
    index.erase(slot.key);
    index.emplace(key, min_at);
    slot.key = key;
    slot.id = id;
    slot.error = slot.packets;
    slot.packets++;
    slot.bytes = bytes;
    slot.faults = fault ? 1 : 0;
}

std::vector<FlowTopK::Entry>
FlowTopK::top(size_t n) const
{
    std::vector<Entry> out;
    {
        std::lock_guard<std::mutex> lock(mu);
        out = entries;
    }
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.packets != b.packets)
                      return a.packets > b.packets;
                  return a.key < b.key; // deterministic ties
              });
    if (n && out.size() > n)
        out.resize(n);
    return out;
}

uint64_t
FlowTopK::observedPackets() const
{
    std::lock_guard<std::mutex> lock(mu);
    return observed;
}

} // namespace pb::obs
