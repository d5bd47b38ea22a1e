/**
 * @file
 * Flow Classification: packets are classified into flows by their
 * 5-tuple, which is hashed into a bucket array with chained
 * collision resolution (the paper's firewall / NAT / monitoring
 * kernel).
 */

#ifndef PB_APPS_FLOW_CLASS_HH
#define PB_APPS_FLOW_CLASS_HH

#include "core/app.hh"
#include "flow/flowtable.hh"

namespace pb::apps
{

/** Flow classification application. */
class FlowClassApp : public core::Application
{
  public:
    /** @param num_buckets hash bucket count (power of two). */
    explicit FlowClassApp(uint32_t num_buckets = 4096);

    std::string name() const override { return "flow-class"; }
    isa::Program setup(sim::Memory &mem) const override;

    uint32_t bucketCount() const { return numBuckets; }

    /** @name Simulated-state readers (for tests and analyses). @{ */
    /** Number of flows the simulated table currently holds. */
    uint32_t simFlowCount(const sim::Memory &mem) const;
    /** Look up a flow in simulated memory; packets==0 if absent. */
    flow::FlowStats simLookup(const sim::Memory &mem,
                              const net::FiveTuple &tuple) const;
    /** @} */

  private:
    uint32_t numBuckets;
    uint32_t bucketsAddr() const;
    uint32_t heapAddr() const;
};

} // namespace pb::apps

#endif // PB_APPS_FLOW_CLASS_HH
