/**
 * @file
 * NAT — network address and port translation (NAPT), one of the
 * paper's motivating router functions (Section II, RFC 1631).
 *
 * The application rewrites the source address of outgoing TCP/UDP
 * packets to one external address and the source port to a
 * per-binding external port, maintaining the binding table in
 * simulated memory with the same hash-and-chain structure as Flow
 * Classification.  Non-TCP/UDP IPv4 packets pass through unchanged.
 */

#ifndef PB_APPS_NAT_APP_HH
#define PB_APPS_NAT_APP_HH

#include "core/app.hh"
#include "flow/nat.hh"

namespace pb::apps
{

/** Source-NAT application. */
class NatApp : public core::Application
{
  public:
    /**
     * @param external_addr the NAT's public address
     * @param port_base     first external port handed out
     * @param num_buckets   binding hash buckets (power of two)
     */
    explicit NatApp(uint32_t external_addr = 0xc6336401, // 198.51.100.1
                    uint16_t port_base = 20000,
                    uint32_t num_buckets = 1024);

    std::string name() const override { return "nat"; }
    isa::Program setup(sim::Memory &mem) const override;

    /** Host reference translator (bind order matches the program). */
    flow::NatTable &reference() { return table; }

    /** Bindings the simulated table currently holds. */
    uint32_t simBindingCount(const sim::Memory &mem) const;

  private:
    uint32_t extAddr;
    uint16_t portBase;
    uint32_t numBuckets;
    flow::NatTable table;
};

} // namespace pb::apps

#endif // PB_APPS_NAT_APP_HH
