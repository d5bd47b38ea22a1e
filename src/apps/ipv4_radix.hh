/**
 * @file
 * IPv4-radix: RFC1812 packet forwarding with a binary radix-trie
 * routing table (the paper's straightforward, unoptimized forwarding
 * workload, modeled on the BSD radix code).
 *
 * The paper compiled the BSD implementation essentially as-is, so
 * this program is written the way unoptimized compiled C behaves:
 * every local lives in a stack slot and is re-loaded around each
 * use, the per-node step is a helper function with its own frame,
 * and the address is consulted byte-wise (BSD keys are byte
 * strings).  That style — not the trie algorithm itself — is what
 * makes IPv4-radix an order of magnitude heavier than IPv4-trie,
 * exactly the contrast the paper draws.
 */

#ifndef PB_APPS_IPV4_RADIX_HH
#define PB_APPS_IPV4_RADIX_HH

#include "core/app.hh"
#include "route/radix.hh"

namespace pb::apps
{

/** Radix-trie forwarding application. */
class Ipv4RadixApp : public core::Application
{
  public:
    /**
     * Build the trie as its data-region image.
     * @param entries routing table (MAE-WEST-sized in the paper)
     */
    explicit Ipv4RadixApp(std::vector<route::RouteEntry> entries);

    std::string name() const override { return "ipv4-radix"; }
    isa::Program setup(sim::Memory &mem) const override;

    /** Host-side reference lookup; its image is what setup() stores. */
    const route::RadixTable &radix() const { return table; }

  private:
    route::RadixTable table;
};

} // namespace pb::apps

#endif // PB_APPS_IPV4_RADIX_HH
