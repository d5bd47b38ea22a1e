/**
 * @file
 * IPv4-trie: RFC1812 packet forwarding with an LC-trie routing table
 * (the paper's efficient forwarding workload, derived from Nilsson &
 * Karlsson).
 */

#ifndef PB_APPS_IPV4_TRIE_HH
#define PB_APPS_IPV4_TRIE_HH

#include "core/app.hh"
#include "route/lctrie.hh"

namespace pb::apps
{

/** LC-trie forwarding application. */
class Ipv4TrieApp : public core::Application
{
  public:
    /**
     * Build the LC-trie and pack its data-region image.
     * @param entries routing table (the paper used a small table for
     *                this application)
     */
    explicit Ipv4TrieApp(std::vector<route::RouteEntry> entries);

    std::string name() const override { return "ipv4-trie"; }
    isa::Program setup(sim::Memory &mem) const override;

    /** Host-side reference lookup (bit-exact with the program). */
    const route::LcTrie &trie() const { return lcTrie; }

  private:
    route::LcTrie lcTrie;
    uint32_t leafBase = 0;       ///< address of the first leaf record
    std::vector<uint32_t> image; ///< what setup() stores at appDataBase
};

} // namespace pb::apps

#endif // PB_APPS_IPV4_TRIE_HH
