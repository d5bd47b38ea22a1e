/**
 * @file
 * Bijective IP address scrambler.
 *
 * NLANR anonymizes its traces by renumbering addresses sequentially
 * from 10.0.0.1, which (as the paper's Section IV-B notes) biases
 * routing-table lookups toward one prefix.  The paper scrambles
 * addresses during preprocessing to restore uniform coverage; this
 * class implements that step as a 4-round Feistel network over the
 * 32-bit address space, which is bijective (no two addresses
 * collide) and invertible.
 */

#ifndef PB_NET_SCRAMBLE_HH
#define PB_NET_SCRAMBLE_HH

#include <cstdint>

#include "net/packet.hh"

namespace pb::net
{

/** Keyed bijective 32-bit permutation. */
class AddressScrambler
{
  public:
    explicit AddressScrambler(uint32_t key = 0x5ca1ab1e) : key(key) {}

    /** Forward permutation. */
    uint32_t scramble(uint32_t addr) const;

    /** Inverse permutation: unscramble(scramble(a)) == a. */
    uint32_t unscramble(uint32_t addr) const;

    /**
     * Scramble the source and destination addresses of an IPv4
     * packet in place.  When the incoming header checksum verifies
     * (over the full IHL-derived header), it is updated
     * incrementally (RFC 1624) so it stays valid; a checksum that
     * arrived invalid is left invalid rather than repaired, so
     * downstream forwarding checks still see the corruption.
     * No-op for packets without a complete IPv4 header.
     */
    void scramblePacket(Packet &packet) const;

  private:
    static constexpr int rounds = 4;
    uint32_t key;
};

} // namespace pb::net

#endif // PB_NET_SCRAMBLE_HH
