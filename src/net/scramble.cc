/**
 * @file
 * Feistel address scrambler implementation.
 */

#include "scramble.hh"

#include "common/hash.hh"
#include "net/ipv4.hh"

namespace pb::net
{

uint32_t
AddressScrambler::scramble(uint32_t addr) const
{
    uint16_t left = static_cast<uint16_t>(addr >> 16);
    uint16_t right = static_cast<uint16_t>(addr);
    for (int round = 0; round < rounds; round++) {
        uint16_t f = static_cast<uint16_t>(
            prf32(key + static_cast<uint32_t>(round), right));
        uint16_t new_right = static_cast<uint16_t>(left ^ f);
        left = right;
        right = new_right;
    }
    return (static_cast<uint32_t>(left) << 16) | right;
}

uint32_t
AddressScrambler::unscramble(uint32_t addr) const
{
    uint16_t left = static_cast<uint16_t>(addr >> 16);
    uint16_t right = static_cast<uint16_t>(addr);
    for (int round = rounds - 1; round >= 0; round--) {
        uint16_t f = static_cast<uint16_t>(
            prf32(key + static_cast<uint32_t>(round), left));
        uint16_t new_left = static_cast<uint16_t>(right ^ f);
        right = left;
        left = new_left;
    }
    return (static_cast<uint32_t>(left) << 16) | right;
}

void
AddressScrambler::scramblePacket(Packet &packet) const
{
    if (packet.l3Len() < ipv4::minHeaderLen)
        return;
    Ipv4View ip(packet.l3());
    if (ip.version() != 4)
        return;

    // Decide up front whether the incoming checksum verified: a
    // full fillIpv4Checksum() after scrambling would also *repair* a
    // checksum that arrived broken, silently converting packets the
    // forwarding path must drop into forwardable ones.
    unsigned hlen = ip.headerLen();
    bool checksum_ok = hlen >= ipv4::minHeaderLen &&
                       hlen <= packet.l3Len() &&
                       verifyIpv4Checksum(packet.l3(), hlen);

    uint32_t old_src = ip.src();
    uint32_t old_dst = ip.dst();
    uint32_t new_src = scramble(old_src);
    uint32_t new_dst = scramble(old_dst);
    ip.setSrc(new_src);
    ip.setDst(new_dst);

    if (!checksum_ok)
        return; // leave an invalid checksum invalid
    // RFC 1624 incremental update over the four rewritten halfwords
    // keeps the checksum valid without touching the option bytes.
    uint16_t sum = ip.checksum();
    sum = incrementalChecksum(sum, static_cast<uint16_t>(old_src >> 16),
                              static_cast<uint16_t>(new_src >> 16));
    sum = incrementalChecksum(sum, static_cast<uint16_t>(old_src),
                              static_cast<uint16_t>(new_src));
    sum = incrementalChecksum(sum, static_cast<uint16_t>(old_dst >> 16),
                              static_cast<uint16_t>(new_dst >> 16));
    sum = incrementalChecksum(sum, static_cast<uint16_t>(old_dst),
                              static_cast<uint16_t>(new_dst));
    ip.setChecksum(sum);
}

} // namespace pb::net
