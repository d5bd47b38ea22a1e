/**
 * @file
 * IPv4 header helpers and checksum arithmetic.
 */

#include "ipv4.hh"

namespace pb::net
{

uint16_t
inetChecksum(const uint8_t *data, unsigned len)
{
    // A 64-bit accumulator: a 32-bit one drops carries once the sum
    // of 0xffff words passes 2^32, i.e. beyond ~2^17 bytes.
    uint64_t sum = 0;
    unsigned i = 0;
    for (; i + 1 < len; i += 2)
        sum += loadBe16(data + i);
    if (i < len)
        sum += static_cast<uint32_t>(data[i]) << 8;
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<uint16_t>(~sum);
}

bool
verifyIpv4Checksum(const uint8_t *header, unsigned header_len)
{
    // Sum over the header including the stored checksum is all-ones,
    // so the folded complement is zero.
    return inetChecksum(header, header_len) == 0;
}

void
fillIpv4Checksum(uint8_t *header, unsigned header_len)
{
    storeBe16(header + ipv4::offChecksum, 0);
    storeBe16(header + ipv4::offChecksum,
              inetChecksum(header, header_len));
}

uint16_t
incrementalChecksum(uint16_t old_sum, uint16_t old_val, uint16_t new_val)
{
    // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m').
    uint32_t sum = static_cast<uint16_t>(~old_sum);
    sum += static_cast<uint16_t>(~old_val);
    sum += new_val;
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<uint16_t>(~sum);
}

bool
parseFiveTuple(const Packet &packet, FiveTuple &tuple)
{
    if (packet.l3Len() < ipv4::minHeaderLen)
        return false;
    Ipv4ConstView ip(packet.l3());
    if (ip.version() != 4)
        return false;
    unsigned hlen = ip.headerLen();
    if (hlen < ipv4::minHeaderLen || packet.l3Len() < hlen)
        return false;

    tuple.src = ip.src();
    tuple.dst = ip.dst();
    tuple.proto = ip.proto();
    tuple.srcPort = 0;
    tuple.dstPort = 0;
    // A non-first fragment carries payload where the L4 header would
    // be; its ports stay 0 so all fragments of a datagram share one
    // (portless) flow instead of minting a garbage tuple per train.
    if ((tuple.proto == static_cast<uint8_t>(IpProto::Tcp) ||
         tuple.proto == static_cast<uint8_t>(IpProto::Udp)) &&
        ip.fragOffset() == 0 && packet.l3Len() >= hlen + 4) {
        const uint8_t *l4p = packet.l3() + hlen;
        tuple.srcPort = loadBe16(l4p + l4::offSrcPort);
        tuple.dstPort = loadBe16(l4p + l4::offDstPort);
    }
    return true;
}

void
hashPacketBatch(const Packet *const *packets, unsigned n,
                uint32_t *hash, bool *valid)
{
    for (unsigned i = 0; i < n; i++) {
        FiveTuple tuple;
        valid[i] = parseFiveTuple(*packets[i], tuple);
        if (valid[i])
            hash[i] = flowHash(tuple);
    }
}

ForwardCheck
rfc1812Check(const Packet &packet)
{
    if (packet.l3Len() < ipv4::minHeaderLen)
        return ForwardCheck::BadHeader;
    Ipv4ConstView ip(packet.l3());
    if (ip.version() != 4 || ip.ihl() < 5)
        return ForwardCheck::BadHeader;
    unsigned hlen = ip.headerLen();
    if (packet.l3Len() < hlen || ip.totalLen() < hlen)
        return ForwardCheck::BadHeader;
    // The checksum covers the whole IHL-derived header, options
    // included (RFC 1812 §5.2.2): verifying only the fixed 20 bytes
    // accepts corrupt option words and rejects valid option-bearing
    // headers whose 20-byte prefix sum happens not to fold to zero.
    if (!verifyIpv4Checksum(packet.l3(), hlen))
        return ForwardCheck::BadChecksum;
    if (ip.ttl() <= 1)
        return ForwardCheck::TtlExpired;
    uint8_t src_top = static_cast<uint8_t>(ip.src() >> 24);
    if (src_top == 0 || src_top == 127)
        return ForwardCheck::MartianSource;
    if ((ip.dst() >> 28) == 0xe) // 224.0.0.0/4
        return ForwardCheck::MulticastDest;
    return ForwardCheck::Ok;
}

std::vector<uint8_t>
buildIpv4Packet(const FiveTuple &tuple, uint16_t total_len, uint8_t ttl,
                uint8_t payload_fill)
{
    if (total_len < ipv4::minHeaderLen + 8)
        fatal("buildIpv4Packet: total_len %u too small", total_len);
    std::vector<uint8_t> bytes(total_len, payload_fill);
    Ipv4View ip(bytes.data());
    ip.setVersionIhl(4, 5);
    bytes[ipv4::offTos] = 0;
    ip.setTotalLen(total_len);
    ip.setIdent(0);
    storeBe16(bytes.data() + ipv4::offFlagsFrag, 0x4000); // DF
    ip.setTtl(ttl);
    ip.setProto(tuple.proto);
    ip.setSrc(tuple.src);
    ip.setDst(tuple.dst);
    fillIpv4Checksum(bytes.data(), ipv4::minHeaderLen);

    uint8_t *l4p = bytes.data() + ipv4::minHeaderLen;
    storeBe16(l4p + l4::offSrcPort, tuple.srcPort);
    storeBe16(l4p + l4::offDstPort, tuple.dstPort);
    // Remaining 4 bytes of the L4 stub: sequence/length field.
    storeBe32(l4p + 4, static_cast<uint32_t>(total_len));
    return bytes;
}

} // namespace pb::net
