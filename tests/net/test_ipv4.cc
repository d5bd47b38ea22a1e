/**
 * @file
 * IPv4 header, checksum, and 5-tuple tests.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "net/ipv4.hh"

namespace
{

using namespace pb;
using namespace pb::net;

FiveTuple
sampleTuple()
{
    FiveTuple tuple;
    tuple.src = 0x0a000001;
    tuple.dst = 0xc0a80105;
    tuple.srcPort = 12345;
    tuple.dstPort = 80;
    tuple.proto = static_cast<uint8_t>(IpProto::Tcp);
    return tuple;
}

TEST(Ipv4, BuildPacketRoundTripsFields)
{
    auto bytes = buildIpv4Packet(sampleTuple(), 64, 63);
    ASSERT_EQ(bytes.size(), 64u);
    Ipv4ConstView ip(bytes.data());
    EXPECT_EQ(ip.version(), 4);
    EXPECT_EQ(ip.ihl(), 5);
    EXPECT_EQ(ip.headerLen(), 20);
    EXPECT_EQ(ip.totalLen(), 64);
    EXPECT_EQ(ip.ttl(), 63);
    EXPECT_EQ(ip.proto(), 6);
    EXPECT_EQ(ip.src(), 0x0a000001u);
    EXPECT_EQ(ip.dst(), 0xc0a80105u);
}

TEST(Ipv4, BuiltPacketHasValidChecksum)
{
    auto bytes = buildIpv4Packet(sampleTuple(), 40);
    EXPECT_TRUE(verifyIpv4Checksum(bytes.data(), 20));
    // Corrupt one byte: checksum must fail.
    bytes[ipv4::offTtl] ^= 1;
    EXPECT_FALSE(verifyIpv4Checksum(bytes.data(), 20));
}

TEST(Ipv4, ChecksumKnownVector)
{
    // Classic example header from RFC 1071 discussions.
    uint8_t hdr[20] = {0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40,
                       0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
                       0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7};
    uint16_t sum = inetChecksum(hdr, 20);
    EXPECT_EQ(sum, 0xb861);
    storeBe16(hdr + ipv4::offChecksum, sum);
    EXPECT_TRUE(verifyIpv4Checksum(hdr, 20));
}

TEST(Ipv4, ChecksumOddLength)
{
    uint8_t data[3] = {0x12, 0x34, 0x56};
    // 0x1234 + 0x5600 = 0x6834 -> ~ = 0x97cb.
    EXPECT_EQ(inetChecksum(data, 3), 0x97cb);
}

/** RFC 1071 by definition: end-around carry after every word. */
uint16_t
naiveChecksum(const std::vector<uint8_t> &buf)
{
    uint32_t sum = 0;
    for (size_t i = 0; i < buf.size(); i += 2) {
        uint32_t word = static_cast<uint32_t>(buf[i]) << 8;
        if (i + 1 < buf.size())
            word |= buf[i + 1];
        sum += word;
        sum = (sum & 0xffff) + (sum >> 16);
    }
    return static_cast<uint16_t>(~sum);
}

TEST(Ipv4, ChecksumLargeAllOnesBufferMatchesNaiveSum)
{
    // Past ~2^17 bytes of 0xffff words a 32-bit accumulator wraps
    // and silently drops carries; 2^19 + 7 bytes wraps it several
    // times and ends on an odd byte.
    std::vector<uint8_t> buf((1u << 19) + 7, 0xff);
    const unsigned len = static_cast<unsigned>(buf.size());
    EXPECT_EQ(inetChecksum(buf.data(), len), naiveChecksum(buf));

    Rng rng(55);
    for (size_t i = 0; i < buf.size(); i += 97)
        buf[i] = static_cast<uint8_t>(rng.below(256));
    EXPECT_EQ(inetChecksum(buf.data(), len), naiveChecksum(buf));
}

TEST(Ipv4, FillVerifyProperty)
{
    // Property: fill then verify succeeds for random headers.
    Rng rng(42);
    for (int i = 0; i < 200; i++) {
        uint8_t hdr[20];
        for (auto &byte : hdr)
            byte = static_cast<uint8_t>(rng.below(256));
        hdr[0] = 0x45;
        fillIpv4Checksum(hdr, 20);
        EXPECT_TRUE(verifyIpv4Checksum(hdr, 20)) << "iter " << i;
    }
}

TEST(Ipv4, IncrementalChecksumMatchesRecompute)
{
    // Property (RFC 1624): updating the TTL field incrementally gives
    // the same checksum as recomputing from scratch.
    Rng rng(7);
    for (int i = 0; i < 200; i++) {
        auto bytes = buildIpv4Packet(sampleTuple(), 40,
                                     static_cast<uint8_t>(
                                         rng.range(2, 255)));
        Ipv4View ip(bytes.data());
        uint16_t old_sum = ip.checksum();
        uint16_t old_word = loadBe16(bytes.data() + ipv4::offTtl);
        ip.setTtl(ip.ttl() - 1);
        uint16_t new_word = loadBe16(bytes.data() + ipv4::offTtl);
        ip.setChecksum(incrementalChecksum(old_sum, old_word, new_word));
        EXPECT_TRUE(verifyIpv4Checksum(bytes.data(), 20)) << "iter " << i;
    }
}

TEST(Ipv4, ParseFiveTuple)
{
    Packet packet;
    packet.bytes = buildIpv4Packet(sampleTuple(), 40);
    packet.l3Offset = 0;
    FiveTuple tuple;
    ASSERT_TRUE(parseFiveTuple(packet, tuple));
    EXPECT_EQ(tuple, sampleTuple());
}

TEST(Ipv4, ParseFiveTupleIcmpHasNoPorts)
{
    FiveTuple icmp = sampleTuple();
    icmp.proto = static_cast<uint8_t>(IpProto::Icmp);
    icmp.srcPort = 0;
    icmp.dstPort = 0;
    Packet packet;
    packet.bytes = buildIpv4Packet(icmp, 84);
    FiveTuple tuple;
    ASSERT_TRUE(parseFiveTuple(packet, tuple));
    EXPECT_EQ(tuple.srcPort, 0);
    EXPECT_EQ(tuple.dstPort, 0);
}

TEST(Ipv4, ParseFiveTupleRejectsGarbage)
{
    Packet packet;
    packet.bytes = {0x45, 0x00};
    FiveTuple tuple;
    EXPECT_FALSE(parseFiveTuple(packet, tuple));

    packet.bytes = buildIpv4Packet(sampleTuple(), 40);
    packet.bytes[0] = 0x65; // version 6
    EXPECT_FALSE(parseFiveTuple(packet, tuple));
}

TEST(Ipv4, BuildRejectsTinyPacket)
{
    EXPECT_THROW(buildIpv4Packet(sampleTuple(), 20), FatalError);
}

/** Rewrite a built packet as IHL=6 with one 4-byte option word. */
std::vector<uint8_t>
withOptions(uint16_t total_len, uint32_t option_word)
{
    // Build a 20-byte-header packet, then splice the option word in
    // after the fixed header and re-derive IHL/lengths/checksum.
    auto bytes = buildIpv4Packet(sampleTuple(), total_len);
    bytes.insert(bytes.begin() + ipv4::minHeaderLen, 4, 0);
    storeBe32(bytes.data() + ipv4::minHeaderLen, option_word);
    bytes.resize(total_len); // keep the advertised total length
    Ipv4View ip(bytes.data());
    ip.setVersionIhl(4, 6);
    ip.setTotalLen(total_len);
    fillIpv4Checksum(bytes.data(), 24);
    return bytes;
}

TEST(Ipv4, Rfc1812ChecksumCoversOptions)
{
    Packet packet;
    packet.bytes = withOptions(64, 0x07040404); // record-route-ish
    ASSERT_EQ(Ipv4ConstView(packet.bytes.data()).headerLen(), 24u);
    EXPECT_EQ(rfc1812Check(packet), ForwardCheck::Ok);

    // Corrupting an option byte must now fail the checksum: the sum
    // covers the full IHL-derived header, not just 20 bytes.
    packet.bytes[ipv4::minHeaderLen + 1] ^= 0x40;
    EXPECT_EQ(rfc1812Check(packet), ForwardCheck::BadChecksum);
}

TEST(Ipv4, Rfc1812AcceptsOptionHeaderWhosePrefixSumDiffers)
{
    // A valid option-bearing header almost never has a 20-byte
    // prefix that also folds to zero; the old minHeaderLen verify
    // rejected these as BadChecksum.
    Packet packet;
    packet.bytes = withOptions(64, 0x01010100); // NOP padding
    EXPECT_FALSE(verifyIpv4Checksum(packet.bytes.data(),
                                    ipv4::minHeaderLen));
    EXPECT_EQ(rfc1812Check(packet), ForwardCheck::Ok);
}

TEST(Ipv4, Rfc1812RejectsTruncatedOptionHeader)
{
    // l3Len < IHL-derived header length: BadHeader, not a read past
    // the end of the buffer.
    Packet packet;
    packet.bytes = withOptions(64, 0x01010100);
    packet.bytes.resize(22);
    EXPECT_EQ(rfc1812Check(packet), ForwardCheck::BadHeader);
}

TEST(Ipv4, Rfc1812RejectsTotalLenShorterThanHeader)
{
    // totalLen inside the header (16 < 24): malformed even though
    // the buffer itself is long enough.
    Packet packet;
    packet.bytes = withOptions(64, 0x01010100);
    Ipv4View ip(packet.bytes.data());
    ip.setTotalLen(16);
    fillIpv4Checksum(packet.bytes.data(), 24);
    EXPECT_EQ(rfc1812Check(packet), ForwardCheck::BadHeader);
}

TEST(Ipv4, ParseFiveTupleFragmentTrainSharesPortlessTuple)
{
    // A non-first fragment carries payload bytes where the L4 header
    // would sit; reading "ports" there would split one datagram's
    // fragments across garbage flows.
    Packet first;
    first.bytes = buildIpv4Packet(sampleTuple(), 40);
    // First fragment: MF set, offset 0 — the real L4 header is
    // present, so ports are read.
    storeBe16(first.bytes.data() + ipv4::offFlagsFrag, 0x2000);
    FiveTuple tuple;
    ASSERT_TRUE(parseFiveTuple(first, tuple));
    EXPECT_EQ(tuple.srcPort, sampleTuple().srcPort);
    EXPECT_EQ(tuple.dstPort, sampleTuple().dstPort);

    // Later fragments: offset != 0 — ports stay 0 regardless of the
    // bytes at the L4 offset.
    for (uint16_t frag_off : {1, 5, 0x1fff}) {
        Packet frag;
        frag.bytes = buildIpv4Packet(sampleTuple(), 40);
        storeBe16(frag.bytes.data() + ipv4::offFlagsFrag,
                  static_cast<uint16_t>(0x2000 | frag_off));
        FiveTuple frag_tuple;
        ASSERT_TRUE(parseFiveTuple(frag, frag_tuple));
        EXPECT_EQ(frag_tuple.srcPort, 0) << frag_off;
        EXPECT_EQ(frag_tuple.dstPort, 0) << frag_off;
        EXPECT_EQ(frag_tuple.src, tuple.src);
        EXPECT_EQ(frag_tuple.dst, tuple.dst);
        EXPECT_EQ(frag_tuple.proto, tuple.proto);
    }
}

TEST(Ipv4, FragOffsetAccessor)
{
    auto bytes = buildIpv4Packet(sampleTuple(), 40);
    Ipv4View ip(bytes.data());
    EXPECT_EQ(ip.fragOffset(), 0); // DF-only flags: offset bits clear
    storeBe16(bytes.data() + ipv4::offFlagsFrag, 0x2000 | 123);
    EXPECT_EQ(ip.fragOffset(), 123);
    EXPECT_EQ(Ipv4ConstView(bytes.data()).fragOffset(), 123);
}

TEST(Ipv4, HashPacketBatchEmptyAndSingle)
{
    // Degenerate batch sizes used by the dispatcher's tail.
    hashPacketBatch(nullptr, 0, nullptr, nullptr);

    Packet packet;
    packet.bytes = buildIpv4Packet(sampleTuple(), 40);
    const Packet *ptr = &packet;
    uint32_t hash = 0;
    bool valid = false;
    hashPacketBatch(&ptr, 1, &hash, &valid);
    ASSERT_TRUE(valid);
    FiveTuple tuple;
    ASSERT_TRUE(parseFiveTuple(packet, tuple));
    EXPECT_EQ(hash, flowHash(tuple));
}

TEST(Ipv4, HashPacketBatchMatchesScalarParsePath)
{
    // hashPacketBatch must agree lane for lane with parseFiveTuple +
    // flowHash, with invalid lanes interleaved at every position (the
    // dispatcher depends on this for serial/parallel bit-identity).
    Rng rng(505);
    std::vector<Packet> packets;
    for (unsigned i = 0; i < 37; i++) {
        FiveTuple tuple;
        tuple.src = rng.next();
        tuple.dst = rng.next();
        tuple.srcPort = static_cast<uint16_t>(rng.next());
        tuple.dstPort = static_cast<uint16_t>(rng.next());
        tuple.proto = static_cast<uint8_t>(
            (i % 3) ? IpProto::Tcp : IpProto::Udp);
        Packet packet;
        packet.bytes = buildIpv4Packet(tuple, 40);
        switch (i % 5) {
          case 0: // runt: too short for any header
            packet.bytes.resize(8);
            break;
          case 1: // wrong version
            packet.bytes[0] = 0x65;
            break;
          case 2: // non-first fragment: ports must not be read
            storeBe16(packet.bytes.data() + ipv4::offFlagsFrag,
                      0x2000 | 5);
            break;
          default:
            break;
        }
        packets.push_back(std::move(packet));
    }
    const unsigned n = static_cast<unsigned>(packets.size());
    std::vector<const Packet *> ptrs;
    for (const auto &packet : packets)
        ptrs.push_back(&packet);
    std::vector<uint32_t> hash(n);
    auto valid = std::make_unique<bool[]>(n);
    hashPacketBatch(ptrs.data(), n, hash.data(), valid.get());
    for (unsigned i = 0; i < n; i++) {
        FiveTuple tuple;
        bool want_valid = parseFiveTuple(packets[i], tuple);
        EXPECT_EQ(valid[i], want_valid) << i;
        if (want_valid) {
            EXPECT_EQ(hash[i], flowHash(tuple)) << i;
        }
    }
}

} // namespace
