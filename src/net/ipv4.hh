/**
 * @file
 * IPv4 / TCP / UDP header access and Internet checksum arithmetic.
 *
 * Headers are viewed in place over packet bytes (network byte
 * order), the way a network processor touches them.  The checksum
 * helpers implement RFC 1071 computation and the RFC 1624
 * incremental update used when a router decrements TTL.
 */

#ifndef PB_NET_IPV4_HH
#define PB_NET_IPV4_HH

#include <cstdint>

#include "common/byteorder.hh"
#include "common/hash.hh"
#include "net/packet.hh"

namespace pb::net
{

/** IP protocol numbers used by the workloads. */
enum class IpProto : uint8_t
{
    Icmp = 1,
    Tcp = 6,
    Udp = 17,
};

/** Byte offsets of IPv4 header fields (RFC 791). */
namespace ipv4
{

constexpr unsigned offVerIhl = 0;
constexpr unsigned offTos = 1;
constexpr unsigned offTotalLen = 2;
constexpr unsigned offIdent = 4;
constexpr unsigned offFlagsFrag = 6;
constexpr unsigned offTtl = 8;
constexpr unsigned offProto = 9;
constexpr unsigned offChecksum = 10;
constexpr unsigned offSrc = 12;
constexpr unsigned offDst = 16;
constexpr unsigned minHeaderLen = 20;

} // namespace ipv4

/**
 * Read-write view of an IPv4 header.  The view does not own the
 * bytes; it is a typed window over packet memory.
 */
class Ipv4View
{
  public:
    /** @param data pointer to the first byte of the IPv4 header. */
    explicit Ipv4View(uint8_t *data) : p(data) {}

    uint8_t version() const { return p[ipv4::offVerIhl] >> 4; }
    uint8_t ihl() const { return p[ipv4::offVerIhl] & 0xf; }
    uint8_t headerLen() const { return ihl() * 4; }
    uint16_t totalLen() const { return loadBe16(p + ipv4::offTotalLen); }
    uint8_t ttl() const { return p[ipv4::offTtl]; }
    uint8_t proto() const { return p[ipv4::offProto]; }
    uint16_t checksum() const { return loadBe16(p + ipv4::offChecksum); }
    uint32_t src() const { return loadBe32(p + ipv4::offSrc); }
    uint32_t dst() const { return loadBe32(p + ipv4::offDst); }
    /** Fragment offset in 8-byte units (0 for the first fragment). */
    uint16_t
    fragOffset() const
    {
        return loadBe16(p + ipv4::offFlagsFrag) & 0x1fff;
    }

    void
    setVersionIhl(uint8_t version, uint8_t ihl)
    {
        p[ipv4::offVerIhl] =
            static_cast<uint8_t>((version << 4) | (ihl & 0xf));
    }
    void setTotalLen(uint16_t v) { storeBe16(p + ipv4::offTotalLen, v); }
    void setIdent(uint16_t v) { storeBe16(p + ipv4::offIdent, v); }
    void setTtl(uint8_t v) { p[ipv4::offTtl] = v; }
    void setProto(uint8_t v) { p[ipv4::offProto] = v; }
    void setChecksum(uint16_t v) { storeBe16(p + ipv4::offChecksum, v); }
    void setSrc(uint32_t v) { storeBe32(p + ipv4::offSrc, v); }
    void setDst(uint32_t v) { storeBe32(p + ipv4::offDst, v); }

    /** Raw header bytes. */
    uint8_t *data() { return p; }
    const uint8_t *data() const { return p; }

  private:
    uint8_t *p;
};

/** Const view helper. */
class Ipv4ConstView
{
  public:
    explicit Ipv4ConstView(const uint8_t *data) : p(data) {}

    uint8_t version() const { return p[ipv4::offVerIhl] >> 4; }
    uint8_t ihl() const { return p[ipv4::offVerIhl] & 0xf; }
    uint8_t headerLen() const { return ihl() * 4; }
    uint16_t totalLen() const { return loadBe16(p + ipv4::offTotalLen); }
    uint8_t ttl() const { return p[ipv4::offTtl]; }
    uint8_t proto() const { return p[ipv4::offProto]; }
    uint16_t checksum() const { return loadBe16(p + ipv4::offChecksum); }
    uint32_t src() const { return loadBe32(p + ipv4::offSrc); }
    uint32_t dst() const { return loadBe32(p + ipv4::offDst); }
    /** Fragment offset in 8-byte units (0 for the first fragment). */
    uint16_t
    fragOffset() const
    {
        return loadBe16(p + ipv4::offFlagsFrag) & 0x1fff;
    }

  private:
    const uint8_t *p;
};

/** Byte offsets within a TCP/UDP header for the 5-tuple fields. */
namespace l4
{

constexpr unsigned offSrcPort = 0;
constexpr unsigned offDstPort = 2;

} // namespace l4

/**
 * RFC 1071 Internet checksum over @p len bytes (one's-complement sum
 * of big-endian 16-bit words, final complement).  Odd trailing byte
 * is padded with zero.
 */
uint16_t inetChecksum(const uint8_t *data, unsigned len);

/**
 * Verify an IPv4 header checksum: the checksum over the header
 * including the checksum field must be zero.
 * @return true if the checksum is valid
 */
bool verifyIpv4Checksum(const uint8_t *header, unsigned header_len);

/** Compute and install the header checksum (field zeroed first). */
void fillIpv4Checksum(uint8_t *header, unsigned header_len);

/**
 * RFC 1624 incremental checksum update: given the old checksum and
 * one 16-bit field changing from @p old_val to @p new_val, return the
 * updated checksum.  HC' = ~(~HC + ~m + m').
 */
uint16_t incrementalChecksum(uint16_t old_sum, uint16_t old_val,
                             uint16_t new_val);

/**
 * Parse the 5-tuple of @p packet.  Returns false for non-IPv4 or
 * truncated packets.
 */
struct FiveTuple
{
    uint32_t src = 0;
    uint32_t dst = 0;
    uint16_t srcPort = 0;
    uint16_t dstPort = 0;
    uint8_t proto = 0;

    bool operator==(const FiveTuple &) const = default;
};

bool parseFiveTuple(const Packet &packet, FiveTuple &tuple);

/**
 * Parse and flow-hash @p n packets in one pass: valid[i] reports
 * whether packets[i] parsed (parseFiveTuple semantics) and, when it
 * did, hash[i] == flowHash(its 5-tuple).  Entries with valid[i] ==
 * false leave hash[i] unspecified.  The dispatcher's batched front
 * end (core/multicore.cc).
 */
void hashPacketBatch(const Packet *const *packets, unsigned n,
                     uint32_t *hash, bool *valid);

/**
 * The dispatcher's flow hash of a 5-tuple: the value that pins a
 * flow to an engine (core/multicore.hh) and keys its entry in the
 * live top-K flow table (obs/topk.hh).  Independent of the
 * applications' own bucket hashes to avoid correlated imbalance.
 */
constexpr uint32_t
flowHash(const FiveTuple &tuple)
{
    uint32_t ports = (static_cast<uint32_t>(tuple.srcPort) << 16) |
                     tuple.dstPort;
    return mix32(mix32(tuple.src, tuple.dst),
                 mix32(ports, tuple.proto));
}

/**
 * RFC 1812 forwarding verdict (host reference for the forwarding
 * applications): the checks a compliant router applies before the
 * routing lookup, in the order the applications apply them.
 */
enum class ForwardCheck
{
    Ok,              ///< eligible for the routing lookup
    BadHeader,       ///< not IPv4 or IHL < 5
    BadChecksum,     ///< header checksum invalid
    TtlExpired,      ///< TTL <= 1 (would generate ICMP time exceeded)
    MartianSource,   ///< source in 0.0.0.0/8 or 127.0.0.0/8
    MulticastDest,   ///< destination in 224.0.0.0/4 (not forwarded)
};

/** Apply the RFC 1812 ingress checks to @p packet. */
ForwardCheck rfc1812Check(const Packet &packet);

/**
 * Build a minimal IPv4 packet (20-byte header plus an 8-byte L4
 * stub and optional payload padding) for generators and tests.
 *
 * @param tuple       5-tuple to encode
 * @param total_len   total IP length (>= 28)
 * @param ttl         initial TTL
 * @param payload_fill byte used to pad the payload
 */
std::vector<uint8_t> buildIpv4Packet(const FiveTuple &tuple,
                                     uint16_t total_len, uint8_t ttl = 64,
                                     uint8_t payload_fill = 0);

} // namespace pb::net

#endif // PB_NET_IPV4_HH
