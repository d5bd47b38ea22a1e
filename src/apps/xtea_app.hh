/**
 * @file
 * XTEA payload encryption — a payload-processing application (PPA).
 *
 * The paper focuses its evaluation on header-processing applications
 * but notes PacketBench equally characterizes payload processing
 * (CommBench's PPA class).  This application encrypts the packet
 * payload in place with XTEA; its cost scales with payload size —
 * the defining PPA property the extension bench demonstrates.
 */

#ifndef PB_APPS_XTEA_APP_HH
#define PB_APPS_XTEA_APP_HH

#include "core/app.hh"
#include "net/packet.hh"
#include "payload/xtea.hh"

namespace pb::apps
{

/** Payload-encryption application. */
class XteaApp : public core::Application
{
  public:
    /** @param key 128-bit key as four words. */
    explicit XteaApp(std::array<uint32_t, 4> key = {0x00010203,
                                                    0x04050607,
                                                    0x08090a0b,
                                                    0x0c0d0e0f});

    std::string name() const override { return "xtea-enc"; }
    isa::Program setup(sim::Memory &mem) const override;

    /** Host reference: apply the identical transform to @p packet. */
    void referenceProcess(net::Packet &packet) const;

    const payload::Xtea &cipher() const { return xtea; }

  private:
    payload::Xtea xtea;
};

} // namespace pb::apps

#endif // PB_APPS_XTEA_APP_HH
