/**
 * @file
 * CRC-32 — a payload-processing application (PPA).
 *
 * CommBench's checksum kernel: the application computes the IEEE
 * CRC-32 over the captured packet bytes with a 256-entry lookup
 * table in simulated data memory, and stores the result in a result
 * word.  Per-packet cost scales linearly with packet size.
 */

#ifndef PB_APPS_CRC_APP_HH
#define PB_APPS_CRC_APP_HH

#include "core/app.hh"

namespace pb::apps
{

/** CRC-32 payload application. */
class CrcApp : public core::Application
{
  public:
    CrcApp() = default;

    std::string name() const override { return "crc32"; }
    isa::Program setup(sim::Memory &mem) const override;

    /** The CRC the simulated app computed for the last packet. */
    uint32_t simResult(const sim::Memory &mem) const;

  private:
    uint32_t tableBase() const;
    uint32_t resultAddr() const;
};

} // namespace pb::apps

#endif // PB_APPS_CRC_APP_HH
