/**
 * @file
 * TSA: top-hashed subtree-replicated prefix-preserving IP address
 * anonymization, plus per-packet layer 3/4 header collection (the
 * paper's measurement-infrastructure workload).
 */

#ifndef PB_APPS_TSA_APP_HH
#define PB_APPS_TSA_APP_HH

#include "anon/tsa.hh"
#include "core/app.hh"

namespace pb::apps
{

/** TSA anonymization application. */
class TsaApp : public core::Application
{
  public:
    /**
     * @param key anonymization key (tables derive from it)
     * @param record_slots size of the on-chip header-record ring.
     *        Collected headers are drained by the measurement host
     *        in a real deployment, so the ring stays small — this
     *        is what keeps TSA's data footprint tiny in the paper's
     *        Table IV.
     */
    explicit TsaApp(uint32_t key = 0x7e57a0ff,
                    uint32_t record_slots = 64);

    std::string name() const override { return "tsa"; }
    isa::Program setup(sim::Memory &mem) const override;

    /** Host-side reference anonymizer (bit-exact). */
    const anon::TsaAnonymizer &anonymizer() const { return tsa; }

    /** @name Simulated header-record readers. @{ */
    /** Total records the simulated app has written (may exceed the
     *  ring size; older records are overwritten). */
    uint32_t simRecordCount(const sim::Memory &mem) const;
    /** Length word of ring slot @p index (index < recordSlots). */
    uint32_t simRecordLen(const sim::Memory &mem, uint32_t index) const;
    /** Read the payload bytes of ring slot @p index. */
    std::vector<uint8_t> simRecordData(const sim::Memory &mem,
                                       uint32_t index) const;
    /** @} */

    /** Record stride in simulated memory (length word + data). */
    static constexpr uint32_t recordStride = 44;

    /** Size of the record ring. */
    uint32_t recordSlots() const { return slots; }

  private:
    uint32_t topBase() const;
    uint32_t subtreeBase() const;
    uint32_t recCtrl() const;
    uint32_t recCount() const;
    uint32_t recBase() const;

    anon::TsaAnonymizer tsa;
    uint32_t slots;
};

} // namespace pb::apps

#endif // PB_APPS_TSA_APP_HH
