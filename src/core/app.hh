/**
 * @file
 * The PacketBench application interface.
 *
 * Mirrors the paper's API (Section III-B):
 *  - init() — here the constructor plus setup(): the application
 *    builds its data structures (routing table, flow table,
 *    anonymization tables) host-side, and setup(), which is const,
 *    writes them into a machine's simulated memory before any packets
 *    are processed.  This work is not counted toward packet
 *    processing, exactly as the paper excludes init() from the
 *    statistics.
 *  - process_packet_function — the NPE32 program returned by
 *    setup(); the framework calls it once per packet with a0 =
 *    pointer to the layer-3 header and a1 = captured length.
 *  - write_packet_to_file / drop — expressed by the program ending
 *    with `sys SYS_SEND` (next hop in a1) or `sys SYS_DROP`.
 */

#ifndef PB_CORE_APP_HH
#define PB_CORE_APP_HH

#include <string>

#include "isa/program.hh"
#include "sim/memory.hh"

namespace pb::core
{

/** A packet-processing application runnable on PacketBench. */
class Application
{
  public:
    virtual ~Application() = default;

    /** Short identifier ("ipv4-radix", "flow-class", ...). */
    virtual std::string name() const = 0;

    /**
     * Initialize application state in simulated memory and return
     * the assembled packet-handler program (entry label "main").
     *
     * Called once per simulated machine before packet processing;
     * the work done here is not accounted (the paper's init()).
     * It is const: an application builds its host tables when it is
     * constructed, and setup() only writes them into @p mem, so
     * every machine set up from one application starts from the
     * same data region and program.
     */
    virtual isa::Program setup(sim::Memory &mem) const = 0;
};

} // namespace pb::core

#endif // PB_CORE_APP_HH
