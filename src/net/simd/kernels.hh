/**
 * @file
 * Name of the host-kernel backend, for run provenance.
 *
 * Every host kernel (checksum, flow hash, address scrambler, memory
 * clear) has one scalar implementation in the module that owns it,
 * so the backend is always "generic".  The header exists so that
 * benchmark provenance keeps its "simd_backend" field (see "Host
 * kernels are scalar" in docs/PERFORMANCE.md).
 */

#ifndef PB_NET_SIMD_KERNELS_HH
#define PB_NET_SIMD_KERNELS_HH

#include <cstdint>
#include <string_view>

namespace pb::net::simd
{

/** Host-kernel backend: only the portable scalar one exists. */
enum class Backend : uint8_t
{
    Generic,
};

/** Stable lower-case name ("generic"). */
inline std::string_view
backendName(Backend)
{
    return "generic";
}

/** The backend serving this process. */
inline Backend
activeBackend()
{
    return Backend::Generic;
}

} // namespace pb::net::simd

#endif // PB_NET_SIMD_KERNELS_HH
