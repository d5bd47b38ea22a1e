/**
 * @file
 * IngestSource implementation.
 */

#include "ingest.hh"

#include <utility>

namespace pb::service
{

std::optional<net::Packet>
IngestSource::next()
{
    if (nextLocal == local.size()) {
        local.clear();
        nextLocal = 0;
        if (!ring.popBatch(local, ingestBatch))
            return std::nullopt;
    }
    return std::move(local[nextLocal++]);
}

} // namespace pb::service
