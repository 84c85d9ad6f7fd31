// Weight serialization for GraphNetworks.
//
// One format: a geonas::io container (magic "GEONASW2", version 2,
// parameter count, then per parameter its shape and raw IEEE-754
// values, CRC-32 trailer). Non-finite values round-trip bit-exactly;
// truncation, corruption and foreign files are refused with byte-offset
// diagnostics.
//
// Structure is not stored — loading requires a network with an
// identical parameter list, which the searchspace builder regenerates
// deterministically from an architecture encoding.
#pragma once

#include <iosfwd>
#include <string>

#include "nn/graph.hpp"

namespace geonas::nn {

void save_weights_binary(GraphNetwork& net, std::ostream& os);
/// Throws std::runtime_error when the stream's parameter count, a shape
/// or a value count differs from `net`'s, before reading those values.
void load_weights_binary(GraphNetwork& net, std::istream& is);

/// File-path conveniences; throw std::runtime_error on I/O failure.
/// save_weights_file publishes atomically (.tmp + rename).
void save_weights_file(GraphNetwork& net, const std::string& path);
void load_weights_file(GraphNetwork& net, const std::string& path);

}  // namespace geonas::nn
