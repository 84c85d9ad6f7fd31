// Snapshot-matrix and land-mask file I/O.
//
// geonas ships a synthetic SST generator, but the pipeline is dataset
// agnostic: anyone holding the real NOAA OI SST record (or any other
// gridded geophysical field) can export it to this simple binary format
// and run the identical POD-LSTM workflow. The format is a fixed
// little-endian header plus a row-major double payload:
//
//   bytes 0-7   : magic "GEOSNAPS"
//   bytes 8-15  : uint64 rows (Nh, ocean cells)
//   bytes 16-23 : uint64 cols (Ns, snapshots)
//   bytes 24-31 : uint64 first snapshot week index
//   payload     : rows*cols doubles, column-major (one snapshot per column,
//                 matching the POD snapshot-matrix layout of eq. 1)
//
// The readers take a seekable stream. They refuse a truncated stream,
// implausible dimensions and a NaN or inf payload value (naming its
// (row, column) and byte offset); a header whose payload overflows or
// outruns the stream is refused before anything is allocated for it.
//
// Masks serialize as magic "GEOMASK1", nlat, nlon, then nlat*nlon bytes of
// 0 (ocean) / 1 (land).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "data/grid.hpp"
#include "tensor/matrix.hpp"

namespace geonas::data {

struct SnapshotRecord {
  Matrix snapshots;           // Nh x Ns, column = one snapshot
  std::uint64_t first_week = 0;
};

void write_snapshots(const SnapshotRecord& record, std::ostream& os);
[[nodiscard]] SnapshotRecord read_snapshots(std::istream& is);
void write_snapshots_file(const SnapshotRecord& record,
                          const std::string& path);
[[nodiscard]] SnapshotRecord read_snapshots_file(const std::string& path);

struct MaskRecord {
  Grid grid;
  std::vector<std::uint8_t> land;  // nlat*nlon flags, 1 = land
};

void write_mask(const MaskRecord& record, std::ostream& os);
[[nodiscard]] MaskRecord read_mask(std::istream& is);
void write_mask_file(const MaskRecord& record, const std::string& path);

}  // namespace geonas::data
