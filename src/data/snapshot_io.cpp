#include "data/snapshot_io.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace geonas::data {

namespace {

constexpr char kSnapshotMagic[8] = {'G', 'E', 'O', 'S', 'N', 'A', 'P', 'S'};
constexpr char kMaskMagic[8] = {'G', 'E', 'O', 'M', 'A', 'S', 'K', '1'};

void write_u64(std::ostream& os, std::uint64_t value) {
  std::array<unsigned char, 8> bytes{};
  for (int i = 0; i < 8; ++i) {
    bytes[static_cast<std::size_t>(i)] =
        static_cast<unsigned char>((value >> (8 * i)) & 0xFF);
  }
  os.write(reinterpret_cast<const char*>(bytes.data()), 8);
}

/// Reads exactly `size` bytes, tracking `offset` (bytes consumed so far);
/// a short or failed read throws naming the field and the byte offset at
/// which the stream died — instead of leaving zero-filled garbage that
/// later surfaces as an "implausible dimensions" error (or worse, as
/// silently plausible dimensions).
void read_exact(std::istream& is, void* data, std::size_t size,
                std::uint64_t& offset, const char* what) {
  is.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(is.gcount()) != size || !is) {
    throw std::runtime_error(
        std::string("snapshot_io: truncated stream reading ") + what +
        " at byte offset " +
        std::to_string(offset + static_cast<std::uint64_t>(is.gcount())));
  }
  offset += size;
}

std::uint64_t read_u64(std::istream& is, std::uint64_t& offset,
                       const char* what) {
  std::array<unsigned char, 8> bytes{};
  read_exact(is, bytes.data(), 8, offset, what);
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | bytes[static_cast<std::size_t>(i)];
  }
  return value;
}

/// Refuses, before the caller allocates for it, a header whose payload
/// of rows x cols values of `elem` bytes, starting at byte `offset`,
/// overflows or runs past the end of the seekable stream `is`.
void require_payload(std::istream& is, std::uint64_t offset,
                     std::uint64_t rows, std::uint64_t cols,
                     std::uint64_t elem, const char* what) {
  const std::streamoff here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(here);
  if (here < 0 || end < here || !is) {
    throw std::runtime_error(std::string("snapshot_io: cannot size ") + what +
                             ": the stream is not seekable");
  }
  const auto left = static_cast<std::uint64_t>(end - here);
  const bool overflow =
      rows != 0 &&
      cols > std::numeric_limits<std::uint64_t>::max() / rows / elem;
  const std::uint64_t bytes = overflow ? 0 : rows * cols * elem;
  if (!overflow && bytes <= left) return;
  throw std::runtime_error(
      std::string("snapshot_io: truncated stream reading ") + what +
      ": the header claims " + std::to_string(rows) + " x " +
      std::to_string(cols) + " (" +
      (overflow ? std::string("over 2^64") : std::to_string(bytes)) +
      " bytes from byte offset " + std::to_string(offset) +
      "), but the stream ends at byte offset " +
      std::to_string(offset + left));
}

void require_stream(const std::ios& stream, const char* what) {
  if (!stream) {
    throw std::runtime_error(std::string("snapshot_io: stream failure in ") +
                             what);
  }
}

}  // namespace

void write_snapshots(const SnapshotRecord& record, std::ostream& os) {
  os.write(kSnapshotMagic, 8);
  write_u64(os, record.snapshots.rows());
  write_u64(os, record.snapshots.cols());
  write_u64(os, record.first_week);
  // Column-major payload: one contiguous snapshot per column.
  const std::size_t rows = record.snapshots.rows();
  std::vector<double> column(rows);
  for (std::size_t c = 0; c < record.snapshots.cols(); ++c) {
    for (std::size_t r = 0; r < rows; ++r) column[r] = record.snapshots(r, c);
    os.write(reinterpret_cast<const char*>(column.data()),
             static_cast<std::streamsize>(rows * sizeof(double)));
  }
  require_stream(os, "write_snapshots");
}

SnapshotRecord read_snapshots(std::istream& is) {
  std::uint64_t offset = 0;
  char magic[8];
  read_exact(is, magic, 8, offset, "snapshot magic");
  if (std::memcmp(magic, kSnapshotMagic, 8) != 0) {
    throw std::runtime_error("snapshot_io: bad snapshot magic");
  }
  const std::uint64_t rows = read_u64(is, offset, "snapshot rows");
  const std::uint64_t cols = read_u64(is, offset, "snapshot cols");
  SnapshotRecord record;
  record.first_week = read_u64(is, offset, "snapshot first_week");
  require_payload(is, offset, rows, cols, sizeof(double),
                  "snapshot payload column");
  if (rows == 0 || cols == 0 || rows > (1ULL << 32) || cols > (1ULL << 32)) {
    throw std::runtime_error("snapshot_io: implausible snapshot dimensions (" +
                             std::to_string(rows) + " x " +
                             std::to_string(cols) + ")");
  }
  record.snapshots.resize(static_cast<std::size_t>(rows),
                          static_cast<std::size_t>(cols));
  std::vector<double> column(static_cast<std::size_t>(rows));
  for (std::size_t c = 0; c < cols; ++c) {
    // Per-column checked read: a truncated payload reports the failing
    // byte offset instead of silently zero-filling the tail columns.
    const std::uint64_t column_offset = offset;
    read_exact(is, column.data(), column.size() * sizeof(double), offset,
               "snapshot payload column");
    for (std::size_t r = 0; r < rows; ++r) {
      if (!std::isfinite(column[r])) {
        throw std::runtime_error(
            "snapshot_io: non-finite snapshot value " +
            std::to_string(column[r]) + " at (" + std::to_string(r) + ", " +
            std::to_string(c) + "), byte offset " +
            std::to_string(column_offset + r * sizeof(double)));
      }
      record.snapshots(r, c) = column[r];
    }
  }
  return record;
}

void write_snapshots_file(const SnapshotRecord& record,
                          const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("snapshot_io: cannot open " + path);
  write_snapshots(record, os);
}

SnapshotRecord read_snapshots_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("snapshot_io: cannot open " + path);
  return read_snapshots(is);
}

void write_mask(const MaskRecord& record, std::ostream& os) {
  if (record.land.size() != record.grid.cells()) {
    throw std::invalid_argument("snapshot_io: mask size != grid cells");
  }
  os.write(kMaskMagic, 8);
  write_u64(os, record.grid.nlat);
  write_u64(os, record.grid.nlon);
  os.write(reinterpret_cast<const char*>(record.land.data()),
           static_cast<std::streamsize>(record.land.size()));
  require_stream(os, "write_mask");
}

MaskRecord read_mask(std::istream& is) {
  std::uint64_t offset = 0;
  char magic[8];
  read_exact(is, magic, 8, offset, "mask magic");
  if (std::memcmp(magic, kMaskMagic, 8) != 0) {
    throw std::runtime_error("snapshot_io: bad mask magic");
  }
  const std::uint64_t nlat = read_u64(is, offset, "mask nlat");
  const std::uint64_t nlon = read_u64(is, offset, "mask nlon");
  require_payload(is, offset, nlat, nlon, 1, "mask payload");
  MaskRecord record;
  record.grid.nlat = static_cast<std::size_t>(nlat);
  record.grid.nlon = static_cast<std::size_t>(nlon);
  if (record.grid.cells() == 0 || record.grid.cells() > (1ULL << 32)) {
    throw std::runtime_error("snapshot_io: implausible mask dimensions (" +
                             std::to_string(record.grid.nlat) + " x " +
                             std::to_string(record.grid.nlon) + ")");
  }
  record.land.resize(record.grid.cells());
  read_exact(is, record.land.data(), record.land.size(), offset,
             "mask payload");
  return record;
}

void write_mask_file(const MaskRecord& record, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("snapshot_io: cannot open " + path);
  write_mask(record, os);
}

}  // namespace geonas::data
