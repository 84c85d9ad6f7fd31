// Snapshot/mask binary file round trips and validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "data/landmask.hpp"
#include "data/snapshot_io.hpp"
#include "data/sst.hpp"
#include "tensor/random.hpp"

namespace geonas::data {
namespace {

TEST(SnapshotIO, StreamRoundTrip) {
  Rng rng(1);
  SnapshotRecord record;
  record.first_week = 42;
  record.snapshots.resize(17, 9);
  for (double& v : record.snapshots.flat()) v = rng.normal();

  std::stringstream buffer;
  write_snapshots(record, buffer);
  const SnapshotRecord back = read_snapshots(buffer);
  EXPECT_EQ(back.first_week, 42u);
  EXPECT_EQ(back.snapshots, record.snapshots);
}

TEST(SnapshotIO, RejectsBadMagic) {
  std::stringstream buffer("NOTMAGIC plus junk that is long enough to read");
  EXPECT_THROW((void)read_snapshots(buffer), std::runtime_error);
}

TEST(SnapshotIO, RejectsTruncatedPayload) {
  Rng rng(2);
  SnapshotRecord record;
  record.snapshots.resize(8, 4);
  for (double& v : record.snapshots.flat()) v = rng.normal();
  std::stringstream buffer;
  write_snapshots(record, buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() - 16);  // chop the tail
  std::stringstream truncated(bytes);
  EXPECT_THROW((void)read_snapshots(truncated), std::runtime_error);
}

TEST(SnapshotIO, TruncationDiagnosticNamesFieldAndByteOffset) {
  Rng rng(4);
  SnapshotRecord record;
  record.snapshots.resize(6, 5);
  for (double& v : record.snapshots.flat()) v = rng.normal();
  std::stringstream buffer;
  write_snapshots(record, buffer);
  const std::string bytes = buffer.str();

  // Cut inside the header: the failing field is one of the u64 dims.
  {
    std::stringstream truncated(bytes.substr(0, 12));
    try {
      (void)read_snapshots(truncated);
      FAIL() << "truncated header accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("snapshot rows"), std::string::npos) << what;
      EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    }
  }
  // Cut inside the payload: the diagnostic points at the column read.
  {
    std::stringstream truncated(bytes.substr(0, bytes.size() - 7));
    try {
      (void)read_snapshots(truncated);
      FAIL() << "truncated payload accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("payload column"), std::string::npos) << what;
      EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    }
  }
}

TEST(SnapshotIO, ImplausibleDimensionsNameTheValues) {
  // A forged header with absurd dimensions must be rejected before any
  // allocation, with the dimensions in the message.
  std::string bytes(8 + 24, '\0');
  std::memcpy(bytes.data(), "GEOSNAPS", 8);
  bytes[8] = '\x01';   // rows = 1
  bytes[16] = '\0';    // cols = 0 (invalid)
  std::stringstream forged(bytes);
  try {
    (void)read_snapshots(forged);
    FAIL() << "zero-column snapshot accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos);
  }
}

TEST(SnapshotIO, RejectsNonFinitePayload) {
  // Unchecked, a well-formed file with a NaN or inf value loads silently
  // and poisons the POD fit downstream.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Rng rng(5);
    SnapshotRecord record;
    record.snapshots.resize(6, 4);
    for (double& v : record.snapshots.flat()) v = rng.normal();
    record.snapshots(3, 1) = bad;
    std::stringstream buffer;
    write_snapshots(record, buffer);
    try {
      (void)read_snapshots(buffer);
      FAIL() << "non-finite payload accepted";
    } catch (const std::runtime_error& e) {
      // Header 32 bytes, then column 1 after column 0's six doubles.
      const std::string what = e.what();
      EXPECT_NE(what.find("at (3, 1), byte offset " +
                          std::to_string(32 + (6 + 3) * sizeof(double))),
                std::string::npos)
          << what;
    }
  }
}

TEST(SnapshotIO, TruncatedMaskReportsOffset) {
  const Grid grid{6, 8};
  MaskRecord record;
  record.grid = grid;
  record.land.assign(grid.cells(), 1);
  std::stringstream buffer;
  write_mask(record, buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() - 5);
  std::stringstream truncated(bytes);
  try {
    (void)read_mask(truncated);
    FAIL() << "truncated mask accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mask payload"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

/// `magic` followed by the little-endian u64 `fields`: a header with
/// whatever dimensions a test wants to forge.
std::string forged_header(const char* magic,
                          std::initializer_list<std::uint64_t> fields) {
  std::string bytes(magic, 8);
  for (const std::uint64_t v : fields) {
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  }
  return bytes;
}

/// Every byte offset a reader's diagnostic names ("byte offset N").
std::vector<std::uint64_t> named_offsets(const std::string& what) {
  const std::string key = "byte offset ";
  std::vector<std::uint64_t> out;
  for (auto at = what.find(key); at != std::string::npos;
       at = what.find(key, at + 1)) {
    out.push_back(std::stoull(what.substr(at + key.size())));
  }
  return out;
}

/// Feeds `read` every proper prefix of `bytes`. Each must be refused with
/// a std::runtime_error that names a byte offset, and none past the cut.
void expect_every_prefix_refused(const std::string& bytes,
                                 void (*read)(std::istream&)) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    SCOPED_TRACE(::testing::Message() << "prefix of " << len << " bytes");
    std::stringstream prefix(bytes.substr(0, len));
    try {
      read(prefix);
      ADD_FAILURE() << "prefix accepted";
    } catch (const std::runtime_error& e) {
      const std::vector<std::uint64_t> offsets = named_offsets(e.what());
      EXPECT_FALSE(offsets.empty()) << e.what();
      for (const std::uint64_t at : offsets) EXPECT_LE(at, len) << e.what();
    }
  }
}

/// Feeds `read` a bare header claiming a rows x cols payload. It must be
/// refused as a truncated `payload`, naming the claimed dimensions and
/// the end of the stream, which is the end of the header.
void expect_forged_header_refused(const std::string& header,
                                  void (*read)(std::istream&),
                                  const std::string& payload,
                                  std::uint64_t rows, std::uint64_t cols) {
  SCOPED_TRACE(::testing::Message() << rows << " x " << cols);
  std::stringstream forged(header);
  try {
    read(forged);
    ADD_FAILURE() << "forged header accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated stream reading " + payload),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(std::to_string(rows) + " x " + std::to_string(cols)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("stream ends at byte offset " +
                        std::to_string(header.size())),
              std::string::npos)
        << what;
  }
}

TEST(SnapshotIO, ForgedSnapshotHeaderRefusedBeforeAllocation) {
  // The header is checked against the bytes the stream holds before the
  // reader sizes anything from it: a 32-byte file claiming 1024 x 1024
  // doubles, and one whose 2^32 x 2^32 payload overflows 64 bits.
  constexpr std::uint64_t kBig = 1ULL << 32;
  for (const auto& [rows, cols] :
       {std::pair<std::uint64_t, std::uint64_t>{1024, 1024}, {kBig, kBig}}) {
    expect_forged_header_refused(
        forged_header("GEOSNAPS", {rows, cols, 0}),
        [](std::istream& is) { (void)read_snapshots(is); },
        "snapshot payload column", rows, cols);
  }
}

TEST(SnapshotIO, ForgedMaskHeaderRefusedBeforeAllocation) {
  // 4096 x 4096 flags in a 24-byte file, and (2^32 + 1) x 2^32, whose
  // product wraps to 2^32 in 64 bits.
  constexpr std::uint64_t kBig = 1ULL << 32;
  for (const auto& [nlat, nlon] :
       {std::pair<std::uint64_t, std::uint64_t>{4096, 4096},
        {kBig + 1, kBig}}) {
    expect_forged_header_refused(
        forged_header("GEOMASK1", {nlat, nlon}),
        [](std::istream& is) { (void)read_mask(is); }, "mask payload", nlat,
        nlon);
  }
}

TEST(SnapshotIO, EveryPrefixOfASnapshotFileIsRefused) {
  Rng rng(6);
  SnapshotRecord record;
  record.snapshots.resize(3, 4);
  for (double& v : record.snapshots.flat()) v = rng.normal();
  std::stringstream buffer;
  write_snapshots(record, buffer);
  expect_every_prefix_refused(buffer.str(), [](std::istream& is) {
    (void)read_snapshots(is);
  });
}

TEST(SnapshotIO, EveryPrefixOfAMaskFileIsRefused) {
  MaskRecord record;
  record.grid = {3, 5};
  for (std::size_t cell = 0; cell < record.grid.cells(); ++cell) {
    record.land.push_back(cell % 2 == 0 ? 1 : 0);
  }
  std::stringstream buffer;
  write_mask(record, buffer);
  expect_every_prefix_refused(buffer.str(),
                              [](std::istream& is) { (void)read_mask(is); });
}

TEST(SnapshotIO, FileRoundTrip) {
  const std::string path = "/tmp/geonas_snapshot_io_test.bin";
  Rng rng(3);
  SnapshotRecord record;
  record.first_week = 7;
  record.snapshots.resize(5, 3);
  for (double& v : record.snapshots.flat()) v = rng.normal();
  write_snapshots_file(record, path);
  const SnapshotRecord back = read_snapshots_file(path);
  EXPECT_EQ(back.snapshots, record.snapshots);
  std::remove(path.c_str());
  EXPECT_THROW((void)read_snapshots_file("/nonexistent/geonas.bin"),
               std::runtime_error);
}

TEST(SnapshotIO, MaskRoundTrip) {
  const Grid grid{12, 24};
  const LandMask mask(grid, 7);
  MaskRecord record;
  record.grid = grid;
  record.land.assign(grid.cells(), 0);
  for (std::size_t cell = 0; cell < grid.cells(); ++cell) {
    record.land[cell] = mask.is_land_cell(cell) ? 1 : 0;
  }
  std::stringstream buffer;
  write_mask(record, buffer);
  const MaskRecord back = read_mask(buffer);
  EXPECT_EQ(back.grid.nlat, 12u);
  EXPECT_EQ(back.grid.nlon, 24u);
  EXPECT_EQ(back.land, record.land);
}

TEST(SnapshotIO, MaskSizeValidation) {
  MaskRecord record;
  record.grid = {4, 4};
  record.land.assign(3, 0);  // wrong size
  std::stringstream buffer;
  EXPECT_THROW(write_mask(record, buffer), std::invalid_argument);
}

TEST(SnapshotIO, ExportedGeneratorDataIsUsable) {
  // The full round trip a real-data user would follow: generate (stand-in
  // for downloading NOAA), export, import, verify the snapshot columns.
  const Grid grid{12, 24};
  const LandMask mask(grid, 7);
  const SyntheticSST sst;
  SnapshotRecord record;
  record.first_week = 100;
  record.snapshots = sst.snapshots(mask, 100, 6);

  std::stringstream buffer;
  write_snapshots(record, buffer);
  const SnapshotRecord back = read_snapshots(buffer);
  ASSERT_EQ(back.snapshots.rows(), mask.ocean_count());
  const auto week102 = mask.flatten(sst.field(grid, 102));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(back.snapshots(i, 2), week102[i]);
  }
}

}  // namespace
}  // namespace geonas::data
