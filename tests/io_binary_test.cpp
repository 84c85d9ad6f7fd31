// geonas::io binary container: round trips, truncation/corruption
// diagnostics, CRC trailer, non-finite doubles.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "io/binary.hpp"

namespace geonas::io {
namespace {

constexpr const char* kMagic = "GEONASTT";

std::string make_container() {
  std::ostringstream os(std::ios::binary);
  BinaryWriter writer(os, kMagic, 3);
  writer.u8(7);
  writer.u32(0xDEADBEEFU);
  writer.u64(0x0123456789ABCDEFULL);
  writer.f64(-1.5);
  writer.str("hello");
  const std::vector<double> values{1.0, -2.5, 3.25};
  writer.f64_array(values.data(), values.size());
  writer.finish();
  return os.str();
}

TEST(IoBinary, RoundTripAllFieldTypes) {
  std::istringstream is(make_container(), std::ios::binary);
  BinaryReader reader(is, kMagic, 1, 3);
  EXPECT_EQ(reader.version(), 3u);
  EXPECT_EQ(reader.u8("a"), 7u);
  EXPECT_EQ(reader.u32("b"), 0xDEADBEEFU);
  EXPECT_EQ(reader.u64("c"), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(reader.f64("d"), -1.5);
  EXPECT_EQ(reader.str("e"), "hello");
  std::vector<double> values(3);
  reader.f64_array("f", values);
  EXPECT_DOUBLE_EQ(values[1], -2.5);
  reader.finish();  // CRC must verify
}

TEST(IoBinary, NonFiniteDoublesRoundTripBitExactly) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter writer(os, kMagic, 1);
  writer.f64(std::numeric_limits<double>::quiet_NaN());
  writer.f64(std::numeric_limits<double>::infinity());
  writer.f64(-std::numeric_limits<double>::infinity());
  writer.f64(-0.0);
  writer.finish();

  std::istringstream is(os.str(), std::ios::binary);
  BinaryReader reader(is, kMagic, 1, 1);
  EXPECT_TRUE(std::isnan(reader.f64("nan")));
  EXPECT_EQ(reader.f64("+inf"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(reader.f64("-inf"), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::signbit(reader.f64("-0")));
  reader.finish();
}

TEST(IoBinary, RejectsBadMagic) {
  std::string bytes = make_container();
  bytes[0] = 'X';
  std::istringstream is(bytes, std::ios::binary);
  try {
    BinaryReader reader(is, kMagic, 1, 3);
    FAIL() << "bad magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(IoBinary, RejectsUnsupportedVersion) {
  std::istringstream is(make_container(), std::ios::binary);
  EXPECT_THROW(BinaryReader(is, kMagic, 4, 9), std::runtime_error);
}

TEST(IoBinary, TruncationNamesFieldAndOffset) {
  std::string bytes = make_container();
  bytes.resize(13);  // magic (8) + version (4) + one byte of the u8 + u32
  std::istringstream is(bytes, std::ios::binary);
  BinaryReader reader(is, kMagic, 1, 3);
  EXPECT_EQ(reader.u8("flag"), 7u);
  try {
    (void)reader.u32("counter");
    FAIL() << "truncated read succeeded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("counter"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

TEST(IoBinary, CrcTrailerDetectsCorruption) {
  std::string bytes = make_container();
  bytes[20] = static_cast<char>(bytes[20] ^ 0x01);  // flip one payload bit
  std::istringstream is(bytes, std::ios::binary);
  BinaryReader reader(is, kMagic, 1, 3);
  (void)reader.u8("a");
  (void)reader.u32("b");
  (void)reader.u64("c");
  (void)reader.f64("d");
  (void)reader.str("e");
  std::vector<double> values(3);
  reader.f64_array("f", values);
  try {
    reader.finish();
    FAIL() << "corrupt container passed CRC";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos);
  }
}

TEST(IoBinary, CrcTrailerDetectsTruncatedTrailer) {
  std::string bytes = make_container();
  bytes.resize(bytes.size() - 2);  // clip half the trailer
  std::istringstream is(bytes, std::ios::binary);
  BinaryReader reader(is, kMagic, 1, 3);
  (void)reader.u8("a");
  (void)reader.u32("b");
  (void)reader.u64("c");
  (void)reader.f64("d");
  (void)reader.str("e");
  std::vector<double> values(3);
  reader.f64_array("f", values);
  EXPECT_THROW(reader.finish(), std::runtime_error);
}

TEST(IoBinary, LengthPrefixClampPreventsHugeAllocations) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter writer(os, kMagic, 1);
  writer.u64(1ULL << 60);  // absurd length prefix, no payload behind it
  writer.finish();
  {
    std::istringstream is(os.str(), std::ios::binary);
    BinaryReader reader(is, kMagic, 1, 1);
    EXPECT_THROW((void)reader.str("name", 1024), std::runtime_error);
  }
  {
    // An array is sized by its destination: a stored count that differs
    // is refused before any element is read, naming both counts.
    std::istringstream is(os.str(), std::ios::binary);
    BinaryReader reader(is, kMagic, 1, 1);
    std::vector<double> dst(4);
    try {
      reader.f64_array("values", dst);
      FAIL() << "count differing from the destination accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'values'"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(1ULL << 60)), std::string::npos)
          << what;
      EXPECT_NE(what.find("destination holds 4"), std::string::npos) << what;
      EXPECT_NE(what.find("byte offset 20"), std::string::npos) << what;
    }
  }
}

TEST(IoBinary, WriterTracksOffsetAndRefusesDoubleFinish) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter writer(os, kMagic, 1);
  EXPECT_EQ(writer.offset(), 12u);  // header: 8 magic + 4 version
  writer.u64(5);
  EXPECT_EQ(writer.offset(), 20u);
  writer.finish();
  EXPECT_THROW(writer.finish(), std::logic_error);
}

TEST(IoBinary, Crc32MatchesKnownVector) {
  // IEEE CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char data[] = "123456789";
  EXPECT_EQ(crc32_update(0, data, 9), 0xCBF43926U);
}

/// Streambuf that delivers exactly one byte per underflow — the worst
/// case a socket-fed stream can present to istream::read.
class DripStreambuf : public std::streambuf {
 public:
  explicit DripStreambuf(std::string data) : data_(std::move(data)) {}

 protected:
  int_type underflow() override {
    if (pos_ >= data_.size()) return traits_type::eof();
    ch_ = data_[pos_++];
    setg(&ch_, &ch_, &ch_ + 1);
    return traits_type::to_int_type(ch_);
  }

 private:
  std::string data_;
  std::size_t pos_ = 0;
  char ch_ = 0;
};

TEST(IoBinary, ReadsAssembleAcrossOneByteUnderflows) {
  // Multi-byte fields arriving one byte at a time must assemble whole
  // values, never partial garbage — the contract the net transport's
  // frame decoding relies on.
  DripStreambuf drip(make_container());
  std::istream is(&drip);
  BinaryReader reader(is, kMagic, 1, 3);
  EXPECT_EQ(reader.u8("a"), 7u);
  EXPECT_EQ(reader.u32("b"), 0xDEADBEEFU);
  EXPECT_EQ(reader.u64("c"), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(reader.f64("d"), -1.5);
  EXPECT_EQ(reader.str("e"), "hello");
  std::vector<double> values(3);
  reader.f64_array("f", values);
  EXPECT_DOUBLE_EQ(values[2], 3.25);
  reader.finish();
}

TEST(IoBinary, TruncationAtEveryOffsetThrowsWithByteAccounting) {
  // Fuzz-style: cutting the container at every possible byte offset must
  // produce a thrown diagnostic (never a hang, never silent garbage),
  // and past the header the message must carry expected-vs-received
  // byte counts at the exact death offset.
  const std::string full = make_container();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::istringstream is(full.substr(0, cut), std::ios::binary);
    try {
      BinaryReader reader(is, kMagic, 1, 3);
      (void)reader.u8("a");
      (void)reader.u32("b");
      (void)reader.u64("c");
      (void)reader.f64("d");
      (void)reader.str("e");
      std::vector<double> values(3);
      reader.f64_array("f", values);
      reader.finish();
      FAIL() << "no throw with container cut at byte " << cut;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      if (cut >= 12) {  // past magic+version: field-level diagnostics
        EXPECT_NE(what.find("expected"), std::string::npos)
            << "cut=" << cut << ": " << what;
        EXPECT_NE(what.find("received"), std::string::npos)
            << "cut=" << cut << ": " << what;
      }
    }
  }
}

TEST(IoBinary, TruncationDiagnosticReportsExactCounts) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter writer(os, kMagic, 1);
  writer.u64(42);
  writer.finish();
  const std::string full = os.str();
  // Cut three bytes into the u64 field (header is 12 bytes).
  std::istringstream is(full.substr(0, 15), std::ios::binary);
  BinaryReader reader(is, kMagic, 1, 1);
  try {
    (void)reader.u64("answer");
    FAIL() << "expected truncation throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'answer'"), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset 15"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 8 bytes"), std::string::npos) << what;
    EXPECT_NE(what.find("received 3"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace geonas::io
