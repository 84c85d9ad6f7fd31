// Versioned binary container primitives shared by every durable artifact
// (weight files, search checkpoints).
//
// Layout contract: an 8-byte magic, a u32 format version, a caller-defined
// sequence of fixed-width little-endian fields (strings and arrays are
// length-prefixed), and a CRC-32 trailer covering every byte written
// before it — so truncation, bit rot and format confusion are all caught
// with a byte-offset diagnostic instead of garbage values. Doubles are
// stored as raw IEEE-754 bit patterns, so non-finite values (a diverged
// training's NaN/inf weights) round-trip exactly.
//
// Every read checks the stream; any failure throws std::runtime_error
// naming the field, the byte offset at which the stream died, and
// expected-vs-received byte counts. BinaryReader never blocks waiting
// for more input: it is fed complete, already-delivered byte sequences
// (files, or socket frames assembled by hpc::net::FrameAssembler — a
// live socket is never handed to the reader directly, so a partially
// delivered frame surfaces as a truncation diagnostic, not a hang).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

namespace geonas::io {

/// Running CRC-32 (IEEE 802.3 polynomial, reflected). Feed `crc` from the
/// previous call to continue a checksum; start from 0.
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                         std::size_t size) noexcept;

class BinaryWriter {
 public:
  /// Writes the container header: exactly 8 magic bytes + the version.
  /// `magic` must be 8 characters.
  BinaryWriter(std::ostream& os, std::string_view magic,
               std::uint32_t version);

  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  /// Raw IEEE-754 bits; NaN/inf round-trip bit-exactly.
  void f64(double value);
  /// u64 length prefix + raw bytes.
  void str(std::string_view value);
  /// u64 element-count prefix + raw doubles.
  void f64_array(const double* values, std::size_t count);
  /// Unprefixed raw bytes (caller stores the length separately).
  void bytes(const void* data, std::size_t size);

  /// Writes the CRC-32 trailer and flushes; the writer must not be used
  /// afterwards. Throws if the stream failed at any point.
  void finish();

  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

 private:
  std::ostream* os_;
  std::uint32_t crc_ = 0;
  std::uint64_t offset_ = 0;
  bool finished_ = false;
};

class BinaryReader {
 public:
  /// Reads and validates the header. Throws when the magic differs or the
  /// stored version lies outside [min_version, max_version].
  BinaryReader(std::istream& is, std::string_view magic,
               std::uint32_t min_version, std::uint32_t max_version);

  [[nodiscard]] std::uint32_t version() const noexcept { return version_; }
  /// Bytes consumed so far (diagnostics).
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

  [[nodiscard]] std::uint8_t u8(const char* what);
  [[nodiscard]] std::uint32_t u32(const char* what);
  [[nodiscard]] std::uint64_t u64(const char* what);
  [[nodiscard]] double f64(const char* what);
  /// Length-prefixed string; throws when the prefix exceeds `max_size`
  /// (clamps pathological prefixes from truncated/corrupt files before
  /// any allocation).
  [[nodiscard]] std::string str(const char* what,
                                std::uint64_t max_size = 1ULL << 20);
  /// Count-prefixed double array read in place into `dst`. Throws,
  /// before reading any element, when the stored count differs from
  /// dst.size(), naming the field, both counts and the byte offset.
  void f64_array(const char* what, std::span<double> dst);
  void bytes(void* data, std::size_t size, const char* what);

  /// Reads the CRC-32 trailer and verifies it against every byte consumed;
  /// throws on mismatch (corruption) or truncation.
  void finish();

 private:
  void read_exact(void* data, std::size_t size, const char* what);

  std::istream* is_;
  std::uint32_t version_ = 0;
  std::uint32_t crc_ = 0;
  std::uint64_t offset_ = 0;
};

}  // namespace geonas::io
