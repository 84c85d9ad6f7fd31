#include "io/binary.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace geonas::io {

namespace {

std::array<std::uint32_t, 256> make_crc_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[n] = c;
  }
  return table;
}

void encode_le(std::uint64_t value, unsigned char* out, std::size_t size)
    noexcept {
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<unsigned char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint64_t decode_le(const unsigned char* in, std::size_t size) noexcept {
  std::uint64_t value = 0;
  for (std::size_t i = size; i > 0; --i) {
    value = (value << 8) | in[i - 1];
  }
  return value;
}

[[noreturn]] void fail(const std::string& context, const char* what,
                       std::uint64_t offset) {
  throw std::runtime_error(context + " '" + what + "' at byte offset " +
                           std::to_string(offset));
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                           std::size_t size) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ bytes[i]) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

BinaryWriter::BinaryWriter(std::ostream& os, std::string_view magic,
                           std::uint32_t version)
    : os_(&os) {
  if (magic.size() != 8) {
    throw std::invalid_argument("BinaryWriter: magic must be 8 bytes");
  }
  bytes(magic.data(), magic.size());
  u32(version);
}

void BinaryWriter::bytes(const void* data, std::size_t size) {
  os_->write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  crc_ = crc32_update(crc_, data, size);
  offset_ += size;
}

void BinaryWriter::u8(std::uint8_t value) { bytes(&value, 1); }

void BinaryWriter::u32(std::uint32_t value) {
  std::array<unsigned char, 4> raw{};
  encode_le(value, raw.data(), raw.size());
  bytes(raw.data(), raw.size());
}

void BinaryWriter::u64(std::uint64_t value) {
  std::array<unsigned char, 8> raw{};
  encode_le(value, raw.data(), raw.size());
  bytes(raw.data(), raw.size());
}

void BinaryWriter::f64(double value) {
  u64(std::bit_cast<std::uint64_t>(value));
}

void BinaryWriter::str(std::string_view value) {
  u64(value.size());
  bytes(value.data(), value.size());
}

void BinaryWriter::f64_array(const double* values, std::size_t count) {
  u64(count);
  for (std::size_t i = 0; i < count; ++i) f64(values[i]);
}

void BinaryWriter::finish() {
  if (finished_) {
    throw std::logic_error("BinaryWriter::finish called twice");
  }
  finished_ = true;
  const std::uint32_t crc = crc_;  // trailer is not part of its own checksum
  std::array<unsigned char, 4> raw{};
  encode_le(crc, raw.data(), raw.size());
  os_->write(reinterpret_cast<const char*>(raw.data()), 4);
  os_->flush();
  if (!*os_) {
    throw std::runtime_error("BinaryWriter: stream write failure after " +
                             std::to_string(offset_) + " bytes");
  }
}

BinaryReader::BinaryReader(std::istream& is, std::string_view magic,
                           std::uint32_t min_version,
                           std::uint32_t max_version)
    : is_(&is) {
  if (magic.size() != 8) {
    throw std::invalid_argument("BinaryReader: magic must be 8 bytes");
  }
  std::array<char, 8> found{};
  read_exact(found.data(), found.size(), "magic");
  if (std::memcmp(found.data(), magic.data(), 8) != 0) {
    throw std::runtime_error(
        "BinaryReader: bad magic (expected '" + std::string(magic) +
        "', found '" + std::string(found.data(), found.size()) + "')");
  }
  version_ = u32("version");
  if (version_ < min_version || version_ > max_version) {
    throw std::runtime_error(
        "BinaryReader: unsupported '" + std::string(magic) + "' version " +
        std::to_string(version_) + " (supported " +
        std::to_string(min_version) + ".." + std::to_string(max_version) +
        ")");
  }
}

void BinaryReader::read_exact(void* data, std::size_t size, const char* what) {
  // istream::read already loops over short underflows (a streambuf that
  // delivers one byte at a time still assembles the full field), so a
  // short count here means the stream genuinely ended or failed mid-field.
  // The diagnostic names the field, the exact byte offset at which the
  // stream died, and expected-vs-received so a truncated frame arriving
  // from a socket is distinguishable from a short local file.
  is_->read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  const auto received = static_cast<std::size_t>(is_->gcount());
  if (received != size || !*is_) {
    throw std::runtime_error(
        "BinaryReader: truncated stream reading '" + std::string(what) +
        "' at byte offset " +
        std::to_string(offset_ + static_cast<std::uint64_t>(received)) +
        " (expected " + std::to_string(size) + " bytes, received " +
        std::to_string(received) + ")");
  }
  crc_ = crc32_update(crc_, data, size);
  offset_ += size;
}

std::uint8_t BinaryReader::u8(const char* what) {
  std::uint8_t value = 0;
  read_exact(&value, 1, what);
  return value;
}

std::uint32_t BinaryReader::u32(const char* what) {
  std::array<unsigned char, 4> raw{};
  read_exact(raw.data(), raw.size(), what);
  return static_cast<std::uint32_t>(decode_le(raw.data(), raw.size()));
}

std::uint64_t BinaryReader::u64(const char* what) {
  std::array<unsigned char, 8> raw{};
  read_exact(raw.data(), raw.size(), what);
  return decode_le(raw.data(), raw.size());
}

double BinaryReader::f64(const char* what) {
  return std::bit_cast<double>(u64(what));
}

std::string BinaryReader::str(const char* what, std::uint64_t max_size) {
  const std::uint64_t size = u64(what);
  if (size > max_size) {
    fail("BinaryReader: implausible length prefix for", what, offset_);
  }
  std::string value(static_cast<std::size_t>(size), '\0');
  if (size > 0) read_exact(value.data(), value.size(), what);
  return value;
}

void BinaryReader::f64_array(const char* what, std::span<double> dst) {
  const std::uint64_t count = u64(what);
  if (count != dst.size()) {
    throw std::runtime_error(
        "BinaryReader: '" + std::string(what) + "' holds " +
        std::to_string(count) + " values, destination holds " +
        std::to_string(dst.size()) + ", at byte offset " +
        std::to_string(offset_));
  }
  for (double& v : dst) v = f64(what);
}

void BinaryReader::bytes(void* data, std::size_t size, const char* what) {
  read_exact(data, size, what);
}

void BinaryReader::finish() {
  const std::uint32_t expected = crc_;  // checksum of everything consumed
  std::array<unsigned char, 4> raw{};
  is_->read(reinterpret_cast<char*>(raw.data()), 4);
  if (is_->gcount() != 4 || !*is_) {
    throw std::runtime_error(
        "BinaryReader: truncated stream reading 'crc trailer' at byte "
        "offset " + std::to_string(offset_) + " (expected 4 bytes, received " +
        std::to_string(is_->gcount()) + ")");
  }
  const auto stored = static_cast<std::uint32_t>(decode_le(raw.data(), 4));
  if (stored != expected) {
    throw std::runtime_error(
        "BinaryReader: CRC mismatch over " + std::to_string(offset_) +
        " bytes (stored " + std::to_string(stored) + ", computed " +
        std::to_string(expected) + ") — file is corrupt or truncated");
  }
}

}  // namespace geonas::io
