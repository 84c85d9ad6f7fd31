#include "nn/serialize.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "io/atomic_file.hpp"
#include "io/binary.hpp"

namespace geonas::nn {

namespace {
constexpr const char* kBinaryMagic = "GEONASW2";
constexpr std::uint32_t kBinaryVersion = 2;
}  // namespace

void save_weights_binary(GraphNetwork& net, std::ostream& os) {
  const auto params = net.parameters();
  io::BinaryWriter writer(os, kBinaryMagic, kBinaryVersion);
  writer.u64(params.size());
  for (const Matrix* p : params) {
    writer.u64(p->rows());
    writer.u64(p->cols());
    const auto flat = p->flat();
    writer.f64_array(flat.data(), flat.size());
  }
  writer.finish();
}

void load_weights_binary(GraphNetwork& net, std::istream& is) {
  auto params = net.parameters();
  io::BinaryReader reader(is, kBinaryMagic, kBinaryVersion, kBinaryVersion);
  const std::uint64_t count = reader.u64("parameter count");
  if (count != params.size()) {
    throw std::runtime_error(
        "load_weights_binary: parameter count mismatch (file " +
        std::to_string(count) + ", network " +
        std::to_string(params.size()) + ")");
  }
  for (std::size_t p = 0; p < params.size(); ++p) {
    const std::uint64_t rows = reader.u64("parameter rows");
    const std::uint64_t cols = reader.u64("parameter cols");
    if (rows != params[p]->rows() || cols != params[p]->cols()) {
      throw std::runtime_error(
          "load_weights_binary: shape mismatch at parameter " +
          std::to_string(p));
    }
    reader.f64_array("parameter values", params[p]->flat());
  }
  reader.finish();
}

void save_weights_file(GraphNetwork& net, const std::string& path) {
  // Atomic publish (.tmp + rename) so a crash mid-save never leaves a
  // truncated weight file where a loader (or a serve stream) will read
  // it; failures are diagnosed with the full path and operation.
  io::atomic_write_file(
      path, [&net](std::ostream& os) { save_weights_binary(net, os); },
      "save_weights_file");
}

void load_weights_file(GraphNetwork& net, const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_weights_file: cannot open " + path);
  load_weights_binary(net, is);
}

}  // namespace geonas::nn
