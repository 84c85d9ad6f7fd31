// Weight serialization: binary v2 round trips (incl. non-finite values),
// truncation, corruption and hostile-count refusals, and the file
// helpers (atomic v2 save; foreign files, text v1 among them, refused).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "io/binary.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/serialize.hpp"
#include "tensor/random.hpp"

namespace geonas::nn {
namespace {

GraphNetwork small_net() {
  GraphNetwork net;
  const auto l1 = net.add_node(std::make_unique<LSTM>(2, 4),
                               {GraphNetwork::input_id()});
  net.add_node(std::make_unique<Dense>(4, 2), {l1});
  return net;
}

void poison_first_param(GraphNetwork& net) {
  auto params = net.parameters();
  params[1]->flat()[0] = std::numeric_limits<double>::quiet_NaN();
  params[1]->flat()[1] = std::numeric_limits<double>::infinity();
}

TEST(SerializeBinary, RoundTripIsBitwise) {
  GraphNetwork net = small_net();
  net.init_params(21);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights_binary(net, buffer);

  GraphNetwork other = small_net();
  other.init_params(99);
  load_weights_binary(other, buffer);
  const auto a = net.parameters();
  const auto b = other.parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    const auto fa = a[p]->flat();
    const auto fb = b[p]->flat();
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(fa[i]),
                std::bit_cast<std::uint64_t>(fb[i]));
    }
  }
}

TEST(SerializeBinary, NonFiniteWeightsRoundTrip) {
  // A diverged training's NaN/inf weights must survive save/load — the
  // structural fix the text format cannot provide.
  GraphNetwork net = small_net();
  net.init_params(22);
  poison_first_param(net);

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights_binary(net, buffer);
  GraphNetwork other = small_net();
  other.init_params(23);
  load_weights_binary(other, buffer);
  const auto flat = other.parameters()[1]->flat();
  EXPECT_TRUE(std::isnan(flat[0]));
  EXPECT_EQ(flat[1], std::numeric_limits<double>::infinity());
}

TEST(SerializeBinary, DetectsTruncationAndCorruption) {
  GraphNetwork net = small_net();
  net.init_params(24);
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  save_weights_binary(net, buffer);
  const std::string bytes = buffer.str();

  std::string truncated = bytes.substr(0, bytes.size() / 2);
  std::istringstream ts(truncated, std::ios::binary);
  GraphNetwork other = small_net();
  EXPECT_THROW(load_weights_binary(other, ts), std::runtime_error);

  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x10;
  std::istringstream cs(corrupt, std::ios::binary);
  GraphNetwork other2 = small_net();
  EXPECT_THROW(load_weights_binary(other2, cs), std::runtime_error);
}

TEST(SerializeBinary, RefusesValueCountBeyondParameterShape) {
  // Matching count and shapes, but the first parameter claims 2^24
  // values: refused from the count alone, before any value is read or
  // any buffer is sized by the file.
  GraphNetwork net = small_net();
  const auto params = net.parameters();
  std::ostringstream os(std::ios::binary);
  io::BinaryWriter writer(os, "GEONASW2", 2);
  writer.u64(params.size());
  writer.u64(params[0]->rows());
  writer.u64(params[0]->cols());
  writer.u64(std::uint64_t{1} << 24);
  writer.finish();
  std::istringstream is(os.str(), std::ios::binary);
  try {
    load_weights_binary(net, is);
    FAIL() << "a value count beyond the parameter's shape was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("parameter values"), std::string::npos) << what;
    EXPECT_NE(what.find("16777216"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(params[0]->size())),
              std::string::npos)
        << what;
  }
}

TEST(SerializeFile, RoundTripsV2AndRefusesTextV1) {
  const std::string bin_path = "/tmp/geonas_serialize_test_v2.bin";
  const std::string txt_path = "/tmp/geonas_serialize_test_v1.txt";
  GraphNetwork net = small_net();
  net.init_params(28);
  Rng rng(29);
  Tensor3 x(2, 3, 2);
  for (std::size_t i = 0; i < x.size(); ++i) x.flat()[i] = rng.normal();
  const Tensor3 expected = net.forward(x, false);

  save_weights_file(net, bin_path);
  GraphNetwork other = small_net();
  other.init_params(999);
  load_weights_file(other, bin_path);
  const Tensor3 out = other.forward(x, false);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_DOUBLE_EQ(out.flat()[i], expected.flat()[i]);
  }

  // The retired text v1 layout, complete and well formed for this net:
  // no longer a weight format, so the loader refuses it by its magic.
  {
    std::ofstream txt(txt_path);
    const auto params = net.parameters();
    txt << "geonas-weights-v1\n" << params.size() << "\n"
        << std::setprecision(17);
    for (const Matrix* p : params) {
      txt << p->rows() << " " << p->cols() << "\n";
      for (double v : p->flat()) txt << v << " ";
      txt << "\n";
    }
  }
  GraphNetwork third = small_net();
  try {
    load_weights_file(third, txt_path);
    FAIL() << "a text v1 file loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
    EXPECT_NE(what.find("GEONASW2"), std::string::npos) << what;
  }
  std::remove(bin_path.c_str());
  std::remove(txt_path.c_str());
}

}  // namespace
}  // namespace geonas::nn
