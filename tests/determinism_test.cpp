// Enforces the kernel layer's determinism contract (DESIGN.md "Kernel
// layer"): the parallel_for M-split assigns every output element to
// exactly one task with a fixed k-summation order, so GEMM and the
// batched-GEMM recurrent layers must produce bitwise-identical results
// at every kernel thread count — not merely close ones. A tolerance
// here would hide partition bugs that silently perturb NAS rewards. The
// SST generator's row split (DESIGN.md §5 "Data generation") is held to
// the same contract.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/landmask.hpp"
#include "data/sst.hpp"
#include "gradient_check.hpp"
#include "hpc/parallel_for.hpp"
#include "io/binary.hpp"
#include "nn/dense.hpp"
#include "nn/graph.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "searchspace/space.hpp"
#include "tensor/blas.hpp"
#include "tensor/random.hpp"
#include "tensor/vmath.hpp"

namespace geonas {
namespace {

/// Thread counts the rig pins: serial, minimal split, and an
/// oversubscribed pool (8 participants regardless of core count).
constexpr std::array<std::size_t, 3> kThreadCounts{1, 2, 8};

/// Restores the hardware-default kernel pool on scope exit so a failing
/// assertion cannot leak a pinned thread count into later tests.
struct KernelThreadsGuard {
  explicit KernelThreadsGuard(std::size_t threads) {
    hpc::set_kernel_threads(threads);
  }
  ~KernelThreadsGuard() { hpc::set_kernel_threads(0); }
};

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.uniform(-1.0, 1.0);
  return m;
}

TEST(Determinism, GemmBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(2026);
  // 2 * 180 * 96 * 80 = 2.8 MFLOP: comfortably above kParallelMinFlops,
  // so thread counts > 1 genuinely split the M dimension.
  const Matrix a = random_matrix(180, 80, rng);
  const Matrix b = random_matrix(80, 96, rng);
  const Matrix c_seed = random_matrix(180, 96, rng);

  Matrix product_ref, accum_ref;
  {
    KernelThreadsGuard guard(1);
    product_ref = matmul(a, b);
    accum_ref = c_seed;
    gemm(a, b, accum_ref, 0.75, -0.5);
  }

  for (const std::size_t threads : kThreadCounts) {
    KernelThreadsGuard guard(threads);
    SCOPED_TRACE(::testing::Message() << "kernel_threads=" << threads);
    const Matrix product = matmul(a, b);
    ASSERT_EQ(product, product_ref);
    Matrix accum = c_seed;
    gemm(a, b, accum, 0.75, -0.5);
    ASSERT_EQ(accum, accum_ref);
  }
}

struct LstmPass {
  Tensor3 output;
  Tensor3 dx;
  std::vector<Matrix> weight_grads;

  bool operator==(const LstmPass& other) const = default;
};

/// One full forward+backward through a fresh, deterministically
/// initialized LSTM at the given kernel thread count. in=32, units=64,
/// T=12, B=16 puts the whole-sequence input-projection GEMM
/// (192 x 32) x (32 x 256) = 3.1 MFLOP over the parallel threshold, so
/// the slab GEMMs of both passes exercise the thread split.
LstmPass run_lstm_pass(std::size_t threads) {
  KernelThreadsGuard guard(threads);
  constexpr std::size_t kIn = 32, kUnits = 64, kT = 12, kB = 16;

  nn::LSTM lstm(kIn, kUnits);
  Rng wrng(7);
  lstm.init_params(wrng);

  Tensor3 x(kB, kT, kIn);
  Rng xrng(9);
  for (std::size_t i = 0; i < kB; ++i) {
    for (double& v : x.block(i)) v = xrng.uniform(-1.0, 1.0);
  }
  nn::testing::LayerDriver driver(lstm);
  LstmPass pass;
  pass.output = driver.forward(x, /*training=*/true);

  Tensor3 grad(kB, kT, kUnits);
  Rng grng(11);
  for (std::size_t i = 0; i < kB; ++i) {
    for (double& v : grad.block(i)) v = grng.uniform(-1.0, 1.0);
  }
  auto input_grads = driver.backward(grad);
  pass.dx = std::move(input_grads.at(0));
  for (Matrix* g : lstm.gradients()) pass.weight_grads.push_back(*g);
  return pass;
}

TEST(Determinism, LstmTrainStepBitwiseIdenticalAcrossThreadCounts) {
  const LstmPass reference = run_lstm_pass(1);
  ASSERT_EQ(reference.output.dim0(), 16u);
  ASSERT_FALSE(reference.weight_grads.empty());
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "kernel_threads=" << threads);
    const LstmPass pass = run_lstm_pass(threads);
    ASSERT_EQ(pass.output, reference.output);
    ASSERT_EQ(pass.dx, reference.dx);
    ASSERT_EQ(pass.weight_grads, reference.weight_grads);
  }
}

TEST(Determinism, VmathSpansBitwiseIdenticalAcrossThreadCounts) {
  // 200k elements is far above the span parallel threshold, so thread
  // counts > 1 genuinely split the range. The chunks are multiples of the
  // grain, 4, and 200k is one too, so every element stays in a SIMD lane
  // at every count: this pins the split, not the lane/tail mirror, which
  // Vmath.LaneAndTailAgreeBitwise covers.
  constexpr std::size_t kN = 200000;
  Rng rng(31);
  std::vector<double> x(kN);
  for (double& v : x) v = rng.uniform(-45.0, 45.0);
  const std::span<const double> in(x);

  std::vector<double> ref_exp(kN), ref_tanh(kN), ref_sig(kN);
  {
    KernelThreadsGuard guard(1);
    tensor::vexp(in, std::span<double>(ref_exp));
    tensor::vtanh(in, std::span<double>(ref_tanh));
    tensor::vsigmoid(in, std::span<double>(ref_sig));
  }
  for (const std::size_t threads : kThreadCounts) {
    KernelThreadsGuard guard(threads);
    SCOPED_TRACE(::testing::Message() << "kernel_threads=" << threads);
    std::vector<double> got(kN);
    tensor::vexp(in, std::span<double>(got));
    ASSERT_EQ(got, ref_exp);
    tensor::vtanh(in, std::span<double>(got));
    ASSERT_EQ(got, ref_tanh);
    tensor::vsigmoid(in, std::span<double>(got));
    ASSERT_EQ(got, ref_sig);
  }
}

/// Full Trainer::fit product at a pinned kernel thread count: final
/// parameters and the per-epoch loss curve. The trainer drives the
/// arena-backed graph through forward_ref/backward_ref, so this pins the
/// whole hot path (gather, workspaces, clip, Adam) — not just isolated
/// kernels — to the bitwise contract.
struct FitResult {
  std::vector<Matrix> params;
  std::vector<double> train_loss;

  bool operator==(const FitResult& other) const = default;
};

FitResult run_trainer_fit(std::size_t threads) {
  KernelThreadsGuard guard(threads);
  constexpr std::size_t kN = 24, kT = 6, kF = 8, kUnits = 32;

  nn::GraphNetwork net;
  const std::size_t lstm =
      net.add_node(std::make_unique<nn::LSTM>(kF, kUnits), {0});
  net.add_node(std::make_unique<nn::Dense>(kUnits, kF), {lstm});
  net.init_params(23);

  Tensor3 x(kN, kT, kF), y(kN, kT, kF);
  Rng rng(29);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  for (double& v : y.flat()) v = rng.uniform(-1.0, 1.0);

  const nn::Trainer trainer({.epochs = 3, .batch_size = 8, .seed = 101});
  const nn::TrainHistory history = trainer.fit(net, x, y, {}, {});

  FitResult result;
  result.train_loss = history.train_loss;
  for (Matrix* p : net.parameters()) result.params.push_back(*p);
  return result;
}

TEST(Determinism, TrainerFitBitwiseIdenticalAcrossThreadCounts) {
  const FitResult reference = run_trainer_fit(1);
  ASSERT_EQ(reference.train_loss.size(), 3u);
  ASSERT_FALSE(reference.params.empty());
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "kernel_threads=" << threads);
    const FitResult fit = run_trainer_fit(threads);
    ASSERT_EQ(fit.train_loss, reference.train_loss);
    ASSERT_EQ(fit.params, reference.params);
  }
}

std::uint32_t crc_update(std::uint32_t crc, std::span<const double> values) {
  return io::crc32_update(crc, values.data(), values.size() * sizeof(double));
}

/// CRC-32 over everything a short Adam run computes: per step the
/// forward output, the input gradient and every weight gradient, then
/// the final weights and one inference forward. The batches run the
/// bound batch first, then a short one and batch 1 on its prefix rows.
std::uint32_t training_digest(nn::GraphNetwork& net, std::size_t features,
                              std::size_t threads) {
  KernelThreadsGuard guard(threads);
  constexpr std::size_t kT = 8;
  constexpr std::array<std::size_t, 6> kBatches{64, 33, 9, 64, 1, 64};
  nn::Adam adam(net.parameters(), net.gradients());
  const std::vector<Matrix*> grads = net.gradients();
  Rng rng(57);
  std::uint32_t crc = 0;
  Tensor3 grad;
  for (const std::size_t batch : kBatches) {
    Tensor3 x(batch, kT, features), y(batch, kT, features);
    for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
    for (double& v : y.flat()) v = rng.uniform(-1.0, 1.0);
    net.zero_grad();
    const Tensor3& pred = net.forward_ref(x, /*training=*/true);
    crc = crc_update(crc, pred.flat());
    nn::mse_grad_into(y, pred, grad);
    crc = crc_update(crc, net.backward_ref(grad).flat());
    for (const Matrix* g : grads) crc = crc_update(crc, g->flat());
    adam.step();
    net.repack_weights();
  }
  for (const Matrix* p : net.parameters()) crc = crc_update(crc, p->flat());
  Tensor3 x(16, kT, features);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  return crc_update(crc, net.forward_ref(x, /*training=*/false).flat());
}

TEST(Determinism, TrainingDigestPinned) {
  // Pins training's bits across commits, where the tests above only pin
  // them across thread counts within one build: a restructure that moved
  // every count's bits equally would pass those. The constants were
  // captured before the recurrent layers moved to one fork-join per
  // pass, and must never be re-captured to make a change pass. They hold
  // glibc's x86-64 libm (weight init draws normals), the vectorized
  // vmath numerics (avx2-fma and its bitwise portable-fma mirror) and the
  // default build options; a GEONAS_NATIVE_ARCH build may compute other
  // bits.
  const searchspace::StackedLSTMSpace space;
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << "kernel_threads=" << threads);
    nn::GraphNetwork winner = space.build(
        searchspace::Architecture::from_key("5-1-3-1-1-3-1-0-0-0-1-0-0-1"));
    winner.init_params(3);
    EXPECT_EQ(training_digest(winner, 5, threads), 0x3ec754b9u);
  }
}

/// Raw bit patterns, so equality is bitwise rather than numeric.
std::vector<std::uint64_t> bits(std::span<const double> values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (const double x : values) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST(Determinism, SstSnapshotsBitwiseAcrossThreadCounts) {
  // snapshots() grows its caches on the calling thread, then splits the
  // ocean rows over the kernel pool. Every entry must equal value() for
  // its cell and week at every thread count, on a fresh instance and on
  // a warm one that has already answered other queries, one of them past
  // the first window of the Lorenz record. The caches do not depend on
  // the order they grew in, so the two instances read the same. On this
  // grid 64 weeks of ocean cells clear the parallel_for threshold; one
  // week runs serially.
  const data::Grid grid{20, 40};
  const data::LandMask mask(grid, 7);
  const std::size_t rows = mask.ocean_count();
  constexpr std::size_t kWeek0 = 1500;
  constexpr std::size_t kMaxCount = 427;

  // value() of every ocean cell at weeks [kWeek0, kWeek0 + kMaxCount),
  // row-major, asked week by week from kWeek0 on.
  auto value_table = [&](const data::SyntheticSST& sst) {
    std::vector<double> table(rows * kMaxCount);
    for (std::size_t k = 0; k < rows; ++k) {
      const std::size_t cell = mask.ocean_cells()[k];
      const double lat = grid.lat_of(cell / grid.nlon);
      const double lon = grid.lon_of(cell % grid.nlon);
      for (std::size_t c = 0; c < kMaxCount; ++c) {
        table[k * kMaxCount + c] = sst.value(lat, lon, kWeek0 + c);
      }
    }
    return table;
  };
  const std::vector<double> fresh_table = value_table(data::SyntheticSST());
  const data::SyntheticSST warm;
  (void)warm.snapshots(mask, 0, 8);
  (void)warm.value(10.0, 200.0, 3500);
  const std::vector<double> warm_table = value_table(warm);
  ASSERT_EQ(bits(warm_table), bits(fresh_table));

  auto leading_weeks = [&](const std::vector<double>& table,
                           std::size_t count) {
    std::vector<double> out;
    for (std::size_t k = 0; k < rows; ++k) {
      const auto row = std::span(table).subspan(k * kMaxCount, count);
      out.insert(out.end(), row.begin(), row.end());
    }
    return out;
  };
  for (const std::size_t threads : kThreadCounts) {
    KernelThreadsGuard guard(threads);
    for (const std::size_t count : {std::size_t{1}, std::size_t{64}, kMaxCount}) {
      const data::SyntheticSST fresh;
      for (const data::SyntheticSST* sst : {&fresh, &warm}) {
        SCOPED_TRACE(::testing::Message()
                     << "kernel_threads=" << threads << " count=" << count
                     << (sst == &warm ? " warm" : " fresh"));
        const Matrix s = sst->snapshots(mask, kWeek0, count);
        ASSERT_EQ(s.rows(), rows);
        ASSERT_EQ(s.cols(), count);
        ASSERT_EQ(bits(s.flat()), bits(leading_weeks(fresh_table, count)));
      }
    }
  }
}

}  // namespace
}  // namespace geonas
