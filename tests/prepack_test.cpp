// Prepacked weight panels (tensor/prepack.hpp): correctness of the
// pack-once GEMM path and its invalidation rule.
//
// The packed layout is byte-identical to what the per-call path packs,
// and both paths run the same loop nest — so every comparison in this
// file demands BITWISE equality with the unpacked path, at every kernel
// thread count, exactly like tests/determinism_test.cpp does for the raw
// kernels. Suites are named Prepack* so the TSan quick gate
// (tools/run_checks.sh --quick) can select them.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "hpc/parallel_for.hpp"
#include "nn/dense.hpp"
#include "nn/graph.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "serve/frozen_plan.hpp"
#include "tensor/blas.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/matrix.hpp"
#include "tensor/prepack.hpp"
#include "tensor/random.hpp"

namespace geonas {
namespace {

constexpr std::array<std::size_t, 3> kThreadCounts{1, 2, 8};

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

Tensor3 random_tensor(std::size_t b, std::size_t t, std::size_t f, Rng& rng) {
  Tensor3 x(b, t, f);
  for (double& v : x.flat()) v = rng.uniform(-1.0, 1.0);
  return x;
}

void expect_bitwise(std::span<const double> got, std::span<const double> want,
                    const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << what << ": packed result differs bitwise from the unpacked kernel";
}

/// Runs C = A * op(W) through both the raw-pointer kernel and a packed
/// panel and demands bitwise-equal outputs.
void check_packed_matches_raw(std::size_t m, const Matrix& a, const Matrix& w,
                              Trans trans_w) {
  const std::size_t k = trans_w == Trans::kTranspose ? w.cols() : w.rows();
  const std::size_t n = trans_w == Trans::kTranspose ? w.rows() : w.cols();
  ASSERT_EQ(a.cols(), k);

  Matrix c_raw(m, n);
  Matrix c_packed(m, n);
  tensor::PackedPanels pack;
  pack.ensure(w, trans_w);
  ASSERT_EQ(pack.k(), k);
  ASSERT_EQ(pack.n(), n);

  for (const std::size_t threads : kThreadCounts) {
    KernelThreadsGuard guard(threads);
    c_raw.fill(0.0);
    c_packed.fill(0.0);
    gemm_raw(Trans::kNone, trans_w, m, n, k, 1.0, a.flat().data(), k,
             w.flat().data(), w.cols(), 0.0, c_raw.flat().data(), n);
    gemm_raw(Trans::kNone, m, 1.0, a.flat().data(), k, pack, 0.0,
             c_packed.flat().data(), n);
    expect_bitwise(c_packed.flat(), c_raw.flat(), "gemm vs packed gemm");
  }
}

TEST(PrepackGemm, SmallMBitwiseMatchesUnpacked) {
  Rng rng(101);
  // m = 1 is the serve shape, m = 8 a micro-batch: one kMC block of
  // rows. The 64x256 panel fits one (jc, pc) block; the 16x1100 panel is
  // wider than kNC, so the stripe reads its second column block at
  // offset jc * kc.
  const Matrix w = random_matrix(64, 256, rng);
  const Matrix wide = random_matrix(16, 1100, rng);
  for (const std::size_t m : {std::size_t{1}, std::size_t{8}}) {
    const Matrix a = random_matrix(m, 64, rng);
    check_packed_matches_raw(m, a, w, Trans::kNone);
    const Matrix a_wide = random_matrix(m, 16, rng);
    check_packed_matches_raw(m, a_wide, wide, Trans::kNone);
  }
}

TEST(PrepackGemm, LargeOperandBitwiseMatchesUnpacked) {
  Rng rng(102);
  // 180 rows cross kMC, and at 14.7 MFLOP clear the parallel_for
  // threshold, so threads 2/8 genuinely split M.
  const Matrix w = random_matrix(256, 160, rng);
  const Matrix a = random_matrix(180, 256, rng);
  check_packed_matches_raw(180, a, w, Trans::kNone);
  // A 300x1030 panel crosses kKC and kNC, so its blocks sit at
  // pc * n_pad + jc * kc with pc > 0 and jc > 0; its transpose crosses
  // kKC four times.
  const Matrix big = random_matrix(300, 1030, rng);
  check_packed_matches_raw(100, random_matrix(100, 300, rng), big,
                           Trans::kNone);
  check_packed_matches_raw(7, random_matrix(7, 1030, rng), big,
                           Trans::kTranspose);
}

TEST(PrepackGemm, TransposedPanelBitwiseMatchesUnpacked) {
  Rng rng(103);
  // The backward dX GEMMs consume op = W^T.
  const Matrix w = random_matrix(48, 96, rng);
  const Matrix a = random_matrix(21, 96, rng);
  check_packed_matches_raw(21, a, w, Trans::kTranspose);
}

TEST(PrepackInvalidation, RepackCountFollowsVersionBumps) {
  Rng rng(105);
  Matrix w = random_matrix(16, 24, rng);
  tensor::PackedPanels pack;

  pack.ensure(w, Trans::kNone);
  EXPECT_EQ(pack.repack_count(), 1u);
  EXPECT_TRUE(pack.fresh_for(w));

  // Fresh ensures are no-ops.
  pack.ensure(w, Trans::kNone);
  pack.ensure(w, Trans::kNone);
  EXPECT_EQ(pack.repack_count(), 1u);

  // A mutable access invalidates; the next ensure re-packs once.
  w.flat()[0] += 0.5;
  EXPECT_FALSE(pack.fresh_for(w));
  pack.ensure(w, Trans::kNone);
  EXPECT_EQ(pack.repack_count(), 2u);

  // Several mutations between ensures still cost exactly one re-pack.
  w.flat()[1] = 2.0;
  w.fill(0.75);
  w(3, 3) = -1.0;
  pack.ensure(w, Trans::kNone);
  EXPECT_EQ(pack.repack_count(), 3u);

  // Const access never invalidates.
  const Matrix& cw = w;
  (void)cw.flat();
  (void)cw(0, 0);
  EXPECT_TRUE(pack.fresh_for(w));
  pack.ensure(w, Trans::kNone);
  EXPECT_EQ(pack.repack_count(), 3u);
}

TEST(PrepackInvalidation, RepackedPanelBytesMatchAFreshPack) {
  Rng rng(106);
  Matrix w = random_matrix(40, 56, rng);
  tensor::PackedPanels reused;
  reused.ensure(w, Trans::kNone);

  // Mutate and re-pack in place; a brand-new pack of the same weights
  // must hold exactly the same bytes.
  for (double& v : w.flat()) v *= 1.25;
  reused.ensure(w, Trans::kNone);

  tensor::PackedPanels fresh;
  fresh.ensure(w, Trans::kNone);
  ASSERT_EQ(reused.k(), fresh.k());
  ASSERT_EQ(reused.n(), fresh.n());
  const std::size_t doubles = detail::packed_b_doubles(fresh.k(), fresh.n());
  EXPECT_EQ(std::memcmp(reused.data(), fresh.data(),
                        doubles * sizeof(double)),
            0)
      << "in-place re-pack diverged from a fresh pack";
}

/// Two-layer recurrent net used by the training-loop-shaped tests.
nn::GraphNetwork small_net() {
  nn::GraphNetwork net;
  const auto lstm = net.add_node(std::make_unique<nn::LSTM>(6, 16), {0});
  const auto lstm2 = net.add_node(std::make_unique<nn::LSTM>(16, 12), {lstm});
  net.add_node(std::make_unique<nn::Dense>(12, 6), {lstm2});
  net.init_params(77);
  return net;
}

TEST(PrepackLayer, ForwardAfterOptimizerStepMatchesFreshlyPackedWeights) {
  Rng rng(107);
  const Tensor3 x = random_tensor(4, 5, 6, rng);
  const Tensor3 y = random_tensor(4, 5, 6, rng);

  // Net A: one full training step, then the trainer-style eager re-pack.
  nn::GraphNetwork a = small_net();
  nn::Adam opt(a.parameters(), a.gradients(), {.learning_rate = 1e-2});
  a.zero_grad();
  const Tensor3 out = a.forward(x, /*training=*/true);
  a.backward(nn::mse_grad(y, out));
  opt.step();
  a.repack_weights();
  const Tensor3 out_a = a.forward(x, /*training=*/false);

  // Net B: the same post-step weights loaded into packs built from
  // scratch (loading mutates every parameter, so every panel re-packs
  // on first use).
  std::stringstream buffer;
  nn::save_weights_binary(a, buffer);
  nn::GraphNetwork b = small_net();
  nn::load_weights_binary(b, buffer);
  const Tensor3 out_b = b.forward(x, /*training=*/false);

  expect_bitwise(out_a.flat(), out_b.flat(),
                 "re-packed vs freshly packed forward");
}

TEST(PrepackLayer, LazyEnsureRecoversFromDirectWeightMutation) {
  Rng rng(108);
  const Tensor3 x = random_tensor(3, 4, 6, rng);

  nn::GraphNetwork a = small_net();
  (void)a.forward(x, /*training=*/false);  // packs built for the initial weights
  // Mutate weights behind the packs' back — no repack_weights() call.
  // The version counter makes the next forward re-pack lazily.
  for (Matrix* p : a.parameters()) {
    auto flat = p->flat();
    for (std::size_t i = 0; i < flat.size(); ++i) {
      flat[i] += 1e-3 * static_cast<double>(i % 7);
    }
  }
  const Tensor3 out_a = a.forward(x, /*training=*/false);

  std::stringstream buffer;
  nn::save_weights_binary(a, buffer);
  nn::GraphNetwork b = small_net();
  nn::load_weights_binary(b, buffer);
  const Tensor3 out_b = b.forward(x, /*training=*/false);

  expect_bitwise(out_a.flat(), out_b.flat(),
                 "lazily re-packed vs freshly packed forward");
}

TEST(PrepackServe, FrozenPlanPacksOnceAndMatchesTheNetworkBitwise) {
  Rng rng(109);
  constexpr std::size_t kB = 3, kT = 5, kF = 6;
  const Tensor3 x = random_tensor(kB, kT, kF, rng);

  nn::GraphNetwork net = small_net();
  serve::FrozenPlan plan = serve::FrozenPlan::compile(net, kT, kB);
  serve::FrozenPlan clone = plan.clone_stream();

  for (const std::size_t threads : kThreadCounts) {
    KernelThreadsGuard guard(threads);
    const Tensor3 want = net.forward(x, /*training=*/false);
    const Tensor3& got = plan.run(x);
    expect_bitwise(got.flat(), want.flat(), "FrozenPlan::run (packed)");
    const Tensor3& got_clone = clone.run(x);
    expect_bitwise(got_clone.flat(), want.flat(),
                   "clone_stream run (shared packs)");
  }
}

}  // namespace
}  // namespace geonas
