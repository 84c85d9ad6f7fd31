// The asynchronous campaign core without sockets: the (time, seq) pop
// order under any answer order, checkpoint round trips, and the GEONASNC
// v2 reader's refusal of truncated, corrupted and CRC-valid hostile files.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/surrogate.hpp"
#include "hpc/async_campaign.hpp"
#include "io/binary.hpp"
#include "search/aging_evolution.hpp"
#include "search/random_search.hpp"

namespace geonas::hpc {
namespace {

using core::SurrogateEvaluator;
using search::AgingEvolution;
using search::RandomSearch;
using searchspace::StackedLSTMSpace;

/// simulate_async's in-process source, stopping once `max_evaluations`
/// evaluations are told.
void run_in_process(AsyncCampaign& campaign, ArchitectureEvaluator& oracle,
                    std::size_t max_evaluations =
                        std::numeric_limits<std::size_t>::max()) {
  do {
    while (const AsyncCampaign::Launch* l = campaign.take_launch()) {
      campaign.apply_outcome(*l, oracle.evaluate(l->arch, l->eval_seed));
    }
  } while (campaign.evaluations() < max_evaluations && campaign.try_pop());
}

std::string save_checkpoint(const AsyncCampaign& campaign) {
  std::ostringstream os;
  io::BinaryWriter w(os, AsyncCampaign::kCheckpointMagic,
                     AsyncCampaign::kCheckpointVersion);
  campaign.save(w);
  w.finish();
  return os.str();
}

void load_checkpoint(AsyncCampaign& campaign, const std::string& bytes) {
  std::istringstream in(bytes);
  io::BinaryReader r(in, AsyncCampaign::kCheckpointMagic,
                     AsyncCampaign::kCheckpointVersion,
                     AsyncCampaign::kCheckpointVersion);
  campaign.load(r);
  r.finish();
}

void expect_bitwise_equal(const SimResult& got, const SimResult& want) {
  ASSERT_EQ(got.evals.size(), want.evals.size());
  for (std::size_t i = 0; i < got.evals.size(); ++i) {
    ASSERT_EQ(got.evals[i].completed_at, want.evals[i].completed_at) << i;
    ASSERT_EQ(got.evals[i].reward, want.evals[i].reward) << i;
    ASSERT_EQ(got.evals[i].duration, want.evals[i].duration) << i;
    ASSERT_EQ(got.evals[i].params, want.evals[i].params) << i;
    ASSERT_EQ(got.evals[i].arch_key, want.evals[i].arch_key) << i;
  }
  EXPECT_EQ(got.failures.worker_crashes, want.failures.worker_crashes);
  EXPECT_EQ(got.failures.stragglers_killed, want.failures.stragglers_killed);
  EXPECT_EQ(got.failures.lost_results, want.failures.lost_results);
  EXPECT_EQ(got.utilization, want.utilization);
  EXPECT_EQ(got.busy_curve, want.busy_curve);
}

// ---- pop order -------------------------------------------------------

/// Every third launch takes no time at all; the rest take 60 s. The
/// reward is the seq, so a result names the launch that produced it.
EvalOutcome seq_outcome(const AsyncCampaign::Launch& l) {
  return {.reward = static_cast<double>(l.seq),
          .duration_seconds = l.seq % 3 == 0 ? 0.0 : 60.0,
          .params = 1};
}

/// Drives a campaign to its end, answering each batch of new launches
/// in seq order (as simulate_async does) or in reverse, and popping
/// whatever is admissible after every answer.
SimResult drive(bool reverse) {
  const StackedLSTMSpace space;
  RandomSearch method(space, 5);
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.wall_time_seconds = 600.0;
  cfg.coordinator_service = 0.0;
  cfg.launch_overhead_mean = 0.0;
  AsyncCampaign campaign(method, cfg);
  campaign.start();
  for (;;) {
    std::vector<const AsyncCampaign::Launch*> batch;
    while (const AsyncCampaign::Launch* l = campaign.take_launch()) {
      batch.push_back(l);
    }
    if (batch.empty()) break;
    if (reverse) std::reverse(batch.begin(), batch.end());
    for (const AsyncCampaign::Launch* l : batch) {
      EXPECT_TRUE(campaign.apply_outcome(*l, seq_outcome(*l)));
      while (campaign.try_pop()) {
      }
    }
  }
  EXPECT_EQ(campaign.outstanding(), 0u);
  return std::move(campaign).result();
}

TEST(AsyncCampaign, PopsInTimeSeqOrderWhateverTheAnswerOrder) {
  // Answered in reverse, seq 3 (zero duration, done at 0 s) is known
  // before seqs 0-2, which are in flight from 0 s. Seq 0 also takes no
  // time, so it must still pop first: admissibility compares (busy_end,
  // seq) with the in-flight (start, seq), not with the start alone.
  const SimResult reversed = drive(/*reverse=*/true);
  const SimResult in_order = drive(/*reverse=*/false);
  ASSERT_GT(reversed.evals.size(), 20u);
  ASSERT_DOUBLE_EQ(reversed.evals[0].reward, 0.0);
  ASSERT_DOUBLE_EQ(reversed.evals[1].reward, 3.0);

  std::size_t ties = 0;
  for (std::size_t i = 1; i < reversed.evals.size(); ++i) {
    const CompletedEval& a = reversed.evals[i - 1];
    const CompletedEval& b = reversed.evals[i];
    EXPECT_LT(std::tie(a.completed_at, a.reward),
              std::tie(b.completed_at, b.reward))
        << "evals " << i - 1 << " and " << i << " out of (time, seq) order";
    ties += a.completed_at == b.completed_at ? 1 : 0;
  }
  EXPECT_GT(ties, 0u);
  expect_bitwise_equal(reversed, in_order);
}

TEST(AsyncCampaign, RejectsDuplicateAndNonFiniteAnswers) {
  const StackedLSTMSpace space;
  RandomSearch method(space, 6);
  ClusterConfig cfg;
  cfg.nodes = 2;
  AsyncCampaign campaign(method, cfg);
  campaign.start();
  const AsyncCampaign::Launch* first = campaign.take_launch();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(campaign.awaiting(first->seq), first);
  EXPECT_THROW(
      campaign.apply_outcome(*first, {.duration_seconds = std::nan("")}),
      std::invalid_argument);
  EXPECT_THROW(campaign.apply_outcome(*first, {.duration_seconds = -1.0}),
               std::invalid_argument);
  EXPECT_TRUE(campaign.apply_outcome(*first, {.duration_seconds = 60.0}));
  EXPECT_FALSE(campaign.apply_outcome(*first, {.duration_seconds = 60.0}));
  EXPECT_EQ(campaign.awaiting(first->seq), nullptr);
}

// ---- checkpoints -----------------------------------------------------

ClusterConfig lossy_cluster() {
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.wall_time_seconds = 1800.0;
  cfg.seed = 31;
  cfg.failures.crash_prob = 0.05;
  cfg.failures.straggler_prob = 0.05;
  cfg.failures.lost_result_prob = 0.05;
  return cfg;
}

TEST(AsyncCampaign, SaveLoadContinueMatchesUninterrupted) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const ClusterConfig cfg = lossy_cluster();

  AgingEvolution uninterrupted(space, {.seed = 17});
  const SimResult want = simulate_async(uninterrupted, oracle, cfg);
  ASSERT_GT(want.evals.size(), 30u);
  ASSERT_GT(want.failures.total(), 0u);

  std::string bytes;
  {
    AgingEvolution method(space, {.seed = 17});
    AsyncCampaign campaign(method, cfg);
    campaign.start();
    run_in_process(campaign, oracle, 15);
    ASSERT_EQ(campaign.evaluations(), 15u);
    ASSERT_GT(campaign.outstanding(), 0u);
    bytes = save_checkpoint(campaign);
  }
  AgingEvolution method(space, {.seed = 999});  // state comes from the file
  AsyncCampaign resumed(method, cfg);
  load_checkpoint(resumed, bytes);
  EXPECT_EQ(resumed.evaluations(), 15u);
  run_in_process(resumed, oracle);
  expect_bitwise_equal(std::move(resumed).result(), want);
}

TEST(AsyncCampaign, RefusesMismatchedCampaign) {
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  RandomSearch method(space, 3);
  AsyncCampaign campaign(method, lossy_cluster());
  campaign.start();
  run_in_process(campaign, oracle, 3);
  const std::string bytes = save_checkpoint(campaign);

  ClusterConfig other = lossy_cluster();
  other.failures.straggler_timeout_multiple = 4.0;
  RandomSearch fresh(space, 3);
  AsyncCampaign mismatched(fresh, other);
  try {
    load_checkpoint(mismatched, bytes);
    FAIL() << "a checkpoint of another campaign was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("straggler multiple differs"),
              std::string::npos)
        << e.what();
  }
}

/// A small checkpoint: 4 slots, 3 evaluations told, 4 launches
/// outstanding, random search.
struct SmallCheckpoint {
  ClusterConfig cfg;
  std::string bytes;

  SmallCheckpoint() {
    cfg.nodes = 4;
    cfg.wall_time_seconds = 900.0;
    const StackedLSTMSpace space;
    SurrogateEvaluator oracle(space);
    RandomSearch method(space, 4);
    AsyncCampaign campaign(method, cfg);
    campaign.start();
    run_in_process(campaign, oracle, 3);
    bytes = save_checkpoint(campaign);
  }

  /// Loads `file` into a fresh campaign of the same config.
  void load(const std::string& file) const {
    const StackedLSTMSpace space;
    RandomSearch method(space, 4);
    AsyncCampaign campaign(method, cfg);
    load_checkpoint(campaign, file);
  }
};

TEST(AsyncCampaign, EveryTruncationAndByteFlipIsRefused) {
  const SmallCheckpoint small;
  ASSERT_NO_THROW(small.load(small.bytes));
  for (std::size_t cut = 0; cut < small.bytes.size(); ++cut) {
    EXPECT_THROW(small.load(small.bytes.substr(0, cut)), std::runtime_error)
        << "prefix of " << cut << " bytes";
  }
  for (std::size_t i = 0; i < small.bytes.size(); ++i) {
    for (const int mask : {0x01, 0xFF}) {
      std::string flipped = small.bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      EXPECT_THROW(small.load(flipped), std::runtime_error)
          << "byte " << i << " xor " << mask;
    }
  }
}

// ---- CRC-valid hostile values ----------------------------------------

struct LaunchOffsets {
  std::uint64_t seq = 0, slot = 0, start = 0, fate = 0, crash_fraction = 0;
  std::uint64_t seq_value = 0, slot_value = 0;
};

/// Byte offsets of the fields the reader validates, found by walking the
/// v2 layout: method, config, RNG, clock, counter, evaluations, failure
/// counts, intervals, outstanding launches.
struct Layout {
  std::uint64_t coordinator_free = 0;
  std::uint64_t eval_counter_value = 0;
  std::vector<LaunchOffsets> launches;

  explicit Layout(const std::string& bytes) {
    std::istringstream in(bytes);
    io::BinaryReader r(in, AsyncCampaign::kCheckpointMagic,
                       AsyncCampaign::kCheckpointVersion,
                       AsyncCampaign::kCheckpointVersion);
    (void)r.str("method");
    (void)r.u64("nodes");
    for (int i = 0; i < 8; ++i) (void)r.f64("config");
    (void)r.u64("seed");
    for (int i = 0; i < 4; ++i) (void)r.u64("rng word");
    (void)r.f64("rng cached normal");
    (void)r.u8("rng cached flag");
    coordinator_free = r.offset();
    (void)r.f64("coordinator_free");
    eval_counter_value = r.u64("eval_counter");
    const std::uint64_t evals = r.u64("evals");
    for (std::uint64_t i = 0; i < evals; ++i) {
      for (int f = 0; f < 3; ++f) (void)r.f64("eval");
      (void)r.u64("params");
      (void)r.str("arch_key");
    }
    for (int i = 0; i < 3; ++i) (void)r.u64("failure count");
    const std::uint64_t intervals = r.u64("intervals");
    for (std::uint64_t i = 0; i < 2 * intervals; ++i) (void)r.f64("interval");
    const std::uint64_t outstanding = r.u64("outstanding");
    for (std::uint64_t i = 0; i < outstanding; ++i) {
      LaunchOffsets l;
      l.seq = r.offset();
      l.seq_value = r.u64("seq");
      l.slot = r.offset();
      l.slot_value = r.u64("slot");
      l.start = r.offset();
      (void)r.f64("start");
      l.fate = r.offset();
      (void)r.u8("fate");
      l.crash_fraction = r.offset();
      (void)r.f64("crash_fraction");
      const std::uint64_t genes = r.u64("gene count");
      for (std::uint64_t g = 0; g < genes; ++g) (void)r.u32("gene");
      launches.push_back(l);
    }
  }
};

/// Overwrites `width` little-endian bytes at `offset` and re-seals the
/// CRC-32 trailer, so only the semantic validators can object.
std::string patched(std::string bytes, std::uint64_t offset,
                    std::uint64_t value, std::size_t width = 8) {
  for (std::size_t b = 0; b < width; ++b) {
    bytes[offset + b] = static_cast<char>((value >> (8 * b)) & 0xFF);
  }
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t crc = io::crc32_update(0, bytes.data(), body);
  for (std::size_t b = 0; b < 4; ++b) {
    bytes[body + b] = static_cast<char>((crc >> (8 * b)) & 0xFF);
  }
  return bytes;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(AsyncCampaign, RefusesCrcValidHostileValues) {
  const SmallCheckpoint small;
  const Layout at(small.bytes);
  ASSERT_EQ(at.launches.size(), 4u);
  const LaunchOffsets& first = at.launches.front();
  const LaunchOffsets& last = at.launches.back();

  struct Case {
    const char* name;
    std::string file;
    const char* field;
    std::uint64_t offset;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Case cases[] = {
      {"fate 7", patched(small.bytes, first.fate, 7, 1), "fate", first.fate},
      {"crash fraction 1",
       patched(small.bytes, first.crash_fraction, bits(1.0)),
       "crash_fraction", first.crash_fraction},
      {"crash fraction -0.25",
       patched(small.bytes, first.crash_fraction, bits(-0.25)),
       "crash_fraction", first.crash_fraction},
      {"crash fraction NaN",
       patched(small.bytes, first.crash_fraction, bits(nan)), "crash_fraction",
       first.crash_fraction},
      {"seq repeated",
       patched(small.bytes, at.launches[1].seq, first.seq_value), "seq",
       at.launches[1].seq},
      {"seq at eval_counter",
       patched(small.bytes, last.seq, at.eval_counter_value), "seq", last.seq},
      {"slot out of range", patched(small.bytes, first.slot, small.cfg.nodes),
       "slot", first.slot},
      {"slot held twice",
       patched(small.bytes, at.launches[1].slot, first.slot_value), "slot",
       at.launches[1].slot},
      {"clock NaN", patched(small.bytes, at.coordinator_free, bits(nan)),
       "coordinator_free", at.coordinator_free},
      {"clock inf", patched(small.bytes, at.coordinator_free, bits(inf)),
       "coordinator_free", at.coordinator_free},
      {"start -inf", patched(small.bytes, first.start, bits(-inf)), "start",
       first.start},
  };
  for (const Case& c : cases) {
    try {
      small.load(c.file);
      ADD_FAILURE() << c.name << ": accepted";
    } catch (const std::runtime_error& e) {
      const std::string want = std::string("'") + c.field + "' at byte " +
                               std::to_string(c.offset);
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << c.name << ": " << e.what();
    }
  }
}

TEST(AsyncCampaign, RefusesVersionOneCheckpoint) {
  const SmallCheckpoint small;
  // The version is the u32 after the 8-byte magic.
  const std::string v1 = patched(small.bytes, 8, 1, 4);
  try {
    small.load(v1);
    FAIL() << "a GEONASNC v1 file was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace geonas::hpc
