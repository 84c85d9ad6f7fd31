// Oracle equivalence of the TCP transport: a campaign run over real
// localhost sockets must reproduce the discrete-event simulator's
// trajectory bitwise — regardless of worker count, join timing, worker
// death, or pause/resume. Also: elastic membership and kill -9 recovery.
//
// Every test is guarded by loopback_available(): in a sandbox without
// even loopback networking the suite skips rather than fails.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/surrogate.hpp"
#include "hpc/cluster_sim.hpp"
#include "hpc/net/frame.hpp"
#include "hpc/net/master.hpp"
#include "hpc/net/socket.hpp"
#include "hpc/net/worker.hpp"
#include "search/aging_evolution.hpp"
#include "search/random_search.hpp"
#include "tied_campaign.hpp"

namespace geonas::hpc::net {
namespace {

using core::SurrogateEvaluator;
using search::AgingEvolution;
using search::RandomSearch;
using searchspace::StackedLSTMSpace;

#define SKIP_WITHOUT_LOOPBACK()                                     \
  do {                                                              \
    if (!loopback_available()) {                                    \
      GTEST_SKIP() << "no loopback networking in this environment"; \
    }                                                               \
  } while (false)

ClusterConfig small_cluster(std::size_t nodes, std::uint64_t seed = 7) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.wall_time_seconds = 1800.0;
  cfg.seed = seed;
  return cfg;
}

FailureModel lossy_model() {
  FailureModel m;
  m.crash_prob = 0.05;
  m.restart_penalty_seconds = 90.0;
  m.straggler_prob = 0.05;
  m.straggler_timeout_multiple = 3.0;
  m.lost_result_prob = 0.05;
  return m;
}

MasterOptions master_options(const ClusterConfig& cluster) {
  MasterOptions opts;
  opts.cluster = cluster;
  opts.real_time_limit_seconds = 120.0;  // hang guard, not a pacing knob
  return opts;
}

/// The oracle contract: identical evaluation sequence (bitwise times,
/// rewards, keys), identical failure accounting, identical busy curve
/// (an integer event sweep), and bitwise-identical utilization (both
/// paths record the same busy intervals in the same pop order).
void expect_matches_sim(const SimResult& net, const SimResult& sim) {
  ASSERT_EQ(net.evals.size(), sim.evals.size());
  for (std::size_t i = 0; i < net.evals.size(); ++i) {
    ASSERT_DOUBLE_EQ(net.evals[i].completed_at, sim.evals[i].completed_at);
    ASSERT_DOUBLE_EQ(net.evals[i].reward, sim.evals[i].reward);
    ASSERT_DOUBLE_EQ(net.evals[i].duration, sim.evals[i].duration);
    ASSERT_EQ(net.evals[i].params, sim.evals[i].params);
    ASSERT_EQ(net.evals[i].arch_key, sim.evals[i].arch_key);
  }
  EXPECT_EQ(net.failures.worker_crashes, sim.failures.worker_crashes);
  EXPECT_EQ(net.failures.stragglers_killed, sim.failures.stragglers_killed);
  EXPECT_EQ(net.failures.lost_results, sim.failures.lost_results);
  EXPECT_EQ(net.utilization, sim.utilization);
  ASSERT_EQ(net.busy_curve.size(), sim.busy_curve.size());
  for (std::size_t i = 0; i < net.busy_curve.size(); ++i) {
    ASSERT_DOUBLE_EQ(net.busy_curve[i], sim.busy_curve[i]);
  }
}

/// Runs `count` in-process workers against `port`, sharing one
/// thread-safe evaluator, staggered by `stagger_ms` to exercise elastic
/// join. A worker that arrives after the campaign finished (connection
/// refused, or EOF before any task) is a normal outcome, not an error —
/// exceptions are swallowed so a straggler can't crash the test.
std::vector<std::thread> spawn_workers(ArchitectureEvaluator& oracle,
                                       std::uint16_t port, std::size_t count,
                                       int stagger_ms = 0) {
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads.emplace_back([&oracle, port, i, stagger_ms] {
      sleep_ms(static_cast<int>(i) * stagger_ms);
      WorkerOptions wo;
      wo.port = port;
      wo.name = "w" + std::to_string(i);
      wo.connect_attempts = 8;
      try {
        (void)run_worker(oracle, wo);
      } catch (const std::exception&) {
        // Master already gone: this worker simply never participated.
      }
    });
  }
  return threads;
}

/// Runs a campaign with `workers` in-process workers and tears the
/// master down BEFORE joining them: destroying the master closes the
/// listener, so a late worker blocked on its hello (connected into the
/// backlog after the campaign completed) sees EOF and exits instead of
/// deadlocking the join.
MasterResult run_campaign(search::SearchMethod& method,
                          ArchitectureEvaluator& oracle,
                          const MasterOptions& options, std::size_t workers,
                          int stagger_ms = 0) {
  auto master = std::make_unique<NetMaster>(options);
  auto threads = spawn_workers(oracle, master->port(), workers, stagger_ms);
  MasterResult got;
  try {
    got = master->run(method);
  } catch (...) {
    master.reset();  // release stragglers before the join
    for (auto& t : threads) t.join();
    throw;
  }
  master.reset();
  for (auto& t : threads) t.join();
  return got;
}

TEST(NetTransport, MatchesSimulatorForAgingEvolution) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const ClusterConfig cluster = small_cluster(8, 21);

  AgingEvolution sim_method(space, {.seed = 5});
  const SimResult expected = simulate_async(sim_method, oracle, cluster);
  ASSERT_GT(expected.evals.size(), 20u);

  AgingEvolution net_method(space, {.seed = 5});
  const MasterResult got =
      run_campaign(net_method, oracle, master_options(cluster), 3);

  EXPECT_GE(got.workers_joined, 1u);
  EXPECT_FALSE(got.stopped_early);
  expect_matches_sim(got.sim, expected);
}

TEST(NetTransport, MatchesSimulatorUnderFailureInjection) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  ClusterConfig cluster = small_cluster(8, 22);
  cluster.failures = lossy_model();

  RandomSearch sim_method(space, 9);
  const SimResult expected = simulate_async(sim_method, oracle, cluster);
  ASSERT_GT(expected.failures.total(), 0u);

  RandomSearch net_method(space, 9);
  const MasterResult got =
      run_campaign(net_method, oracle, master_options(cluster), 2);

  expect_matches_sim(got.sim, expected);
}

TEST(NetTransport, MatchesSimulatorWithTiedCompletions) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  TiedDurationEvaluator oracle;
  const ClusterConfig cluster = tied_cluster();

  RandomSearch sim_method(space, 3);
  const SimResult expected = simulate_async(sim_method, oracle, cluster);
  ASSERT_EQ(expected.evals.size(), 50u);

  RandomSearch net_method(space, 3);
  const MasterResult got =
      run_campaign(net_method, oracle, master_options(cluster), 2);
  expect_matches_sim(got.sim, expected);
}

TEST(NetTransport, TrajectoryIndependentOfWorkerCountAndJoinTiming) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const ClusterConfig cluster = small_cluster(6, 23);

  auto run_with = [&](std::size_t workers, int stagger_ms) {
    RandomSearch method(space, 11);
    return run_campaign(method, oracle, master_options(cluster), workers,
                        stagger_ms);
  };

  const MasterResult solo = run_with(1, 0);
  const MasterResult staggered = run_with(4, 150);
  EXPECT_GE(staggered.workers_joined, 1u);
  expect_matches_sim(staggered.sim, solo.sim);
}

TEST(NetTransport, MasterWaitsForLateFirstWorker) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const ClusterConfig cluster = small_cluster(4, 24);

  RandomSearch sim_method(space, 12);
  const SimResult expected = simulate_async(sim_method, oracle, cluster);

  RandomSearch net_method(space, 12);
  NetMaster master(master_options(cluster));
  // No worker exists yet when run() starts; one joins 300 ms later.
  const std::uint16_t port = master.port();
  std::thread late([&oracle, port] {
    sleep_ms(300);
    WorkerOptions wo;
    wo.port = port;
    try {
      (void)run_worker(oracle, wo);
    } catch (const std::exception&) {
    }
  });
  const MasterResult got = master.run(net_method);
  late.join();
  expect_matches_sim(got.sim, expected);
}

TEST(NetTransport, AbandonedTaskIsRedispatchedAfterDisconnect) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const ClusterConfig cluster = small_cluster(4, 25);

  RandomSearch sim_method(space, 13);
  const SimResult expected = simulate_async(sim_method, oracle, cluster);

  RandomSearch net_method(space, 13);
  NetMaster master(master_options(cluster));
  const std::uint16_t port = master.port();

  // A saboteur "worker" completes the hello handshake, accepts one task,
  // then vanishes without answering — the master must reassign that
  // exact task. The honest worker joins only after the sabotage, so the
  // stranded task is guaranteed to need a re-dispatch.
  std::thread saboteur_then_honest([&oracle, port] {
    {
      Socket conn = connect_tcp("127.0.0.1", port);
      const std::string hello = encode_frame(make_hello("saboteur"));
      std::size_t sent = 0;
      while (sent < hello.size()) {
        const std::ptrdiff_t n =
            conn.write_some(hello.data() + sent, hello.size() - sent);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
      }
      FrameAssembler assembler;
      std::string payload;
      char buf[1024];
      bool task_seen = false;
      while (!task_seen) {
        const std::ptrdiff_t n = conn.read_some(buf, sizeof(buf));
        if (n == 0) break;
        if (n > 0) assembler.feed(buf, static_cast<std::size_t>(n));
        while (assembler.next(payload)) {
          if (decode_payload(payload).type == MsgType::kTask) {
            task_seen = true;  // drop the socket with the task unanswered
            break;
          }
        }
      }
    }
    WorkerOptions wo;
    wo.port = port;
    wo.name = "honest";
    try {
      (void)run_worker(oracle, wo);
    } catch (const std::exception&) {
    }
  });
  const MasterResult got = master.run(net_method);
  saboteur_then_honest.join();

  EXPECT_GE(got.worker_deaths, 1u);
  EXPECT_GE(got.redispatches, 1u);
  expect_matches_sim(got.sim, expected);
}

TEST(NetTransport, RefusedOutcomeCondemnsWorkerAndIsRedispatched) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const ClusterConfig cluster = small_cluster(4, 30);

  RandomSearch sim_method(space, 18);
  const SimResult expected = simulate_async(sim_method, oracle, cluster);

  RandomSearch net_method(space, 18);
  NetMaster master(master_options(cluster));
  const std::uint16_t port = master.port();

  // A faulty worker answers its first task with a negative duration,
  // which the campaign refuses. The master must drop that worker and
  // hand the task to the honest worker, which joins only once the
  // master has closed the faulty connection.
  std::thread faulty_then_honest([&oracle, port] {
    {
      Socket conn = connect_tcp("127.0.0.1", port);
      auto send = [&conn](const Message& message) {
        const std::string frame = encode_frame(message);
        std::size_t sent = 0;
        while (sent < frame.size()) {
          const std::ptrdiff_t n =
              conn.write_some(frame.data() + sent, frame.size() - sent);
          if (n <= 0) return;
          sent += static_cast<std::size_t>(n);
        }
      };
      send(make_hello("faulty"));
      FrameAssembler assembler;
      std::string payload;
      char buf[1024];
      bool answered = false;
      for (;;) {
        const std::ptrdiff_t n = conn.read_some(buf, sizeof(buf));
        if (n == 0) break;  // the master closed us
        if (n > 0) assembler.feed(buf, static_cast<std::size_t>(n));
        while (!answered && assembler.next(payload)) {
          const Message m = decode_payload(payload);
          if (m.type == MsgType::kTask) {
            send(make_result(m.seq, {.reward = 0.5,
                                     .duration_seconds = -1.0}));
            answered = true;
          }
        }
      }
    }
    WorkerOptions wo;
    wo.port = port;
    wo.name = "honest";
    try {
      (void)run_worker(oracle, wo);
    } catch (const std::exception&) {
    }
  });
  const MasterResult got = master.run(net_method);
  faulty_then_honest.join();

  EXPECT_GE(got.worker_deaths, 1u);
  EXPECT_GE(got.redispatches, 1u);
  expect_matches_sim(got.sim, expected);
}

TEST(NetTransport, PauseCheckpointResumeMatchesUninterrupted) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const ClusterConfig cluster = small_cluster(6, 26);
  const std::string checkpoint =
      ::testing::TempDir() + "/net_resume_checkpoint.bin";

  AgingEvolution sim_method(space, {.seed = 17});
  const SimResult expected = simulate_async(sim_method, oracle, cluster);
  ASSERT_GT(expected.evals.size(), 30u);

  // Phase 1: run to a deterministic pause point and checkpoint.
  {
    AgingEvolution method(space, {.seed = 17});
    MasterOptions opts = master_options(cluster);
    opts.checkpoint_path = checkpoint;
    opts.stop_after_evaluations = 15;
    const MasterResult got = run_campaign(method, oracle, opts, 2);
    EXPECT_TRUE(got.stopped_early);
    EXPECT_EQ(got.sim.evals.size(), 15u);
  }

  // Phase 2: a fresh master + fresh method instance resume from the
  // checkpoint and must land on the uninterrupted trajectory bitwise.
  {
    AgingEvolution method(space, {.seed = 999});  // state comes from the file
    MasterOptions opts = master_options(cluster);
    opts.checkpoint_path = checkpoint;
    opts.resume = true;
    const MasterResult got = run_campaign(method, oracle, opts, 3);
    EXPECT_FALSE(got.stopped_early);
    expect_matches_sim(got.sim, expected);
  }
  std::remove(checkpoint.c_str());
}

TEST(NetTransport, ResumeRejectsMismatchedCampaign) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  const ClusterConfig cluster = small_cluster(4, 27);
  const std::string checkpoint =
      ::testing::TempDir() + "/net_mismatch_checkpoint.bin";

  {
    RandomSearch method(space, 14);
    MasterOptions opts = master_options(cluster);
    opts.checkpoint_path = checkpoint;
    opts.stop_after_evaluations = 5;
    (void)run_campaign(method, oracle, opts, 1);
  }

  // Different seed: the checkpoint must be refused, not silently merged.
  ClusterConfig other = cluster;
  other.seed = 12345;
  RandomSearch method(space, 14);
  MasterOptions opts = master_options(other);
  opts.checkpoint_path = checkpoint;
  opts.resume = true;
  NetMaster master(opts);
  EXPECT_THROW((void)master.run(method), std::runtime_error);
  std::remove(checkpoint.c_str());
}

TEST(NetTransport, SigkilledWorkerSubprocessDoesNotLoseTheCampaign) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  SurrogateEvaluator oracle(space);
  ClusterConfig cluster = small_cluster(4, 28);
  cluster.wall_time_seconds = 900.0;

  RandomSearch sim_method(space, 15);
  const SimResult expected = simulate_async(sim_method, oracle, cluster);
  ASSERT_GT(expected.evals.size(), 5u);

  RandomSearch net_method(space, 15);
  NetMaster master(master_options(cluster));
  const std::uint16_t port = master.port();

  // A real worker process (slowed to ~300 ms/eval so the SIGKILL lands
  // mid-evaluation), launched from the ctest working directory.
  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    const std::string port_arg = std::to_string(port);
    execl("./net_worker_helper", "net_worker_helper", "--port",
          port_arg.c_str(), "--slow-ms", "300", nullptr);
    _exit(127);  // exec failed
  }

  std::thread killer([&master, child] {
    // Wait until the helper has proven it works, then murder it while it
    // holds an assigned task.
    while (master.evaluations_completed() < 1) sleep_ms(10);
    sleep_ms(100);
    kill(child, SIGKILL);
  });

  // The honest worker joins only after the murder, so the killed helper
  // is guaranteed to have held in-flight work.
  std::thread honest([&oracle, port, child] {
    int status = 0;
    waitpid(child, &status, 0);
    WorkerOptions wo;
    wo.port = port;
    wo.name = "honest";
    try {
      (void)run_worker(oracle, wo);
    } catch (const std::exception&) {
    }
  });

  const MasterResult got = master.run(net_method);
  killer.join();
  honest.join();

  EXPECT_GE(got.workers_joined, 2u);
  EXPECT_GE(got.worker_deaths, 1u);
  EXPECT_GE(got.redispatches, 1u);
  EXPECT_FALSE(got.stopped_early);
  expect_matches_sim(got.sim, expected);
}

/// Adds real latency per evaluation so stop/kill tests have a campaign
/// that cannot race to completion.
class SlowedEvaluator final : public ArchitectureEvaluator {
 public:
  SlowedEvaluator(ArchitectureEvaluator& inner, int delay_ms)
      : inner_(&inner), delay_ms_(delay_ms) {}
  [[nodiscard]] EvalOutcome evaluate(const searchspace::Architecture& arch,
                                     std::uint64_t eval_seed) override {
    sleep_ms(delay_ms_);
    return inner_->evaluate(arch, eval_seed);
  }
  [[nodiscard]] bool thread_safe() const override {
    return inner_->thread_safe();
  }

 private:
  ArchitectureEvaluator* inner_;
  int delay_ms_;
};

TEST(NetTransport, RequestStopPausesPromptly) {
  SKIP_WITHOUT_LOOPBACK();
  const StackedLSTMSpace space;
  SurrogateEvaluator surrogate(space);
  SlowedEvaluator oracle(surrogate, 10);
  const ClusterConfig cluster = small_cluster(6, 29);

  RandomSearch method(space, 16);
  NetMaster master(master_options(cluster));
  auto workers = spawn_workers(oracle, master.port(), 2);
  std::thread stopper([&master] {
    while (master.evaluations_completed() < 5) sleep_ms(5);
    master.request_stop();
  });
  const MasterResult got = master.run(method);
  stopper.join();
  for (auto& t : workers) t.join();

  EXPECT_TRUE(got.stopped_early);
  EXPECT_GE(got.sim.evals.size(), 5u);
}

}  // namespace
}  // namespace geonas::hpc::net
