#include "hpc/net/master.hpp"

#include <algorithm>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hpc/net/frame.hpp"
#include "hpc/net/socket.hpp"
#include "hpc/theta.hpp"
#include "hpc/utilization.hpp"
#include "io/atomic_file.hpp"
#include "obs/metrics.hpp"
#include "tensor/random.hpp"

namespace geonas::hpc::net {

namespace {

constexpr char kCheckpointMagic[] = "GEONASNC";
constexpr std::uint32_t kCheckpointVersion = 1;
constexpr double kCurveDt = 60.0;  // matches the simulator's busy curve

/// Mirror of the simulator's EvalFate (cluster_sim.cpp keeps its own
/// private copy; the wire value is this one, pinned by the checkpoint
/// format).
enum class Fate : std::uint8_t {
  kOk = 0,
  kCrashed = 1,
  kStraggler = 2,
  kLost = 3,
};

void count_fate(FailureCounts& counts, Fate fate) {
  switch (fate) {
    case Fate::kCrashed: ++counts.worker_crashes; break;
    case Fate::kStraggler: ++counts.stragglers_killed; break;
    case Fate::kLost: ++counts.lost_results; break;
    case Fate::kOk: break;
  }
}

void bump(const char* name, std::uint64_t amount = 1) {
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter(name).add(amount);
  }
}

/// One virtually-launched evaluation whose outcome may still be in
/// flight on some worker.
struct Launch {
  std::uint64_t seq = 0;       // == the eval counter at launch
  std::size_t slot = 0;        // virtual worker slot (simulator "worker")
  double start = 0.0;          // virtual start time
  std::uint64_t eval_seed = 0;
  Fate fate = Fate::kOk;       // drawn at launch, simulator draw order
  double crash_fraction = 0.0; // drawn iff fate == kCrashed
  searchspace::Architecture arch;

  bool have_outcome = false;
  EvalOutcome outcome;
  double busy_end = 0.0;   // valid once have_outcome
  double resume_at = 0.0;  // valid once have_outcome
};

struct Conn {
  Socket socket;
  FrameAssembler assembler;
  std::string outbuf;
  std::string name;
  bool helloed = false;
  bool has_task = false;
  std::uint64_t task_seq = 0;
  bool dead = false;
};

}  // namespace

struct NetMaster::Impl {
  MasterOptions options;
  TcpListener listener;
  std::atomic<bool>* stop_flag;
  std::atomic<std::uint64_t>* completed_counter;

  // Virtual campaign state (everything the checkpoint captures).
  Rng rng{0};
  UtilizationTracker tracker;
  double coordinator_free = 0.0;
  std::uint64_t eval_counter = 0;
  std::map<std::uint64_t, Launch> outstanding;  // ordered: deterministic scans
  SimResult result;
  std::size_t workers_joined = 0;
  std::size_t worker_deaths = 0;
  std::size_t redispatches = 0;

  // Real transport state.
  std::deque<std::uint64_t> dispatch_queue;  // seqs awaiting a worker
  std::vector<Conn> conns;
  std::size_t last_checkpoint_evals = 0;
  std::uint64_t heartbeat_token = 0;

  Impl(MasterOptions opts, std::atomic<bool>* stop,
       std::atomic<std::uint64_t>* completed)
      : options(std::move(opts)),
        listener(options.bind_address, options.port),
        stop_flag(stop),
        completed_counter(completed),
        tracker(async_partition(options.cluster.nodes).total_nodes,
                options.cluster.wall_time_seconds) {}

  [[nodiscard]] double wall() const noexcept {
    return options.cluster.wall_time_seconds;
  }

  /// The simulator's launch() step, minus the evaluation itself: same
  /// coordinator bookkeeping, same RNG draw order (overhead, then —
  /// after ask() and the seed counter — the failure-fate draws). The
  /// evaluation ships to a remote worker via the dispatch queue.
  void launch(search::SearchMethod& method, std::size_t slot,
              double request_time) {
    const double service_start = std::max(request_time, coordinator_free);
    const double ask_done = service_start + options.cluster.coordinator_service;
    coordinator_free = ask_done;
    const double overhead =
        options.cluster.launch_overhead_mean > 0.0
            ? rng.exponential(1.0 / options.cluster.launch_overhead_mean)
            : 0.0;
    const double start = ask_done + overhead;
    if (start >= wall()) return;  // wall reached: this slot retires

    Launch l;
    l.slot = slot;
    l.start = start;
    l.arch = method.ask();
    l.seq = eval_counter;
    l.eval_seed = hash_combine(options.cluster.seed, eval_counter);
    ++eval_counter;
    const FailureModel& fm = options.cluster.failures;
    if (fm.crash_prob > 0.0 && rng.bernoulli(fm.crash_prob)) {
      l.fate = Fate::kCrashed;
      l.crash_fraction = rng.uniform();
    } else if (fm.straggler_prob > 0.0 && rng.bernoulli(fm.straggler_prob)) {
      l.fate = Fate::kStraggler;
    } else if (fm.lost_result_prob > 0.0 &&
               rng.bernoulli(fm.lost_result_prob)) {
      l.fate = Fate::kLost;
    }
    const std::uint64_t seq = l.seq;
    outstanding.emplace(seq, std::move(l));
    dispatch_queue.push_back(seq);
  }

  /// Fills in busy_end/resume_at once the outcome is known — the exact
  /// expressions of the simulator's draw_fate, evaluated with the
  /// fraction that was drawn at launch time.
  void apply_outcome(Launch& l, const EvalOutcome& outcome) {
    l.outcome = outcome;
    l.have_outcome = true;
    const double dur = outcome.duration_seconds;
    const FailureModel& fm = options.cluster.failures;
    l.busy_end = l.start + dur;
    l.resume_at = l.busy_end;
    if (l.fate == Fate::kCrashed) {
      l.busy_end = l.start + l.crash_fraction * dur;
      l.resume_at = l.busy_end + fm.restart_penalty_seconds;
    } else if (l.fate == Fate::kStraggler) {
      l.busy_end = l.start + fm.straggler_timeout_multiple * dur;
      l.resume_at = l.busy_end;
    }
  }

  /// Records an arriving result. Duplicates (a re-dispatched task whose
  /// original worker turned out to be alive) are ignored — evaluation is
  /// deterministic, so both copies are identical anyway.
  void on_result(std::uint64_t seq, const EvalOutcome& outcome) {
    auto it = outstanding.find(seq);
    if (it == outstanding.end() || it->second.have_outcome) return;
    apply_outcome(it->second, outcome);
    if (it->second.busy_end > wall()) {
      // The simulator never queues an evaluation that outlives the wall:
      // the node was busy to the wall (tracker clips) but the result is
      // discarded and the slot retires. No RNG or method calls — safe to
      // process eagerly, out of pop order.
      tracker.add_busy(it->second.start, it->second.busy_end);
      outstanding.erase(it);
    }
  }

  /// Pops the next completed launch in (busy_end, seq) order — but only
  /// when admissible: no launch with an in-flight outcome could complete
  /// earlier (completion >= start, so the earliest in-flight start is a
  /// safe lower bound). Returns false when the scheduler must wait for
  /// more results.
  bool try_pop(search::SearchMethod& method) {
    double min_inflight_start = std::numeric_limits<double>::infinity();
    const Launch* best = nullptr;
    for (const auto& [seq, l] : outstanding) {
      if (!l.have_outcome) {
        min_inflight_start = std::min(min_inflight_start, l.start);
      } else if (best == nullptr || l.busy_end < best->busy_end ||
                 (l.busy_end == best->busy_end && seq < best->seq)) {
        best = &l;
      }
    }
    if (best == nullptr || best->busy_end > min_inflight_start) return false;

    Launch done = std::move(outstanding.at(best->seq));
    outstanding.erase(done.seq);
    tracker.add_busy(done.start, done.busy_end);
    if (done.fate == Fate::kOk) {
      method.tell(done.arch, done.outcome.reward);
      result.evals.push_back({done.busy_end, done.outcome.reward,
                              done.outcome.duration_seconds,
                              done.outcome.params, done.arch.key()});
      completed_counter->store(result.evals.size());
    } else {
      count_fate(result.failures, done.fate);
    }
    launch(method, done.slot, done.resume_at);
    return true;
  }

  // ---- transport ----

  void queue_frame(Conn& conn, const Message& message) {
    conn.outbuf += encode_frame(message);
    bump("net.frames_sent");
    flush_conn(conn);
  }

  void flush_conn(Conn& conn) {
    while (!conn.outbuf.empty() && !conn.dead) {
      const std::ptrdiff_t n =
          conn.socket.write_some(conn.outbuf.data(), conn.outbuf.size());
      if (n == kWouldBlock) return;  // poll watches POLLOUT for us
      if (n == 0) {
        conn.dead = true;
        return;
      }
      bump("net.bytes_sent", static_cast<std::uint64_t>(n));
      conn.outbuf.erase(0, static_cast<std::size_t>(n));
    }
  }

  /// Drains readable bytes and handles every complete frame. Any frame
  /// error (bad CRC, desynchronized length, unknown type) condemns only
  /// this connection — its task is re-dispatched, the campaign carries
  /// on.
  void service_conn(Conn& conn) {
    char buf[4096];
    for (;;) {
      const std::ptrdiff_t n = conn.socket.read_some(buf, sizeof(buf));
      if (n == kWouldBlock) break;
      if (n == 0) {
        conn.dead = true;
        break;
      }
      bump("net.bytes_received", static_cast<std::uint64_t>(n));
      conn.assembler.feed(buf, static_cast<std::size_t>(n));
    }
    try {
      std::string payload;
      while (conn.assembler.next(payload)) {
        bump("net.frames_received");
        const Message m = decode_payload(payload);
        switch (m.type) {
          case MsgType::kHello:
            if (!conn.helloed) {
              conn.helloed = true;
              conn.name = m.worker_name;
              ++workers_joined;
              bump("net.workers_joined");
            }
            break;
          case MsgType::kResult:
            if (conn.has_task && conn.task_seq == m.seq) {
              conn.has_task = false;
            }
            on_result(m.seq, m.outcome);
            break;
          case MsgType::kHeartbeat:
            break;  // liveness echo; TCP already told us the peer is up
          case MsgType::kTask:
          case MsgType::kShutdown:
            break;  // master-to-worker types; ignore from a worker
        }
      }
    } catch (const std::exception&) {
      conn.dead = true;  // corrupt stream: drop the worker, keep the run
    }
  }

  void reap_dead_conns() {
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->dead) {
        ++it;
        continue;
      }
      if (it->helloed) {
        ++worker_deaths;
        bump("net.worker_deaths");
      }
      if (it->has_task) {
        auto found = outstanding.find(it->task_seq);
        if (found != outstanding.end() && !found->second.have_outcome) {
          // Front of the queue: the oldest interrupted work goes out
          // first. Determinism is unaffected — evaluation is a pure
          // function of (arch, eval_seed).
          dispatch_queue.push_front(it->task_seq);
          ++redispatches;
          bump("net.redispatches");
        }
      }
      it = conns.erase(it);
    }
    if (obs::MetricsRegistry* reg = obs::registry()) {
      reg->gauge("net.workers_connected")
          .set(static_cast<double>(conns.size()));
    }
  }

  void assign_tasks() {
    while (!dispatch_queue.empty()) {
      const std::uint64_t seq = dispatch_queue.front();
      auto found = outstanding.find(seq);
      if (found == outstanding.end() || found->second.have_outcome) {
        dispatch_queue.pop_front();  // already answered by a duplicate
        continue;
      }
      Conn* idle = nullptr;
      for (Conn& c : conns) {
        if (c.helloed && !c.dead && !c.has_task) {
          idle = &c;
          break;
        }
      }
      if (idle == nullptr) return;  // all workers busy (or none yet)
      dispatch_queue.pop_front();
      idle->has_task = true;
      idle->task_seq = seq;
      queue_frame(*idle, make_task(seq, found->second.eval_seed,
                                   found->second.arch));
    }
  }

  void send_heartbeats() {
    ++heartbeat_token;
    for (Conn& c : conns) {
      if (c.helloed && !c.dead && !c.has_task) {
        queue_frame(c, make_heartbeat(heartbeat_token));
      }
    }
  }

  void accept_new_conns() {
    for (;;) {
      Socket incoming = listener.accept_connection();
      if (!incoming.valid()) break;
      Conn conn;
      conn.socket = std::move(incoming);
      conns.push_back(std::move(conn));
    }
  }

  /// One poll round: wait for socket events (or the timeout), then
  /// accept/read/flush as indicated. Only the connections that were
  /// polled are serviced; ones accepted this round are polled next round.
  void poll_round(int timeout_ms) {
    const std::size_t polled = conns.size();
    std::vector<PollEntry> entries(polled + 1);
    entries[0].fd = listener.fd();
    for (std::size_t i = 0; i < polled; ++i) {
      entries[i + 1].fd = conns[i].socket.fd();
      entries[i + 1].want_write = !conns[i].outbuf.empty();
    }
    poll_sockets(entries, timeout_ms);
    if (entries[0].readable) accept_new_conns();
    for (std::size_t i = 0; i < polled; ++i) {
      PollEntry& e = entries[i + 1];
      if (e.error) conns[i].dead = true;
      if (!conns[i].dead && e.readable) service_conn(conns[i]);
      if (!conns[i].dead && e.writable) flush_conn(conns[i]);
    }
    reap_dead_conns();
  }

  void shutdown_workers() {
    for (Conn& c : conns) {
      if (!c.dead) queue_frame(c, make_shutdown());
    }
    // Best-effort flush: workers also exit on EOF, so a slow peer only
    // misses the courtesy frame.
    for (int round = 0; round < 20; ++round) {
      bool pending = false;
      for (Conn& c : conns) {
        if (!c.dead && !c.outbuf.empty()) {
          flush_conn(c);
          pending = pending || !c.outbuf.empty();
        }
      }
      if (!pending) break;
      sleep_ms(5);
    }
    conns.clear();
  }

  // ---- checkpointing ----

  void save_checkpoint(search::SearchMethod& method) const {
    io::atomic_write_file(
        options.checkpoint_path,
        [&](std::ostream& os) {
          io::BinaryWriter w(os, kCheckpointMagic, kCheckpointVersion);
          w.str(method.name());
          const ClusterConfig& c = options.cluster;
          w.u64(c.nodes);
          w.f64(c.wall_time_seconds);
          w.f64(c.coordinator_service);
          w.f64(c.launch_overhead_mean);
          w.f64(c.failures.crash_prob);
          w.f64(c.failures.restart_penalty_seconds);
          w.f64(c.failures.straggler_prob);
          w.f64(c.failures.straggler_timeout_multiple);
          w.f64(c.failures.lost_result_prob);
          w.u64(c.seed);
          search::write_rng_state(w, rng);
          w.f64(coordinator_free);
          w.u64(eval_counter);
          w.u64(result.evals.size());
          for (const CompletedEval& e : result.evals) {
            w.f64(e.completed_at);
            w.f64(e.reward);
            w.f64(e.duration);
            w.u64(e.params);
            w.str(e.arch_key);
          }
          w.u64(result.failures.worker_crashes);
          w.u64(result.failures.stragglers_killed);
          w.u64(result.failures.lost_results);
          w.u64(workers_joined);
          w.u64(worker_deaths);
          w.u64(redispatches);
          const auto& intervals = tracker.intervals();
          w.u64(intervals.size());
          for (const auto& [s, e] : intervals) {
            w.f64(s);
            w.f64(e);
          }
          w.u64(outstanding.size());
          for (const auto& [seq, l] : outstanding) {
            w.u64(seq);
            w.u64(l.slot);
            w.f64(l.start);
            w.u64(l.eval_seed);
            w.u8(static_cast<std::uint8_t>(l.fate));
            w.f64(l.crash_fraction);
            search::write_architecture(w, l.arch);
          }
          method.save(w);
          w.finish();
        },
        "net_master_checkpoint");
  }

  void require(bool ok, const std::string& what) const {
    if (!ok) {
      throw std::runtime_error(
          "NetMaster: checkpoint '" + options.checkpoint_path +
          "' does not match this campaign (" + what +
          " differs) — refusing to resume");
    }
  }

  void load_checkpoint(search::SearchMethod& method) {
    std::ifstream in(options.checkpoint_path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("NetMaster: cannot open checkpoint '" +
                               options.checkpoint_path + "' for resume");
    }
    io::BinaryReader r(in, kCheckpointMagic, kCheckpointVersion,
                       kCheckpointVersion);
    require(r.str("method") == method.name(), "search method");
    const ClusterConfig& c = options.cluster;
    require(r.u64("nodes") == c.nodes, "nodes");
    require(r.f64("wall") == c.wall_time_seconds, "wall time");
    require(r.f64("service") == c.coordinator_service, "coordinator service");
    require(r.f64("overhead") == c.launch_overhead_mean, "launch overhead");
    require(r.f64("crash_prob") == c.failures.crash_prob, "crash prob");
    require(r.f64("restart") == c.failures.restart_penalty_seconds,
            "restart penalty");
    require(r.f64("straggler_prob") == c.failures.straggler_prob,
            "straggler prob");
    require(r.f64("straggler_mult") == c.failures.straggler_timeout_multiple,
            "straggler multiple");
    require(r.f64("lost_prob") == c.failures.lost_result_prob, "lost prob");
    require(r.u64("seed") == c.seed, "seed");
    search::read_rng_state(r, rng);
    coordinator_free = r.f64("coordinator_free");
    eval_counter = r.u64("eval_counter");
    const std::uint64_t evals = r.u64("evals");
    result.evals.clear();
    result.evals.reserve(static_cast<std::size_t>(evals));
    for (std::uint64_t i = 0; i < evals; ++i) {
      CompletedEval e;
      e.completed_at = r.f64("completed_at");
      e.reward = r.f64("reward");
      e.duration = r.f64("duration");
      e.params = static_cast<std::size_t>(r.u64("params"));
      e.arch_key = r.str("arch_key");
      result.evals.push_back(std::move(e));
    }
    result.failures.worker_crashes =
        static_cast<std::size_t>(r.u64("worker_crashes"));
    result.failures.stragglers_killed =
        static_cast<std::size_t>(r.u64("stragglers_killed"));
    result.failures.lost_results =
        static_cast<std::size_t>(r.u64("lost_results"));
    workers_joined = static_cast<std::size_t>(r.u64("workers_joined"));
    worker_deaths = static_cast<std::size_t>(r.u64("worker_deaths"));
    redispatches = static_cast<std::size_t>(r.u64("redispatches"));
    const std::uint64_t n_intervals = r.u64("intervals");
    std::vector<std::pair<double, double>> intervals;
    intervals.reserve(static_cast<std::size_t>(n_intervals));
    for (std::uint64_t i = 0; i < n_intervals; ++i) {
      const double s = r.f64("interval_start");
      const double e = r.f64("interval_end");
      intervals.emplace_back(s, e);
    }
    tracker.restore_intervals(std::move(intervals));
    outstanding.clear();
    dispatch_queue.clear();
    const std::uint64_t n_outstanding = r.u64("outstanding");
    for (std::uint64_t i = 0; i < n_outstanding; ++i) {
      Launch l;
      l.seq = r.u64("seq");
      l.slot = static_cast<std::size_t>(r.u64("slot"));
      l.start = r.f64("start");
      l.eval_seed = r.u64("eval_seed");
      l.fate = static_cast<Fate>(r.u8("fate"));
      l.crash_fraction = r.f64("crash_fraction");
      l.arch = search::read_architecture(r);
      const std::uint64_t seq = l.seq;
      outstanding.emplace(seq, std::move(l));
      // std::map iterates ascending, so interrupted work re-dispatches
      // oldest-first.
      dispatch_queue.push_back(seq);
    }
    method.load(r);
    r.finish();
    completed_counter->store(result.evals.size());
  }

  void maybe_checkpoint(search::SearchMethod& method) {
    if (options.checkpoint_path.empty() || options.checkpoint_every == 0) {
      return;
    }
    if (result.evals.size() - last_checkpoint_evals >=
        options.checkpoint_every) {
      save_checkpoint(method);
      last_checkpoint_evals = result.evals.size();
    }
  }
};

NetMaster::NetMaster(MasterOptions options)
    : impl_(new Impl(std::move(options), &stop_requested_,
                     &evals_completed_)) {}

NetMaster::~NetMaster() { delete impl_; }

std::uint16_t NetMaster::port() const noexcept {
  return impl_->listener.port();
}

MasterResult NetMaster::run(search::SearchMethod& method) {
  Impl& m = *impl_;
  if (!m.options.checkpoint_path.empty() && !method.checkpointable()) {
    throw std::runtime_error("NetMaster: method '" + method.name() +
                             "' does not support checkpointing but "
                             "checkpoint_path is set");
  }

  if (m.options.resume) {
    m.load_checkpoint(method);
  } else {
    m.rng = Rng(hash_combine(m.options.cluster.seed, 0xA51ULL));
    const ThetaPartition part = async_partition(m.options.cluster.nodes);
    for (std::size_t w = 0; w < part.workers; ++w) m.launch(method, w, 0.0);
  }
  m.last_checkpoint_evals = m.result.evals.size();

  obs::StopWatch elapsed;
  obs::StopWatch since_heartbeat;
  auto stop_now = [&]() {
    return stop_requested_.load() ||
           (m.options.stop_after_evaluations > 0 &&
            m.result.evals.size() >= m.options.stop_after_evaluations);
  };

  bool paused = stop_now();
  while (!paused && !m.outstanding.empty()) {
    if (m.options.real_time_limit_seconds > 0.0 &&
        elapsed.seconds() > m.options.real_time_limit_seconds) {
      throw std::runtime_error(
          "NetMaster: campaign exceeded the real-time limit of " +
          std::to_string(m.options.real_time_limit_seconds) +
          " s with " + std::to_string(m.conns.size()) +
          " worker(s) connected and " + std::to_string(m.outstanding.size()) +
          " evaluation(s) outstanding — are any workers running?");
    }
    m.poll_round(m.options.poll_timeout_ms);
    while (!stop_now() && m.try_pop(method)) {
      m.maybe_checkpoint(method);
    }
    m.assign_tasks();
    if (m.options.heartbeat_seconds > 0.0 &&
        since_heartbeat.seconds() >= m.options.heartbeat_seconds) {
      m.send_heartbeats();
      since_heartbeat.reset();
    }
    paused = stop_now();
  }

  if (!m.options.checkpoint_path.empty()) m.save_checkpoint(method);
  m.shutdown_workers();

  MasterResult out;
  out.sim.evals = m.result.evals;
  out.sim.failures = m.result.failures;
  out.sim.utilization = m.tracker.utilization_auc();
  out.sim.busy_curve = m.tracker.busy_fraction_curve(kCurveDt);
  out.workers_joined = m.workers_joined;
  out.worker_deaths = m.worker_deaths;
  out.redispatches = m.redispatches;
  out.stopped_early = paused;
  if (obs::MetricsRegistry* reg = obs::registry()) {
    const std::string prefix = "net.master." + method.name();
    reg->counter(prefix + ".evals").add(out.sim.evals.size());
    reg->gauge(prefix + ".utilization_auc").set(out.sim.utilization);
  }
  return out;
}

}  // namespace geonas::hpc::net
