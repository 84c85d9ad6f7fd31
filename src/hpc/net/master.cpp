#include "hpc/net/master.hpp"

#include <deque>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hpc/async_campaign.hpp"
#include "hpc/net/frame.hpp"
#include "hpc/net/socket.hpp"
#include "io/atomic_file.hpp"
#include "obs/metrics.hpp"

namespace geonas::hpc::net {

namespace {

void bump(const char* name, std::uint64_t amount = 1) {
  if (obs::MetricsRegistry* reg = obs::registry()) {
    reg->counter(name).add(amount);
  }
}

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
  std::size_t workers_joined = 0;
  std::size_t worker_deaths = 0;
  std::size_t redispatches = 0;

  std::deque<std::uint64_t> redispatch;  // seqs stranded by dead workers
  std::vector<Conn> conns;
  std::size_t last_checkpoint_evals = 0;
  std::uint64_t heartbeat_token = 0;

  explicit Impl(MasterOptions opts)
      : options(std::move(opts)),
        listener(options.bind_address, options.port) {}

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
  void service_conn(Conn& conn, AsyncCampaign& campaign) {
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
            // A duplicate (a re-dispatched task whose first worker was
            // alive after all) is ignored: evaluation is deterministic.
            // An outcome the campaign refuses throws before the task is
            // released, so it is re-dispatched with this connection.
            if (const AsyncCampaign::Launch* l = campaign.awaiting(m.seq)) {
              campaign.apply_outcome(*l, m.outcome);
            }
            if (conn.has_task && conn.task_seq == m.seq) {
              conn.has_task = false;
            }
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

  void reap_dead_conns(const AsyncCampaign& campaign) {
    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->dead) {
        ++it;
        continue;
      }
      if (it->helloed) {
        ++worker_deaths;
        bump("net.worker_deaths");
      }
      if (it->has_task && campaign.awaiting(it->task_seq) != nullptr) {
        // Interrupted work goes out before fresh launches. Determinism
        // is unaffected: evaluation is a pure function of (arch,
        // eval_seed).
        redispatch.push_back(it->task_seq);
        ++redispatches;
        bump("net.redispatches");
      }
      it = conns.erase(it);
    }
    if (obs::MetricsRegistry* reg = obs::registry()) {
      reg->gauge("net.workers_connected")
          .set(static_cast<double>(conns.size()));
    }
  }

  /// The next launch a worker should evaluate: stranded work first
  /// (unless a duplicate answered it meanwhile), then fresh launches.
  const AsyncCampaign::Launch* next_task(AsyncCampaign& campaign) {
    while (!redispatch.empty()) {
      const AsyncCampaign::Launch* l = campaign.awaiting(redispatch.front());
      redispatch.pop_front();
      if (l != nullptr) return l;
    }
    return campaign.take_launch();
  }

  void assign_tasks(AsyncCampaign& campaign) {
    for (Conn& c : conns) {
      if (!c.helloed || c.dead || c.has_task) continue;
      const AsyncCampaign::Launch* l = next_task(campaign);
      if (l == nullptr) return;
      c.has_task = true;
      c.task_seq = l->seq;
      queue_frame(c, make_task(l->seq, l->eval_seed, l->arch));
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
  void poll_round(int timeout_ms, AsyncCampaign& campaign) {
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
      if (!conns[i].dead && e.readable) service_conn(conns[i], campaign);
      if (!conns[i].dead && e.writable) flush_conn(conns[i]);
    }
    reap_dead_conns(campaign);
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

  // ---- checkpointing: the campaign's block, then the transport counters

  void save_checkpoint(const AsyncCampaign& campaign) const {
    io::atomic_write_file(
        options.checkpoint_path,
        [&](std::ostream& os) {
          io::BinaryWriter w(os, AsyncCampaign::kCheckpointMagic,
                             AsyncCampaign::kCheckpointVersion);
          campaign.save(w);
          for (const std::size_t n :
               {workers_joined, worker_deaths, redispatches}) {
            w.u64(n);
          }
          w.finish();
        },
        "net_master_checkpoint");
  }

  void load_checkpoint(AsyncCampaign& campaign) {
    std::ifstream in(options.checkpoint_path, std::ios::binary);
    if (!in) {
      throw std::runtime_error("NetMaster: cannot open checkpoint '" +
                               options.checkpoint_path + "' for resume");
    }
    io::BinaryReader r(in, AsyncCampaign::kCheckpointMagic,
                       AsyncCampaign::kCheckpointVersion,
                       AsyncCampaign::kCheckpointVersion);
    campaign.load(r);
    workers_joined = static_cast<std::size_t>(r.u64("workers_joined"));
    worker_deaths = static_cast<std::size_t>(r.u64("worker_deaths"));
    redispatches = static_cast<std::size_t>(r.u64("redispatches"));
    r.finish();
  }

  void maybe_checkpoint(const AsyncCampaign& campaign) {
    if (options.checkpoint_path.empty() || options.checkpoint_every == 0) {
      return;
    }
    if (campaign.evaluations() - last_checkpoint_evals >=
        options.checkpoint_every) {
      save_checkpoint(campaign);
      last_checkpoint_evals = campaign.evaluations();
    }
  }
};

NetMaster::NetMaster(MasterOptions options)
    : impl_(new Impl(std::move(options))) {}

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

  AsyncCampaign campaign(method, m.options.cluster);
  if (m.options.resume) {
    m.load_checkpoint(campaign);
  } else {
    campaign.start();
  }
  m.last_checkpoint_evals = campaign.evaluations();
  evals_completed_.store(campaign.evaluations());

  obs::StopWatch elapsed;
  obs::StopWatch since_heartbeat;
  auto stop_now = [&]() {
    return stop_requested_.load() ||
           (m.options.stop_after_evaluations > 0 &&
            campaign.evaluations() >= m.options.stop_after_evaluations);
  };

  bool paused = stop_now();
  while (!paused && campaign.outstanding() > 0) {
    if (m.options.real_time_limit_seconds > 0.0 &&
        elapsed.seconds() > m.options.real_time_limit_seconds) {
      throw std::runtime_error(
          "NetMaster: campaign exceeded the real-time limit of " +
          std::to_string(m.options.real_time_limit_seconds) +
          " s with " + std::to_string(m.conns.size()) +
          " worker(s) connected and " +
          std::to_string(campaign.outstanding()) +
          " evaluation(s) outstanding — are any workers running?");
    }
    m.poll_round(m.options.poll_timeout_ms, campaign);
    while (!stop_now() && campaign.try_pop()) {
      evals_completed_.store(campaign.evaluations());
      m.maybe_checkpoint(campaign);
    }
    m.assign_tasks(campaign);
    if (m.options.heartbeat_seconds > 0.0 &&
        since_heartbeat.seconds() >= m.options.heartbeat_seconds) {
      m.send_heartbeats();
      since_heartbeat.reset();
    }
    paused = stop_now();
  }

  if (!m.options.checkpoint_path.empty()) m.save_checkpoint(campaign);
  m.shutdown_workers();

  MasterResult out;
  out.sim = std::move(campaign).result();
  out.workers_joined = m.workers_joined;
  out.worker_deaths = m.worker_deaths;
  out.redispatches = m.redispatches;
  out.stopped_early = paused;
  export_sim_telemetry("net.master." + method.name(), out.sim);
  return out;
}

}  // namespace geonas::hpc::net
