#include "hpc/net/frame.hpp"

#include <sstream>
#include <stdexcept>

#include "io/binary.hpp"
#include "search/search_method.hpp"

namespace geonas::hpc::net {

Message make_hello(std::string worker_name) {
  Message m;
  m.type = MsgType::kHello;
  m.worker_name = std::move(worker_name);
  return m;
}

Message make_task(std::uint64_t seq, std::uint64_t eval_seed,
                  searchspace::Architecture arch) {
  Message m;
  m.type = MsgType::kTask;
  m.seq = seq;
  m.eval_seed = eval_seed;
  m.arch = std::move(arch);
  return m;
}

Message make_result(std::uint64_t seq, const EvalOutcome& outcome) {
  Message m;
  m.type = MsgType::kResult;
  m.seq = seq;
  m.outcome = outcome;
  return m;
}

Message make_heartbeat(std::uint64_t seq) {
  Message m;
  m.type = MsgType::kHeartbeat;
  m.seq = seq;
  return m;
}

Message make_shutdown() {
  Message m;
  m.type = MsgType::kShutdown;
  return m;
}

std::string encode_frame(const Message& message) {
  std::ostringstream payload_stream;
  io::BinaryWriter writer(payload_stream, kFrameMagic, kFrameVersion);
  writer.u8(static_cast<std::uint8_t>(message.type));
  switch (message.type) {
    case MsgType::kHello:
      writer.str(message.worker_name);
      break;
    case MsgType::kTask:
      writer.u64(message.seq);
      writer.u64(message.eval_seed);
      search::write_architecture(writer, message.arch);
      break;
    case MsgType::kResult:
      writer.u64(message.seq);
      writer.f64(message.outcome.reward);
      writer.f64(message.outcome.duration_seconds);
      writer.u64(message.outcome.params);
      writer.u8(message.outcome.failed ? 1 : 0);
      break;
    case MsgType::kHeartbeat:
      writer.u64(message.seq);
      break;
    case MsgType::kShutdown:
      break;
  }
  writer.finish();

  const std::string payload = payload_stream.str();
  if (payload.size() > kMaxFrameBytes) {
    throw std::runtime_error("net: encoded frame of " +
                             std::to_string(payload.size()) +
                             " bytes exceeds the frame limit");
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  const auto length = static_cast<std::uint32_t>(payload.size());
  for (std::size_t i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((length >> (8 * i)) & 0xFF));
  }
  frame.append(payload);
  return frame;
}

Message decode_payload(const std::string& payload) {
  std::istringstream stream(payload);
  io::BinaryReader reader(stream, kFrameMagic, kFrameVersion, kFrameVersion);
  Message m;
  const std::uint8_t raw_type = reader.u8("msg_type");
  switch (static_cast<MsgType>(raw_type)) {
    case MsgType::kHello:
      m.type = MsgType::kHello;
      m.worker_name = reader.str("worker_name", 4096);
      break;
    case MsgType::kTask:
      m.type = MsgType::kTask;
      m.seq = reader.u64("seq");
      m.eval_seed = reader.u64("eval_seed");
      m.arch = search::read_architecture(reader);
      break;
    case MsgType::kResult:
      m.type = MsgType::kResult;
      m.seq = reader.u64("seq");
      m.outcome.reward = reader.f64("reward");
      m.outcome.duration_seconds = reader.f64("duration");
      m.outcome.params = reader.u64("params");
      m.outcome.failed = reader.u8("failed") != 0;
      break;
    case MsgType::kHeartbeat:
      m.type = MsgType::kHeartbeat;
      m.seq = reader.u64("seq");
      break;
    case MsgType::kShutdown:
      m.type = MsgType::kShutdown;
      break;
    default:
      throw std::runtime_error("net: unknown message type " +
                               std::to_string(raw_type) + " in frame");
  }
  reader.finish();
  return m;
}

void FrameAssembler::feed(const char* data, std::size_t size) {
  // Compact lazily: drop the consumed prefix only once it dominates the
  // buffer, so per-feed cost stays amortized O(bytes).
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

bool FrameAssembler::next(std::string& payload) {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return false;
  const auto* raw =
      reinterpret_cast<const unsigned char*>(buffer_.data() + consumed_);
  std::uint32_t length = 0;
  for (std::size_t i = 4; i > 0; --i) {
    length = (length << 8) | raw[i - 1];
  }
  if (length > kMaxFrameBytes) {
    throw std::runtime_error(
        "net: frame length prefix " + std::to_string(length) +
        " exceeds the " + std::to_string(kMaxFrameBytes) +
        "-byte limit — stream is desynchronized or corrupt");
  }
  if (available < 4 + static_cast<std::size_t>(length)) return false;
  payload.assign(buffer_, consumed_ + 4, length);
  consumed_ += 4 + static_cast<std::size_t>(length);
  return true;
}

}  // namespace geonas::hpc::net
