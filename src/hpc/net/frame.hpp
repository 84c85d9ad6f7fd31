// Wire format of the master/worker transport.
//
// Every message travels as one frame:
//
//   u32 LE payload length | payload
//
// where the payload is a self-validating geonas::io container (magic
// "GEONASN1", version, fields, CRC-32 trailer) — the same primitives that
// protect weight files and checkpoints protect every byte on the socket,
// so a truncated or corrupted frame throws a field-and-offset diagnostic
// instead of desynchronizing the stream. Payload layout (DESIGN.md
// "Distributed transport"):
//
//   msg_type u8, then per type:
//     kHello      worker_name str
//     kTask       seq u64, eval_seed u64, arch (u64 count + u32 genes)
//     kResult     seq u64, reward f64, duration f64, params u64, failed u8
//     kHeartbeat  seq u64 (echo token)
//     kShutdown   (empty)
//
// FrameAssembler turns an arbitrary byte dribble (TCP delivers whatever
// it likes) back into complete payloads; io::BinaryReader only ever sees
// fully assembled frames, so it never blocks on a socket.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hpc/evaluator.hpp"
#include "searchspace/architecture.hpp"

namespace geonas::hpc::net {

inline constexpr char kFrameMagic[] = "GEONASN1";
inline constexpr std::uint32_t kFrameVersion = 1;
/// Frames are tiny (an architecture is a handful of genes); anything
/// larger than this is a desynchronized or hostile stream.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,
  kTask = 2,
  kResult = 3,
  kHeartbeat = 4,
  kShutdown = 5,
};

/// One decoded transport message (tagged by `type`; unrelated fields are
/// left at their defaults).
struct Message {
  MsgType type = MsgType::kHeartbeat;
  std::string worker_name;            // kHello
  std::uint64_t seq = 0;              // kTask / kResult / kHeartbeat
  std::uint64_t eval_seed = 0;        // kTask
  searchspace::Architecture arch;     // kTask
  EvalOutcome outcome;                // kResult
};

[[nodiscard]] Message make_hello(std::string worker_name);
[[nodiscard]] Message make_task(std::uint64_t seq, std::uint64_t eval_seed,
                                searchspace::Architecture arch);
[[nodiscard]] Message make_result(std::uint64_t seq,
                                  const EvalOutcome& outcome);
[[nodiscard]] Message make_heartbeat(std::uint64_t seq);
[[nodiscard]] Message make_shutdown();

/// Serializes `message` into a complete frame (length prefix included).
[[nodiscard]] std::string encode_frame(const Message& message);

/// Parses one assembled payload (no length prefix). Throws on bad magic,
/// version, CRC, truncation, or an unknown message type.
[[nodiscard]] Message decode_payload(const std::string& payload);

/// Reassembles frames from a TCP byte stream. Feed whatever arrived;
/// complete payloads come out in order. Throws when a length prefix
/// exceeds kMaxFrameBytes (stream desync — the connection is unusable).
class FrameAssembler {
 public:
  void feed(const char* data, std::size_t size);

  /// Extracts the next complete payload into `payload`; false when no
  /// full frame is buffered yet.
  [[nodiscard]] bool next(std::string& payload);

  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;  // prefix of buffer_ already handed out
};

}  // namespace geonas::hpc::net
