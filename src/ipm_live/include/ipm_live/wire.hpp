// ipm_agg wire protocol v1: length-prefixed frames with a versioned
// binary header carrying (job id, rank, epoch), used between the in-process
// SocketSink client and the out-of-process `ipm_aggd` aggregation daemon.
//
// Frame layout (all integers little-endian):
//
//   u32 len          // bytes that FOLLOW this field (header + payload)
//   u8  version      // kWireVersion (1)
//   u8  type         // FrameType below
//   u16 job_len      // length of the job-id string
//   u32 rank         // sending / addressed rank (0 when not rank-scoped)
//   u64 epoch        // per-(job, rank) sample epoch; 0 = "none"
//   ... job_len bytes of job id ...
//   ... payload (len - kHeaderBytes - job_len bytes) ...
//
// The *epoch* of a sample is defined as Sample::seq + 1, so epoch 0 means
// "no sample applied yet" and the daemon's WELCOME can use plain zero
// initialization.  Epochs are strictly increasing per (job, rank); the
// daemon applies a SAMPLE frame only when its epoch exceeds the last
// applied one, which makes client resends after a lost connection
// idempotent (no delta is ever double-counted).
//
// Frames flowing client -> daemon:
//   kHello     payload hello_payload(): {"ipm_agg":1,"command":..,"interval":..}
//   kSample    payload sample_line() JSON (self-describing deltas)
//   kRankFin   rank finished (its final-flush samples precede this frame);
//              payload rank_fin_payload(): {"samples":..,"drops":..}, or
//              empty from the file-tail transport
//   kJobEnd    client is done with the job; daemon flushes and acks
// Frames flowing daemon -> client:
//   kWelcome   payload welcome_payload(): {"ranks":[{"rank":..,"epoch":..},..]}
//              — resume state
//   kAck       header epoch = highest applied epoch for header rank
//   kJobEndAck job outputs are durable; client may close
//
// Every payload is written by simx::JsonlWriter and read back by a strict
// mirror on simx::JsonlReader that accepts exactly the writer's bytes; the
// daemon counts a payload its reader rejects as a protocol error.  The
// daemon encodes its replies in place (encode_to), appending each frame to
// the bytes it sends.
//
// The decoder is a strict incremental parser: a frame whose length field
// is out of range, whose version is unknown, or whose job_len overruns the
// frame is a protocol error — the connection carrying it must be dropped.
// Bytes after a valid prefix simply wait for more input; EOF in the middle
// of a frame is a *truncated frame* and likewise rejected by the caller.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ipm::live::wire {

inline constexpr std::uint8_t kWireVersion = 1;
/// Fixed header bytes after the length field.
inline constexpr std::size_t kHeaderBytes = 16;
/// Upper bound on a whole frame (a sample line of a busy rank is ~KBs).
inline constexpr std::uint32_t kMaxFrameLen = 16u << 20;
inline constexpr std::size_t kMaxJobLen = 256;

enum class FrameType : std::uint8_t {
  kHello = 'H',
  kSample = 'S',
  kRankFin = 'F',
  kJobEnd = 'E',
  kWelcome = 'W',
  kAck = 'A',
  kJobEndAck = 'K',
};

/// True for the seven known frame types above.
[[nodiscard]] bool valid_type(std::uint8_t t) noexcept;

struct Frame {
  FrameType type = FrameType::kHello;
  std::uint32_t rank = 0;
  std::uint64_t epoch = 0;
  std::string job;
  std::string payload;
};

/// Append one frame, length prefix included, to `out` — the daemon encodes
/// its ACKs in place this way, straight into the bytes it sends.  Throws
/// std::invalid_argument, with `out` unchanged, when the job id or payload
/// exceed the protocol bounds.
void encode_to(std::string& out, FrameType type, std::string_view job,
               std::uint32_t rank, std::uint64_t epoch, std::string_view payload);

/// Serialize `f` (length prefix included): encode_to into a new string.
[[nodiscard]] std::string encode(const Frame& f);

/// Incremental frame parser over a byte stream.  feed() appends bytes;
/// next() extracts the earliest complete frame.  After any error the
/// decoder is poisoned: next() keeps returning false and error() stays set
/// (the connection must be dropped, per the protocol).
class Decoder {
 public:
  void feed(const char* data, std::size_t n);

  /// Extract one complete frame into `out`.  Returns false when no
  /// complete frame is buffered (or the stream is poisoned).
  bool next(Frame& out);

  /// Protocol violation description ("" when healthy).
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

  /// Bytes buffered but not yet consumed (nonzero at EOF = truncated frame).
  [[nodiscard]] std::size_t pending() const noexcept { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
  std::string error_;
};

// --- payload codec shared by client and daemon ------------------------------
// Each parse_* returns false, with its outputs unspecified, on any bytes its
// writer does not emit.

/// Payload of a kHello frame.
[[nodiscard]] std::string hello_payload(const std::string& command, double interval);
[[nodiscard]] bool parse_hello(std::string_view payload, std::string& command,
                               double& interval);

/// Payload of a kWelcome frame from per-rank resume epochs.
[[nodiscard]] std::string welcome_payload(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& epochs);
/// (rank, epoch) pairs of a kWelcome payload; empty when it is rejected.
[[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint64_t>> parse_welcome(
    std::string_view payload);

/// Payload of a kRankFin frame.
[[nodiscard]] std::string rank_fin_payload(std::uint64_t samples, std::uint64_t drops);
/// Also accepts the empty payload of the file-tail transport, as zeros.
[[nodiscard]] bool parse_rank_fin(std::string_view payload, std::uint64_t& samples,
                                  std::uint64_t& drops);

}  // namespace ipm::live::wire
