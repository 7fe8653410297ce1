// Frame codec for the ipm_agg wire protocol (see wire.hpp).
#include "ipm_live/wire.hpp"

#include <stdexcept>

#include "simcommon/jsonl.hpp"
#include "simcommon/str.hpp"

namespace ipm::live::wire {

namespace {

/// Write the low `bytes` bytes of `v` at `p`, little-endian.
void put_le(char* p, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint64_t get_le(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

bool valid_type(std::uint8_t t) noexcept {
  switch (static_cast<FrameType>(t)) {
    case FrameType::kHello:
    case FrameType::kSample:
    case FrameType::kRankFin:
    case FrameType::kJobEnd:
    case FrameType::kWelcome:
    case FrameType::kAck:
    case FrameType::kJobEndAck:
      return true;
  }
  return false;
}

void encode_to(std::string& out, FrameType type, std::string_view job,
               std::uint32_t rank, std::uint64_t epoch, std::string_view payload) {
  if (job.size() > kMaxJobLen) {
    throw std::invalid_argument("ipm_agg: job id exceeds protocol bound");
  }
  const std::size_t len = kHeaderBytes + job.size() + payload.size();
  if (len > kMaxFrameLen) {
    throw std::invalid_argument("ipm_agg: frame exceeds protocol bound");
  }
  char head[4 + kHeaderBytes];
  put_le(head, len, 4);
  head[4] = static_cast<char>(kWireVersion);
  head[5] = static_cast<char>(type);
  put_le(head + 6, job.size(), 2);
  put_le(head + 8, rank, 4);
  put_le(head + 12, epoch, 8);
  out.append(head, sizeof head);
  out.append(job);
  out.append(payload);
}

std::string encode(const Frame& f) {
  std::string out;
  out.reserve(4 + kHeaderBytes + f.job.size() + f.payload.size());
  encode_to(out, f.type, f.job, f.rank, f.epoch, f.payload);
  return out;
}

void Decoder::feed(const char* data, std::size_t n) {
  if (!error_.empty()) return;
  // Compact consumed bytes before growing (keeps the buffer ~frame-sized).
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > (64u << 10)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

bool Decoder::next(Frame& out) {
  if (!error_.empty()) return false;
  if (buf_.size() - pos_ < 4) return false;
  const std::uint64_t len = get_le(buf_.data() + pos_, 4);
  if (len < kHeaderBytes || len > kMaxFrameLen) {
    error_ = simx::strprintf("frame length %llu out of range",
                             static_cast<unsigned long long>(len));
    return false;
  }
  if (buf_.size() - pos_ < 4 + len) return false;
  const char* h = buf_.data() + pos_ + 4;
  const auto version = static_cast<std::uint8_t>(h[0]);
  const auto type = static_cast<std::uint8_t>(h[1]);
  const auto job_len = static_cast<std::size_t>(get_le(h + 2, 2));
  if (version != kWireVersion) {
    error_ = simx::strprintf("unknown protocol version %u", version);
    return false;
  }
  if (!valid_type(type)) {
    error_ = simx::strprintf("unknown frame type 0x%02x", type);
    return false;
  }
  if (job_len > kMaxJobLen || kHeaderBytes + job_len > len) {
    error_ = "job id overruns frame";
    return false;
  }
  out.type = static_cast<FrameType>(type);
  out.rank = static_cast<std::uint32_t>(get_le(h + 4, 4));
  out.epoch = get_le(h + 8, 8);
  out.job.assign(h + kHeaderBytes, job_len);
  out.payload.assign(h + kHeaderBytes + job_len, len - kHeaderBytes - job_len);
  pos_ += 4 + len;
  return true;
}

std::string hello_payload(const std::string& command, double interval) {
  std::string out;
  simx::JsonlWriter(out).lit("{\"ipm_agg\":1,\"command\":").str(command)
      .lit(",\"interval\":").num(interval).lit("}");
  return out;
}

bool parse_hello(std::string_view payload, std::string& command, double& interval) {
  simx::JsonlReader r(payload);
  return r.lit("{\"ipm_agg\":1,\"command\":") && r.str(command) &&
         r.lit(",\"interval\":") && r.num(interval) && r.lit("}") && r.done();
}

std::string welcome_payload(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& epochs) {
  std::string out;
  simx::JsonlWriter w(out);
  w.lit("{\"ranks\":[");
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    w.lit(i == 0 ? "{\"rank\":" : ",{\"rank\":").num(epochs[i].first);
    w.lit(",\"epoch\":").num(epochs[i].second).lit("}");
  }
  w.lit("]}");
  return out;
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> parse_welcome(
    std::string_view payload) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  simx::JsonlReader r(payload);
  const auto rank = [&] {
    auto& [rank_id, epoch] = out.emplace_back();
    return r.lit("{\"rank\":") && r.num(rank_id) && r.lit(",\"epoch\":") &&
           r.num(epoch) && r.lit("}");
  };
  if (!r.lit("{\"ranks\":[") || !r.list(rank) || !r.lit("}") || !r.done()) {
    out.clear();
  }
  return out;
}

std::string rank_fin_payload(std::uint64_t samples, std::uint64_t drops) {
  std::string out;
  simx::JsonlWriter(out).lit("{\"samples\":").num(samples).lit(",\"drops\":")
      .num(drops).lit("}");
  return out;
}

bool parse_rank_fin(std::string_view payload, std::uint64_t& samples,
                    std::uint64_t& drops) {
  samples = 0;
  drops = 0;
  if (payload.empty()) return true;
  simx::JsonlReader r(payload);
  return r.lit("{\"samples\":") && r.num(samples) && r.lit(",\"drops\":") &&
         r.num(drops) && r.lit("}") && r.done();
}

}  // namespace ipm::live::wire
