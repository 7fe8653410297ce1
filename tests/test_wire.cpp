// ipm_agg wire protocol (wire.hpp): frame codec round-trips, the strict
// incremental decoder (truncation, bad version/type/length poisoning), the
// line codec (every time-series line and wire payload round-trips through its
// strict reader, which rejects every proper prefix; the sample fold reads
// exactly what the sample reader reads), and aggregator address parsing
// (net.hpp).
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "ipm_live/live.hpp"
#include "ipm_live/merge.hpp"
#include "ipm_live/net.hpp"
#include "ipm_live/wire.hpp"

namespace {

using ipm::live::wire::Decoder;
using ipm::live::wire::Frame;
using ipm::live::wire::FrameType;

Frame sample_frame() {
  Frame f;
  f.type = FrameType::kSample;
  f.rank = 7;
  f.epoch = 0x0102030405060708ULL;
  f.job = "hpl-16";
  f.payload = R"({"type":"sample","rank":7,"seq":41})";
  return f;
}

TEST(Wire, EncodeDecodeRoundTripsEveryFrameType) {
  const FrameType types[] = {FrameType::kHello,   FrameType::kSample,
                             FrameType::kRankFin, FrameType::kJobEnd,
                             FrameType::kWelcome, FrameType::kAck,
                             FrameType::kJobEndAck};
  for (const FrameType t : types) {
    Frame f = sample_frame();
    f.type = t;
    const std::string bytes = ipm::live::wire::encode(f);
    Decoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    ASSERT_TRUE(dec.next(out));
    EXPECT_EQ(out.type, t);
    EXPECT_EQ(out.rank, f.rank);
    EXPECT_EQ(out.epoch, f.epoch);
    EXPECT_EQ(out.job, f.job);
    EXPECT_EQ(out.payload, f.payload);
    EXPECT_EQ(dec.pending(), 0u);
    EXPECT_FALSE(dec.next(out));  // exactly one frame
    EXPECT_TRUE(dec.error().empty());
  }
}

TEST(Wire, DecoderReassemblesByteByByte) {
  // Three frames, fed one byte at a time: the decoder must never yield a
  // partial frame and must yield all three in order.
  std::string stream;
  for (int i = 0; i < 3; ++i) {
    Frame f = sample_frame();
    f.epoch = static_cast<std::uint64_t>(i + 1);
    f.payload = std::string("p") + std::to_string(i);
    stream += ipm::live::wire::encode(f);
  }
  Decoder dec;
  std::vector<Frame> got;
  for (const char c : stream) {
    dec.feed(&c, 1);
    Frame f;
    while (dec.next(f)) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].epoch, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(got[i].payload, std::string("p") + std::to_string(i));
  }
  EXPECT_EQ(dec.pending(), 0u);
}

TEST(Wire, TruncatedFrameStaysPendingNeverPartiallyApplied) {
  const std::string bytes = ipm::live::wire::encode(sample_frame());
  Decoder dec;
  dec.feed(bytes.data(), bytes.size() - 5);  // cut mid-payload
  Frame out;
  EXPECT_FALSE(dec.next(out));
  EXPECT_TRUE(dec.error().empty());   // not an error — just incomplete
  EXPECT_GT(dec.pending(), 0u);       // nonzero at EOF = truncated frame
  // The remainder completes it.
  dec.feed(bytes.data() + bytes.size() - 5, 5);
  EXPECT_TRUE(dec.next(out));
  EXPECT_EQ(out.payload, sample_frame().payload);
}

TEST(Wire, BadVersionPoisonsDecoder) {
  std::string bytes = ipm::live::wire::encode(sample_frame());
  bytes[4] = 99;  // version byte follows the u32 length
  Decoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_FALSE(dec.next(out));
  EXPECT_NE(dec.error().find("version"), std::string::npos);
  // Poisoned: even valid follow-up bytes are refused.
  const std::string good = ipm::live::wire::encode(sample_frame());
  dec.feed(good.data(), good.size());
  EXPECT_FALSE(dec.next(out));
}

TEST(Wire, BadTypeAndBadLengthArePoisoned) {
  {
    std::string bytes = ipm::live::wire::encode(sample_frame());
    bytes[5] = 'z';  // unknown frame type
    Decoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(dec.next(out));
    EXPECT_NE(dec.error().find("type"), std::string::npos);
  }
  {
    // Length below the fixed header is out of range.
    std::string bytes = ipm::live::wire::encode(sample_frame());
    bytes[0] = 3;
    bytes[1] = bytes[2] = bytes[3] = 0;
    Decoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(dec.next(out));
    EXPECT_NE(dec.error().find("length"), std::string::npos);
  }
  {
    // Length above kMaxFrameLen is rejected before buffering 16 MiB.
    std::string bytes = ipm::live::wire::encode(sample_frame());
    bytes[0] = bytes[1] = bytes[2] = bytes[3] = static_cast<char>(0xff);
    Decoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    EXPECT_FALSE(dec.next(out));
    EXPECT_NE(dec.error().find("length"), std::string::npos);
  }
}

TEST(Wire, JobLenOverrunIsRejected) {
  std::string bytes = ipm::live::wire::encode(sample_frame());
  bytes[6] = static_cast<char>(0xff);  // job_len low byte
  bytes[7] = static_cast<char>(0xff);  // job_len high byte
  Decoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_FALSE(dec.next(out));
  EXPECT_NE(dec.error().find("job id"), std::string::npos);
}

TEST(Wire, EncodeEnforcesProtocolBounds) {
  Frame f = sample_frame();
  f.job.assign(ipm::live::wire::kMaxJobLen + 1, 'j');
  EXPECT_THROW((void)ipm::live::wire::encode(f), std::invalid_argument);
  f = sample_frame();
  f.payload.assign(ipm::live::wire::kMaxFrameLen, 'p');
  EXPECT_THROW((void)ipm::live::wire::encode(f), std::invalid_argument);
}

TEST(Wire, WelcomePayloadRoundTrips) {
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> epochs = {
      {0, 12}, {3, 0}, {15, 0xffffffffffULL}};
  const auto back =
      ipm::live::wire::parse_welcome(ipm::live::wire::welcome_payload(epochs));
  ASSERT_EQ(back.size(), epochs.size());
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    EXPECT_EQ(back[i].first, epochs[i].first);
    EXPECT_EQ(back[i].second, epochs[i].second);
  }
  EXPECT_TRUE(ipm::live::wire::parse_welcome("{}").empty());
  EXPECT_TRUE(ipm::live::wire::parse_welcome("not json at all").empty());
}

TEST(Wire, HelloPayloadEscapesCommand) {
  const std::string p =
      ipm::live::wire::hello_payload("./run \"x\" \\w", 0.25);
  EXPECT_NE(p.find("\"ipm_agg\":1"), std::string::npos);
  EXPECT_NE(p.find("\\\"x\\\""), std::string::npos);
  EXPECT_NE(p.find("\"interval\":0.25"), std::string::npos);
}

// --- aggregator address parsing ----------------------------------------------

TEST(Wire, ParseAddrForms) {
  using ipm::live::net::Addr;
  using ipm::live::net::parse_addr;
  Addr a = parse_addr("unix:/tmp/agg.sock");
  EXPECT_EQ(a.kind, Addr::Kind::kUnix);
  EXPECT_EQ(a.path, "/tmp/agg.sock");
  EXPECT_EQ(a.str(), "unix:/tmp/agg.sock");

  a = parse_addr("tcp:127.0.0.1:9321");
  EXPECT_EQ(a.kind, Addr::Kind::kTcp);
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 9321);

  a = parse_addr("localhost:80");  // host:port without the tcp: prefix
  EXPECT_EQ(a.kind, Addr::Kind::kTcp);
  EXPECT_EQ(a.host, "localhost");
  EXPECT_EQ(a.port, 80);

  a = parse_addr("/var/run/ipm.sock");  // bare path = unix
  EXPECT_EQ(a.kind, Addr::Kind::kUnix);
  EXPECT_EQ(a.path, "/var/run/ipm.sock");

  EXPECT_FALSE(parse_addr("").valid());
  EXPECT_FALSE(parse_addr("unix:").valid());
  EXPECT_FALSE(parse_addr("tcp:host-without-port").valid());
  EXPECT_FALSE(parse_addr("tcp:h:99999").valid());  // port out of range
}

// --- seeded fuzz / property wall (ISSUE 7 satellite) -------------------------

/// Deterministic pseudo-random sample for the round-trip property: every
/// field the serializer can emit, including escapes in names/regions and
/// the optional gf/gb/f fields.
ipm::live::Sample random_sample(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> small(0, 5);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const char* names[] = {"MPI_Allreduce", "cudaMemcpy", "weird \"name\"\\n",
                         "region:{a,b}", "MPI_Send"};
  ipm::live::Sample s;
  s.rank = small(rng);
  s.seq = rng() % 1000;
  s.t0 = uni(rng) * 3.0;
  s.t1 = s.t0 + uni(rng);  // arbitrary doubles; %.17g must round-trip
  s.final_flush = (rng() & 1) != 0;
  if ((rng() & 3) == 0) s.ddev_flops = uni(rng) * 1e12;
  if ((rng() & 3) == 0) s.ddev_bytes = uni(rng) * 1e9;
  const int nregions = small(rng);
  for (int i = 0; i < nregions; ++i) {
    s.regions.push_back(std::string("phase-") + std::to_string(i) +
                        ((rng() & 1) != 0 ? "\"q\"" : ""));
  }
  const int ndeltas = 1 + small(rng);
  for (int i = 0; i < ndeltas; ++i) {
    ipm::live::KeyDelta d;
    d.name_str = names[rng() % (sizeof names / sizeof names[0])];
    d.region = static_cast<std::uint32_t>(small(rng));
    d.select = static_cast<std::int32_t>(small(rng)) - 2;
    d.dcount = rng() % 100000;
    d.dbytes = rng() % (1u << 30);
    d.dtsum = uni(rng) * 10.0;
    if ((rng() & 3) == 0) d.dflops = uni(rng) * 1e9;
    s.deltas.push_back(std::move(d));
  }
  return s;
}

void expect_samples_equal(const ipm::live::Sample& a, const ipm::live::Sample& b) {
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.t0, b.t0);  // bit-exact: %.17g round-trips IEEE doubles
  EXPECT_EQ(a.t1, b.t1);
  EXPECT_EQ(a.final_flush, b.final_flush);
  EXPECT_EQ(a.ddev_flops, b.ddev_flops);
  EXPECT_EQ(a.ddev_bytes, b.ddev_bytes);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i], b.regions[i]);
  }
  ASSERT_EQ(a.deltas.size(), b.deltas.size());
  for (std::size_t i = 0; i < a.deltas.size(); ++i) {
    const ipm::live::KeyDelta& x = a.deltas[i];
    const ipm::live::KeyDelta& y = b.deltas[i];
    EXPECT_EQ(x.name_str.empty() ? std::string() : x.name_str, y.name_str);
    EXPECT_EQ(x.region, y.region);
    EXPECT_EQ(x.select, y.select);
    EXPECT_EQ(x.dcount, y.dcount);
    EXPECT_EQ(x.dbytes, y.dbytes);
    EXPECT_EQ(x.dtsum, y.dtsum);
    EXPECT_EQ(x.dflops, y.dflops);
  }
}

/// printf("%.17g") reference for the writer's byte-identity checks.
std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Pinned byte for byte: the optional gf/gb/f fields and a name holding
/// '"' and '\\'.
ipm::live::Sample golden_sample() {
  ipm::live::Sample s;
  s.rank = 1;
  s.seq = 7;
  s.t0 = 0.5;
  s.t1 = 0.75;
  s.final_flush = true;
  s.ddev_flops = 2.5e9;
  s.ddev_bytes = 0.1;
  s.regions = {"ipm_global", "solve"};
  ipm::live::KeyDelta d;
  d.name_str = "say \"hi\" C:\\";
  d.region = 1;
  d.select = -1;
  d.dcount = 3;
  d.dbytes = 4096;
  d.dtsum = 1.0000000000000002;
  d.dflops = 6e9;
  s.deltas.push_back(d);
  d = {};
  d.name_str = "MPI_Send";
  d.select = 2;
  d.dcount = 1;
  d.dtsum = 3e-6;
  s.deltas.push_back(d);
  return s;
}

constexpr const char* kGoldenSampleLine =
    R"({"type":"sample","rank":1,"seq":7,"t0":0.5,"t1":0.75,"final":1,"gf":2500000000,)"
    R"("gb":0.10000000000000001,"regions":["ipm_global","solve"],"deltas":[)"
    R"({"n":"say \"hi\" C:\\","r":1,"s":-1,"c":3,"b":4096,)"
    R"("t":1.0000000000000002,"f":6000000000},)"
    R"({"n":"MPI_Send","r":0,"s":2,"c":1,"b":0,"t":3.0000000000000001e-06}]})";

/// %.17g edge values, one zero-count delta each, spanned by t0..t1.
const double kEdges[] = {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                         DBL_MAX, 0.1, 1e16, 1e17, 3.0, -42.0, 123456789.0};

ipm::live::Sample edge_sample() {
  ipm::live::Sample s;
  s.t0 = kEdges[0];
  s.t1 = kEdges[std::size(kEdges) - 1];
  for (const double v : kEdges) {
    ipm::live::KeyDelta d;
    d.name_str = "e";
    d.dtsum = v;
    s.deltas.push_back(d);
  }
  return s;
}

std::string edge_line() {
  std::string want = R"({"type":"sample","rank":0,"seq":0,"t0":)" + g17(kEdges[0]) +
                     R"(,"t1":)" + g17(kEdges[std::size(kEdges) - 1]) +
                     R"(,"final":0,"regions":[],"deltas":[)";
  for (std::size_t i = 0; i < std::size(kEdges); ++i) {
    if (i != 0) want += ',';
    want += R"({"n":"e","r":0,"s":0,"c":0,"b":0,"t":)" + g17(kEdges[i]) + "}";
  }
  return want + "]}";
}

/// Round-trip property: serialize -> fast parse AND serialize -> frame
/// encode -> decode -> fast parse both reproduce every field bit-exactly,
/// for a golden sample, the %.17g edge values and randomized samples
/// covering the serializer's whole surface.
TEST(Wire, SampleRoundTripProperty) {
  std::vector<ipm::live::Sample> inputs = {golden_sample(), edge_sample()};
  EXPECT_EQ(ipm::live::sample_line(inputs[0]), kGoldenSampleLine);
  EXPECT_EQ(ipm::live::sample_line(inputs[1]), edge_line());
  std::mt19937_64 rng(20260809u);
  for (int iter = 0; iter < 300; ++iter) inputs.push_back(random_sample(rng));
  for (const ipm::live::Sample& s : inputs) {
    const std::string line = ipm::live::sample_line(s);

    ipm::live::Sample fast;
    ASSERT_TRUE(ipm::live::parse_sample_line(line, fast)) << line;
    expect_samples_equal(s, fast);

    Frame f;
    f.type = FrameType::kSample;
    f.rank = static_cast<std::uint32_t>(s.rank);
    f.epoch = s.seq + 1;
    f.job = "prop-job";
    f.payload = line;
    const std::string bytes = ipm::live::wire::encode(f);
    Decoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    ASSERT_TRUE(dec.next(out));
    EXPECT_EQ(out.payload, line);
    ipm::live::Sample wired;
    ASSERT_TRUE(ipm::live::parse_sample_line(out.payload, wired));
    expect_samples_equal(s, wired);
  }
}

/// Bit-exact equality of two doubles (-0 differs from 0).
void expect_same_bits(double a, double b, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << field << ": " << a << " vs " << b;
}

/// fold_sample_line(line) against fold_sample(parse_sample_line(line)):
/// both accept or both reject, and an accepted line folds to the same
/// fold, field for field and bit for bit, with the same region entries in
/// the same order.  A rejected line leaves the region entries as they were.
void expect_fold_matches_parse(const std::string& line, ipm::live::FoldScratch& scratch) {
  namespace live = ipm::live;
  live::Sample parsed;
  const bool parse_ok = live::parse_sample_line(line, parsed);
  live::RegionFlops line_regions = {{"entry of an earlier fold", 1.0}};
  live::SampleFold folded;
  const bool fold_ok = live::fold_sample_line(line, folded, line_regions, scratch);
  ASSERT_EQ(fold_ok, parse_ok) << line;
  ASSERT_EQ(line_regions.front().first, "entry of an earlier fold");
  line_regions.erase(line_regions.begin());
  if (!parse_ok) {
    EXPECT_TRUE(line_regions.empty()) << line;
    return;
  }
  live::RegionFlops sample_regions;
  const live::SampleFold want = live::fold_sample(parsed, sample_regions);
  EXPECT_EQ(folded.rank, want.rank);
  expect_same_bits(folded.t1, want.t1, "t1");
  EXPECT_EQ(folded.devents, want.devents);
  expect_same_bits(folded.mpi_s, want.mpi_s, "mpi_s");
  expect_same_bits(folded.cuda_s, want.cuda_s, "cuda_s");
  expect_same_bits(folded.gpu_s, want.gpu_s, "gpu_s");
  expect_same_bits(folded.idle_s, want.idle_s, "idle_s");
  expect_same_bits(folded.blas_s, want.blas_s, "blas_s");
  expect_same_bits(folded.fft_s, want.fft_s, "fft_s");
  EXPECT_EQ(folded.mpi_bytes, want.mpi_bytes);
  EXPECT_EQ(folded.cuda_bytes, want.cuda_bytes);
  expect_same_bits(folded.flops, want.flops, "flops");
  expect_same_bits(folded.dev_flops, want.dev_flops, "dev_flops");
  expect_same_bits(folded.dev_bytes, want.dev_bytes, "dev_bytes");
  EXPECT_EQ(folded.regions, want.regions);
  ASSERT_EQ(line_regions.size(), sample_regions.size()) << line;
  EXPECT_EQ(line_regions.size(), folded.regions);
  for (std::size_t i = 0; i < line_regions.size(); ++i) {
    EXPECT_EQ(line_regions[i].first, sample_regions[i].first);
    expect_same_bits(line_regions[i].second, sample_regions[i].second, "region flops");
  }
}

/// The line fold and the sample reader are one scan: over the round-trip
/// corpus (escaped names, %.17g edge values, flops in named, repeated and
/// out-of-range regions), every single-bit flip of every byte of those
/// lines, and sample lines with their fields reordered, fold_sample_line
/// accepts exactly the lines parse_sample_line accepts and folds each to
/// fold_sample of the parse.
TEST(Wire, SampleFoldReadsWhatTheSampleReaderReads) {
  std::vector<ipm::live::Sample> inputs = {golden_sample(), edge_sample()};
  std::mt19937_64 rng(20260809u);
  for (int iter = 0; iter < 300; ++iter) inputs.push_back(random_sample(rng));
  // Flops in a region named twice, and in one past the region list.
  ipm::live::Sample regions = golden_sample();
  regions.deltas.push_back(regions.deltas[0]);
  regions.deltas.back().region = 9;
  regions.deltas.push_back(regions.deltas[0]);
  inputs.push_back(regions);
  ipm::live::FoldScratch scratch;
  std::size_t accepted_flips = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::string line = ipm::live::sample_line(inputs[i]);
    expect_fold_matches_parse(line, scratch);
    // Every bit of every byte for the pinned lines, one bit per byte for
    // the random ones.
    const int bits = i < 2 || i + 1 == inputs.size() ? 8 : 1;
    for (std::size_t at = 0; at < line.size(); ++at) {
      for (int bit = 0; bit < bits; ++bit) {
        std::string flipped = line;
        flipped[at] = static_cast<char>(flipped[at] ^ (1 << ((at + bit) % 8)));
        ipm::live::Sample ignored;
        accepted_flips += ipm::live::parse_sample_line(flipped, ignored) ? 1 : 0;
        expect_fold_matches_parse(flipped, scratch);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(accepted_flips, 0u);  // some flips change a value, not the grammar
  // Reordered fields: the same objects, never the writer's bytes.
  const std::string line = ipm::live::sample_line(golden_sample());
  const auto swapped = [&line](const std::string& a, const std::string& b) {
    std::string out = line;
    const std::size_t pa = out.find(a);
    const std::size_t pb = out.find(b);
    EXPECT_TRUE(pa != std::string::npos && pb != std::string::npos && pa < pb);
    out.replace(pb, b.size(), a);
    out.replace(pa, a.size(), b);
    return out;
  };
  for (const std::string& reordered :
       {swapped(R"("rank":1,)", R"("seq":7,)"), swapped(R"("t0":0.5,)", R"("t1":0.75,)"),
        swapped(R"("gf":2500000000,)", R"("gb":0.10000000000000001,)"),
        swapped(R"("n":"MPI_Send",)", R"("r":0,)"),
        swapped(R"("c":1,)", R"("b":0,)")}) {
    ipm::live::Sample ignored;
    EXPECT_FALSE(ipm::live::parse_sample_line(reordered, ignored)) << reordered;
    expect_fold_matches_parse(reordered, scratch);
  }
}

/// A delta named "" read back from a line keeps that name: the parse
/// re-encodes to the line, and folds as the line does.  (An empty name_str
/// used to mean "in-process sample: look up NameId 0", which renamed the
/// delta or threw where nothing was interned.)
TEST(Wire, AnEmptyDeltaNameReadsBackAsItself) {
  std::string line = ipm::live::sample_line(golden_sample());
  const std::string named = R"("n":"MPI_Send")";
  line.replace(line.find(named), named.size(), R"("n":"")");
  ipm::live::Sample parsed;
  ASSERT_TRUE(ipm::live::parse_sample_line(line, parsed));
  EXPECT_EQ(ipm::live::sample_line(parsed), line);
  ipm::live::FoldScratch scratch;
  expect_fold_matches_parse(line, scratch);
}

/// Pinned byte for byte: every optional field, doubles needing all 17
/// digits, -0, and a region name holding '"' and '\\'.
ipm::live::ClusterPoint golden_point() {
  ipm::live::ClusterPoint p;
  p.k = 3;
  p.t0 = 1.5;
  p.t1 = 2.0;
  p.ranks = 16;
  p.ranks_live = 16;
  p.samples = 48;
  p.devents = 1234;
  p.mpi_s = 0.1;
  p.cuda_s = 1.0 / 3.0;
  p.gpu_s = 2.5e-7;
  p.blas_s = 7.25;
  p.fft_s = -0.0;
  p.mpi_bytes = 1ULL << 40;
  p.cuda_bytes = 4096;
  p.flops = 6.02e23;
  p.dev_flops = 1e12;
  p.dev_bytes = 0.30000000000000004;
  p.region_flops = {{"ipm_global", 1e9}, {"say \"hi\" C:\\", 0.5}};
  return p;
}

constexpr const char* kGoldenPointLine =
    R"({"type":"point","k":3,"t0":1.5,"t1":2,"ranks":16,"ranks_live":16,)"
    R"("samples":48,"devents":1234,"mpi_s":0.10000000000000001,)"
    R"("cuda_s":0.33333333333333331,"gpu_s":2.4999999999999999e-07,"idle_s":0,)"
    R"("blas_s":7.25,"fft_s":-0,"mpi_bytes":1099511627776,"cuda_bytes":4096,)"
    R"("flops":6.02e+23,"devflops":1000000000000,"devbytes":0.30000000000000004,)"
    R"("regions":[{"name":"ipm_global","flops":1000000000},)"
    R"({"name":"say \"hi\" C:\\","flops":0.5}]})";
constexpr const char* kGoldenHeaderLine =
    R"({"ipm_timeseries":1,"command":"./hpl \"x\" \\w","interval":0.25})";
constexpr const char* kGoldenEndLine = R"({"type":"end","intervals":42})";
constexpr const char* kGoldenHello =
    R"({"ipm_agg":1,"command":"./run \"x\"\t\\w","interval":0.10000000000000001})";
constexpr const char* kGoldenWelcome =
    R"({"ranks":[{"rank":0,"epoch":12},{"rank":3,"epoch":0},)"
    R"({"rank":15,"epoch":1099511627775}]})";
constexpr const char* kGoldenRankFin = R"({"samples":17,"drops":2})";

const std::vector<std::pair<std::uint32_t, std::uint64_t>> kWelcomeEpochs = {
    {0, 12}, {3, 0}, {15, 0xffffffffffULL}};

/// Sibling of SampleRoundTripProperty for every other writer: each emits
/// its golden bytes, and its reader reads back values that the writer
/// turns into the same bytes again (bit-exact for doubles).
TEST(Wire, LineAndPayloadRoundTrip) {
  namespace live = ipm::live;
  namespace wire = ipm::live::wire;
  const live::ClusterPoint point = golden_point();
  ASSERT_EQ(live::point_line(point), kGoldenPointLine);
  live::ClusterPoint p;
  ASSERT_TRUE(live::parse_point_line(kGoldenPointLine, p));
  EXPECT_EQ(live::point_line(p), kGoldenPointLine);
  EXPECT_EQ(p.region_flops, point.region_flops);
  EXPECT_TRUE(std::signbit(p.fft_s));

  ASSERT_EQ(live::timeseries_header_line("./hpl \"x\" \\w", 0.25), kGoldenHeaderLine);
  std::string command;
  double interval = 0.0;
  ASSERT_TRUE(live::parse_header_line(kGoldenHeaderLine, command, interval));
  EXPECT_EQ(command, "./hpl \"x\" \\w");
  EXPECT_EQ(interval, 0.25);

  ASSERT_EQ(live::end_line(42), kGoldenEndLine);
  std::uint64_t intervals = 0;
  ASSERT_TRUE(live::parse_end_line(kGoldenEndLine, intervals));
  EXPECT_EQ(intervals, 42u);

  // A control character in the command is escaped like any JSON string.
  ASSERT_EQ(wire::hello_payload("./run \"x\"\t\\w", 0.1), kGoldenHello);
  ASSERT_TRUE(wire::parse_hello(kGoldenHello, command, interval));
  EXPECT_EQ(command, "./run \"x\"\t\\w");
  EXPECT_EQ(interval, 0.1);

  ASSERT_EQ(wire::welcome_payload(kWelcomeEpochs), kGoldenWelcome);
  EXPECT_EQ(wire::parse_welcome(kGoldenWelcome), kWelcomeEpochs);

  ASSERT_EQ(wire::rank_fin_payload(17, 2), kGoldenRankFin);
  std::uint64_t samples = 0;
  std::uint64_t drops = 0;
  ASSERT_TRUE(wire::parse_rank_fin(kGoldenRankFin, samples, drops));
  EXPECT_EQ(samples, 17u);
  EXPECT_EQ(drops, 2u);
  ASSERT_TRUE(wire::parse_rank_fin("", samples, drops));  // tail transport
  EXPECT_EQ(drops, 0u);

  // parse_timeseries_line dispatches each line to the reader of its kind.
  live::TimeSeries ts;
  EXPECT_EQ(live::parse_timeseries_line(kGoldenHeaderLine, ts), live::LineKind::kHeader);
  EXPECT_EQ(live::parse_timeseries_line(kGoldenSampleLine, ts), live::LineKind::kSample);
  EXPECT_EQ(live::parse_timeseries_line(kGoldenPointLine, ts), live::LineKind::kPoint);
  EXPECT_EQ(live::parse_timeseries_line(kGoldenEndLine, ts), live::LineKind::kEnd);
  EXPECT_EQ(ts.command, "./hpl \"x\" \\w");
  ASSERT_EQ(ts.samples.size(), 1u);
  expect_samples_equal(golden_sample(), ts.samples[0]);
  ASSERT_EQ(ts.points.size(), 1u);
  EXPECT_EQ(live::point_line(ts.points[0]), kGoldenPointLine);
}

/// A torn line is what a crashed writer leaves: every reader rejects every
/// proper prefix of its writer's bytes rather than returning a half-read
/// record, and parse_timeseries_line then leaves the series untouched.
TEST(Wire, ReadersRejectEveryProperPrefix) {
  namespace live = ipm::live;
  namespace wire = ipm::live::wire;
  for (const std::string line : {kGoldenSampleLine, kGoldenPointLine, kGoldenHeaderLine,
                                 kGoldenEndLine}) {
    for (std::size_t n = 0; n < line.size(); ++n) {
      live::TimeSeries ts;
      EXPECT_EQ(live::parse_timeseries_line(line.substr(0, n), ts),
                live::LineKind::kRejected)
          << line.substr(0, n);
      EXPECT_TRUE(ts.samples.empty() && ts.points.empty() && ts.command.empty());
    }
  }
  // The sample fold reads through the same scan, so a defect there that
  // the fold-equals-parse property cannot see still shows here.
  const std::string sample = kGoldenSampleLine;
  ipm::live::FoldScratch scratch;
  for (std::size_t n = 0; n < sample.size(); ++n) {
    ipm::live::RegionFlops regions;
    ipm::live::SampleFold fold;
    EXPECT_FALSE(ipm::live::fold_sample_line(sample.substr(0, n), fold, regions, scratch))
        << sample.substr(0, n);
    EXPECT_TRUE(regions.empty());
  }
  const std::string hello = kGoldenHello;
  const std::string welcome = kGoldenWelcome;
  const std::string fin = kGoldenRankFin;
  std::string command;
  double interval = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t drops = 0;
  for (std::size_t n = 0; n < hello.size(); ++n) {
    EXPECT_FALSE(wire::parse_hello(hello.substr(0, n), command, interval)) << n;
  }
  for (std::size_t n = 0; n < welcome.size(); ++n) {
    EXPECT_TRUE(wire::parse_welcome(welcome.substr(0, n)).empty()) << n;
  }
  for (std::size_t n = 1; n < fin.size(); ++n) {  // "" is the tail transport's
    EXPECT_FALSE(wire::parse_rank_fin(fin.substr(0, n), samples, drops)) << n;
  }
}

/// read_timeseries_file throws on a torn last line, naming it, at every cut
/// point of a sample line.
TEST(Wire, TornLastLineThrowsNamingIt) {
  const std::string path = ::testing::TempDir() + "/wire_torn_timeseries.jsonl";
  const std::string sample = kGoldenSampleLine;
  for (std::size_t n = 1; n < sample.size(); ++n) {
    {
      std::ofstream out(path, std::ios::trunc);
      out << kGoldenHeaderLine << '\n' << sample << '\n' << sample.substr(0, n);
    }
    try {
      (void)ipm::live::read_timeseries_file(path);
      ADD_FAILURE() << "torn line accepted at cut " << n;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path + ":3: "), std::string::npos)
          << e.what();
    }
  }
  std::ofstream(path, std::ios::trunc) << kGoldenHeaderLine << '\n' << sample;
  EXPECT_EQ(ipm::live::read_timeseries_file(path).samples.size(), 1u);
  std::remove(path.c_str());
}

/// A valid multi-frame stream for the mutator: hello + samples + fin + end.
std::string build_stream(std::mt19937_64& rng, std::vector<Frame>& frames) {
  frames.clear();
  Frame h;
  h.type = FrameType::kHello;
  h.job = "fuzz-job";
  h.payload = ipm::live::wire::hello_payload("./fuzz", 0.5);
  frames.push_back(h);
  const int nsamples = 2 + static_cast<int>(rng() % 4);
  for (int i = 0; i < nsamples; ++i) {
    const ipm::live::Sample s = random_sample(rng);
    Frame f;
    f.type = FrameType::kSample;
    f.rank = static_cast<std::uint32_t>(s.rank);
    f.epoch = static_cast<std::uint64_t>(i) + 1;
    f.job = "fuzz-job";
    f.payload = ipm::live::sample_line(s);
    frames.push_back(f);
  }
  Frame fin;
  fin.type = FrameType::kRankFin;
  fin.job = "fuzz-job";
  fin.epoch = static_cast<std::uint64_t>(nsamples);
  frames.push_back(fin);
  Frame end;
  end.type = FrameType::kJobEnd;
  end.job = "fuzz-job";
  frames.push_back(end);
  std::string stream;
  for (const Frame& f : frames) stream += ipm::live::wire::encode(f);
  return stream;
}

/// Feed `bytes` to `dec` in random chunks, collecting every decoded frame.
/// Verifies the poisoned-decoder contract along the way: once error() is
/// set, next() never yields again.
std::vector<Frame> drain_chunked(Decoder& dec, const std::string& bytes,
                                 std::mt19937_64& rng) {
  std::vector<Frame> out;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t n =
        std::min(bytes.size() - off, static_cast<std::size_t>(1 + rng() % 37));
    dec.feed(bytes.data() + off, n);
    off += n;
    Frame f;
    while (dec.next(f)) {
      EXPECT_TRUE(dec.error().empty()) << "frame yielded after poisoning";
      out.push_back(f);
    }
  }
  if (!dec.error().empty()) {
    Frame f;
    EXPECT_FALSE(dec.next(f)) << "poisoned decoder must stay poisoned";
  }
  return out;
}

/// Interleaved partial writes of a VALID stream (arbitrary chunk
/// boundaries) must reproduce every frame exactly — the reassembly
/// property chaos-killed clients rely on.
TEST(Wire, FuzzChunkedReassemblyLossless) {
  std::mt19937_64 rng(1u);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<Frame> frames;
    const std::string stream = build_stream(rng, frames);
    Decoder dec;
    const std::vector<Frame> got = drain_chunked(dec, stream, rng);
    EXPECT_TRUE(dec.error().empty());
    EXPECT_EQ(dec.pending(), 0u);
    ASSERT_EQ(got.size(), frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(got[i].type, frames[i].type);
      EXPECT_EQ(got[i].rank, frames[i].rank);
      EXPECT_EQ(got[i].epoch, frames[i].epoch);
      EXPECT_EQ(got[i].job, frames[i].job);
      EXPECT_EQ(got[i].payload, frames[i].payload);
    }
  }
}

/// Truncation at every possible byte offset: the decoder yields exactly the
/// complete frame prefix, never poisons, and reports the cut as pending
/// bytes (the daemon's EOF handler turns that into a protocol error).
TEST(Wire, FuzzTruncationYieldsOnlyCompletePrefix) {
  std::mt19937_64 rng(2u);
  std::vector<Frame> frames;
  const std::string stream = build_stream(rng, frames);
  // Frame boundaries for the prefix-count oracle.
  std::vector<std::size_t> ends;
  {
    std::size_t off = 0;
    for (const Frame& f : frames) {
      off += ipm::live::wire::encode(f).size();
      ends.push_back(off);
    }
  }
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    Decoder dec;
    dec.feed(stream.data(), cut);
    std::size_t want = 0;
    while (want < ends.size() && ends[want] <= cut) ++want;
    Frame f;
    std::size_t got = 0;
    while (dec.next(f)) ++got;
    EXPECT_EQ(got, want) << "cut at " << cut;
    EXPECT_TRUE(dec.error().empty()) << "cut at " << cut;
    EXPECT_EQ(dec.pending() > 0, cut != (want < ends.size() ? 0 : ends.back()) &&
                                     (want == 0 ? cut > 0 : cut > ends[want - 1]))
        << "cut at " << cut;
  }
}

/// Seeded mutator: length-field lies, type flips, version skew, and random
/// bit flips.  The decoder must never crash, never yield a frame after
/// poisoning, never yield an out-of-contract frame (oversized job id), and
/// must reject length lies that escape the frame bounds.
TEST(Wire, FuzzMutatedStreamsNeverYieldMalformedFrames) {
  std::mt19937_64 rng(3u);
  int poisoned = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<Frame> frames;
    std::string stream = build_stream(rng, frames);
    const int mode = static_cast<int>(rng() % 4);
    const std::size_t pos = rng() % stream.size();
    switch (mode) {
      case 0: {  // length-field lie on the first frame
        std::uint32_t lie;
        switch (rng() % 3) {
          case 0: lie = ipm::live::wire::kMaxFrameLen + 1 + static_cast<std::uint32_t>(rng() % 1000); break;
          case 1: lie = static_cast<std::uint32_t>(rng() % 8); break;  // < header
          default: lie = static_cast<std::uint32_t>(rng() % stream.size()); break;
        }
        std::memcpy(stream.data(), &lie, sizeof lie);
        break;
      }
      case 1:  // type flip to a random byte at a frame's type offset
        stream[5] = static_cast<char>(rng() & 0xff);
        break;
      case 2:  // version skew
        stream[4] = static_cast<char>(1 + rng() % 254);
        break;
      default:  // arbitrary bit flip anywhere
        stream[pos] = static_cast<char>(stream[pos] ^ (1 << (rng() % 8)));
        break;
    }
    Decoder dec;
    const std::vector<Frame> got = drain_chunked(dec, stream, rng);
    if (!dec.error().empty()) ++poisoned;
    EXPECT_LE(got.size(), frames.size() + 4);  // a lie can resync mid-bytes,
                                               // but never invents many frames
    for (const Frame& f : got) {
      EXPECT_LE(f.job.size(), ipm::live::wire::kMaxJobLen);
      EXPECT_LE(f.payload.size(), ipm::live::wire::kMaxFrameLen);
    }
  }
  // The mutator must actually exercise the poison path, not just no-ops.
  EXPECT_GT(poisoned, 100);
}

}  // namespace
