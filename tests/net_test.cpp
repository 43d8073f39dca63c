// src/net — frame helpers, wire codec, epoll server, and the router tier.
//
// The codec tests are transport-free (satellite: round-trip every message
// type, reject truncation/corruption/oversize, survive a fuzz-lite loop of
// seeded random bytes). The server/router tests run real sockets: UDS
// endpoints under a per-test temp dir, TCP on an ephemeral port, and the
// in-process mini-cluster asserting byte-identical decisions against a
// single-process matchd — the small sibling of examples/cluster_replay.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/capacity_ladder.hpp"
#include "core/similarity.hpp"
#include "match/classad.hpp"
#include "match/compiled.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "svc/matchd.hpp"
#include "trace/job_record.hpp"
#include "util/frame.hpp"
#include "util/rng.hpp"

namespace resmatch {
namespace {

namespace fs = std::filesystem;

// --- fixtures ----------------------------------------------------------------

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("resmatch_net_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

trace::JobRecord make_job(std::uint64_t id, std::uint32_t user,
                          std::uint32_t app, MiB requested, MiB used) {
  trace::JobRecord job;
  job.id = id;
  job.submit = static_cast<double>(id);
  job.runtime = 10.0;
  job.requested_time = 20.0;
  job.nodes = 2;
  job.requested_mem_mib = requested;
  job.used_mem_mib = used;
  job.user = user;
  job.app = app;
  return job;
}

/// A small mixed workload: several similarity groups, usage below request
/// so the estimator has something to learn.
std::vector<trace::JobRecord> small_workload(std::size_t n) {
  std::vector<trace::JobRecord> jobs;
  util::Rng rng(1234);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t user = static_cast<std::uint32_t>(rng() % 5);
    const std::uint32_t app = static_cast<std::uint32_t>(rng() % 3);
    const MiB requested = 8.0 * static_cast<double>(1 + rng() % 4);
    const MiB used = requested * (0.3 + 0.1 * static_cast<double>(rng() % 5));
    jobs.push_back(make_job(i + 1, user, app, requested, used));
  }
  return jobs;
}

core::CapacityLadder test_ladder() {
  return core::CapacityLadder({8.0, 16.0, 24.0, 32.0});
}

svc::MatchdConfig sync_config() {
  svc::MatchdConfig config;
  config.alpha = 2.0;
  return config;
}

/// The outcome of running `job` under a `granted` capacity: it succeeds
/// iff its usage fits.
core::Feedback outcome_for(const trace::JobRecord& job, MiB granted) {
  core::Feedback fb;
  fb.granted_mib = granted;
  fb.success = job.used_mem_mib <= granted;
  fb.used_mib = job.used_mem_mib;
  fb.resource_failure = !fb.success;
  return fb;
}

/// Drive one job through any object exposing submit()/feedback() matchd
/// verbs; returns the granted capacity (serve_replay's per-job protocol).
template <typename Service>
MiB drive_job(Service& service, const trace::JobRecord& job) {
  const svc::MatchDecision decision = service.submit(job);
  service.feedback(job, outcome_for(job, decision.granted_mib));
  return decision.granted_mib;
}

// --- util/frame --------------------------------------------------------------

TEST(Frame, AppendThenParseRoundTrips) {
  std::vector<char> buf;
  const std::string payload = "hello frame";
  util::append_frame(buf, payload.data(), payload.size());

  util::FrameView view;
  ASSERT_EQ(util::parse_frame(buf.data(), buf.size(), 1 << 20, view),
            util::FrameParseStatus::kOk);
  EXPECT_EQ(std::string(view.payload, view.len), payload);
  EXPECT_EQ(view.frame_size, util::kFrameHeaderSize + payload.size());
}

TEST(Frame, BeginEndMatchesAppendFrame) {
  const std::string payload = "two paths, one encoding";
  std::vector<char> a;
  util::append_frame(a, payload.data(), payload.size());
  std::vector<char> b;
  const std::size_t mark = util::frame_begin(b);
  b.insert(b.end(), payload.begin(), payload.end());
  util::frame_end(b, mark);
  EXPECT_EQ(a, b);
}

TEST(Frame, ShortBufferNeedsMore) {
  std::vector<char> buf;
  util::append_frame(buf, "payload", 7);
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    util::FrameView view;
    EXPECT_EQ(util::parse_frame(buf.data(), cut, 1 << 20, view),
              util::FrameParseStatus::kNeedMore)
        << "at prefix length " << cut;
  }
}

TEST(Frame, CorruptPayloadIsBad) {
  std::vector<char> buf;
  util::append_frame(buf, "payload", 7);
  buf[util::kFrameHeaderSize] ^= 0x01;  // flip one payload bit
  util::FrameView view;
  EXPECT_EQ(util::parse_frame(buf.data(), buf.size(), 1 << 20, view),
            util::FrameParseStatus::kBad);
}

TEST(Frame, OversizedLengthIsBadNotAnAllocation) {
  std::vector<char> buf;
  util::put_u32(buf, 0xFFFFFFFFu);  // length word far beyond max_payload
  util::put_u32(buf, 0);            // crc (never reached)
  util::FrameView view;
  EXPECT_EQ(util::parse_frame(buf.data(), buf.size(), 1 << 20, view),
            util::FrameParseStatus::kBad);
}

// --- protocol codec ----------------------------------------------------------

/// Encode one body, run it through a mid-stream decoder, return the
/// envelope (asserting exactly one message comes out).
net::Envelope one_round_trip(const net::Envelope& in) {
  std::vector<char> bytes;
  net::encode_envelope(bytes, in);
  net::Decoder decoder(/*expect_magic=*/false);
  decoder.feed(bytes.data(), bytes.size());
  auto msg = decoder.next();
  EXPECT_TRUE(msg.has_value()) << (msg ? "" : msg.error());
  EXPECT_TRUE(msg.value().has_value());
  auto tail = decoder.next();
  EXPECT_TRUE(tail.has_value());
  EXPECT_FALSE(tail.value().has_value()) << "decoder produced extra message";
  return std::move(*msg.value());
}

TEST(Codec, EstimateReqRoundTrips) {
  const trace::JobRecord job = make_job(7, 3, 2, 24.0, 9.5);
  const net::Envelope out = one_round_trip(
      net::Envelope{net::MsgType::kEstimate, 42, net::EstimateReq{job}});
  EXPECT_EQ(out.type, net::MsgType::kEstimate);
  EXPECT_EQ(out.request_id, 42u);
  const auto& body = std::get<net::EstimateReq>(out.body);
  EXPECT_EQ(body.job.id, job.id);
  EXPECT_EQ(body.job.user, job.user);
  EXPECT_EQ(body.job.app, job.app);
  EXPECT_DOUBLE_EQ(body.job.requested_mem_mib, job.requested_mem_mib);
  EXPECT_DOUBLE_EQ(body.job.used_mem_mib, job.used_mem_mib);
  EXPECT_EQ(body.job.nodes, job.nodes);
  EXPECT_EQ(body.job.status, job.status);
}

TEST(Codec, PreviewReqRoundTrips) {
  const net::Envelope out = one_round_trip(net::Envelope{
      net::MsgType::kPreview, 1, net::PreviewReq{make_job(9, 1, 1, 16, 4)}});
  EXPECT_EQ(std::get<net::PreviewReq>(out.body).job.id, 9u);
}

TEST(Codec, FeedbackReqRoundTripsWithAndWithoutOptionals) {
  core::Feedback full;
  full.success = true;
  full.granted_mib = 16.0;
  full.used_mib = 5.25;
  full.resource_failure = false;
  const net::Envelope a = one_round_trip(
      net::Envelope{net::MsgType::kFeedback, 2,
                    net::FeedbackReq{make_job(1, 0, 0, 16, 5.25), full}});
  const auto& fa = std::get<net::FeedbackReq>(a.body).fb;
  EXPECT_TRUE(fa.success);
  EXPECT_DOUBLE_EQ(fa.granted_mib, 16.0);
  ASSERT_TRUE(fa.used_mib.has_value());
  EXPECT_DOUBLE_EQ(*fa.used_mib, 5.25);
  ASSERT_TRUE(fa.resource_failure.has_value());
  EXPECT_FALSE(*fa.resource_failure);

  core::Feedback implicit;  // nullopt optionals must survive the wire
  implicit.success = false;
  implicit.granted_mib = 8.0;
  const net::Envelope b = one_round_trip(
      net::Envelope{net::MsgType::kFeedback, 3,
                    net::FeedbackReq{make_job(2, 0, 0, 8, 8), implicit}});
  const auto& fb = std::get<net::FeedbackReq>(b.body).fb;
  EXPECT_FALSE(fb.success);
  EXPECT_FALSE(fb.used_mib.has_value());
  EXPECT_FALSE(fb.resource_failure.has_value());
}

TEST(Codec, CancelReqRoundTrips) {
  const net::Envelope out = one_round_trip(
      net::Envelope{net::MsgType::kCancel, 4,
                    net::CancelReq{make_job(3, 2, 1, 32, 1), 24.0}});
  EXPECT_DOUBLE_EQ(std::get<net::CancelReq>(out.body).granted, 24.0);
}

TEST(Codec, EmptyBodiedRequestsRoundTrip) {
  const net::Envelope a = one_round_trip(
      net::Envelope{net::MsgType::kCheckpoint, 5, net::CheckpointReq{}});
  EXPECT_EQ(a.type, net::MsgType::kCheckpoint);
  const net::Envelope b = one_round_trip(
      net::Envelope{net::MsgType::kHealth, 6, net::HealthReq{}});
  EXPECT_EQ(b.type, net::MsgType::kHealth);
  const net::Envelope c =
      one_round_trip(net::Envelope{net::MsgType::kStats, 7, net::StatsReq{}});
  EXPECT_EQ(c.type, net::MsgType::kStats);
}

TEST(Codec, MatchReqRoundTrips) {
  net::MatchReq req;
  req.attrs = {{"req_memory", "16"},
               {"requirements", "other.memory >= my.req_memory"},
               {"rank", "other.memory"}};
  const net::Envelope out =
      one_round_trip(net::Envelope{net::MsgType::kMatch, 11, req});
  EXPECT_EQ(out.type, net::MsgType::kMatch);
  const auto& body = std::get<net::MatchReq>(out.body);
  ASSERT_EQ(body.attrs.size(), 3u);
  EXPECT_EQ(body.attrs[0].first, "req_memory");
  EXPECT_EQ(body.attrs[0].second, "16");
  EXPECT_EQ(body.attrs[1].second, "other.memory >= my.req_memory");
  EXPECT_EQ(body.attrs[2].first, "rank");

  const net::Envelope empty =
      one_round_trip(net::Envelope{net::MsgType::kMatch, 12, net::MatchReq{}});
  EXPECT_TRUE(std::get<net::MatchReq>(empty.body).attrs.empty());
}

TEST(Codec, MatchRespRoundTrips) {
  net::MatchResp resp;
  resp.rows = {4, 0, 2, 0xFFFFFFFFu};
  const net::Envelope out =
      one_round_trip(net::Envelope{net::MsgType::kMatchResp, 13, resp});
  EXPECT_EQ(std::get<net::MatchResp>(out.body).rows, resp.rows);

  const net::Envelope empty = one_round_trip(
      net::Envelope{net::MsgType::kMatchResp, 14, net::MatchResp{}});
  EXPECT_TRUE(std::get<net::MatchResp>(empty.body).rows.empty());
}

TEST(Codec, HostileMatchLengthsAreRejectedNotAllocated) {
  const auto expect_bad = [](const std::vector<char>& payload) {
    std::vector<char> bytes;
    util::append_frame(bytes, payload.data(), payload.size());
    net::Decoder decoder(/*expect_magic=*/false);
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_FALSE(decoder.next().has_value());
  };

  // An attr count claiming far more pairs than the payload could hold.
  std::vector<char> lying_count;
  lying_count.push_back(static_cast<char>(net::MsgType::kMatch));
  for (int i = 0; i < 8; ++i) lying_count.push_back(0);  // request id
  util::put_u32(lying_count, 0x00FFFFFFu);
  expect_bad(lying_count);

  // A string length word running past the end of the payload.
  std::vector<char> lying_strlen;
  lying_strlen.push_back(static_cast<char>(net::MsgType::kMatch));
  for (int i = 0; i < 8; ++i) lying_strlen.push_back(0);
  util::put_u32(lying_strlen, 1);        // one attr...
  util::put_u32(lying_strlen, 0xFFFFu);  // ...whose name overruns
  expect_bad(lying_strlen);
}

TEST(Codec, ResponsesRoundTrip) {
  const net::Envelope a = one_round_trip(
      net::Envelope{net::MsgType::kEstimateResp, 8,
                    net::EstimateResp{16.0, true, 0xDEADBEEFu}});
  const auto& ea = std::get<net::EstimateResp>(a.body);
  EXPECT_DOUBLE_EQ(ea.granted_mib, 16.0);
  EXPECT_TRUE(ea.lowered);
  EXPECT_EQ(ea.group_key, 0xDEADBEEFu);

  const net::Envelope b = one_round_trip(
      net::Envelope{net::MsgType::kPreviewResp, 9, net::PreviewResp{24.0}});
  EXPECT_DOUBLE_EQ(std::get<net::PreviewResp>(b.body).granted_mib, 24.0);

  const net::Envelope c =
      one_round_trip(net::Envelope{net::MsgType::kAck, 10, net::Ack{false}});
  EXPECT_FALSE(std::get<net::Ack>(c.body).ok);

  net::HealthResp health;
  health.degraded = true;
  health.wal_enabled = true;
  health.groups = 17;
  const net::Envelope d =
      one_round_trip(net::Envelope{net::MsgType::kHealthResp, 11, health});
  const auto& hd = std::get<net::HealthResp>(d.body);
  EXPECT_TRUE(hd.degraded);
  EXPECT_TRUE(hd.wal_enabled);
  EXPECT_EQ(hd.groups, 17u);

  net::StatsResp stats;
  stats.submissions = 1;
  stats.rewrites = 2;
  stats.successes = 3;
  stats.failures = 4;
  stats.cancels = 5;
  stats.groups = 6;
  stats.evictions = 7;
  stats.degraded_ops = 8;
  stats.wal_appends = 9;
  stats.compactions = 10;
  const net::Envelope e =
      one_round_trip(net::Envelope{net::MsgType::kStatsResp, 12, stats});
  const auto& se = std::get<net::StatsResp>(e.body);
  EXPECT_EQ(se.submissions, 1u);
  EXPECT_EQ(se.wal_appends, 9u);
  EXPECT_EQ(se.compactions, 10u);

  const net::Envelope f = one_round_trip(net::Envelope{
      net::MsgType::kError, 13,
      net::ErrorResp{net::ErrorCode::kBackpressure, "queue full"}});
  const auto& fe = std::get<net::ErrorResp>(f.body);
  EXPECT_EQ(fe.code, net::ErrorCode::kBackpressure);
  EXPECT_EQ(fe.message, "queue full");
}

TEST(Codec, EmptyErrorMessageRoundTrips) {
  const net::Envelope out = one_round_trip(net::Envelope{
      net::MsgType::kError, 1, net::ErrorResp{net::ErrorCode::kInternal, ""}});
  EXPECT_EQ(std::get<net::ErrorResp>(out.body).message, "");
}

TEST(Codec, MagicIsRequiredFirst) {
  std::vector<char> bytes;
  net::encode_magic(bytes);
  net::encode(bytes, 1, net::HealthReq{});
  net::Decoder good(/*expect_magic=*/true);
  good.feed(bytes.data(), bytes.size());
  auto msg = good.next();
  ASSERT_TRUE(msg.has_value());
  ASSERT_TRUE(msg.value().has_value());
  EXPECT_EQ(msg.value()->type, net::MsgType::kHealth);

  std::vector<char> bad = bytes;
  bad[0] = 'X';
  net::Decoder broken(/*expect_magic=*/true);
  broken.feed(bad.data(), bad.size());
  EXPECT_FALSE(broken.next().has_value());
}

TEST(Codec, TruncatedBodyIsRejected) {
  // A well-framed payload (valid CRC) whose body is shorter than the
  // message type demands.
  std::vector<char> payload;
  payload.push_back(static_cast<char>(net::MsgType::kEstimate));
  for (int i = 0; i < 8; ++i) payload.push_back(0);  // request id
  payload.push_back(0x42);  // 1 byte of a 66-byte job record
  std::vector<char> frame;
  util::append_frame(frame, payload.data(), payload.size());

  net::Decoder decoder(/*expect_magic=*/false);
  decoder.feed(frame.data(), frame.size());
  auto msg = decoder.next();
  ASSERT_FALSE(msg.has_value());
  EXPECT_NE(msg.error().find("truncated"), std::string::npos);
}

TEST(Codec, TrailingBytesAreRejected) {
  std::vector<char> payload;
  payload.push_back(static_cast<char>(net::MsgType::kHealth));
  for (int i = 0; i < 8; ++i) payload.push_back(0);  // request id
  payload.push_back(0x00);  // one byte too many for an empty body
  std::vector<char> frame;
  util::append_frame(frame, payload.data(), payload.size());

  net::Decoder decoder(/*expect_magic=*/false);
  decoder.feed(frame.data(), frame.size());
  auto msg = decoder.next();
  ASSERT_FALSE(msg.has_value());
  EXPECT_NE(msg.error().find("trailing"), std::string::npos);
}

TEST(Codec, UnknownTypeIsRejected) {
  std::vector<char> payload;
  payload.push_back(0x33);  // no such message type
  for (int i = 0; i < 8; ++i) payload.push_back(0);
  std::vector<char> frame;
  util::append_frame(frame, payload.data(), payload.size());

  net::Decoder decoder(/*expect_magic=*/false);
  decoder.feed(frame.data(), frame.size());
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(Codec, CorruptCrcIsRejectedAndLatches) {
  std::vector<char> bytes;
  net::encode(bytes, 1, net::Ack{true});
  bytes.back() ^= 0x40;  // corrupt the payload under an already-stamped CRC
  net::Decoder decoder(/*expect_magic=*/false);
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(decoder.next().has_value());
  // The stream is poisoned: feeding a pristine frame cannot revive it.
  std::vector<char> fresh;
  net::encode(fresh, 2, net::Ack{true});
  decoder.feed(fresh.data(), fresh.size());
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(Codec, PipelinedMessagesDecodeAcrossArbitrarySplits) {
  std::vector<char> bytes;
  net::encode_magic(bytes);
  for (std::uint64_t id = 1; id <= 20; ++id) {
    net::encode(bytes, id, net::EstimateReq{make_job(id, 1, 1, 16, 4)});
  }
  // Feed one byte at a time — the cruelest possible framing.
  net::Decoder decoder(/*expect_magic=*/true);
  std::uint64_t expect_id = 1;
  for (const char byte : bytes) {
    decoder.feed(&byte, 1);
    for (;;) {
      auto msg = decoder.next();
      ASSERT_TRUE(msg.has_value()) << msg.error();
      if (!msg.value().has_value()) break;
      EXPECT_EQ(msg.value()->request_id, expect_id++);
    }
  }
  EXPECT_EQ(expect_id, 21u);
}

TEST(Codec, FuzzLiteRandomBytesNeverCrash) {
  // Seeded random byte strings: the decoder must always either want more
  // bytes or fail cleanly — never crash, never loop forever.
  util::Rng rng(0xF0551);
  for (int round = 0; round < 200; ++round) {
    const std::size_t len = 1 + rng() % 512;
    std::vector<char> junk(len);
    for (auto& b : junk) b = static_cast<char>(rng() & 0xFF);

    net::Decoder decoder(round % 2 == 0);
    std::size_t off = 0;
    while (off < junk.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng() % 64, junk.size() - off);
      decoder.feed(junk.data() + off, chunk);
      off += chunk;
      auto msg = decoder.next();
      if (!msg.has_value()) break;  // clean rejection — done with this round
    }
  }
}

TEST(Codec, FuzzLiteCorruptedValidFramesNeverCrash) {
  // Start from real frames, flip one random byte, decode. Every outcome
  // must be clean: rejected, or (if the flip hit a don't-care bit like a
  // float payload under a CRC we also flipped — impossible here) decoded.
  util::Rng rng(0xF0552);
  for (int round = 0; round < 200; ++round) {
    std::vector<char> bytes;
    net::encode(bytes, rng(),
                net::EstimateReq{make_job(rng() % 1000, 1, 1, 16, 4)});
    bytes[rng() % bytes.size()] =
        static_cast<char>(rng() & 0xFF);  // one random stomp
    net::Decoder decoder(/*expect_magic=*/false);
    decoder.feed(bytes.data(), bytes.size());
    auto msg = decoder.next();
    (void)msg;  // any of {ok, need-more, error} is acceptable; crashing is not
  }
}

// --- golden frames: the exact bytes a peer sees ------------------------------

std::string to_hex(const std::vector<char>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<char> from_hex(const std::string& hex) {
  std::vector<char> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<char>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// Every field of an envelope as text (doubles in hexfloat, so exact):
/// two envelopes print the same iff each field decoded to the same value.
std::string fields_of(const net::Envelope& env) {
  std::ostringstream os;
  os << std::hexfloat << static_cast<unsigned>(env.type) << ' '
     << env.request_id;
  const auto job = [&os](const trace::JobRecord& j) {
    os << ' ' << j.id << ' ' << j.submit << ' ' << j.runtime << ' '
       << j.requested_time << ' ' << j.nodes << ' ' << j.requested_mem_mib
       << ' ' << j.used_mem_mib << ' ' << j.user << ' ' << j.app << ' '
       << static_cast<int>(j.status);
  };
  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, net::EstimateReq> ||
                      std::is_same_v<T, net::PreviewReq>) {
          job(body.job);
        } else if constexpr (std::is_same_v<T, net::FeedbackReq>) {
          job(body.job);
          os << ' ' << body.fb.success << ' ' << body.fb.granted_mib;
          if (body.fb.used_mib) os << " used " << *body.fb.used_mib;
          if (body.fb.resource_failure) {
            os << " rf " << *body.fb.resource_failure;
          }
        } else if constexpr (std::is_same_v<T, net::CancelReq>) {
          job(body.job);
          os << ' ' << body.granted;
        } else if constexpr (std::is_same_v<T, net::MatchReq>) {
          for (const auto& [name, source] : body.attrs) {
            os << " [" << name << '|' << source << ']';
          }
        } else if constexpr (std::is_same_v<T, net::EstimateResp>) {
          os << ' ' << body.granted_mib << ' ' << body.lowered << ' '
             << body.group_key;
        } else if constexpr (std::is_same_v<T, net::PreviewResp>) {
          os << ' ' << body.granted_mib;
        } else if constexpr (std::is_same_v<T, net::Ack>) {
          os << ' ' << body.ok;
        } else if constexpr (std::is_same_v<T, net::HealthResp>) {
          os << ' ' << body.degraded << ' ' << body.wal_enabled << ' '
             << body.groups;
        } else if constexpr (std::is_same_v<T, net::StatsResp>) {
          for (const std::uint64_t v :
               {body.submissions, body.rewrites, body.successes,
                body.failures, body.cancels, body.groups, body.evictions,
                body.degraded_ops, body.wal_appends, body.compactions}) {
            os << ' ' << v;
          }
        } else if constexpr (std::is_same_v<T, net::MatchResp>) {
          for (const std::uint32_t row : body.rows) os << ' ' << row;
        } else if constexpr (std::is_same_v<T, net::ErrorResp>) {
          os << ' ' << static_cast<unsigned>(body.code) << " ["
             << body.message << ']';
        }
        // CheckpointReq, HealthReq, StatsReq: no body fields.
      },
      env.body);
  return os.str();
}

TEST(Codec, GoldenFramesKeepTheirBytes) {
  // Every round-trip test above would pass under a codec or checksum that
  // changed the bytes consistently on both sides; these literals pin what
  // a peer built from an older (or newer) tree sends and expects. The
  // literals are little-endian (the host order every supported target
  // has; DESIGN.md §7).
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "golden frames are recorded in little-endian order";
  }
  std::vector<char> magic;
  net::encode_magic(magic);
  EXPECT_EQ(to_hex(magic), "52534d4e45543031");

  core::Feedback explicit_fb;
  explicit_fb.success = true;
  explicit_fb.granted_mib = 16.0;
  explicit_fb.used_mib = 5.25;
  explicit_fb.resource_failure = false;
  core::Feedback implicit_fb;
  implicit_fb.success = false;
  implicit_fb.granted_mib = 8.0;
  net::HealthResp health;
  health.wal_enabled = true;
  health.groups = 17;
  net::StatsResp stats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};

  // Each golden frame must encode to its literal and decode back to the
  // same fields, with nothing left over. A literal's first line is the
  // frame header (u32 length, u32 CRC-32 of the payload); the payload
  // follows.
  const auto check = [](const net::Envelope& envelope,
                        const std::string& hex) {
    const std::string name = net::to_string(envelope.type) +
                             std::string(" #") +
                             std::to_string(envelope.request_id);
    std::vector<char> bytes;
    net::encode_envelope(bytes, envelope);
    EXPECT_EQ(to_hex(bytes), hex) << name;

    const std::vector<char> golden = from_hex(hex);
    net::Decoder decoder(/*expect_magic=*/false);
    decoder.feed(golden.data(), golden.size());
    auto msg = decoder.next();
    ASSERT_TRUE(msg.has_value()) << name << ": " << msg.error();
    ASSERT_TRUE(msg.value().has_value()) << name;
    EXPECT_EQ(fields_of(*msg.value()), fields_of(envelope)) << name;
    EXPECT_EQ(decoder.buffered(), 0u) << name;
  };

  check({net::MsgType::kEstimate, 1,
         net::EstimateReq{make_job(7, 3, 2, 24.0, 9.5)}},
        "49000000a9214e34"
        "01010000000000000007000000000000000000000000001c4000000000000024"
        "4000000000000034400200000000000000000038400000000000002340030000"
        "000200000001000000");
  check({net::MsgType::kPreview, 2,
         net::PreviewReq{make_job(8, 4, 1, 16.0, 6.25)}},
        "49000000edb3d8a8"
        "0202000000000000000800000000000000000000000000204000000000000024"
        "4000000000000034400200000000000000000030400000000000001940040000"
        "000100000001000000");
  check({net::MsgType::kFeedback, 3,
         net::FeedbackReq{make_job(9, 0, 0, 16.0, 5.25), explicit_fb}},
        "5d000000d58c2087"
        "0303000000000000000900000000000000000000000000224000000000000024"
        "4000000000000034400200000000000000000030400000000000001540000000"
        "0000000000010000000100000000000030400100000000000015400100");
  check({net::MsgType::kFeedback, 4,
         net::FeedbackReq{make_job(10, 0, 0, 8.0, 8.0), implicit_fb}},
        "5d0000003d1c88c0"
        "0304000000000000000a00000000000000000000000000244000000000000024"
        "4000000000000034400200000000000000000020400000000000002040000000"
        "0000000000010000000000000000000020400000000000000000000000");
  check({net::MsgType::kCancel, 5,
         net::CancelReq{make_job(11, 2, 1, 32.0, 1.0), 24.0}},
        "5100000036f5c6d6"
        "0405000000000000000b00000000000000000000000000264000000000000024"
        "400000000000003440020000000000000000004040000000000000f03f020000"
        "0001000000010000000000000000003840");
  check({net::MsgType::kCheckpoint, 6, net::CheckpointReq{}},
        "090000006658f16a"
        "050600000000000000");
  check({net::MsgType::kHealth, 7, net::HealthReq{}},
        "090000003d64d69f"
        "060700000000000000");
  check({net::MsgType::kStats, 8, net::StatsReq{}},
        "09000000d2628d51"
        "070800000000000000");
  check({net::MsgType::kMatch, 9,
         net::MatchReq{{{"req_memory", "16"},
                        {"requirements", "other.memory >= my.req_memory"}}}},
        "5200000012031ebe"
        "080900000000000000020000000a0000007265715f6d656d6f72790200000031"
        "360c000000726571756972656d656e74731d0000006f746865722e6d656d6f72"
        "79203e3d206d792e7265715f6d656d6f7279");
  check({net::MsgType::kEstimateResp, 10,
         net::EstimateResp{16.0, true, 0xDEADBEEFu}},
        "1a0000008ffd0fbe"
        "810a00000000000000000000000000304001efbeadde00000000");
  check({net::MsgType::kPreviewResp, 11, net::PreviewResp{24.0}},
        "11000000447cc79c"
        "820b000000000000000000000000003840");
  check({net::MsgType::kAck, 12, net::Ack{true}},
        "0a000000f6198b7f"
        "830c0000000000000001");
  check({net::MsgType::kHealthResp, 13, health},
        "13000000c0f6b0fd"
        "840d0000000000000000011100000000000000");
  check({net::MsgType::kStatsResp, 14, stats},
        "590000007e9233d4"
        "850e000000000000000100000000000000020000000000000003000000000000"
        "0004000000000000000500000000000000060000000000000007000000000000"
        "00080000000000000009000000000000000a00000000000000");
  check({net::MsgType::kMatchResp, 15, net::MatchResp{{4, 2}}},
        "1500000021756d3b"
        "860f00000000000000020000000400000002000000");
  check({net::MsgType::kError, 16,
         net::ErrorResp{net::ErrorCode::kBackpressure, "queue full"}},
        "15000000471bb5c6"
        "ff1000000000000000020071756575652066756c6c");
}

// --- server over real sockets ------------------------------------------------

TEST(Server, ServesEveryVerbOverUds) {
  const fs::path dir = fresh_dir("verbs");
  svc::Matchd matchd(sync_config());
  matchd.set_ladder(test_ladder());

  net::ServerConfig config;
  config.uds_path = (dir / "matchd.sock").string();
  net::Server server(matchd, config);
  ASSERT_TRUE(server.start());

  net::Client client;
  ASSERT_TRUE(client.connect_uds(config.uds_path).has_value());

  const trace::JobRecord job = make_job(1, 1, 1, 30.0, 10.0);
  auto est = client.estimate(job);
  ASSERT_TRUE(est.has_value()) << est.error();
  EXPECT_DOUBLE_EQ(est.value().granted_mib, 32.0);  // first sight: round up

  auto prev = client.preview(job);
  ASSERT_TRUE(prev.has_value());
  EXPECT_GT(prev.value().granted_mib, 0.0);

  core::Feedback fb;
  fb.success = true;
  fb.granted_mib = est.value().granted_mib;
  fb.used_mib = 10.0;
  fb.resource_failure = false;
  auto ack = client.feedback(job, fb);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack.value().ok);

  auto est2 = client.estimate(job);
  ASSERT_TRUE(est2.has_value());
  auto cancel = client.cancel(job, est2.value().granted_mib);
  ASSERT_TRUE(cancel.has_value());

  auto health = client.health();
  ASSERT_TRUE(health.has_value());
  EXPECT_FALSE(health.value().degraded);
  EXPECT_FALSE(health.value().wal_enabled);
  EXPECT_EQ(health.value().groups, 1u);

  auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats.value().submissions, 2u);
  EXPECT_EQ(stats.value().successes, 1u);
  EXPECT_EQ(stats.value().cancels, 1u);

  auto ckpt = client.checkpoint();  // WAL off: served, but not ok
  ASSERT_TRUE(ckpt.has_value());
  EXPECT_FALSE(ckpt.value().ok);

  server.stop();
  const net::ServerStats sstats = server.stats();
  EXPECT_EQ(sstats.accepts, 1u);
  EXPECT_GE(sstats.requests, 8u);
  EXPECT_EQ(sstats.protocol_errors, 0u);
  fs::remove_all(dir);
}

TEST(Server, MatchVerbRanksLikeLocalCompiledMatcher) {
  const fs::path dir = fresh_dir("match");
  svc::Matchd matchd(sync_config());
  matchd.set_ladder(test_ladder());

  // A machine population with numeric capacity, a few string-typed rows,
  // and one machine-side requirements expression — the shapes the matcher
  // distinguishes.
  util::Rng rng(0x5EED);
  std::vector<match::ClassAd> machines(64);
  for (std::size_t i = 0; i < machines.size(); ++i) {
    machines[i].set("memory", 4.0 * static_cast<double>(1 + rng() % 16));
    machines[i].set("cpus", static_cast<double>(1 + rng() % 8));
    if (i % 7 == 0) machines[i].set("arch", std::string("x86_64"));
    if (i % 11 == 0) {
      ASSERT_TRUE(machines[i].set_expr("requirements", "my.cpus >= 2"));
    }
  }

  net::ServerConfig config;
  config.uds_path = (dir / "matchd.sock").string();
  config.machines = &machines;
  net::Server server(matchd, config);
  ASSERT_TRUE(server.start());
  net::Client client;
  ASSERT_TRUE(client.connect_uds(config.uds_path).has_value());

  net::MatchReq req;
  req.attrs = {{"req_memory", "16"},
               {"cpus", "2"},
               {"requirements", "other.memory >= my.req_memory"},
               {"rank", "other.memory - my.req_memory"}};
  auto resp = client.match(req);
  ASSERT_TRUE(resp.has_value()) << resp.error();

  // The wire answer must be exactly what the compiled matcher produces
  // locally over the same population.
  match::ClassAd request;
  for (const auto& [name, source] : req.attrs) {
    ASSERT_TRUE(request.set_expr(name, source));
  }
  const match::MachineTable table = match::MachineTable::build(machines);
  const std::vector<std::size_t> expected =
      match::rank_matches_compiled(request, table);
  ASSERT_FALSE(expected.empty());
  ASSERT_EQ(resp.value().rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(resp.value().rows[i], static_cast<std::uint32_t>(expected[i]))
        << "rank position " << i;
  }

  // An unparsable attribute is a clean kBadRequest, not a dropped
  // connection; the next request on the same socket still works.
  net::MatchReq bad;
  bad.attrs = {{"requirements", "other.memory >="}};
  auto bad_resp = client.match(bad);
  EXPECT_FALSE(bad_resp.has_value());
  auto again = client.match(req);
  ASSERT_TRUE(again.has_value()) << again.error();
  EXPECT_EQ(again.value().rows, resp.value().rows);

  server.stop();
  fs::remove_all(dir);
}

TEST(Server, MatchVerbWithoutPopulationIsBadRequest) {
  const fs::path dir = fresh_dir("match_none");
  svc::Matchd matchd(sync_config());
  matchd.set_ladder(test_ladder());
  net::ServerConfig config;
  config.uds_path = (dir / "matchd.sock").string();
  net::Server server(matchd, config);
  ASSERT_TRUE(server.start());
  net::Client client;
  ASSERT_TRUE(client.connect_uds(config.uds_path).has_value());

  auto resp = client.match(net::MatchReq{});
  EXPECT_FALSE(resp.has_value());
  auto health = client.health();  // connection survives the error answer
  EXPECT_TRUE(health.has_value());

  server.stop();
  fs::remove_all(dir);
}

TEST(Server, NetworkedDecisionsMatchLocalMatchd) {
  const fs::path dir = fresh_dir("equiv");
  const auto jobs = small_workload(300);

  svc::Matchd local(sync_config());
  local.set_ladder(test_ladder());
  std::vector<MiB> expected;
  expected.reserve(jobs.size());
  for (const auto& job : jobs) expected.push_back(drive_job(local, job));

  svc::Matchd remote(sync_config());
  remote.set_ladder(test_ladder());
  net::ServerConfig config;
  config.uds_path = (dir / "matchd.sock").string();
  net::Server server(remote, config);
  ASSERT_TRUE(server.start());
  net::Client client;
  ASSERT_TRUE(client.connect_uds(config.uds_path).has_value());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto est = client.estimate(jobs[i]);
    ASSERT_TRUE(est.has_value()) << est.error();
    ASSERT_EQ(est.value().granted_mib, expected[i]) << "job " << i;
    core::Feedback fb;
    fb.granted_mib = est.value().granted_mib;
    fb.success = jobs[i].used_mem_mib <= est.value().granted_mib;
    fb.used_mib = jobs[i].used_mem_mib;
    fb.resource_failure = !fb.success;
    ASSERT_TRUE(client.feedback(jobs[i], fb).has_value());
  }
  server.stop();
  fs::remove_all(dir);
}

TEST(Server, AsyncWorkersServeIdenticalDecisions) {
  const fs::path dir = fresh_dir("async");
  const auto jobs = small_workload(200);

  svc::Matchd local(sync_config());
  local.set_ladder(test_ladder());
  std::vector<MiB> expected;
  for (const auto& job : jobs) expected.push_back(drive_job(local, job));

  svc::MatchdConfig async_cfg = sync_config();
  async_cfg.workers = 2;
  svc::Matchd remote(async_cfg);
  remote.set_ladder(test_ladder());
  net::ServerConfig config;
  config.uds_path = (dir / "matchd.sock").string();
  net::Server server(remote, config);
  ASSERT_TRUE(server.start());
  net::Client client;
  ASSERT_TRUE(client.connect_uds(config.uds_path).has_value());

  // A serial client drive is deterministic even through the admission
  // queue — the matchd determinism contract, now over a socket.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto est = client.estimate(jobs[i]);
    ASSERT_TRUE(est.has_value()) << est.error();
    ASSERT_EQ(est.value().granted_mib, expected[i]) << "job " << i;
    core::Feedback fb;
    fb.granted_mib = est.value().granted_mib;
    fb.success = jobs[i].used_mem_mib <= est.value().granted_mib;
    fb.used_mib = jobs[i].used_mem_mib;
    fb.resource_failure = !fb.success;
    ASSERT_TRUE(client.feedback(jobs[i], fb).has_value());
  }
  server.stop();
  fs::remove_all(dir);
}

TEST(Server, FullAdmissionQueueAnswersBackpressure) {
  const fs::path dir = fresh_dir("backpressure");
  util::FaultInjector faults(0xFA17);
  faults.arm(util::FaultSite::kQueueAdmit,
             util::FaultSpec{1.0, UINT32_MAX});  // every admit "full"

  svc::MatchdConfig config = sync_config();
  config.workers = 2;
  config.durability.faults = &faults;
  svc::Matchd matchd(config);
  matchd.set_ladder(test_ladder());

  net::ServerConfig server_cfg;
  server_cfg.uds_path = (dir / "matchd.sock").string();
  net::Server server(matchd, server_cfg);
  ASSERT_TRUE(server.start());
  net::Client client;
  ASSERT_TRUE(client.connect_uds(server_cfg.uds_path).has_value());

  auto est = client.estimate(make_job(1, 1, 1, 16, 4));
  ASSERT_FALSE(est.has_value());  // ErrorResp{kBackpressure} -> client error
  EXPECT_NE(est.error().find("server error 2"), std::string::npos)
      << est.error();

  server.stop();
  EXPECT_GE(server.stats().backpressure_rejects, 1u);
  fs::remove_all(dir);
}

/// Bare-socket helper: a blocking socket connected to a UDS path, or -1.
int raw_uds_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Bare-socket helper: connect to a UDS path and write raw bytes.
int raw_uds_send(const std::string& path, const std::vector<char>& bytes) {
  const int fd = raw_uds_connect(path);
  if (fd < 0) return -1;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  return fd;
}

TEST(Server, GarbageBytesCloseTheConnection) {
  const fs::path dir = fresh_dir("garbage");
  svc::Matchd matchd(sync_config());
  matchd.set_ladder(test_ladder());
  net::ServerConfig config;
  config.uds_path = (dir / "matchd.sock").string();
  net::Server server(matchd, config);
  ASSERT_TRUE(server.start());

  net::Client healthy;
  ASSERT_TRUE(healthy.connect_uds(config.uds_path).has_value());
  ASSERT_TRUE(healthy.health().has_value());

  // Vandal 1: wrong magic entirely.
  std::vector<char> junk(64, 'X');
  const int fd1 = raw_uds_send(config.uds_path, junk);
  ASSERT_GE(fd1, 0);

  // Vandal 2: valid magic, then a frame with a stomped CRC.
  std::vector<char> corrupt;
  net::encode_magic(corrupt);
  net::encode(corrupt, 1, net::HealthReq{});
  corrupt.back() ^= 0x01;
  const int fd2 = raw_uds_send(config.uds_path, corrupt);
  ASSERT_GE(fd2, 0);

  // Both vandals must be counted and dropped; the loop reaps them on read.
  for (int i = 0; i < 200 && server.stats().protocol_errors < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.stats().protocol_errors, 2u);
  ::close(fd1);
  ::close(fd2);

  // The healthy connection is unaffected throughout.
  ASSERT_TRUE(healthy.stats().has_value());
  server.stop();
  fs::remove_all(dir);
}

/// Bare-socket pipelining client: queue() appends request frames (ids 1,
/// 2, ...), and pump() writes them without waiting for answers while it
/// decodes responses, checking each id is answered exactly once with the
/// response type its request kind calls for.
class PipelinedConn {
 public:
  explicit PipelinedConn(const std::string& path)
      : fd_(raw_uds_connect(path)) {
    if (fd_ >= 0) (void)::fcntl(fd_, F_SETFL, O_NONBLOCK);
    net::encode_magic(out_);
  }
  ~PipelinedConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  PipelinedConn(const PipelinedConn&) = delete;
  PipelinedConn& operator=(const PipelinedConn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool done() const noexcept {
    return answered_ == expect_.size();
  }
  [[nodiscard]] std::size_t answered() const noexcept { return answered_; }
  [[nodiscard]] std::size_t requests() const noexcept {
    return expect_.size();
  }

  template <typename Req>
  void queue(const Req& req, net::MsgType answer) {
    expect_.push_back(answer);
    seen_.push_back(false);
    grants_.push_back(0.0);
    net::encode(out_, expect_.size(), req);
  }

  /// EstimateResp grants in request-id order.
  [[nodiscard]] std::vector<MiB> grants() const {
    std::vector<MiB> out;
    for (std::size_t i = 0; i < expect_.size(); ++i) {
      if (expect_[i] == net::MsgType::kEstimateResp) {
        out.push_back(grants_[i]);
      }
    }
    return out;
  }

  [[nodiscard]] short events() const noexcept {
    return static_cast<short>(POLLIN | (sent_ < out_.size() ? POLLOUT : 0));
  }

  /// Write what the socket takes, then read and check every response.
  [[nodiscard]] testing::AssertionResult on_ready(short revents) {
    while ((revents & POLLOUT) != 0 && sent_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + sent_, out_.size() - sent_,
                               MSG_NOSIGNAL);
      if (n > 0) {
        sent_ += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (!(n < 0 && errno == EINTR)) {
        return testing::AssertionFailure()
               << "send: " << std::strerror(errno);
      }
    }
    if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
      return testing::AssertionSuccess();
    }
    char buf[16 * 1024];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n > 0) {
        in_.feed(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (!(n < 0 && errno == EINTR)) {
        return testing::AssertionFailure()
               << "server closed the connection after " << answered_
               << " answers";
      }
    }
    for (;;) {
      auto msg = in_.next();
      if (!msg) {
        return testing::AssertionFailure()
               << "corrupt response stream: " << msg.error();
      }
      if (!msg.value().has_value()) return testing::AssertionSuccess();
      const net::Envelope& env = *msg.value();
      const std::uint64_t id = env.request_id;
      if (id == 0 || id > expect_.size()) {
        return testing::AssertionFailure() << "answer to unknown id " << id;
      }
      if (seen_[id - 1]) {
        return testing::AssertionFailure()
               << "id " << id << " answered twice";
      }
      if (env.type != expect_[id - 1]) {
        return testing::AssertionFailure()
               << "id " << id << " answered with type "
               << static_cast<int>(env.type) << ", expected "
               << static_cast<int>(expect_[id - 1]);
      }
      seen_[id - 1] = true;
      ++answered_;
      if (env.type == net::MsgType::kEstimateResp) {
        grants_[id - 1] = std::get<net::EstimateResp>(env.body).granted_mib;
      }
    }
  }

 private:
  int fd_;
  std::vector<char> out_;  ///< client magic, then every queued frame
  std::size_t sent_ = 0;
  net::Decoder in_;  ///< expects the server's magic first
  std::vector<net::MsgType> expect_;  ///< answer type, by request id - 1
  std::vector<bool> seen_;
  std::vector<MiB> grants_;
  std::size_t answered_ = 0;
};

/// Poll every connection until all its queued requests are answered.
/// Fails at `deadline` (or on the first bad answer) instead of hanging.
testing::AssertionResult pump(
    const std::vector<std::unique_ptr<PipelinedConn>>& conns,
    std::chrono::steady_clock::time_point deadline) {
  std::vector<pollfd> fds(conns.size());
  for (;;) {
    bool all_done = true;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i] = pollfd{conns[i]->fd(), conns[i]->events(), 0};
      all_done = all_done && conns[i]->done();
    }
    if (all_done) return testing::AssertionSuccess();
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      auto failure = testing::AssertionFailure()
                     << "deadline passed; answered per connection:";
      for (const auto& conn : conns) {
        failure << " " << conn->answered() << "/" << conn->requests();
      }
      return failure;
    }
    const int n =
        ::poll(fds.data(), fds.size(), static_cast<int>(left.count()));
    if (n < 0 && errno != EINTR) {
      return testing::AssertionFailure() << "poll: " << std::strerror(errno);
    }
    for (std::size_t i = 0; n > 0 && i < conns.size(); ++i) {
      if (fds[i].revents == 0) continue;
      auto ok = conns[i]->on_ready(fds[i].revents);
      if (!ok) return ok;
    }
  }
}

TEST(Server, PipelinedAsyncCompletionsAnswerEveryRequestOnce) {
  // Deep pipelines on several connections make the workers finish
  // responses in bursts, so one flush carries many completions for many
  // connections, and connections paused at the pipeline cap resume from
  // inside the flush. Each connection's jobs use users no other connection
  // uses, so its groups evolve by its own requests alone: with one worker
  // its grants equal a local synchronous matchd fed the same sequence.
  // The feedback in the stream makes later grants depend on earlier ones,
  // so a reordering would show.
  constexpr std::size_t kJobs = 1000;  // estimate + preview + feedback each
  struct Run {
    std::size_t workers;
    std::size_t conns;
  };
  for (const Run run : {Run{1, 1}, Run{1, 4}, Run{2, 4}}) {
    SCOPED_TRACE("workers=" + std::to_string(run.workers) +
                 " connections=" + std::to_string(run.conns));
    const fs::path dir = fresh_dir("pipelined");
    svc::MatchdConfig remote_cfg = sync_config();
    remote_cfg.workers = run.workers;
    remote_cfg.batch_max = 64;
    svc::Matchd remote(remote_cfg);
    remote.set_ladder(test_ladder());
    net::ServerConfig config;
    config.uds_path = (dir / "matchd.sock").string();
    config.max_pipeline = 8;
    net::Server server(remote, config);
    ASSERT_TRUE(server.start());

    std::vector<std::unique_ptr<PipelinedConn>> conns;
    std::vector<trace::JobRecord> tails;
    std::vector<std::vector<MiB>> expected(run.conns);
    for (std::size_t c = 0; c < run.conns; ++c) {
      conns.push_back(std::make_unique<PipelinedConn>(config.uds_path));
      ASSERT_GE(conns.back()->fd(), 0);
      std::vector<trace::JobRecord> jobs = small_workload(kJobs + 1);
      for (auto& job : jobs) {
        job.user += static_cast<std::uint32_t>(100 * c);
        job.id += 1'000'000 * c;
      }
      svc::Matchd local(sync_config());
      local.set_ladder(test_ladder());
      for (std::size_t i = 0; i < kJobs; ++i) {
        const MiB granted = drive_job(local, jobs[i]);
        expected[c].push_back(granted);
        conns[c]->queue(net::EstimateReq{jobs[i]},
                        net::MsgType::kEstimateResp);
        conns[c]->queue(net::PreviewReq{jobs[i]},
                        net::MsgType::kPreviewResp);
        conns[c]->queue(
            net::FeedbackReq{jobs[i], outcome_for(jobs[i], granted)},
            net::MsgType::kAck);
      }
      tails.push_back(jobs.back());
      expected[c].push_back(local.submit(jobs.back()).granted_mib);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    ASSERT_TRUE(pump(conns, deadline));

    // A burst of one: every earlier answer has arrived, so this lone
    // estimate's completion finds the list empty and must still wake the
    // loop on its own.
    for (std::size_t c = 0; c < run.conns; ++c) {
      conns[c]->queue(net::EstimateReq{tails[c]},
                      net::MsgType::kEstimateResp);
      ASSERT_TRUE(pump(conns, deadline));
    }

    if (run.workers == 1) {
      for (std::size_t c = 0; c < run.conns; ++c) {
        EXPECT_EQ(conns[c]->grants(), expected[c]) << "connection " << c;
      }
    }
    conns.clear();
    server.stop();
    const net::ServerStats stats = server.stats();
    EXPECT_EQ(stats.protocol_errors, 0u);
    EXPECT_EQ(stats.backpressure_rejects, 0u);
    EXPECT_EQ(stats.requests, run.conns * (3 * kJobs + 1));
    // A flush resumes each paused connection at most once, after all of
    // its completions, not once per completion.
    EXPECT_GT(stats.completion_flushes, 0u);
    EXPECT_LE(stats.pipeline_resumes, stats.completion_flushes * run.conns);
    fs::remove_all(dir);
  }
}

TEST(Server, IdleConnectionsAreReaped) {
  const fs::path dir = fresh_dir("idle");
  svc::Matchd matchd(sync_config());
  matchd.set_ladder(test_ladder());
  net::ServerConfig config;
  config.uds_path = (dir / "matchd.sock").string();
  config.idle_timeout = std::chrono::milliseconds(50);
  net::Server server(matchd, config);
  ASSERT_TRUE(server.start());

  net::Client client;
  ASSERT_TRUE(client.connect_uds(config.uds_path).has_value());
  ASSERT_TRUE(client.health().has_value());

  // Wait out the idle timeout; the loop reaps on its next tick.
  for (int i = 0; i < 100 && server.stats().idle_reaped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().idle_reaped, 1u);
  EXPECT_EQ(server.stats().connections, 0u);
  server.stop();
  fs::remove_all(dir);
}

TEST(Server, ServesOverTcpEphemeralPort) {
  svc::Matchd matchd(sync_config());
  matchd.set_ladder(test_ladder());
  net::ServerConfig config;
  config.tcp = true;
  config.tcp_port = 0;  // ephemeral
  net::Server server(matchd, config);
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.tcp_port(), 0);

  net::Client client;
  ASSERT_TRUE(
      client.connect_tcp("127.0.0.1", server.tcp_port()).has_value());
  auto est = client.estimate(make_job(1, 1, 1, 30.0, 10.0));
  ASSERT_TRUE(est.has_value()) << est.error();
  EXPECT_DOUBLE_EQ(est.value().granted_mib, 32.0);
  server.stop();
}

TEST(Server, ExportsNetMetrics) {
  const fs::path dir = fresh_dir("metrics");
  obs::Registry registry;
  svc::Matchd matchd(sync_config());
  matchd.set_ladder(test_ladder());
  net::ServerConfig config;
  config.uds_path = (dir / "matchd.sock").string();
  config.metrics = &registry;
  {
    net::Server server(matchd, config);
    ASSERT_TRUE(server.start());
    net::Client client;
    ASSERT_TRUE(client.connect_uds(config.uds_path).has_value());
    ASSERT_TRUE(client.estimate(make_job(1, 1, 1, 16, 4)).has_value());
    server.stop();

    const obs::MetricsSnapshot snap = registry.snapshot();
    const auto* accepts = snap.find("resmatch_net_accepts_total");
    ASSERT_NE(accepts, nullptr);
    EXPECT_GE(accepts->value, 1.0);
    const auto* reqs = snap.find("resmatch_net_requests_total",
                                 {{"type", "estimate"}});
    ASSERT_NE(reqs, nullptr);
    EXPECT_GE(reqs->value, 1.0);
    const auto* lat = snap.find("resmatch_net_request_latency_seconds");
    ASSERT_NE(lat, nullptr);
    EXPECT_GE(lat->histogram.count, 1u);
    EXPECT_NE(snap.find("resmatch_net_connections"), nullptr);
    EXPECT_NE(snap.find("resmatch_net_bytes_read_total"), nullptr);
  }
  // Destruction removes the providers so the registry outlives the server.
  EXPECT_EQ(registry.snapshot().find("resmatch_net_accepts_total"), nullptr);
  fs::remove_all(dir);
}

// --- router ------------------------------------------------------------------

net::RouterConfig router_config(std::vector<std::string> uds_paths,
                                obs::Registry* metrics = nullptr) {
  net::RouterConfig config;
  for (auto& path : uds_paths) {
    net::ShardEndpoint ep;
    ep.uds_path = std::move(path);
    config.shards.push_back(std::move(ep));
  }
  config.ladder = test_ladder();
  config.retry.max_attempts = 2;
  config.retry.initial_backoff = std::chrono::microseconds(100);
  config.retry.max_backoff = std::chrono::microseconds(1000);
  config.metrics = metrics;
  return config;
}

TEST(Router, RingIsBalancedAndDeterministic) {
  net::Router a(router_config({"a", "b", "c", "d"}));
  net::Router b(router_config({"a", "b", "c", "d"}));
  std::vector<std::size_t> hits(4, 0);
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const std::size_t shard = a.shard_of_key(util::mix64(key));
    EXPECT_EQ(shard, b.shard_of_key(util::mix64(key)));  // pure function
    ASSERT_LT(shard, 4u);
    ++hits[shard];
  }
  for (std::size_t s = 0; s < 4; ++s) {
    // With 64 vnodes/shard, balance is good; assert a loose band so the
    // test pins the property, not the constant.
    EXPECT_GT(hits[s], 10000u / 16) << "shard " << s << " starved";
    EXPECT_LT(hits[s], 10000u / 2) << "shard " << s << " overloaded";
  }
}

TEST(Router, AddingAShardMovesOnlyItsSliceOfKeys) {
  net::Router three(router_config({"a", "b", "c"}));
  net::Router four(router_config({"a", "b", "c", "d"}));
  std::size_t moved = 0;
  const std::size_t keys = 10000;
  for (std::uint64_t k = 0; k < keys; ++k) {
    const std::uint64_t key = util::mix64(k ^ 0xABCDEF);
    const std::size_t before = three.shard_of_key(key);
    const std::size_t after = four.shard_of_key(key);
    if (before != after) {
      ++moved;
      // Every moved key must have moved TO the new shard — consistent
      // hashing's defining property.
      EXPECT_EQ(after, 3u) << "key rerouted between surviving shards";
    }
  }
  // ~1/4 of the keyspace should move; allow a generous band.
  EXPECT_GT(moved, keys / 10);
  EXPECT_LT(moved, keys / 2);
}

TEST(Router, RoutesAcrossShardsWithDecisionEquivalence) {
  const fs::path dir = fresh_dir("router");
  const auto jobs = small_workload(300);

  svc::Matchd local(sync_config());
  local.set_ladder(test_ladder());
  std::vector<MiB> expected;
  for (const auto& job : jobs) expected.push_back(drive_job(local, job));

  svc::Matchd shard0(sync_config());
  svc::Matchd shard1(sync_config());
  shard0.set_ladder(test_ladder());
  shard1.set_ladder(test_ladder());
  net::ServerConfig s0;
  s0.uds_path = (dir / "shard0.sock").string();
  net::ServerConfig s1;
  s1.uds_path = (dir / "shard1.sock").string();
  net::Server server0(shard0, s0);
  net::Server server1(shard1, s1);
  ASSERT_TRUE(server0.start());
  ASSERT_TRUE(server1.start());

  net::Router router(router_config({s0.uds_path, s1.uds_path}));
  ASSERT_TRUE(router.connect().has_value());

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(drive_job(router, jobs[i]), expected[i]) << "job " << i;
  }

  // Both shards must have actually served traffic (the workload has
  // several groups; the ring spreads them).
  const net::StatsResp total = router.aggregate_stats();
  EXPECT_EQ(total.submissions, jobs.size());
  EXPECT_GT(shard0.stats().submissions, 0u);
  EXPECT_GT(shard1.stats().submissions, 0u);

  server0.stop();
  server1.stop();
  fs::remove_all(dir);
}

TEST(Router, DegradesToPassThroughAndHealsViaProbe) {
  const fs::path dir = fresh_dir("degrade");
  const std::string sock = (dir / "shard.sock").string();
  obs::Registry registry;

  net::Router router(router_config({sock}, &registry));
  EXPECT_FALSE(router.connect().has_value());  // nobody listening yet
  EXPECT_TRUE(router.shard_degraded(0));

  // Degraded pass-through: rounded raw request, never lowered; feedback
  // silently dropped. Exactly a degraded Matchd's contract.
  const trace::JobRecord job = make_job(1, 1, 1, 30.0, 10.0);
  const svc::MatchDecision decision = router.submit(job);
  EXPECT_DOUBLE_EQ(decision.granted_mib, 32.0);
  EXPECT_FALSE(decision.lowered);
  core::Feedback fb;
  fb.granted_mib = decision.granted_mib;
  fb.success = true;
  router.feedback(job, fb);
  EXPECT_GE(router.stats().degraded_ops, 2u);

  // Bring the shard up; the next operation probes and heals.
  svc::Matchd matchd(sync_config());
  matchd.set_ladder(test_ladder());
  net::ServerConfig config;
  config.uds_path = sock;
  net::Server server(matchd, config);
  ASSERT_TRUE(server.start());

  const svc::MatchDecision healed = router.submit(job);
  EXPECT_FALSE(router.shard_degraded(0));
  EXPECT_DOUBLE_EQ(healed.granted_mib, 32.0);  // first sight on this shard
  EXPECT_EQ(matchd.stats().submissions, 1u);   // served remotely now

  const obs::MetricsSnapshot snap = registry.snapshot();
  const auto* healthy = snap.find("resmatch_router_shard_healthy",
                                  {{"shard", "0"}});
  ASSERT_NE(healthy, nullptr);
  EXPECT_DOUBLE_EQ(healthy->value, 1.0);
  const auto* degraded_ops = snap.find("resmatch_router_degraded_ops_total");
  ASSERT_NE(degraded_ops, nullptr);
  EXPECT_GE(degraded_ops->value, 2.0);

  server.stop();
  fs::remove_all(dir);
}

TEST(Router, SurvivesShardRestartMidStream) {
  const fs::path dir = fresh_dir("restart");
  const std::string sock = (dir / "shard.sock").string();
  const fs::path wal_dir = dir / "wal";

  auto make_matchd = [&] {
    svc::MatchdConfig config = sync_config();
    config.durability.wal_dir = wal_dir.string();
    return std::make_unique<svc::Matchd>(config);
  };

  auto matchd = make_matchd();
  matchd->set_ladder(test_ladder());
  ASSERT_TRUE(matchd->recover().has_value());
  net::ServerConfig server_cfg;
  server_cfg.uds_path = sock;
  auto server = std::make_unique<net::Server>(*matchd, server_cfg);
  ASSERT_TRUE(server->start());

  auto config = router_config({sock});
  config.retry.max_attempts = 20;  // ride out the restart window
  config.retry.initial_backoff = std::chrono::microseconds(500);
  config.retry.max_backoff = std::chrono::microseconds(20'000);
  net::Router router(config);
  ASSERT_TRUE(router.connect().has_value());

  const auto jobs = small_workload(60);
  std::vector<MiB> grants;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i == 30) {
      // Tear the shard down (flushing WAL state) and restart it — the
      // matchd equivalent of a crash + WAL recovery, in-process.
      server->stop();
      server.reset();
      matchd.reset();
      matchd = make_matchd();
      matchd->set_ladder(test_ladder());
      ASSERT_TRUE(matchd->recover().has_value());
      server = std::make_unique<net::Server>(*matchd, server_cfg);
      ASSERT_TRUE(server->start());
    }
    grants.push_back(drive_job(router, jobs[i]));
  }

  // The restarted shard recovered its state from the WAL, so decisions
  // match an uninterrupted single-process run byte for byte.
  svc::Matchd reference(sync_config());
  reference.set_ladder(test_ladder());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_EQ(drive_job(reference, jobs[i]), grants[i]) << "job " << i;
  }
  EXPECT_EQ(router.stats().degraded_ops, 0u);

  server->stop();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace resmatch
