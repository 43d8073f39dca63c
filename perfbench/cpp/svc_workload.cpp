// svc-net-mixed: the only path from the wire to the WAL.
//
// One net::Server on a Unix-domain socket fronts a svc::Matchd with one
// batch worker and a WAL on the local filesystem. The client is this
// thread: at most kConns nonblocking connections, requests built with
// net::encode and answers parsed with net::Decoder, many in flight per
// connection. Each CM5 job sends one or two previews, 1.84 per job on
// average (reads, served inline on the server's loop thread), beside an
// estimate, then a feedback once the grant arrives (writes, through the
// admission queue, the batch worker, the store-shard lock and the WAL).
// Busy threads: client, server loop, matchd worker.
//
// Every request must be answered with the response its kind expects; a
// refused request (kError, e.g. admission-queue backpressure) fails the
// run and counts as infinitely late in the latency samples.
//
// The run has two phases on one service:
//   open loop   jobs arrive as a Poisson process at a fixed rate, whatever
//               the service does; every request is timed from when it was
//               due, so a stall also delays the requests queued behind it;
//   capacity    a closed loop keeps kWindowJobs jobs in flight and counts
//               responses per second (the median over 100 ms windows).
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "sim/cluster.hpp"
#include "svc/matchd.hpp"
#include "trace/cm5_model.hpp"
#include "trace/transforms.hpp"
#include "tracing.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace resmatch;

constexpr std::size_t kConns = 4;
/// Request-id slots per job: two previews, one estimate, one feedback.
constexpr std::uint64_t kPerJob = 4;
/// Previews per estimate, in hundredths. The simulator previews a job when
/// it is queued and again whenever a queue-head refresh finds the stored
/// estimate stale; the traced sim-stream-fcfs run (1M jobs, --seed 7)
/// makes 1,889,808 previews for 1,029,015 estimates, 1.84 per estimate.
/// Every job sends the first preview; the second goes to 84 jobs in 100,
/// spread evenly.
constexpr std::uint64_t kPreviewsPer100 = 184;
/// Requests per job on average: the previews, an estimate and a feedback.
constexpr double kRequestsPerJob = kPreviewsPer100 / 100.0 + 2.0;
/// Jobs the capacity phase keeps in flight: enough writes queue behind
/// each batch's fsync that the batch worker, not the disk, sets the pace.
/// At most 3 requests each, so 750 per connection, under kMaxPipeline.
constexpr std::size_t kWindowJobs = 1000;
constexpr std::size_t kMaxPipeline = 1024;
/// Requests not answered this long after the last one was due count as
/// lost.
constexpr double kDrainTimeoutS = 5.0;
/// Open-loop rate, requests per second: 30-40% of the capacity phase's
/// 510k-690k/s on a 4-core Xeon VM, so bursts and fsync stalls drain.
constexpr double kOfferedRate = 200000.0;
/// The recovery check replays the WAL without serving, so its queue is idle.
constexpr std::size_t kQueueCapacityForRecovery = 1024;

enum Kind : std::uint64_t { kPreviewA = 0, kPreviewB = 1, kEstimate = 2, kFeedback = 3 };

bool is_write(std::uint64_t kind) { return kind >= kEstimate; }

struct ClientConn {
  int fd = -1;
  std::vector<char> out;
  std::size_t out_offset = 0;
  net::Decoder decoder{true};

  ClientConn() = default;
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;
  ~ClientConn() {
    if (fd >= 0) ::close(fd);
  }
};

/// A started service plus the client's connections to it. Members are
/// destroyed connections first, then the server (joins its loop), then
/// the matchd (joins its worker, flushes the WAL).
struct Service {
  std::string wal_dir;
  std::unique_ptr<svc::Matchd> matchd;
  std::unique_ptr<net::Server> server;
  std::vector<std::unique_ptr<ClientConn>> conns;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() { stop(); }

  void stop() {
    conns.clear();
    if (server) server->stop();
    server.reset();
    matchd.reset();
  }
};

svc::MatchdConfig matchd_config(const std::string& wal_dir,
                                std::size_t queue_capacity,
                                obs::Registry* registry) {
  svc::MatchdConfig cfg;
  cfg.workers = 1;
  cfg.batch_max = 4096;
  cfg.queue_capacity = queue_capacity;
  cfg.metrics = registry;
  cfg.metrics_sample_period = 1;
  // WAL policy: each record is written as it is buffered; a batch forces
  // one write + fsync per WAL file it touched; one WAL file, so one fsync
  // per batch.
  cfg.durability.wal_dir = wal_dir;
  cfg.durability.wal_flush_every = 1;
  cfg.durability.wal_fsync_every = 64;
  cfg.durability.wal_shards = 1;
  return cfg;
}

int dial(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  std::copy(path.begin(), path.end(), addr.sun_path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Fresh WAL directory, matchd, server and client connections.
std::unique_ptr<Service> start_service(const std::string& dir,
                                       const core::CapacityLadder& ladder,
                                       std::size_t queue_capacity,
                                       obs::Registry* registry) {
  auto s = std::make_unique<Service>();
  s->wal_dir = dir + "/wal";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(s->wal_dir);
  s->matchd = std::make_unique<svc::Matchd>(
      matchd_config(s->wal_dir, queue_capacity, registry));
  s->matchd->set_ladder(ladder);
  net::ServerConfig server_cfg;
  server_cfg.uds_path = dir + "/svc.sock";
  server_cfg.metrics = registry;
  server_cfg.max_pipeline = kMaxPipeline;
  s->server = std::make_unique<net::Server>(*s->matchd, server_cfg);
  if (!s->server->start()) return nullptr;
  for (std::size_t c = 0; c < kConns; ++c) {
    auto conn = std::make_unique<ClientConn>();
    conn->fd = dial(server_cfg.uds_path);
    if (conn->fd < 0) return nullptr;
    net::encode_magic(conn->out);
    s->conns.push_back(std::move(conn));
  }
  return s;
}

/// Everything one phase-A/phase-B drive measured.
struct DriveStats {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t errors = 0;      ///< kError responses (e.g. backpressure)
  std::uint64_t duplicates = 0;  ///< answers to an already answered id
  std::uint64_t unexpected = 0;  ///< wrong response type or unknown id
  bool decode_failed = false;
  bool io_failed = false;
  bool ring_overflow = false;  ///< more jobs in flight than the client tracks

  std::vector<double> read_us;   ///< open loop, due -> decoded response
  std::vector<double> write_us;
  std::vector<double> send_lag_us;
  std::size_t max_in_flight = 0;

  std::uint64_t grants = 0;
  std::uint64_t grants_below_use = 0;
  double granted_covered = 0.0;
  double used_covered = 0.0;

  double capacity_per_s = 0.0;
  std::size_t capacity_windows = 0;
  std::uint64_t writes = 0;  ///< estimates and feedbacks sent
  double wall_s = 0.0;       ///< both phases

  /// Service counters, read before the service is torn down.
  net::ServerStats server;
  svc::MatchdStats matchd;
};

/// The client: one thread, nonblocking sockets, busy polling so the open
/// loop's send times hold to the microsecond.
class Driver {
 public:
  Driver(Service& service, const trace::Workload& trace, SpanLog* log)
      : service_(service), trace_(trace), log_(log) {}

  DriveStats run(const std::vector<double>& arrivals_s, double capacity_s) {
    // Phase A: open loop. Exact reservations keep peak RSS independent of
    // where the sample counts fall against the vectors' growth steps.
    stats_.read_us.reserve(2 * arrivals_s.size());
    stats_.write_us.reserve(2 * arrivals_s.size());
    stats_.send_lag_us.reserve(arrivals_s.size());
    const std::int64_t t0 = now_ns();
    for (std::size_t j = 0; j < arrivals_s.size() || in_flight_ > 0;) {
      const std::int64_t now = now_ns();
      while (j < arrivals_s.size() &&
             t0 + static_cast<std::int64_t>(arrivals_s[j] * 1e9) <= now) {
        const std::int64_t due = t0 + static_cast<std::int64_t>(arrivals_s[j] * 1e9);
        stats_.send_lag_us.push_back(static_cast<double>(now - due) * 1e-3);
        start_job(due);
        ++j;
      }
      if (!pump()) break;
      if (j == arrivals_s.size() && j > 0 &&
          now - (t0 + static_cast<std::int64_t>(arrivals_s.back() * 1e9)) >
              static_cast<std::int64_t>(kDrainTimeoutS * 1e9)) {
        break;
      }
    }

    // Phase B: closed loop at kWindowJobs jobs in flight.
    const std::int64_t c0 = now_ns();
    const std::int64_t c_end = c0 + static_cast<std::int64_t>(capacity_s * 1e9);
    std::vector<std::uint64_t> windows(
        static_cast<std::size_t>(std::max(1.0, capacity_s * 10.0)), 0);
    window_start_ = c0;
    window_counts_ = &windows;
    while (true) {
      const std::int64_t now = now_ns();
      while (now < c_end && jobs_in_flight_ < kWindowJobs) start_job(now);
      if (!pump()) break;
      if (now >= c_end &&
          (in_flight_ == 0 || now - c_end > static_cast<std::int64_t>(kDrainTimeoutS * 1e9))) {
        break;
      }
    }
    window_counts_ = nullptr;
    // Skip the first window: the pipeline is still filling.
    std::vector<double> rates;
    for (std::size_t w = 1; w < windows.size(); ++w) {
      rates.push_back(static_cast<double>(windows[w]) * 10.0);
    }
    stats_.capacity_per_s = median(rates);
    stats_.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    stats_.capacity_windows = rates.size();
    return std::move(stats_);
  }

 private:
  /// Client state of one job. Requests carry job * kPerJob + kind as their
  /// id; the job's slot is ring_[job % kRingJobs], reused only once the
  /// job is done, so memory stays flat however many jobs a run issues.
  struct Slot {
    std::uint64_t job = 0;
    std::int64_t due_ns[kPerJob] = {};
    std::uint8_t answered = 0;  ///< bit per kind
    bool busy = false;
    bool open_loop = false;
  };
  static constexpr std::uint64_t kRingJobs = 1 << 18;

  const trace::JobRecord& record(std::uint64_t job) const {
    return trace_.jobs[job % trace_.jobs.size()];
  }

  /// Whether `job` sends a second preview: floor(job * 0.84) steps.
  static bool second_preview(std::uint64_t job) {
    const std::uint64_t extra = kPreviewsPer100 - 100;
    return (job + 1) * extra / 100 != job * extra / 100;
  }

  void start_job(std::int64_t due) {
    const std::uint64_t job = next_job_++;
    Slot& slot = ring_[job % kRingJobs];
    if (slot.busy) stats_.ring_overflow = true;
    slot = Slot{job, {}, 0, true, window_counts_ == nullptr};
    ++jobs_in_flight_;
    const trace::JobRecord& rec = record(job);
    send(slot, kPreviewA, due, [&](std::vector<char>& out, std::uint64_t id) {
      net::encode(out, id, net::PreviewReq{rec});
    });
    if (second_preview(job)) {
      send(slot, kPreviewB, due, [&](std::vector<char>& out, std::uint64_t id) {
        net::encode(out, id, net::PreviewReq{rec});
      });
    }
    send(slot, kEstimate, due, [&](std::vector<char>& out, std::uint64_t id) {
      net::encode(out, id, net::EstimateReq{rec});
    });
  }

  void finish_job(Slot& slot) {
    slot.busy = false;
    --jobs_in_flight_;
  }

  template <typename Encode>
  void send(Slot& slot, std::uint64_t kind, std::int64_t due, Encode&& encode) {
    slot.due_ns[kind] = due;
    ClientConn& conn = *service_.conns[slot.job % kConns];
    const std::int64_t e0 = log_ != nullptr ? now_ns() : 0;
    encode(conn.out, slot.job * kPerJob + kind);
    if (log_ != nullptr) log_->record(Layer::kClientCodec, e0, now_ns());
    ++stats_.sent;
    if (is_write(kind)) ++stats_.writes;
    ++in_flight_;
    stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
  }

  /// Write what is pending and handle what arrived. False on I/O failure.
  bool pump() {
    for (auto& conn_ptr : service_.conns) {
      ClientConn& conn = *conn_ptr;
      while (conn.out_offset < conn.out.size()) {
        const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                                 conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          conn.out_offset += static_cast<std::size_t>(n);
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          stats_.io_failed = true;
          return false;
        }
      }
      if (conn.out_offset == conn.out.size()) {
        conn.out.clear();
        conn.out_offset = 0;
      }
      while (true) {
        const ssize_t n = ::recv(conn.fd, buf_, sizeof(buf_), 0);
        if (n > 0) {
          conn.decoder.feed(buf_, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        stats_.io_failed = true;  // EOF or error: the server hung up
        return false;
      }
      while (true) {
        const std::int64_t d0 = log_ != nullptr ? now_ns() : 0;
        auto msg = conn.decoder.next();
        if (log_ != nullptr) log_->record(Layer::kClientCodec, d0, now_ns());
        if (!msg) {
          stats_.decode_failed = true;
          return false;
        }
        if (!msg.value()) break;
        handle(*msg.value());
      }
    }
    return true;
  }

  void handle(const net::Envelope& env) {
    const std::int64_t now = now_ns();
    const std::uint64_t job = env.request_id / kPerJob;
    const std::uint64_t kind = env.request_id % kPerJob;
    Slot& slot = ring_[job % kRingJobs];
    if (!slot.busy || slot.job != job) {
      ++stats_.unexpected;
      return;
    }
    const auto bit = static_cast<std::uint8_t>(1u << kind);
    if ((slot.answered & bit) != 0) {
      ++stats_.duplicates;
      return;
    }
    slot.answered |= bit;
    ++stats_.answered;
    --in_flight_;
    if (window_counts_ != nullptr) {
      const auto w = static_cast<std::size_t>((now - window_start_) / 100000000);
      if (w < window_counts_->size()) ++(*window_counts_)[w];
    }
    if (log_ != nullptr) log_->record(Layer::kClientRequest, slot.due_ns[kind], now);
    const bool refused = env.type == net::MsgType::kError;
    if (slot.open_loop) {
      // A refused request is over every latency limit.
      const double us = refused ? std::numeric_limits<double>::infinity()
                                : static_cast<double>(now - slot.due_ns[kind]) * 1e-3;
      (is_write(kind) ? stats_.write_us : stats_.read_us).push_back(us);
    }

    const net::MsgType expected = kind == kEstimate   ? net::MsgType::kEstimateResp
                                  : kind == kFeedback ? net::MsgType::kAck
                                                      : net::MsgType::kPreviewResp;
    if (refused) {
      ++stats_.errors;
      // A refused estimate gets no feedback; either way the job is over.
      if (kind == kEstimate || kind == kFeedback) finish_job(slot);
      return;
    }
    if (env.type != expected) {
      ++stats_.unexpected;
      return;
    }
    if (kind == kFeedback) {
      finish_job(slot);
      return;
    }
    if (kind != kEstimate) return;

    const trace::JobRecord& rec = record(job);
    const MiB granted = std::get<net::EstimateResp>(env.body).granted_mib;
    if (slot.open_loop) {
      ++stats_.grants;
      if (granted < rec.used_mem_mib) {
        ++stats_.grants_below_use;
      } else {
        stats_.granted_covered += granted;
        stats_.used_covered += rec.used_mem_mib;
      }
    }
    core::Feedback fb;
    fb.granted_mib = granted;
    fb.success = rec.used_mem_mib <= granted;
    fb.used_mib = rec.used_mem_mib;
    fb.resource_failure = !fb.success;
    send(slot, kFeedback, now, [&](std::vector<char>& out, std::uint64_t id) {
      net::encode(out, id, net::FeedbackReq{rec, fb});
    });
  }

  Service& service_;
  const trace::Workload& trace_;
  SpanLog* log_;
  DriveStats stats_;
  std::vector<Slot> ring_ = std::vector<Slot>(kRingJobs);
  std::uint64_t next_job_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t jobs_in_flight_ = 0;
  std::int64_t window_start_ = 0;
  std::vector<std::uint64_t>* window_counts_ = nullptr;
  char buf_[1 << 16];
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

struct SvcInputs {
  trace::Workload trace;
  core::CapacityLadder ladder;
};

SvcInputs make_svc_inputs(const RunOptions& options) {
  const std::size_t jobs = options.tiny ? 20000 : 200000;
  trace::Cm5ModelConfig cfg;
  cfg.seed = options.seed;
  cfg.job_count = jobs;
  cfg.group_count = std::max<std::size_t>(64, jobs / 12);
  cfg.user_count = std::max<std::size_t>(8, jobs / 600);
  SvcInputs in;
  in.trace = trace::sort_by_submit(trace::generate_cm5(cfg));
  in.ladder =
      sim::Cluster(sim::ClusterSpec{{32.0, 64}, {24.0, 64}, {16.0, 64}, {8.0, 64}})
          .ladder();
  return in;
}

/// One service lifetime: drive both phases, then check the answers, the
/// service invariants and crash recovery from the WAL directory.
DriveStats drive_service(Service& service, const SvcInputs& in,
                         const std::vector<double>& arrivals, double capacity_s,
                         SpanLog* log, const std::string& dir,
                         WorkloadResult& out) {
  Driver driver(service, in.trace, log);
  DriveStats stats = driver.run(arrivals, capacity_s);

  out.check(!stats.io_failed && !stats.decode_failed,
            "svc: client connection failed or received a corrupt frame");
  out.check(stats.errors == 0, "svc: requests refused");
  out.check(stats.answered == stats.sent && stats.duplicates == 0 &&
                stats.unexpected == 0 && !stats.ring_overflow,
            "svc: not every request was answered exactly once");
  service.conns.clear();
  service.server->stop();
  service.matchd->drain();
  stats.server = service.server->stats();
  stats.matchd = service.matchd->stats();
  const svc::MatchdStats& ms = stats.matchd;
  out.check(stats.server.protocol_errors == 0, "svc: server saw protocol errors");
  out.check(service.matchd->invariant_violations() == 0,
            "svc: estimator invariants violated");
  out.check(ms.degraded_ops == 0, "svc: operations served degraded");

  // Recovery: a fresh matchd rebuilt from the WAL holds the same groups.
  const std::string live_csv = dir + "/live.csv";
  const std::string recovered_csv = dir + "/recovered.csv";
  const bool saved = service.matchd->save_store(live_csv);
  const core::CapacityLadder ladder = service.matchd->ladder();
  service.stop();
  {
    svc::Matchd recovered(
        matchd_config(service.wal_dir, kQueueCapacityForRecovery, nullptr));
    recovered.set_ladder(ladder);
    const auto rs = recovered.recover();
    out.check(saved && rs.has_value() && recovered.save_store(recovered_csv) &&
                  recovered.stats().groups == ms.groups &&
                  read_file(live_csv) == read_file(recovered_csv),
              "svc: recovery from the WAL did not restore the same groups");
  }
  std::filesystem::remove_all(dir);  // the WAL runs to hundreds of MiB

  stats.errors += stats.sent - stats.answered + ms.degraded_ops;
  out.attempted += stats.sent;
  out.failed += stats.errors;
  return stats;
}

/// Poisson arrivals over `seconds` at `jobs_per_s`, from the seed.
std::vector<double> arrivals_for(std::uint64_t seed, double jobs_per_s,
                                 double seconds) {
  util::Rng rng(seed ^ 0xA5A5F00DULL);
  std::vector<double> out;
  for (double t = rng.exponential(jobs_per_s); t < seconds;
       t += rng.exponential(jobs_per_s)) {
    out.push_back(t);
  }
  return out;
}


}  // namespace

WorkloadResult run_svc_net_mixed(const RunOptions& options) {
  WorkloadResult out;
  const std::string dir = options.work_dir + "/svc";

  SvcInputs in;
  std::unique_ptr<Service> service;
  const Metric setup_s = median_setup_seconds([&] {
    service.reset();
    in = SvcInputs{};  // never hold two copies: peak RSS is the program's own
    in = make_svc_inputs(options);
    service = start_service(dir, in.ladder, options.queue_capacity, nullptr);
  });
  if (service == nullptr) {
    out.check(false, "svc: cannot start the server or dial it");
    return out;
  }

  // Open loop then capacity, 60/40; trace mode halves both for the
  // untraced run and gives the traced run the other half.
  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const std::vector<double> arrivals =
      arrivals_for(options.seed, kOfferedRate / kRequestsPerJob, budget * 0.6);
  DriveStats s =
      drive_service(*service, in, arrivals, budget * 0.4, nullptr, dir, out);

  std::vector<double>& read = s.read_us;
  std::vector<double>& write = s.write_us;
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["throughput_per_s"] = {s.capacity_per_s, "1/s", s.capacity_windows};
  out.end_to_end["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  out.end_to_end["kill_rate"] = {
      ratio(static_cast<double>(s.grants_below_use), static_cast<double>(s.grants)),
      "fraction", s.grants};
  out.end_to_end["overprovision"] = {ratio(s.granted_covered, s.used_covered),
                                     "ratio"};
  out.per_layer["client.read_p50_us"] = {percentile(read, 50), "us", read.size()};
  out.per_layer["client.read_p99_us"] = {percentile(read, 99), "us", read.size()};
  out.per_layer["client.write_p50_us"] = {percentile(write, 50), "us", write.size()};
  out.per_layer["client.write_p99_us"] = {percentile(write, 99), "us", write.size()};
  out.per_layer["bench.error_rate"] = {
      ratio(static_cast<double>(s.errors), static_cast<double>(s.sent)), "fraction"};
  std::vector<double>& lag = s.send_lag_us;
  out.per_layer["bench.send_lag_p99_us"] = {percentile(lag, 99), "us", lag.size()};
  out.per_layer["bench.max_in_flight"] = {static_cast<double>(s.max_in_flight), "count"};
  out.provenance["svc_offered_rate_per_s"] = std::to_string(kOfferedRate);
  out.provenance["svc_open_loop_jobs"] = std::to_string(arrivals.size());

  if (!options.trace) return out;

  // Traced run: registries on the matchd and the server, client spans.
  obs::Registry registry;
  SpanLog log;
  auto traced = start_service(dir, in.ladder, options.queue_capacity, &registry);
  if (traced == nullptr) {
    out.check(false, "svc: cannot start the traced server");
    return out;
  }
  const DriveStats t =
      drive_service(*traced, in, arrivals, budget * 0.4, &log, dir, out);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const auto writes = static_cast<double>(t.writes);
  const svc::StoreStats& store = t.matchd.store;
  const obs::MetricSample* batch = snap.find("resmatch_batch_size");

  out.per_layer["svc.queue_wait_p50_us"] = {
      registry_quantile_us(snap, "resmatch_matchd_queue_wait_seconds", 50), "us"};
  out.per_layer["svc.queue_wait_p99_us"] = {
      registry_quantile_us(snap, "resmatch_matchd_queue_wait_seconds", 99), "us"};
  out.per_layer["svc.batch_size_mean"] = {
      batch == nullptr ? 0.0
                       : ratio(batch->histogram.sum,
                               static_cast<double>(batch->histogram.count)),
      "count"};
  out.per_layer["svc.wal_commits_per_write"] = {
      ratio(static_cast<double>(t.matchd.batch_wal_commits), writes), "ratio"};
  out.per_layer["svc.wal_fsyncs_per_write"] = {
      ratio(static_cast<double>(t.matchd.wal.fsyncs), writes), "ratio"};
  out.per_layer["svc.wal_bytes_per_write"] = {
      ratio(static_cast<double>(t.matchd.wal.bytes_written), writes), "B"};
  out.per_layer["svc.store_hit_ratio"] = {
      ratio(static_cast<double>(store.hits),
            static_cast<double>(store.hits + store.misses)),
      "fraction"};
  out.per_layer["svc.evictions"] = {static_cast<double>(t.matchd.evictions), "count"};
  out.per_layer["svc.backpressure_rejects"] = {
      static_cast<double>(t.server.backpressure_rejects), "count"};
  out.per_layer["net.server_p50_us"] = {
      registry_quantile_us(snap, "resmatch_net_request_latency_seconds", 50), "us"};
  out.per_layer["net.server_p99_us"] = {
      registry_quantile_us(snap, "resmatch_net_request_latency_seconds", 99), "us"};
  out.per_layer["net.bytes_per_request"] = {
      ratio(static_cast<double>(t.server.bytes_read + t.server.bytes_written),
            static_cast<double>(t.server.requests)),
      "B"};
  out.per_layer["net.protocol_errors"] = {
      static_cast<double>(t.server.protocol_errors), "count"};
  out.per_layer["net.client_codec_ns"] = {
      ratio(static_cast<double>(log.totals(Layer::kClientCodec).ns),
            static_cast<double>(t.sent)),
      "ns"};
  out.per_layer["net.client_codec_share"] = {
      ratio(static_cast<double>(log.totals(Layer::kClientCodec).ns) * 1e-9,
            t.wall_s),
      "fraction"};
  out.per_layer["bench.trace_overhead"] = {
      ratio(s.capacity_per_s, t.capacity_per_s) - 1.0, "fraction"};
  out.check(log.write(options.work_dir + "/spans.tsv"),
            "cannot write the span dump");
  return out;
}

}  // namespace perfbench
