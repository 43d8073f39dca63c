#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "match/classad.hpp"
#include "match/compiled.hpp"
#include "util/logging.hpp"

namespace resmatch::net {

namespace {

constexpr std::uint64_t kUdsSlot = 0;
constexpr std::uint64_t kTcpSlot = 1;
constexpr std::uint64_t kWakeSlot = 2;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Index into request_counters_ for a request-type tag; -1 for responses.
int request_slot(MsgType type) noexcept {
  const auto v = static_cast<std::uint8_t>(type);
  return v >= 1 && v <= 8 ? static_cast<int>(v) : -1;
}

/// The envelope a staged request was decoded from, rebuilt for
/// serve_inline() when the matchd queue is closed.
Envelope envelope_of(std::uint64_t request_id,
                     const svc::Matchd::Request& r) {
  using Kind = svc::Matchd::Request::Kind;
  switch (r.kind) {
    case Kind::kSubmit:
      return {MsgType::kEstimate, request_id, EstimateReq{r.job}};
    case Kind::kFeedback:
      return {MsgType::kFeedback, request_id, FeedbackReq{r.job, r.fb}};
    case Kind::kCancel:
      return {MsgType::kCancel, request_id, CancelReq{r.job, r.granted}};
  }
  return {};
}

}  // namespace

Server::Server(svc::Matchd& matchd, ServerConfig config)
    : matchd_(&matchd), config_(std::move(config)) {
  register_metrics();
}

Server::~Server() {
  stop();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (uds_fd_ >= 0) ::close(uds_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (!config_.uds_path.empty() && bound_) {
    (void)::unlink(config_.uds_path.c_str());
  }
  unregister_metrics();
}

util::Expected<bool> Server::bind() {
  using Result = util::Expected<bool>;
  if (bound_) return true;
  if (config_.uds_path.empty() && !config_.tcp) {
    return Result::failure("net::Server: no listener configured");
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Result::failure("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return Result::failure("eventfd failed");

  const auto add = [&](int fd, std::uint64_t slot) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = slot;
    return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  };
  if (!add(wake_fd_, kWakeSlot)) {
    return Result::failure("epoll_ctl(eventfd) failed");
  }

  if (!config_.uds_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.uds_path.size() >= sizeof(addr.sun_path)) {
      return Result::failure("UDS path too long: " + config_.uds_path);
    }
    std::strncpy(addr.sun_path, config_.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    uds_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (uds_fd_ < 0) return Result::failure("socket(AF_UNIX) failed");
    // A stale socket file from a killed predecessor would fail bind with
    // EADDRINUSE even though nobody listens; replacing it is the standard
    // single-owner-per-path convention.
    (void)::unlink(config_.uds_path.c_str());
    if (::bind(uds_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(uds_fd_, 128) != 0 || !set_nonblocking(uds_fd_) ||
        !add(uds_fd_, kUdsSlot)) {
      return Result::failure("cannot listen on " + config_.uds_path + ": " +
                             std::strerror(errno));
    }
  }

  if (config_.tcp) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.tcp_port);
    if (::inet_pton(AF_INET, config_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      return Result::failure("bad TCP host: " + config_.tcp_host);
    }
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (tcp_fd_ < 0) return Result::failure("socket(AF_INET) failed");
    const int one = 1;
    (void)::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(tcp_fd_, 128) != 0 || !set_nonblocking(tcp_fd_) ||
        !add(tcp_fd_, kTcpSlot)) {
      return Result::failure("cannot listen on " + config_.tcp_host + ":" +
                             std::to_string(config_.tcp_port) + ": " +
                             std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      tcp_port_ = ntohs(bound.sin_port);
    }
  }

  bound_ = true;
  return true;
}

void Server::run() {
  if (!bound_) {
    auto ok = bind();
    if (!ok) {
      RM_LOG(kError) << "net::Server: " << ok.error();
      return;
    }
  }
  loop();
}

bool Server::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (thread_.joinable()) return true;
  auto ok = bind();
  if (!ok) {
    RM_LOG(kError) << "net::Server: " << ok.error();
    return false;
  }
  stopping_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { loop(); });
  return true;
}

void Server::stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  stopping_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
  if (thread_.joinable()) thread_.join();
  // Flush any worker callbacks still in flight so they cannot touch the
  // completion list after the server is destroyed.
  if (matchd_->async_enabled()) matchd_->drain();
}

void Server::loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];

  while (!stopping_.load(std::memory_order_acquire)) {
    int timeout = -1;
    if (config_.idle_timeout.count() > 0) {
      const auto half = config_.idle_timeout.count() / 2;
      timeout = static_cast<int>(half > 0 ? half : 1);
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      RM_LOG(kError) << "net::Server: epoll_wait failed, loop exiting";
      return;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t slot = events[i].data.u64;
      if (slot == kWakeSlot) {
        // Read the eventfd before flush_completions() swaps the list: a
        // completion pushed after the swap finds the list empty and wakes
        // the loop again, so none is stranded. (Swapping first would let
        // this read swallow the wake of a push that landed in between.)
        std::uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        flush_completions();
        continue;
      }
      if (slot == kUdsSlot || slot == kTcpSlot) {
        handle_accept(slot == kUdsSlot ? uds_fd_ : tcp_fd_);
        continue;
      }
      const auto it = conns_.find(slot);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& conn = *it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(slot);
        continue;
      }
      if (events[i].events & EPOLLOUT) handle_writable(conn);
      // handle_writable may have closed the connection on a dead socket.
      if (conns_.count(slot) == 0) continue;
      if (events[i].events & EPOLLIN) handle_readable(conn);
    }
    if (config_.idle_timeout.count() > 0) reap_idle();
  }

  // Loop exit: close every connection so peers read EOF immediately
  // instead of blocking on a socket nobody will ever serve again.
  for (auto& [serial, conn] : conns_) ::close(conn->fd);
  conns_.clear();
  open_conns_.store(0, std::memory_order_relaxed);
}

void Server::handle_accept(int listen_fd) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient error: try next wakeup
    if (conns_.size() >= config_.max_connections) {
      ::close(fd);
      continue;
    }
    accepts_.fetch_add(1, std::memory_order_relaxed);

    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->serial = next_serial_++;
    conn->last_active = std::chrono::steady_clock::now();
    encode_magic(conn->out);  // server preamble, first bytes on the wire

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->serial;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    Conn& ref = *conn;
    conns_.emplace(conn->serial, std::move(conn));
    open_conns_.store(conns_.size(), std::memory_order_relaxed);
    try_write(ref);
  }
}

void Server::handle_readable(Conn& conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_read_.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
      conn.last_active = std::chrono::steady_clock::now();
      conn.decoder.feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    close_conn(conn.serial);  // EOF or hard error
    return;
  }
  drain_decoder(conn);
}

void Server::drain_decoder(Conn& conn) {
  // Serve what the pipeline cap allows, staging the queue-bound requests,
  // then admit the stage with one call. A refused request gives its slot
  // back, so go round again while that left room and frames are buffered.
  bool buffered = true;
  while (buffered && conn.in_flight < config_.max_pipeline) {
    while (conn.in_flight < config_.max_pipeline) {
      auto msg = conn.decoder.next();
      if (msg && !msg.value().has_value()) {
        buffered = false;  // need more bytes
        break;
      }
      if (!msg) protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      if (!msg || !serve(conn, *msg.value())) {
        // A connection that closes has nothing admitted, not even what it
        // staged before the bad frame.
        staged_.clear();
        staged_info_.clear();
        close_conn(conn.serial);
        return;
      }
    }
    admit_staged(conn);
  }

  // Pipeline-cap backpressure: stop reading this socket until responses
  // drain; bytes pile up in the kernel buffer and eventually stall the
  // client's writes.
  const bool should_pause = conn.in_flight >= config_.max_pipeline;
  if (should_pause != conn.paused) {
    conn.paused = should_pause;
    update_epoll(conn);
  }
  try_write(conn);
}

bool Server::serve(Conn& conn, const Envelope& envelope) {
  // Only record_latency reads t0, and only with a histogram attached.
  const auto t0 = latency_hist_ != nullptr
                      ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point{};
  requests_.fetch_add(1, std::memory_order_relaxed);
  const int slot = request_slot(envelope.type);
  if (slot >= 0 && request_counters_[slot] != nullptr) {
    request_counters_[slot]->inc();
  }

  // Response-typed (or unknown-as-request) messages from a client are a
  // protocol violation.
  if (slot < 0) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // The mutating operations go through the bounded admission queue when
  // the matchd runs workers; everything else is served inline.
  if (!matchd_->async_enabled() || !stage(conn, envelope, t0)) {
    serve_inline(conn, envelope, t0);
  }
  return true;
}

bool Server::stage(Conn& conn, const Envelope& envelope,
                   std::chrono::steady_clock::time_point t0) {
  using Kind = svc::Matchd::Request::Kind;
  const MsgType type = envelope.type;
  if (type != MsgType::kEstimate && type != MsgType::kFeedback &&
      type != MsgType::kCancel) {
    return false;
  }
  const std::uint64_t serial = conn.serial;
  const std::uint64_t request_id = envelope.request_id;
  svc::Matchd::Request& r = staged_.emplace_back();
  if (type == MsgType::kEstimate) {
    r.kind = Kind::kSubmit;
    r.job = std::get<EstimateReq>(envelope.body).job;
    r.on_decision = [this, serial, request_id,
                     t0](const svc::MatchDecision& d) {
      post_completion(serial, request_id,
                      EstimateResp{d.granted_mib, d.lowered, d.group_key});
      record_latency(t0);
    };
  } else {
    if (type == MsgType::kFeedback) {
      const auto& req = std::get<FeedbackReq>(envelope.body);
      r.kind = Kind::kFeedback;
      r.job = req.job;
      r.fb = req.fb;
    } else {
      const auto& req = std::get<CancelReq>(envelope.body);
      r.kind = Kind::kCancel;
      r.job = req.job;
      r.granted = req.granted;
    }
    r.on_done = [this, serial, request_id, t0] {
      post_completion(serial, request_id, Ack{true});
      record_latency(t0);
    };
  }
  staged_info_.push_back(Staged{request_id, t0});
  ++conn.in_flight;
  return true;
}

void Server::admit_staged(Conn& conn) {
  if (staged_.empty()) return;
  admission_batches_.fetch_add(1, std::memory_order_relaxed);
  admit_results_.resize(staged_.size());
  (void)matchd_->admit(staged_, admit_results_);
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const svc::PushResult result = admit_results_[i];
    if (result == svc::PushResult::kOk) continue;
    --conn.in_flight;
    const Staged& info = staged_info_[i];
    if (result == svc::PushResult::kFull) {
      backpressure_rejects_.fetch_add(1, std::memory_order_relaxed);
      encode(conn.out, info.request_id,
             ErrorResp{ErrorCode::kBackpressure, "admission queue full"});
    } else {
      // kClosed: the pool is gone (shutting down) — serve it inline.
      serve_inline(conn, envelope_of(info.request_id, staged_[i]), info.t0);
    }
  }
  staged_.clear();
  staged_info_.clear();
}

void Server::serve_inline(Conn& conn, const Envelope& envelope,
                          std::chrono::steady_clock::time_point t0) {
  switch (envelope.type) {
    case MsgType::kEstimate: {
      const auto& req = std::get<EstimateReq>(envelope.body);
      const svc::MatchDecision d = matchd_->submit(req.job);
      encode(conn.out, envelope.request_id,
             EstimateResp{d.granted_mib, d.lowered, d.group_key});
      break;
    }
    case MsgType::kPreview: {
      const auto& req = std::get<PreviewReq>(envelope.body);
      encode(conn.out, envelope.request_id,
             PreviewResp{matchd_->preview(req.job)});
      break;
    }
    case MsgType::kFeedback: {
      const auto& req = std::get<FeedbackReq>(envelope.body);
      matchd_->feedback(req.job, req.fb);
      encode(conn.out, envelope.request_id, Ack{true});
      break;
    }
    case MsgType::kCancel: {
      const auto& req = std::get<CancelReq>(envelope.body);
      matchd_->cancel(req.job, req.granted);
      encode(conn.out, envelope.request_id, Ack{true});
      break;
    }
    case MsgType::kCheckpoint:
      encode(conn.out, envelope.request_id, Ack{matchd_->checkpoint()});
      break;
    case MsgType::kHealth: {
      HealthResp resp;
      resp.degraded = matchd_->degraded();
      resp.wal_enabled = matchd_->wal_enabled();
      resp.groups = matchd_->stats().groups;
      encode(conn.out, envelope.request_id, resp);
      break;
    }
    case MsgType::kStats: {
      const svc::MatchdStats s = matchd_->stats();
      StatsResp resp;
      resp.submissions = s.submissions;
      resp.rewrites = s.rewrites;
      resp.successes = s.successes;
      resp.failures = s.failures;
      resp.cancels = s.cancels;
      resp.groups = s.groups;
      resp.evictions = s.evictions;
      resp.degraded_ops = s.degraded_ops;
      resp.wal_appends = s.wal.appends;
      resp.compactions = s.compactions;
      encode(conn.out, envelope.request_id, resp);
      break;
    }
    case MsgType::kMatch:
      serve_match(conn, envelope.request_id,
                  std::get<MatchReq>(envelope.body));
      break;
    default:
      encode(conn.out, envelope.request_id,
             ErrorResp{ErrorCode::kBadRequest, "unsupported request"});
      break;
  }
  record_latency(t0);
}

void Server::serve_match(Conn& conn, std::uint64_t request_id,
                         const MatchReq& req) {
  if (config_.machines == nullptr) {
    encode(conn.out, request_id,
           ErrorResp{ErrorCode::kBadRequest, "no machine population"});
    return;
  }
  if (machine_table_ == nullptr) {
    machine_table_ = std::make_unique<match::MachineTable>(
        match::MachineTable::build(*config_.machines));
  }
  match::ClassAd request;
  for (const auto& [name, source] : req.attrs) {
    if (!request.set_expr(name, source)) {
      encode(conn.out, request_id,
             ErrorResp{ErrorCode::kBadRequest,
                       "unparsable attribute: " + name});
      return;
    }
  }
  const std::vector<std::size_t> ranked =
      match::rank_matches_compiled(request, *machine_table_);
  MatchResp resp;
  resp.rows.reserve(ranked.size());
  for (const std::size_t row : ranked) {
    resp.rows.push_back(static_cast<std::uint32_t>(row));
  }
  encode(conn.out, request_id, resp);
}

template <typename Body>
void Server::post_completion(std::uint64_t serial, std::uint64_t request_id,
                             const Body& body) {
  bool was_empty = false;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    was_empty = completions_.empty();
    const std::size_t offset = completion_bytes_.size();
    encode(completion_bytes_, request_id, body);
    completions_.push_back(
        Completion{serial, offset, completion_bytes_.size() - offset});
  }
  // One wake per burst: only the push that makes the list non-empty
  // signals; later pushes ride along until the loop swaps the list out.
  if (was_empty) {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof(one));
  }
}

void Server::flush_completions() {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    flushing_.swap(completions_);
    flushing_bytes_.swap(completion_bytes_);
  }
  if (flushing_.empty()) return;
  completion_flushes_.fetch_add(1, std::memory_order_relaxed);
  // Append every response to its connection's buffer in list order, then
  // resume each connection the flush took below its pipeline cap, then
  // write each touched connection once.
  for (const Completion& c : flushing_) {
    const auto it = conns_.find(c.serial);
    if (it == conns_.end()) continue;  // connection died while in flight
    Conn& conn = *it->second;
    const char* bytes = flushing_bytes_.data() + c.offset;
    conn.out.insert(conn.out.end(), bytes, bytes + c.length);
    if (!conn.write_listed) {
      conn.write_listed = true;
      to_write_.push_back(c.serial);
    }
    if (conn.in_flight > 0) --conn.in_flight;
  }
  flushing_.clear();
  flushing_bytes_.clear();
  // Resume after all of a connection's completions, so one drain admits
  // every request the flush made room for. Resuming per completion would
  // admit one request, re-pause and repeat, at two epoll_ctl calls and a
  // send each. Responses to the requests admitted here follow the whole
  // flush's completions on the wire.
  for (const std::uint64_t serial : to_write_) {
    const auto it = conns_.find(serial);
    if (it == conns_.end()) continue;
    Conn& conn = *it->second;
    if (conn.paused && conn.in_flight < config_.max_pipeline) {
      pipeline_resumes_.fetch_add(1, std::memory_order_relaxed);
      conn.paused = false;
      update_epoll(conn);
      // Frames that arrived while paused are already buffered in the
      // decoder; serve them now that there is pipeline room again.
      drain_decoder(conn);
    }
  }
  for (const std::uint64_t serial : to_write_) {
    const auto it = conns_.find(serial);
    if (it == conns_.end()) continue;  // closed by drain_decoder above
    it->second->write_listed = false;
    try_write(*it->second);
  }
  to_write_.clear();
}

void Server::handle_writable(Conn& conn) {
  conn.last_active = std::chrono::steady_clock::now();
  try_write(conn);
}

void Server::try_write(Conn& conn) {
  while (conn.out_offset < conn.out.size()) {
    // MSG_NOSIGNAL: a client gone mid-response is a close, not a SIGPIPE.
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      bytes_written_.fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
      conn.out_offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        update_epoll(conn);
      }
      return;
    }
    close_conn(conn.serial);  // broken pipe
    return;
  }
  conn.out.clear();
  conn.out_offset = 0;
  if (conn.want_write) {
    conn.want_write = false;
    update_epoll(conn);
  }
}

void Server::update_epoll(Conn& conn) {
  epoll_event ev{};
  ev.events = (conn.paused ? 0u : static_cast<unsigned>(EPOLLIN)) |
              (conn.want_write ? static_cast<unsigned>(EPOLLOUT) : 0u);
  ev.data.u64 = conn.serial;
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::close_conn(std::uint64_t serial) {
  const auto it = conns_.find(serial);
  if (it == conns_.end()) return;
  ::close(it->second->fd);  // EPOLL_CTL_DEL is implicit on close
  conns_.erase(it);
  open_conns_.store(conns_.size(), std::memory_order_relaxed);
  closes_.fetch_add(1, std::memory_order_relaxed);
}

void Server::reap_idle() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::uint64_t> stale;
  for (const auto& [serial, conn] : conns_) {
    if (conn->in_flight == 0 &&
        now - conn->last_active >= config_.idle_timeout) {
      stale.push_back(serial);
    }
  }
  for (const std::uint64_t serial : stale) {
    idle_reaped_.fetch_add(1, std::memory_order_relaxed);
    close_conn(serial);
  }
}

void Server::record_latency(std::chrono::steady_clock::time_point t0) {
  if (latency_hist_ == nullptr) return;
  latency_hist_->record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
}

ServerStats Server::stats() const {
  ServerStats out;
  out.accepts = accepts_.load(std::memory_order_relaxed);
  out.closes = closes_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  out.backpressure_rejects =
      backpressure_rejects_.load(std::memory_order_relaxed);
  out.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  out.connections = open_conns_.load(std::memory_order_relaxed);
  out.completion_flushes =
      completion_flushes_.load(std::memory_order_relaxed);
  out.pipeline_resumes = pipeline_resumes_.load(std::memory_order_relaxed);
  out.admission_batches = admission_batches_.load(std::memory_order_relaxed);
  return out;
}

void Server::register_metrics() {
  obs::Registry* reg = config_.metrics;
  if (reg == nullptr) return;

  // 100 ns .. ~100 s in factor-2 steps: UDS round trips to cross-host
  // TCP under load.
  latency_hist_ = &reg->histogram(
      "resmatch_net_request_latency_seconds",
      "Server-side latency from request decode to response encode",
      obs::HistogramSpec{1e-7, 2.0, 30});

  const MsgType request_types[] = {
      MsgType::kEstimate,   MsgType::kPreview, MsgType::kFeedback,
      MsgType::kCancel,     MsgType::kHealth,  MsgType::kStats,
      MsgType::kCheckpoint, MsgType::kMatch,
  };
  for (const MsgType type : request_types) {
    request_counters_[request_slot(type)] =
        &reg->counter("resmatch_net_requests_total",
                      "Protocol requests served, by message type",
                      {{"type", to_string(type)}});
  }

  const auto add_counter = [&](const char* name, const char* help,
                               std::function<std::uint64_t()> fn) {
    reg->counter_fn(name, help, {}, std::move(fn));
    provider_keys_.emplace_back(name, obs::Labels{});
  };
  add_counter("resmatch_net_accepts_total", "Connections accepted",
              [this] { return accepts_.load(std::memory_order_relaxed); });
  add_counter("resmatch_net_protocol_errors_total",
              "Connections dropped on a corrupt or malformed frame",
              [this] {
                return protocol_errors_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_net_backpressure_rejects_total",
              "Requests answered kBackpressure from a full admission queue",
              [this] {
                return backpressure_rejects_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_net_idle_reaped_total",
              "Connections closed by the idle timeout", [this] {
                return idle_reaped_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_net_bytes_read_total",
              "Bytes read off client sockets", [this] {
                return bytes_read_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_net_bytes_written_total",
              "Bytes written to client sockets", [this] {
                return bytes_written_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_net_completion_flushes_total",
              "Loop-thread flushes that carried at least one worker response",
              [this] {
                return completion_flushes_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_net_pipeline_resumes_total",
              "Connections a flush resumed from the pipeline cap", [this] {
                return pipeline_resumes_.load(std::memory_order_relaxed);
              });
  add_counter("resmatch_net_admission_batches_total",
              "Calls that admitted one drain's staged requests into the "
              "matchd queue",
              [this] {
                return admission_batches_.load(std::memory_order_relaxed);
              });
  reg->gauge_fn("resmatch_net_connections", "Currently open connections",
                {}, [this] {
                  return static_cast<double>(
                      open_conns_.load(std::memory_order_relaxed));
                });
  provider_keys_.emplace_back("resmatch_net_connections", obs::Labels{});
}

void Server::unregister_metrics() {
  if (config_.metrics == nullptr) return;
  for (const auto& [name, labels] : provider_keys_) {
    config_.metrics->remove(name, labels);
  }
  provider_keys_.clear();
}

}  // namespace resmatch::net
