// net::Server — epoll event-loop front end for a local svc::Matchd.
//
// One server owns one epoll instance, listens on a Unix-domain socket
// and/or a TCP socket, and serves the matchd wire protocol (protocol.hpp)
// to any number of concurrent connections:
//
//   * per-connection read decoder and write buffer; partial writes park on
//     EPOLLOUT, so one slow client never blocks the loop;
//   * pipelining: many outstanding request ids per connection, with a
//     per-connection in-flight cap — past it the server stops reading that
//     socket (kernel backpressure) until responses drain;
//   * admission-queue backpressure: when the matchd runs workers, request
//     processing goes through its bounded admission queue; a full queue is
//     answered with ErrorCode::kBackpressure instead of queueing unboundedly.
//     Workers encode each response and hand it back to the loop through a
//     completion list. Only the push that finds the list empty writes the
//     eventfd, so the loop is woken once per burst; a flush appends every
//     response to its connection's buffer in list order, then resumes each
//     connection it took below the in-flight cap once, then writes each
//     connection it touched once. Without workers, requests are served
//     inline — matchd's synchronous API is thread-safe and fast;
//   * idle reaping: connections silent past idle_timeout are closed;
//   * a protocol error (bad magic, corrupt frame, malformed body) closes
//     the connection — nothing after a broken frame can be trusted.
//
// The loop runs either on the caller's thread (run(), for dedicated shard
// processes — see examples/cluster_replay) or on a background thread
// (start()/stop(), for in-process tests and benches).
//
// Instrumentation (config.metrics): resmatch_net_* series documented in
// OPERATIONS.md "Network tier".
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "svc/matchd.hpp"
#include "util/expected.hpp"

namespace resmatch::match {
class ClassAd;
class MachineTable;
}  // namespace resmatch::match

namespace resmatch::net {

struct ServerConfig {
  /// Unix-domain socket path; empty = no UDS listener. An existing socket
  /// file at the path is replaced (stale sockets of a killed predecessor).
  std::string uds_path;
  /// TCP listener; port 0 binds an ephemeral port (read it back with
  /// tcp_port()).
  bool tcp = false;
  std::string tcp_host = "127.0.0.1";
  std::uint16_t tcp_port = 0;
  /// Close connections with no traffic for this long. 0 = never reap.
  std::chrono::milliseconds idle_timeout{0};
  /// Outstanding requests per connection before the server stops reading
  /// that socket until responses drain.
  std::size_t max_pipeline = 64;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 1024;
  /// Observability registry (not owned; must outlive the server).
  obs::Registry* metrics = nullptr;
  /// Machine population served by the kMatch verb (not owned; must
  /// outlive the server and stay unmodified while it runs). Null =
  /// kMatch answers kBadRequest. The server columnarizes it into a
  /// MachineTable on first use and ranks with the compiled matcher.
  const std::vector<match::ClassAd>* machines = nullptr;
};

struct ServerStats {
  std::uint64_t accepts = 0;
  std::uint64_t closes = 0;
  std::uint64_t requests = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t backpressure_rejects = 0;
  std::uint64_t idle_reaped = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::size_t connections = 0;  ///< currently open
  /// Loop-thread flushes that carried at least one async completion.
  std::uint64_t completion_flushes = 0;
  /// Connections a flush resumed from the pipeline cap: at most one per
  /// connection per flush.
  std::uint64_t pipeline_resumes = 0;
};

class Server {
 public:
  /// `matchd` is not owned and must outlive the server.
  Server(svc::Matchd& matchd, ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Create the listeners. After bind() returns success the endpoints are
  /// connectable (connections queue in the kernel until the loop runs).
  [[nodiscard]] util::Expected<bool> bind();

  /// Run the event loop on this thread until stop() is called from
  /// another thread (or a signal handler writes the stop eventfd).
  /// Calls bind() first if it has not run yet.
  void run();

  /// bind() + run the loop on a background thread. False if bind failed
  /// (error printed to the log).
  [[nodiscard]] bool start();

  /// Signal the loop to exit and, if start() spawned the thread, join it.
  /// Safe to call repeatedly and from any thread.
  void stop();

  /// Actual TCP port after bind() (0 when no TCP listener).
  [[nodiscard]] std::uint16_t tcp_port() const noexcept { return tcp_port_; }

  [[nodiscard]] ServerStats stats() const;

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t serial = 0;
    Decoder decoder;               ///< expects the client magic first
    std::vector<char> out;         ///< encoded responses not yet written
    std::size_t out_offset = 0;    ///< bytes of `out` already written
    std::size_t in_flight = 0;     ///< async requests awaiting completion
    bool want_write = false;       ///< EPOLLOUT armed
    bool paused = false;           ///< EPOLLIN dropped (pipeline cap)
    bool write_listed = false;     ///< in to_write_ for the current flush
    std::chrono::steady_clock::time_point last_active;
  };

  /// A response encoded on a matchd worker thread, handed back to the
  /// loop through the completion list.
  struct Completion {
    std::uint64_t serial = 0;
    std::vector<char> bytes;
  };

  void loop();
  void handle_accept(int listen_fd);
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  void drain_decoder(Conn& conn);
  /// Serve one request; appends the response to conn.out or registers an
  /// async completion. Returns false when the connection must close.
  [[nodiscard]] bool serve(Conn& conn, Envelope&& envelope);
  void serve_inline(Conn& conn, const Envelope& envelope,
                    std::chrono::steady_clock::time_point t0);
  void serve_match(Conn& conn, std::uint64_t request_id,
                   const MatchReq& req);
  void post_completion(std::uint64_t serial, std::vector<char>&& bytes);
  void flush_completions();
  void try_write(Conn& conn);
  void update_epoll(Conn& conn);
  void close_conn(std::uint64_t serial);
  void reap_idle();
  void record_latency(std::chrono::steady_clock::time_point t0);

  void register_metrics();
  void unregister_metrics();

  svc::Matchd* matchd_;
  ServerConfig config_;
  /// Columnar form of config_.machines, built lazily on the first kMatch
  /// (loop thread only — no locking needed).
  std::unique_ptr<match::MachineTable> machine_table_;

  int epoll_fd_ = -1;
  int uds_fd_ = -1;
  int tcp_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: stop requests and async completions
  std::uint16_t tcp_port_ = 0;
  bool bound_ = false;

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_serial_ = 16;  ///< below 16 = listener/eventfd slots

  std::mutex completions_mutex_;
  std::vector<Completion> completions_;
  /// Loop-thread side of the completion hand-off: flush_completions()
  /// swaps completions_ into flushing_, and both keep their capacity.
  std::vector<Completion> flushing_;
  /// Serials of the connections a flush appended to, each listed once.
  std::vector<std::uint64_t> to_write_;

  std::atomic<bool> stopping_{false};
  std::thread thread_;
  std::mutex lifecycle_mutex_;  ///< serializes start()/stop()

  // Counters (atomic: read by stats()/providers off-loop).
  std::atomic<std::uint64_t> accepts_{0};
  std::atomic<std::uint64_t> closes_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> backpressure_rejects_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::size_t> open_conns_{0};
  // Written by the loop thread only; not exported as metrics.
  std::atomic<std::uint64_t> completion_flushes_{0};
  std::atomic<std::uint64_t> pipeline_resumes_{0};

  obs::Histogram* latency_hist_ = nullptr;
  obs::Counter* request_counters_[9] = {};  ///< indexed by request MsgType
  std::vector<std::pair<std::string, obs::Labels>> provider_keys_;
};

}  // namespace resmatch::net
