// Live introspection endpoint: a unix-domain-socket HTTP server that
// publishes the owning process's latest snapshot without ever making the
// engine thread wait on a scraper.
//
// Publication contract (DESIGN.md Sect. 15):
//
//   * publish() swaps an immutable {JSON, Prometheus, series} payload in
//     behind a shared_ptr (epoch swap). The engine thread allocates the
//     strings off the per-step hot path (only at publish cadence), then
//     holds a mutex for one pointer swap; a scraper holds it for one
//     pointer copy and reads the frozen strings without it. Neither side
//     ever waits longer than the other's pointer operation, and no scraper
//     can slow or tear a publisher, or vice versa.
//   * The server owns one background thread: poll() over the listen
//     socket and a self-pipe, connections handled one at a time with
//     short socket timeouts (requests and responses are tiny).
//   * Routes: GET /json (application/json), GET /metrics (Prometheus
//     text exposition), GET /series (the rtsmooth-series-v1 timeline
//     document; 404 when the publisher runs with the timeline disabled),
//     GET /healthz. `/json?section=<name>` serves one top-level section
//     of the snapshot; an unknown section answers 400 listing the known
//     sections. Before the first publish(), /json, /metrics and /series
//     answer 503. A request with no header terminator within
//     max_request_bytes answers 400; unknown paths answer 404.
//     Responses use HTTP/1.0 + Connection: close, so `curl
//     --unix-socket PATH http://rtsmooth/json` works as-is.
//   * Stale socket takeover: if bind() finds the path in use, a probe
//     connect distinguishes a live server (ECONNREFUSED never happens —
//     start() throws) from a leftover socket file of a dead process
//     (connection refused — unlink and bind again).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace rtsmooth::obs {

struct StatsServerConfig {
  /// Filesystem path of the AF_UNIX listening socket. Required; must fit
  /// sockaddr_un (throws std::invalid_argument otherwise).
  std::string socket_path;
  /// Requests whose headers exceed this answer 400 (scrape requests are
  /// one line; anything bigger is a confused client).
  std::size_t max_request_bytes = 4096;
  /// listen(2) backlog.
  int backlog = 16;
  /// Per-connection socket read/write timeout in milliseconds — a stalled
  /// scraper can delay other scrapers at most this long and can never
  /// touch the publishing thread.
  int io_timeout_ms = 500;
};

class StatsServer {
 public:
  /// Validates the config; does not touch the filesystem until start().
  explicit StatsServer(StatsServerConfig config);
  ~StatsServer();

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// Binds, listens, and launches the serving thread. Throws
  /// std::runtime_error when the path is unusable or held by a live
  /// server. Idempotent while running.
  void start();

  /// Stops the serving thread and removes the socket file. Idempotent.
  void stop();

  bool running() const { return thread_.joinable(); }
  const std::string& socket_path() const { return config_.socket_path; }

  /// Replaces the served documents in one pointer swap (see file comment).
  /// Safe to call before start() and from any single publisher thread. An
  /// empty `series` means the publisher has no timeline; /series answers
  /// 404.
  void publish(std::string json, std::string prometheus,
               std::string series = {});

  /// Endpoint-side tallies, readable from any thread.
  struct Stats {
    std::int64_t accepted = 0;      ///< connections accepted
    std::int64_t served_json = 0;   ///< 200s on /json (filtered or not)
    std::int64_t served_metrics = 0;///< 200s on /metrics
    std::int64_t served_series = 0; ///< 200s on /series
    std::int64_t served_health = 0; ///< 200s on /healthz
    std::int64_t unavailable = 0;   ///< 503s before the first publish
    std::int64_t bad_requests = 0;  ///< 400s (oversized / unparsable)
    std::int64_t not_found = 0;     ///< 404s
    std::int64_t io_errors = 0;     ///< disconnects and timeouts mid-exchange
  };
  Stats stats() const;

 private:
  struct Payload {
    std::string json;
    std::string prometheus;
    std::string series;  ///< empty when the publisher has no timeline
  };

  void serve_loop();
  void handle_client(int fd);
  void serve_json(int fd, const Payload& payload, std::string_view query);
  bool send_all(int fd, std::string_view text);
  void respond(int fd, int status, std::string_view reason,
               std::string_view content_type, std::string_view body);

  StatsServerConfig config_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: stop() wakes the poll loop
  std::thread thread_;

  /// Guards only the pointer: held for one swap or one copy.
  std::mutex payload_mutex_;
  std::shared_ptr<const Payload> payload_;

  std::atomic<std::int64_t> accepted_{0};
  std::atomic<std::int64_t> served_json_{0};
  std::atomic<std::int64_t> served_metrics_{0};
  std::atomic<std::int64_t> served_series_{0};
  std::atomic<std::int64_t> served_health_{0};
  std::atomic<std::int64_t> unavailable_{0};
  std::atomic<std::int64_t> bad_requests_{0};
  std::atomic<std::int64_t> not_found_{0};
  std::atomic<std::int64_t> io_errors_{0};
};

}  // namespace rtsmooth::obs
