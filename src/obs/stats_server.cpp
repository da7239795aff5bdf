#include "obs/stats_server.h"

#include "obs/json.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>

namespace rtsmooth::obs {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

void set_timeout(int fd, int option, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

/// True when a dead process left `path` behind: connect() is refused.
/// A live server accepts (or at least queues) the probe.
bool socket_is_stale(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const sockaddr_un addr = make_addr(path);
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr));
  const bool refused = rc != 0 && errno == ECONNREFUSED;
  ::close(fd);
  return refused;
}

}  // namespace

StatsServer::StatsServer(StatsServerConfig config)
    : config_(std::move(config)) {
  sockaddr_un probe{};
  if (config_.socket_path.empty() ||
      config_.socket_path.size() >= sizeof(probe.sun_path)) {
    throw std::invalid_argument("stats server: socket path must be 1.." +
                                std::to_string(sizeof(probe.sun_path) - 1) +
                                " bytes, got \"" + config_.socket_path + "\"");
  }
  if (config_.max_request_bytes < 16) {
    throw std::invalid_argument("stats server: max_request_bytes too small");
  }
}

StatsServer::~StatsServer() { stop(); }

void StatsServer::start() {
  if (running()) return;

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("stats server: socket");
  const sockaddr_un addr = make_addr(config_.socket_path);
  int rc = ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr));
  if (rc != 0 && errno == EADDRINUSE && socket_is_stale(config_.socket_path)) {
    ::unlink(config_.socket_path.c_str());
    rc = ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr));
  }
  if (rc != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw_errno("stats server: bind " + config_.socket_path);
  }
  if (::listen(listen_fd_, config_.backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    throw_errno("stats server: listen " + config_.socket_path);
  }
  if (::pipe(wake_fds_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
    throw_errno("stats server: self-pipe");
  }
  thread_ = std::thread([this] { serve_loop(); });
}

void StatsServer::stop() {
  if (!running()) return;
  const char wake = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &wake, 1);
  thread_.join();
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(config_.socket_path.c_str());
}

void StatsServer::publish(std::string json, std::string prometheus,
                          std::string series) {
  auto payload = std::make_shared<const Payload>(
      Payload{std::move(json), std::move(prometheus), std::move(series)});
  {
    const std::lock_guard<std::mutex> lock(payload_mutex_);
    payload_.swap(payload);
  }
  // The previous epoch dies here, outside the lock, unless a scraper still
  // holds it.
}

StatsServer::Stats StatsServer::stats() const {
  Stats s;
  s.accepted = accepted_.load();
  s.served_json = served_json_.load();
  s.served_metrics = served_metrics_.load();
  s.served_series = served_series_.load();
  s.served_health = served_health_.load();
  s.unavailable = unavailable_.load();
  s.bad_requests = bad_requests_.load();
  s.not_found = not_found_.load();
  s.io_errors = io_errors_.load();
  return s;
}

void StatsServer::serve_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0) return;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    accepted_.fetch_add(1);
    set_timeout(client, SO_RCVTIMEO, config_.io_timeout_ms);
    set_timeout(client, SO_SNDTIMEO, config_.io_timeout_ms);
    handle_client(client);
    ::close(client);
  }
}

void StatsServer::handle_client(int fd) {
  // Read until the header terminator; give up at max_request_bytes (400)
  // or on a timeout/disconnect (no response possible).
  std::string request;
  request.reserve(256);
  char buf[512];
  bool complete = false;
  while (!complete && request.size() < config_.max_request_bytes) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      io_errors_.fetch_add(1);
      return;
    }
    request.append(buf, static_cast<std::size_t>(n));
    complete = request.find("\r\n\r\n") != std::string::npos ||
               request.find("\n\n") != std::string::npos;
  }
  if (!complete) {
    bad_requests_.fetch_add(1);
    respond(fd, 400, "Bad Request", "text/plain",
            "request exceeds the header limit\n");
    return;
  }

  // "GET <path> ..." — the path is the second whitespace-delimited token.
  const std::string_view line =
      std::string_view(request).substr(0, request.find('\n'));
  const std::size_t method_end = line.find(' ');
  if (method_end == std::string_view::npos ||
      line.substr(0, method_end) != "GET") {
    bad_requests_.fetch_add(1);
    respond(fd, 400, "Bad Request", "text/plain", "only GET is supported\n");
    return;
  }
  std::string_view path = line.substr(method_end + 1);
  path = path.substr(0, path.find_first_of(" \r"));
  std::string_view query;
  if (const std::size_t q = path.find('?'); q != std::string_view::npos) {
    query = path.substr(q + 1);
    path = path.substr(0, q);
  }

  if (path == "/healthz") {
    served_health_.fetch_add(1);
    respond(fd, 200, "OK", "text/plain", "ok\n");
    return;
  }
  if (path != "/json" && path != "/metrics" && path != "/series") {
    not_found_.fetch_add(1);
    respond(fd, 404, "Not Found", "text/plain", "unknown path\n");
    return;
  }
  std::shared_ptr<const Payload> payload;
  {
    const std::lock_guard<std::mutex> lock(payload_mutex_);
    payload = payload_;
  }
  if (payload == nullptr) {
    unavailable_.fetch_add(1);
    respond(fd, 503, "Service Unavailable", "text/plain",
            "no snapshot published yet\n");
    return;
  }
  if (path == "/json") {
    serve_json(fd, *payload, query);
  } else if (path == "/series") {
    if (payload->series.empty()) {
      not_found_.fetch_add(1);
      respond(fd, 404, "Not Found", "text/plain",
              "timeline disabled in the publishing process\n");
      return;
    }
    served_series_.fetch_add(1);
    respond(fd, 200, "OK", "application/json", payload->series);
  } else {
    served_metrics_.fetch_add(1);
    respond(fd, 200, "OK", "text/plain; version=0.0.4; charset=utf-8",
            payload->prometheus);
  }
}

void StatsServer::serve_json(int fd, const Payload& payload,
                             std::string_view query) {
  if (query.empty()) {
    served_json_.fetch_add(1);
    respond(fd, 200, "OK", "application/json", payload.json);
    return;
  }
  constexpr std::string_view kSectionKey = "section=";
  if (query.substr(0, kSectionKey.size()) != kSectionKey) {
    bad_requests_.fetch_add(1);
    respond(fd, 400, "Bad Request", "text/plain",
            "unsupported query; try /json?section=<name>\n");
    return;
  }
  const std::string_view section = query.substr(kSectionKey.size());
  // The published snapshot is a frozen string; parsing it here keeps the
  // cost on the scraper's thread, never the publisher's.
  Json doc;
  try {
    doc = Json::parse(payload.json);
  } catch (const std::exception&) {
    bad_requests_.fetch_add(1);
    respond(fd, 400, "Bad Request", "text/plain",
            "published snapshot is not JSON\n");
    return;
  }
  if (const Json* sub = doc.find(section); sub != nullptr) {
    served_json_.fetch_add(1);
    respond(fd, 200, "OK", "application/json", sub->dump() + "\n");
    return;
  }
  // Mirror the known_policies() error style: name what was asked for and
  // list everything that would have worked.
  std::string body = "unknown section '";
  body += section;
  body += "'; known sections:";
  for (const std::string& key : doc.keys()) {
    body += ' ';
    body += key;
  }
  body += '\n';
  bad_requests_.fetch_add(1);
  respond(fd, 400, "Bad Request", "text/plain", body);
}

bool StatsServer::send_all(int fd, std::string_view text) {
  std::size_t off = 0;
  while (off < text.size()) {
    // MSG_NOSIGNAL: a scraper that disconnected mid-write yields EPIPE
    // instead of killing the process.
    const ssize_t n =
        ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    io_errors_.fetch_add(1);
    return false;
  }
  return true;
}

void StatsServer::respond(int fd, int status, std::string_view reason,
                          std::string_view content_type,
                          std::string_view body) {
  std::string head = "HTTP/1.0 " + std::to_string(status) + " ";
  head += reason;
  head += "\r\nContent-Type: ";
  head += content_type;
  head += "\r\nContent-Length: " + std::to_string(body.size());
  head += "\r\nConnection: close\r\n\r\n";
  if (send_all(fd, head)) send_all(fd, body);
}

}  // namespace rtsmooth::obs
