// Live introspection plane tests (DESIGN.md Sect. 15): the StatsServer's
// HTTP surface (routes, status codes, error accounting), the stale-socket
// takeover and live-conflict rules, robustness against misbehaving
// scrapers, the Prometheus renderer, and the daemon integration — the
// shutdown endpoint document must equal the snapshot file byte for byte,
// and concurrent scrapes during churn plus mid-drain reconfiguration must
// never perturb the serving loop (this suite runs under TSan in CI).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/rtsmoothd.h"
#include "obs/json.h"
#include "obs/prometheus.h"
#include "obs/stats_server.h"
#include "obs/telemetry.h"

namespace rtsmooth {
namespace {

using obs::StatsServer;
using obs::StatsServerConfig;

/// A socket path under the test temp dir, short enough for sockaddr_un.
std::string socket_path(const char* name) {
  const std::string path = ::testing::TempDir() + name;
  std::filesystem::remove(path);
  return path;
}

struct Exchange {
  bool connected = false;
  int status = 0;
  std::string body;
};

/// One raw request/response over the unix socket; the request text is sent
/// verbatim so tests can exercise malformed and non-GET traffic.
Exchange roundtrip(const std::string& path, const std::string& request) {
  Exchange out;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return out;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return out;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return out;
  }
  out.connected = true;
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t sp = response.find(' ');
  if (response.rfind("HTTP/", 0) == 0 && sp != std::string::npos) {
    out.status = std::atoi(response.c_str() + sp + 1);
  }
  const std::size_t header_end = response.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    out.body = response.substr(header_end + 4);
  }
  return out;
}

Exchange get(const std::string& path, const std::string& target) {
  return roundtrip(path, "GET " + target + " HTTP/1.0\r\n\r\n");
}

// --------------------------------------------------------- HTTP surface

TEST(StatsServer, UnavailableBeforePublishThenServesBothDocuments) {
  const std::string path = socket_path("stats_basic.sock");
  StatsServer server(StatsServerConfig{.socket_path = path});
  server.start();

  // /healthz works from the first byte; the documents 503 until published.
  EXPECT_EQ(get(path, "/healthz").status, 200);
  EXPECT_EQ(get(path, "/json").status, 503);
  EXPECT_EQ(get(path, "/metrics").status, 503);

  server.publish("{\"a\":1}\n", "# TYPE rtsmooth_x counter\nrtsmooth_x 1\n");
  const Exchange json = get(path, "/json");
  EXPECT_EQ(json.status, 200);
  EXPECT_EQ(json.body, "{\"a\":1}\n");
  const Exchange metrics = get(path, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.body, "# TYPE rtsmooth_x counter\nrtsmooth_x 1\n");

  // A republish swaps the payload atomically; scrapers see the new epoch.
  server.publish("{\"a\":2}\n", "rtsmooth_x 2\n");
  EXPECT_EQ(get(path, "/json").body, "{\"a\":2}\n");

  const StatsServer::Stats s = server.stats();
  EXPECT_EQ(s.served_health, 1);
  EXPECT_EQ(s.unavailable, 2);
  EXPECT_EQ(s.served_json, 2);
  EXPECT_EQ(s.served_metrics, 1);
  EXPECT_EQ(s.accepted, 6);

  server.stop();
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(StatsServer, SeriesRouteUnavailableDisabledThenServes) {
  const std::string path = socket_path("stats_series.sock");
  StatsServer server(StatsServerConfig{.socket_path = path});
  server.start();

  EXPECT_EQ(get(path, "/series").status, 503);  // nothing published yet

  // A publish without a series document means the timeline is off in the
  // publishing process: distinguishable from "not ready yet".
  server.publish("{}\n", "");
  const Exchange disabled = get(path, "/series");
  EXPECT_EQ(disabled.status, 404);
  EXPECT_NE(disabled.body.find("timeline disabled"), std::string::npos);

  const std::string series = "{\"schema\":\"rtsmooth-series-v1\"}\n";
  server.publish("{}\n", "", series);
  const Exchange ok = get(path, "/series");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, series);

  const StatsServer::Stats s = server.stats();
  EXPECT_EQ(s.served_series, 1);
  EXPECT_EQ(s.unavailable, 1);
  EXPECT_EQ(s.not_found, 1);
}

TEST(StatsServer, JsonSectionFilterServesSubtreesAndNamesKnownSections) {
  const std::string path = socket_path("stats_section.sock");
  StatsServer server(StatsServerConfig{.socket_path = path});
  server.start();
  server.publish("{\"report\":{\"played\":9},\"slo\":{\"ok\":true}}\n", "");

  const Exchange report = get(path, "/json?section=report");
  EXPECT_EQ(report.status, 200);
  EXPECT_EQ(report.body, "{\"played\":9}\n");
  EXPECT_EQ(get(path, "/json?section=slo").body, "{\"ok\":true}\n");
  // The unfiltered document is unaffected by the query machinery.
  EXPECT_EQ(get(path, "/json").status, 200);

  // Unknown sections name the known ones, mirroring known_policies().
  const Exchange unknown = get(path, "/json?section=nope");
  EXPECT_EQ(unknown.status, 400);
  EXPECT_NE(unknown.body.find("unknown section 'nope'"), std::string::npos);
  EXPECT_NE(unknown.body.find("report slo"), std::string::npos);
  // Any other query shape is a bad request, not a silent full document.
  EXPECT_EQ(get(path, "/json?foo=1").status, 400);

  const StatsServer::Stats s = server.stats();
  EXPECT_EQ(s.served_json, 3);
  EXPECT_EQ(s.bad_requests, 2);
}

TEST(StatsServer, RejectsUnknownPathsNonGetAndOversizedRequests) {
  const std::string path = socket_path("stats_reject.sock");
  StatsServer server(StatsServerConfig{.socket_path = path});
  server.start();
  server.publish("{}\n", "");

  EXPECT_EQ(get(path, "/nope").status, 404);
  EXPECT_EQ(roundtrip(path, "POST /json HTTP/1.0\r\n\r\n").status, 400);
  // No header terminator within max_request_bytes: the server must give
  // up with a 400 instead of buffering forever.
  EXPECT_EQ(roundtrip(path, std::string(8192, 'a')).status, 400);

  const StatsServer::Stats s = server.stats();
  EXPECT_EQ(s.not_found, 1);
  EXPECT_EQ(s.bad_requests, 2);
  EXPECT_EQ(s.served_json, 0);
}

TEST(StatsServer, TakesOverStaleSocketButRefusesLiveOne) {
  const std::string path = socket_path("stats_stale.sock");
  // Simulate a crashed daemon: bind the path, then close the listener
  // without unlinking. connect() on the leftover file is refused.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr),
              0);
    ::close(fd);
  }
  ASSERT_TRUE(std::filesystem::exists(path));

  StatsServer server(StatsServerConfig{.socket_path = path});
  server.start();  // must unlink the stale file and bind
  server.publish("{}\n", "");
  EXPECT_EQ(get(path, "/json").status, 200);

  // A second server on the same path must refuse to evict a live one.
  StatsServer rival(StatsServerConfig{.socket_path = path});
  EXPECT_THROW(rival.start(), std::runtime_error);
  // The loser must not have torn down the winner's socket.
  EXPECT_EQ(get(path, "/healthz").status, 200);
}

TEST(StatsServer, ValidatesConfigUpFront) {
  EXPECT_THROW(StatsServer(StatsServerConfig{.socket_path = ""}),
               std::invalid_argument);
  EXPECT_THROW(StatsServer(StatsServerConfig{
                   .socket_path = std::string(200, 'p')}),
               std::invalid_argument);
  EXPECT_THROW(StatsServer(StatsServerConfig{.socket_path = "/tmp/ok.sock",
                                             .max_request_bytes = 4}),
               std::invalid_argument);
}

TEST(StatsServer, CountsClientDisconnectMidWriteAndKeepsServing) {
  const std::string path = socket_path("stats_disco.sock");
  StatsServer server(StatsServerConfig{.socket_path = path});
  server.start();
  // A payload far larger than the socket buffer, so the response write is
  // still in flight when the client vanishes.
  server.publish(std::string(8 << 20, 'x'), "");

  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    const std::string req = "GET /json HTTP/1.0\r\n\r\n";
    ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    ::close(fd);  // walk away without reading the 8 MiB answer
  }

  // The failed write lands in io_errors (EPIPE/reset or send timeout).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().io_errors == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.stats().io_errors, 1);
  // One bad client must not wedge the endpoint.
  EXPECT_EQ(get(path, "/healthz").status, 200);
}

// ---------------------------------------------------- Prometheus renderer

TEST(Prometheus, RendersRegistrySectionsInExpositionFormat) {
  obs::Registry registry;
  registry.counter("a.count").add(3);
  registry.gauge("a.gauge").update(7);
  obs::Histogram& hist =
      registry.histogram("a.hist", obs::HistogramSpec::exponential(1, 2));
  hist.record(1, 2);  // two bytes at value 1
  hist.record(5);     // overflow bucket
  registry.timer("a.timer").record(10);  // must be excluded

  const std::string expected =
      "# TYPE rtsmooth_a_count counter\n"
      "rtsmooth_a_count 3\n"
      "# TYPE rtsmooth_a_gauge gauge\n"
      "rtsmooth_a_gauge 7\n"
      "# TYPE rtsmooth_a_hist histogram\n"
      "rtsmooth_a_hist_bucket{le=\"1\"} 2\n"
      "rtsmooth_a_hist_bucket{le=\"2\"} 2\n"
      "rtsmooth_a_hist_bucket{le=\"+Inf\"} 3\n"
      "rtsmooth_a_hist_sum 7\n"
      "rtsmooth_a_hist_count 3\n";
  EXPECT_EQ(obs::to_prometheus(registry), expected);
  EXPECT_EQ(obs::to_prometheus(obs::Registry{}), "");
  EXPECT_EQ(obs::prometheus_name("gateway.c0.lateness_steps"),
            "rtsmooth_gateway_c0_lateness_steps");
}

TEST(Prometheus, NameSanitizationRewritesEveryForbiddenByte) {
  // Exposition names admit only [a-zA-Z0-9_] after the prefix; quotes,
  // newlines, and backslashes must never leak into a # TYPE line.
  EXPECT_EQ(obs::prometheus_name("a\"b"), "rtsmooth_a_b");
  EXPECT_EQ(obs::prometheus_name("a\nb"), "rtsmooth_a_b");
  EXPECT_EQ(obs::prometheus_name("a\\b"), "rtsmooth_a_b");
  EXPECT_EQ(obs::prometheus_name("a{b}c d"), "rtsmooth_a_b_c_d");
  // Multi-byte UTF-8 sanitizes per byte — never interpreted, never kept.
  EXPECT_EQ(obs::prometheus_name("\xce\xbb"), "rtsmooth___");
  EXPECT_EQ(obs::prometheus_name(""), "rtsmooth_");
  // A registry name with a hostile metric name stays lintable end to end.
  obs::Registry registry;
  registry.counter("evil\"name\nwith\\bytes").add(1);
  const std::string text = obs::to_prometheus(registry);
  EXPECT_NE(text.find("# TYPE rtsmooth_evil_name_with_bytes counter\n"),
            std::string::npos);
  EXPECT_EQ(text.find('"'), std::string::npos);
}

TEST(Prometheus, LabelValueEscapingHandlesMetacharsAndPassesUtf8) {
  EXPECT_EQ(obs::prometheus_label_value("plain"), "plain");
  EXPECT_EQ(obs::prometheus_label_value("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::prometheus_label_value("new\nline"), "new\\nline");
  EXPECT_EQ(obs::prometheus_label_value("quo\"te"), "quo\\\"te");
  // All three metacharacters together, in order.
  EXPECT_EQ(obs::prometheus_label_value("\\\n\""), "\\\\\\n\\\"");
  // Label values, unlike names, carry UTF-8 through byte-for-byte.
  EXPECT_EQ(obs::prometheus_label_value("\xce\xbb=\xcf\x80"),
            "\xce\xbb=\xcf\x80");
  EXPECT_EQ(obs::prometheus_label_value(""), "");
}

// ------------------------------------------------------ daemon integration

daemon::DaemonOptions stats_daemon_options(const std::string& sock) {
  daemon::DaemonOptions opts;
  opts.engine.rate = 256;
  opts.engine.smoothing_delay = 4;
  opts.engine.server_buffer = 256 * 4;
  opts.engine.client_buffer = 256 * 4;
  opts.engine.link_delay = 1;
  opts.slo.enabled = false;
  opts.ladder.enabled = false;
  opts.stats_socket_path = sock;
  return opts;
}

daemon::GeneratorConfig small_generator(std::int64_t frames_per_channel) {
  daemon::GeneratorConfig gen;
  gen.channels = 2;
  gen.mean_frame_bytes = 64;
  gen.max_frame_bytes = 256;
  gen.min_frame_bytes = 8;
  gen.seed = 77;
  gen.frames_per_channel = frames_per_channel;
  return gen;
}

TEST(DaemonStats, ShutdownEndpointEqualsSnapshotFileByteForByte) {
  const std::string dir = ::testing::TempDir() + "rtsmoothd_stats_eq";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string sock = socket_path("stats_eq.sock");

  daemon::DaemonOptions opts = stats_daemon_options(sock);
  opts.snapshot_path = dir + "/snapshot.json";
  daemon::Daemon d(opts, std::make_unique<daemon::GeneratorSource>(
                             small_generator(400)));
  EXPECT_EQ(d.serve(), 0);
  // Taken before any scrape moves the endpoint's own tallies.
  const std::string tree = d.snapshot().dump() + "\n";

  // The endpoint outlives serve() (until the Daemon is destroyed), still
  // holding the shutdown publish — the same string write_outputs() froze
  // and wrote to the snapshot file.
  const Exchange json = get(sock, "/json");
  ASSERT_EQ(json.status, 200);
  std::ifstream in(opts.snapshot_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream file_text;
  file_text << in.rdbuf();
  EXPECT_EQ(json.body, file_text.str());
  EXPECT_EQ(json.body, tree);

  const obs::Json doc = obs::Json::parse(json.body);
  EXPECT_EQ(doc.at("schema").as_string(), "rtsmooth-soak-v1");
  const obs::Json& st = doc.at("stats");
  EXPECT_EQ(st.at("schema").as_string(), "rtsmooth-stats-v1");
  EXPECT_EQ(st.at("socket_path").as_string(), sock);
  EXPECT_EQ(doc.at("report").at("max_lateness").as_int(), 0);

  // /metrics carries the same registry the JSON snapshot embeds.
  const Exchange metrics = get(sock, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(
      metrics.body.find("# TYPE rtsmooth_daemon_ingest_stalled_polls counter"),
      std::string::npos);
  EXPECT_NE(metrics.body.find("rtsmooth_daemon_snapshot_sighup 0"),
            std::string::npos);
}

TEST(DaemonStats, NoLateBytePublishesZeroLatenessAndNoEmptyGauge) {
  // An empty high-watermark gauge holds INT64_MIN. A daemon run with no
  // late byte must publish client.max_lateness_steps as 0, like the
  // report's max_lateness, and no gauge anywhere may carry the sentinel:
  // not in the registry, not in a series slot, not on /metrics.
  constexpr std::int64_t kEmpty = std::numeric_limits<std::int64_t>::min();
  const std::string sock = socket_path("stats_gauges.sock");
  daemon::DaemonOptions opts = stats_daemon_options(sock);
  opts.timeline.slot_steps = 32;
  opts.timeline.budgets = daemon::default_slo_budgets();
  daemon::Daemon d(opts, std::make_unique<daemon::GeneratorSource>(
                             small_generator(300)));
  EXPECT_EQ(d.serve(), 0);

  const Exchange json = get(sock, "/json");
  ASSERT_EQ(json.status, 200);
  const obs::Json doc = obs::Json::parse(json.body);
  EXPECT_EQ(doc.at("report").at("max_lateness").as_int(), 0);
  const obs::Json& gauges = doc.at("registry").at("gauges");
  EXPECT_EQ(gauges.at("client.max_lateness_steps").as_int(), 0);
  for (std::size_t i = 0; i < gauges.keys().size(); ++i) {
    EXPECT_NE(gauges.items()[i].as_int(), kEmpty) << gauges.keys()[i];
  }

  const Exchange series = get(sock, "/series");
  ASSERT_EQ(series.status, 200);
  const obs::Json series_doc = obs::Json::parse(series.body);
  const obs::Json& columns = series_doc.at("gauges");
  ASSERT_NE(columns.find("client.max_lateness_steps"), nullptr);
  for (std::size_t i = 0; i < columns.keys().size(); ++i) {
    ASSERT_GT(columns.items()[i].size(), 0u) << columns.keys()[i];
    for (const obs::Json& slot : columns.items()[i].items()) {
      EXPECT_NE(slot.as_int(), kEmpty) << columns.keys()[i];
    }
  }

  const Exchange metrics = get(sock, "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("rtsmooth_client_max_lateness_steps 0\n"),
            std::string::npos);
  std::istringstream lines(metrics.body);
  std::string line;
  std::string gauge;  // the metric a "# TYPE ... gauge" line announced
  int gauge_lines = 0;
  while (std::getline(lines, line)) {
    const std::string type = "# TYPE ";
    if (line.rfind(type, 0) == 0) {
      const std::size_t space = line.find(' ', type.size());
      gauge = line.substr(space + 1) == "gauge"
                  ? line.substr(type.size(), space - type.size())
                  : "";
      continue;
    }
    if (gauge.empty() || line.rfind(gauge + " ", 0) != 0) continue;
    ++gauge_lines;
    EXPECT_NE(line.substr(gauge.size() + 1), std::to_string(kEmpty)) << line;
  }
  EXPECT_EQ(gauge_lines, static_cast<int>(gauges.keys().size()));
}

TEST(DaemonStats, SplicedSeriesSnapshotEqualsTreeFileAndSeriesByteForByte) {
  const std::string dir = ::testing::TempDir() + "rtsmoothd_stats_splice";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string sock = socket_path("stats_splice.sock");
  daemon::DaemonOptions opts = stats_daemon_options(sock);
  opts.snapshot_path = dir + "/snapshot.json";
  opts.timeline.slot_steps = 16;
  opts.timeline.capacity = 8;
  opts.timeline.short_slots = 2;
  opts.timeline.long_slots = 4;
  opts.timeline.budgets = daemon::default_slo_budgets();
  daemon::Daemon d(opts, std::make_unique<daemon::GeneratorSource>(
                             small_generator(400)));
  EXPECT_EQ(d.serve(), 0);
  ASSERT_NE(d.timeline(), nullptr);
  EXPECT_GT(d.timeline()->evicted(), 0);  // the ring wrapped into base
  // The navigable tree parses the series back from the timeline's bytes;
  // dumped, it must give the very bytes the shutdown publish spliced.
  const std::string tree = d.snapshot().dump() + "\n";

  const Exchange json = get(sock, "/json");
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(json.body, tree);
  std::ifstream in(opts.snapshot_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream file_text;
  file_text << in.rdbuf();
  EXPECT_EQ(json.body, file_text.str());

  // /series serves the same rendering the snapshot embeds.
  const Exchange series = get(sock, "/series");
  ASSERT_EQ(series.status, 200);
  EXPECT_EQ(series.body, d.timeline()->dump() + "\n");
  EXPECT_NE(json.body.find("\"series\":" + d.timeline()->dump() + ","),
            std::string::npos);
}

TEST(DaemonStats, SeriesEndpointConservesAgainstTerminalSnapshot) {
  const std::string sock = socket_path("stats_series_cons.sock");
  daemon::DaemonOptions opts = stats_daemon_options(sock);
  opts.timeline.slot_steps = 64;
  opts.timeline.capacity = 32;
  opts.timeline.short_slots = 2;
  opts.timeline.long_slots = 8;
  opts.timeline.budgets = daemon::default_slo_budgets();
  daemon::Daemon d(opts, std::make_unique<daemon::GeneratorSource>(
                             small_generator(400)));
  EXPECT_EQ(d.serve(), 0);

  const Exchange series = get(sock, "/series");
  ASSERT_EQ(series.status, 200);
  const obs::Json doc = obs::Json::parse(series.body);
  EXPECT_EQ(doc.at("schema").as_string(), "rtsmooth-series-v1");
  EXPECT_GE(doc.at("slots").as_int(), 1);

  // The terminal sample is the LAST registry mutation before the snapshot
  // freezes, so every series counter must reconcile EXACTLY against the
  // registry section of the same document: base + sum(deltas) == value.
  const Exchange json = get(sock, "/json");
  ASSERT_EQ(json.status, 200);
  const obs::Json snapshot = obs::Json::parse(json.body);
  const obs::Json& live = snapshot.at("registry").at("counters");
  const obs::Json& counters = doc.at("counters");
  ASSERT_GT(counters.size(), 0u);
  for (std::size_t i = 0; i < counters.keys().size(); ++i) {
    const std::string& name = counters.keys()[i];
    const obs::Json& column = counters.items()[i];
    std::int64_t sum = column.at("base").as_int();
    for (const obs::Json& delta : column.at("deltas").items()) {
      sum += delta.as_int();
    }
    EXPECT_EQ(sum, column.at("total").as_int()) << name;
    EXPECT_EQ(column.at("total").as_int(), live.at(name).as_int()) << name;
  }
  // The same frozen document rides inside the snapshot as its `series`
  // section, reachable through the section filter as well.
  EXPECT_EQ(snapshot.at("series").dump() + "\n", series.body);
  EXPECT_EQ(get(sock, "/json?section=series").body, series.body);

  // Burn machinery surfaces as first-class registry counters and as the
  // snapshot's slo tallies.
  EXPECT_NE(live.find("daemon.slo.burn_breaches"), nullptr);
  EXPECT_NE(snapshot.at("slo").at("breaches").find("burn"), nullptr);
  EXPECT_NE(snapshot.at("slo").find("cooldown_suppressed"), nullptr);
  EXPECT_GE(doc.at("burn").at("budgets").size(), 3u);
}

TEST(DaemonStats, SeriesByteIdenticalAcrossThreadCounts) {
  const auto run = [](const char* threads, const char* name) {
    ::setenv("RTSMOOTH_THREADS", threads, 1);
    const std::string sock = socket_path(name);
    daemon::DaemonOptions opts = stats_daemon_options(sock);
    opts.timeline.slot_steps = 32;
    opts.timeline.budgets = daemon::default_slo_budgets();
    daemon::Daemon d(opts, std::make_unique<daemon::GeneratorSource>(
                               small_generator(300)));
    EXPECT_EQ(d.serve(), 0);
    const Exchange series = get(sock, "/series");
    EXPECT_EQ(series.status, 200);
    return series.body;
  };
  const std::string serial = run("1", "stats_series_t1.sock");
  const std::string wide = run("4", "stats_series_t4.sock");
  ::unsetenv("RTSMOOTH_THREADS");
  ASSERT_FALSE(serial.empty());
  // The timeline samples the merged registry at fixed step cadence; like
  // the /json payload, its dump is pinned byte-identical across pool
  // widths (DESIGN.md Sect. 16).
  EXPECT_EQ(serial, wide);
}

TEST(DaemonStats, ConcurrentScrapesDuringChurnAndReconfigStayClean) {
  const std::string sock = socket_path("stats_churn.sock");
  daemon::DaemonOptions opts = stats_daemon_options(sock);
  opts.stats_publish_every = 64;  // republish continuously under load
  opts.ingest.retry_sleep_us = 0;
  daemon::Daemon d(opts, std::make_unique<daemon::GeneratorSource>(
                             small_generator(0)));  // endless source
  // Mid-drain reconfigurations while scrapers hammer the socket.
  d.schedule_reconfig_cycle(
      500, {daemon::EnginePlan{.server_buffer = 512,
                               .client_buffer = 512,
                               .rate = 128,
                               .smoothing_delay = 4,
                               .link_delay = 1},
            daemon::EnginePlan{.server_buffer = 1024,
                               .client_buffer = 1024,
                               .rate = 256,
                               .smoothing_delay = 4,
                               .link_delay = 1}});

  std::thread serving([&d] { EXPECT_EQ(d.serve(), 0); });

  std::atomic<std::int64_t> ok_scrapes{0};
  std::atomic<bool> scraping{true};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 4; ++i) {
    scrapers.emplace_back([&, i] {
      const std::string target = (i % 2) == 0 ? "/json" : "/metrics";
      while (scraping.load()) {
        const Exchange r = get(sock, target);
        if (r.status == 200 && !r.body.empty()) ok_scrapes.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  scraping.store(false);
  for (std::thread& t : scrapers) t.join();
  d.request_stop(SIGTERM);
  serving.join();

  EXPECT_GT(ok_scrapes.load(), 0);
  ASSERT_NE(d.stats_server(), nullptr);
  const StatsServer::Stats s = d.stats_server()->stats();
  EXPECT_GE(s.served_json + s.served_metrics, ok_scrapes.load());
  // The final document is still coherent after the scrape storm.
  const Exchange final_doc = get(sock, "/json");
  ASSERT_EQ(final_doc.status, 200);
  const obs::Json doc = obs::Json::parse(final_doc.body);
  EXPECT_EQ(doc.at("stop_signal").as_int(), SIGTERM);
  EXPECT_TRUE(doc.at("report").at("conserves").as_bool());
  EXPECT_TRUE(doc.at("admission").at("ledger_conserves").as_bool());
}

}  // namespace
}  // namespace rtsmooth
