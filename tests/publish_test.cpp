// End-to-end live streaming (docs/OBSERVABILITY.md, "Live streaming"):
// a profiled run with Config::publish set streams into a real serve
// daemon over real sockets, a /live subscriber receives at least one
// superstep delta before the final trace lands, and after write_traces()
// the pushed run's /analyze and /heatmap bodies are byte-identical to a
// file-backed service over the on-disk trace dir. Exercised on BOTH
// execution backends — the publisher hooks sit on the profiler's hot
// paths, which the threads backend drives concurrently.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "apps/triangle.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "runtime/backend.hpp"
#include "serve/http.hpp"
#include "serve/publisher.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "shmem/shmem.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
namespace io = ap::prof::io;
using ap::serve::Response;
using ap::serve::ServiceRegistry;
using ap::serve::TraceService;

constexpr int kPes = 4;

/// A daemon on an ephemeral port, stoppable, serving `reg` from a thread.
class Daemon {
 public:
  explicit Daemon(ServiceRegistry& reg) {
    ap::serve::ServerOptions opts;
    opts.port = 0;
    opts.poll_interval_ms = 10;
    opts.bound_port = &port_;
    opts.stop = &stop_;
    thread_ = std::thread(
        [this, &reg, opts] { rc_ = run_server(reg, opts, out_, err_); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (port_.load() == 0 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ~Daemon() { stop(); }
  void stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }
  [[nodiscard]] int port() const { return port_.load(); }
  [[nodiscard]] int rc() const { return rc_; }
  [[nodiscard]] std::string err() const { return err_.str(); }

 private:
  std::atomic<int> port_{0};
  std::atomic<bool> stop_{false};
  int rc_ = -1;
  std::ostringstream out_, err_;
  std::thread thread_;
};

/// Blocking connect to the daemon; -1 on failure.
int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// An SSE subscription to GET /live?run=<id> that accumulates everything
/// the daemon sends on a reader thread.
class LiveTap {
 public:
  LiveTap(int port, const std::string& run) {
    fd_ = connect_to(port);
    if (fd_ < 0) return;
    const std::string req = "GET /live?run=" + run +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Accept: text/event-stream\r\n\r\n";
    (void)::send(fd_, req.data(), req.size(), MSG_NOSIGNAL);
    reader_ = std::thread([this] {
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd_, buf, sizeof buf, 0)) > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        data_.append(buf, static_cast<std::size_t>(n));
      }
    });
  }
  ~LiveTap() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  [[nodiscard]] std::string data() const {
    std::lock_guard<std::mutex> lock(mu_);
    return data_;
  }
  /// Wait until the received stream contains `needle` (10s deadline).
  bool wait_for(std::string_view needle) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (data().find(needle) != std::string::npos) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

 private:
  int fd_ = -1;
  mutable std::mutex mu_;
  std::string data_;
  std::thread reader_;
};

void run_publish_roundtrip(ap::rt::Backend backend, const std::string& tag) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / ("publish_" + tag);
  fs::remove_all(dir);

  ServiceRegistry reg({});  // no watched dir: pure push daemon
  Daemon daemon(reg);
  ASSERT_GT(daemon.port(), 0) << daemon.err();

  // Subscribe before the run starts — the run is created lazily, and every
  // superstep delta from here on must reach this socket.
  LiveTap tap(daemon.port(), tag);
  ASSERT_TRUE(tap.connected());
  ASSERT_TRUE(tap.wait_for("event: hello")) << tap.data();

  ap::graph::RmatParams gp;
  gp.scale = 7;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto edges = ap::graph::rmat_edges(gp);
  const auto lower = ap::graph::Csr::from_edges(
      ap::graph::Vertex{1} << gp.scale, edges, true);

  ap::prof::Config pc = ap::prof::Config::all_enabled();
  pc.check = true;
  pc.metrics = true;  // ring snapshots + metrics.prom ride the same channel
  pc.trace_dir = dir;
  pc.trace_format = ap::prof::TraceFormat::binary;
  pc.publish = "127.0.0.1:" + std::to_string(daemon.port());
  pc.publish_run = tag;
  ap::prof::Profiler profiler(pc);
  ap::rt::LaunchConfig lc;
  lc.num_pes = kPes;
  lc.pes_per_node = kPes;
  lc.backend = backend;
  ap::shmem::run(lc, [&] {
    ap::graph::RangeDistribution dist(ap::shmem::n_pes(), lower);
    ap::apps::count_triangles_actor(lower, dist, &profiler);
  });

  // Mid-run supersteps have been queued (and mostly posted) by now; drain
  // the queue and require a delta on the live socket BEFORE the final
  // trace files are written.
  ASSERT_NE(profiler.publisher(), nullptr);
  ASSERT_TRUE(profiler.publisher()->flush());
  ASSERT_TRUE(tap.wait_for("event: superstep"))
      << "no superstep delta before write_traces(); got: " << tap.data();

  profiler.write_traces();  // publishes the final trace + MANIFEST, flushes

  const auto stats = profiler.publisher()->stats();
  EXPECT_GT(stats.segments_published, 0u);
  EXPECT_EQ(stats.posts_failed, 0u);

  daemon.stop();
  EXPECT_EQ(daemon.rc(), 0) << daemon.err();

  // The pushed run must now answer byte-identically to a file-backed
  // service over the directory write_traces() produced.
  TraceService file_svc(dir);
  for (const char* path : {"/analyze", "/heatmap", "/check"}) {
    const Response file_r = file_svc.handle("GET", path);
    const Response push_r =
        reg.handle("GET", std::string(path) + "?run=" + tag, {});
    ASSERT_EQ(file_r.status, 200) << path << ": " << file_r.body;
    ASSERT_EQ(push_r.status, 200) << path << ": " << push_r.body;
    EXPECT_EQ(push_r.body, file_r.body) << path;
  }

  // The pushed metrics exposition includes the publisher's self-metrics.
  const Response m = reg.handle("GET", "/metrics?run=" + tag, {});
  ASSERT_EQ(m.status, 200);
  EXPECT_NE(m.body.find("actorprof_publish_segments_total"),
            std::string::npos)
      << m.body;
}

TEST(Publish, FiberBackendStreamsAndMatchesFileBytes) {
  run_publish_roundtrip(ap::rt::Backend::fiber, "fiber");
}

TEST(Publish, ThreadsBackendStreamsAndMatchesFileBytes) {
  run_publish_roundtrip(ap::rt::Backend::threads, "threads");
}

TEST(Publish, EndpointParsingIsStrict) {
  std::string host;
  int port = 0;
  using ap::serve::Publisher;
  EXPECT_TRUE(Publisher::parse_endpoint("127.0.0.1:7077", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7077);
  EXPECT_FALSE(Publisher::parse_endpoint("", host, port));
  EXPECT_FALSE(Publisher::parse_endpoint("localhost", host, port));
  EXPECT_FALSE(Publisher::parse_endpoint(":7077", host, port));
  EXPECT_FALSE(Publisher::parse_endpoint("h:", host, port));
  EXPECT_FALSE(Publisher::parse_endpoint("h:0", host, port));
  EXPECT_FALSE(Publisher::parse_endpoint("h:65536", host, port));
  EXPECT_FALSE(Publisher::parse_endpoint("h:7x7", host, port));

  // Config rejects a malformed ACTORPROF_PUBLISH-style value at
  // construction, not at first use.
  ap::prof::Config pc;
  pc.publish = "no-port";
  EXPECT_THROW(ap::prof::Profiler{pc}, std::invalid_argument);

  // Same for a run id the collector would 400 on every POST.
  pc.publish = "127.0.0.1:7077";
  pc.publish_run = "bad/id";
  EXPECT_THROW(ap::prof::Profiler{pc}, std::invalid_argument);
  pc.publish_run = std::string(65, 'a');
  EXPECT_THROW(ap::prof::Profiler{pc}, std::invalid_argument);
}

TEST(Publish, UnreachableCollectorNeverBlocksTheRun) {
  // Nothing listens on this port (we bind-and-close to find a free one).
  int dead_port = 0;
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    dead_port = ntohs(addr.sin_port);
    ::close(fd);
  }

  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "publish_dead";
  fs::remove_all(dir);
  ap::graph::RmatParams gp;
  gp.scale = 6;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto edges = ap::graph::rmat_edges(gp);
  const auto lower = ap::graph::Csr::from_edges(
      ap::graph::Vertex{1} << gp.scale, edges, true);
  ap::prof::Config pc = ap::prof::Config::all_enabled();
  pc.trace_dir = dir;
  pc.trace_format = ap::prof::TraceFormat::binary;
  pc.publish = "127.0.0.1:" + std::to_string(dead_port);
  ap::prof::Profiler profiler(pc);
  ap::rt::LaunchConfig lc;
  lc.num_pes = 2;
  lc.pes_per_node = 2;
  ap::shmem::run(lc, [&] {
    ap::graph::RangeDistribution dist(ap::shmem::n_pes(), lower);
    ap::apps::count_triangles_actor(lower, dist, &profiler);
  });
  profiler.write_traces();  // must terminate despite the dead collector
  const auto stats = profiler.publisher()->stats();
  EXPECT_GT(stats.posts_failed, 0u);
  // The on-disk trace is intact regardless.
  EXPECT_TRUE(fs::exists(dir / io::kManifestFile));
}

}  // namespace
