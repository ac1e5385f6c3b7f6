// Cross-backend equivalence and backend-selection plumbing.
//
// The threads backend's contract is that it changes *scheduling*, never
// *results*: any logical quantity — application answers, conveyor lifetime
// totals, per-PE send multisets, superstep structure — must be identical
// to the fiber backend's. Timing (virtual cycles, per-step handled counts,
// physical transfer interleavings) is explicitly outside the contract and
// not compared here.
//
// Also covered: strict parsing of ACTORPROF_BACKEND / ACTORPROF_THREADS
// (config.cpp-style bad_value rejection, not silent fallback) and the
// fiber-only fence on fault injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "apps/histogram.hpp"
#include "apps/triangle.hpp"
#include "conveyor/conveyor.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "faultinject/faultinject.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "runtime/backend.hpp"
#include "shmem/shmem.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ap;

constexpr int kPes = 8;

/// setenv/unsetenv guard so parse tests cannot leak state into the
/// equivalence tests (which rely on the real default resolution).
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_ = true;
      old_ = old;
    }
    ::setenv(name, value, 1);
  }
  ~EnvVar() {
    if (had_)
      ::setenv(name_, old_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  bool had_ = false;
  std::string old_;
};

graph::Csr triangle_graph() {
  graph::RmatParams gp;
  gp.scale = 8;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto edges = graph::rmat_edges(gp);
  return graph::Csr::from_edges(graph::Vertex{1} << gp.scale, edges, true);
}

rt::LaunchConfig launch(rt::Backend backend) {
  rt::LaunchConfig lc;
  lc.num_pes = kPes;
  lc.pes_per_node = kPes / 2;
  lc.backend = backend;
  return lc;
}

struct TriangleRun {
  std::int64_t triangles = 0;
  convey::ConveyorStats lifetime;
};

TriangleRun run_triangle(rt::Backend backend) {
  const auto L = triangle_graph();
  TriangleRun out;
  convey::reset_lifetime_totals();
  shmem::run(launch(backend), [&] {
    graph::CyclicDistribution dist(shmem::n_pes());
    const auto r = apps::count_triangles_actor(L, dist, nullptr);
    if (shmem::my_pe() == 0) out.triangles = r.triangles;
  });
  out.lifetime = convey::lifetime_totals();
  return out;
}

TEST(BackendEquivalence, TriangleCountsMatch) {
  const TriangleRun fib = run_triangle(rt::Backend::fiber);
  const TriangleRun thr = run_triangle(rt::Backend::threads);
  EXPECT_GT(fib.triangles, 0);
  EXPECT_EQ(fib.triangles, thr.triangles);
}

TEST(BackendEquivalence, ConveyorLifetimeLogicalTotalsMatch) {
  const TriangleRun fib = run_triangle(rt::Backend::fiber);
  const TriangleRun thr = run_triangle(rt::Backend::threads);
  // Logical totals: what the application pushed and pulled. Invariant
  // across backends (and pushed == pulled within each run, since every
  // conveyor drains to completion). Physical `transfers` is interleaving-
  // dependent under threads (runs flush at different fill levels) and is
  // deliberately not compared.
  EXPECT_GT(fib.lifetime.pushed, 0u);
  EXPECT_EQ(fib.lifetime.pushed, fib.lifetime.pulled);
  EXPECT_EQ(thr.lifetime.pushed, thr.lifetime.pulled);
  EXPECT_EQ(fib.lifetime.pushed, thr.lifetime.pushed);
}

// ---- profiled runs: trace structure and analyze() totals ----------------

void run_histogram_traced(rt::Backend backend, const fs::path& dir) {
  fs::remove_all(dir);
  prof::Config pc;
  pc.overall = true;
  pc.supersteps = true;
  pc.logical = true;
  pc.trace_dir = dir;
  prof::Profiler profiler(pc);
  shmem::run(launch(backend), [&] {
    (void)apps::histogram_actor(64, 2000, 1234, &profiler);
  });
  profiler.write_traces();
}

TEST(BackendEquivalence, TraceLogicalStructureMatches) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path df = tmp / "be_fiber";
  const fs::path dt = tmp / "be_threads";
  run_histogram_traced(rt::Backend::fiber, df);
  run_histogram_traced(rt::Backend::threads, dt);
  const auto tf = prof::io::load_trace_dir(df, kPes);
  const auto tt = prof::io::load_trace_dir(dt, kPes);

  ASSERT_EQ(tf.steps.size(), static_cast<std::size_t>(kPes));
  ASSERT_EQ(tt.steps.size(), static_cast<std::size_t>(kPes));
  for (int pe = 0; pe < kPes; ++pe) {
    const auto& sf = tf.steps[static_cast<std::size_t>(pe)];
    const auto& st = tt.steps[static_cast<std::size_t>(pe)];
    // Superstep structure is logical (barrier-to-barrier intervals), so
    // the step count matches. Per-step timing and per-step handled counts
    // depend on delivery interleaving; only their per-PE totals are
    // contractual.
    ASSERT_EQ(sf.size(), st.size()) << "pe " << pe;
    std::uint64_t sent_f = 0, sent_t = 0, bytes_f = 0, bytes_t = 0,
                  handled_f = 0, handled_t = 0;
    for (const auto& r : sf) {
      sent_f += r.msgs_sent;
      bytes_f += r.bytes_sent;
      handled_f += r.msgs_handled;
    }
    for (const auto& r : st) {
      sent_t += r.msgs_sent;
      bytes_t += r.bytes_sent;
      handled_t += r.msgs_handled;
    }
    EXPECT_EQ(sent_f, sent_t) << "pe " << pe;
    EXPECT_EQ(bytes_f, bytes_t) << "pe " << pe;
    EXPECT_EQ(handled_f, handled_t) << "pe " << pe;

    // The multiset of logical sends per PE is invariant; only the order
    // can change (handlers fire in arrival order).
    auto lf = tf.logical[static_cast<std::size_t>(pe)].records();
    auto lt = tt.logical[static_cast<std::size_t>(pe)].records();
    auto key = [](const prof::LogicalSendRecord& r) {
      return std::tuple(r.src_node, r.src_pe, r.dst_node, r.dst_pe,
                        r.msg_bytes);
    };
    auto lt_less = [&](const auto& a, const auto& b) {
      return key(a) < key(b);
    };
    std::sort(lf.begin(), lf.end(), lt_less);
    std::sort(lt.begin(), lt.end(), lt_less);
    EXPECT_EQ(lf, lt) << "pe " << pe;
  }

  // analyze() agrees on everything that is not timing.
  const prof::analysis::Analysis af = prof::analysis::analyze(tf);
  const prof::analysis::Analysis at = prof::analysis::analyze(tt);
  EXPECT_GT(af.total_cycles, 0u);
  EXPECT_GT(at.total_cycles, 0u);
  EXPECT_EQ(af.steps.size(), at.steps.size());
}

// ---- selection plumbing -------------------------------------------------

TEST(BackendSelect, ExplicitConfigWinsOverEnv) {
  EnvVar env("ACTORPROF_BACKEND", "threads");
  EXPECT_EQ(rt::resolve_backend(rt::Backend::fiber), rt::Backend::fiber);
  EXPECT_EQ(rt::resolve_backend(rt::Backend::threads), rt::Backend::threads);
}

TEST(BackendSelect, EnvDecidesAuto) {
  {
    EnvVar env("ACTORPROF_BACKEND", "threads");
    EXPECT_EQ(rt::resolve_backend(rt::Backend::auto_), rt::Backend::threads);
  }
  {
    EnvVar env("ACTORPROF_BACKEND", "fiber");
    EXPECT_EQ(rt::resolve_backend(rt::Backend::auto_), rt::Backend::fiber);
  }
  ::unsetenv("ACTORPROF_BACKEND");
  EXPECT_EQ(rt::resolve_backend(rt::Backend::auto_), rt::Backend::fiber);
}

TEST(BackendSelect, BackendEnvParsesStrictly) {
  for (const char* bad : {"", "Fiber", "THREADS", "thread", "2", "fiber "}) {
    EnvVar env("ACTORPROF_BACKEND", bad);
    EXPECT_THROW((void)rt::resolve_backend(rt::Backend::auto_),
                 std::invalid_argument)
        << "value: '" << bad << "'";
  }
}

TEST(BackendSelect, ThreadsEnvParsesStrictly) {
  for (const char* bad : {"", "0", "-1", "abc", "4x", "1.5"}) {
    EnvVar env("ACTORPROF_THREADS", bad);
    EXPECT_THROW((void)rt::resolve_num_threads(0, kPes),
                 std::invalid_argument)
        << "value: '" << bad << "'";
  }
  EnvVar env("ACTORPROF_THREADS", "3");
  EXPECT_EQ(rt::resolve_num_threads(0, kPes), 3);
  // Explicit config wins over env; both are clamped to [1, num_pes].
  EXPECT_EQ(rt::resolve_num_threads(5, kPes), 5);
  EXPECT_EQ(rt::resolve_num_threads(64, kPes), kPes);
  EXPECT_EQ(rt::resolve_num_threads(0, 2), 2);
}

TEST(BackendSelect, CurrentBackendIsVisibleInsideRun) {
  EXPECT_EQ(rt::current_backend(), rt::Backend::fiber);  // no launch active
  rt::Backend seen = rt::Backend::auto_;
  shmem::run(launch(rt::Backend::threads),
             [&] { if (shmem::my_pe() == 0) seen = rt::current_backend(); });
  EXPECT_EQ(seen, rt::Backend::threads);
  EXPECT_EQ(rt::current_backend(), rt::Backend::fiber);
}

// ---- fault injection is fiber-only --------------------------------------

TEST(BackendFaultInjection, ThreadsBackendRejectsActivePlan) {
  fi::Plan p;
  p.seed = 1;
  p.kill_pe = 2;
  fi::Session session(p);
  try {
    shmem::run(launch(rt::Backend::threads), [] {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fiber-backend-only"),
              std::string::npos)
        << e.what();
  }
}

TEST(BackendFaultInjection, FiberBackendStillAcceptsPlans) {
  fi::Plan p;
  p.seed = 1;
  p.kill_pe = 2;
  fi::Session session(p);
  const auto L = triangle_graph();
  std::int64_t triangles = -1;
  shmem::run(launch(rt::Backend::fiber), [&] {
    graph::CyclicDistribution dist(shmem::n_pes());
    const auto r = apps::count_triangles_actor(L, dist, nullptr);
    if (shmem::my_pe() == 0 && !fi::was_killed(0)) triangles = r.triangles;
  });
  EXPECT_GE(triangles, 0);
}

}  // namespace
