// Large-fleet smoke test: 1024 simulated PEs on the fiber backend, running
// a real (small) workload end-to-end through the whole toolchain — conveyor
// aggregation, trace writing, reload, sparse heatmap rendering, JSON export
// and the live trace service.
//
// The point is the allocation contract at scale (docs/PERFORMANCE.md,
// "Memory at scale"): per-destination conveyor buffers are allocated on
// first send toward a destination, never at create(), so a fleet of P PEs
// where each PE talks to k destinations costs O(P * k) heap — not O(P^2).
// With the old eager layout this run would allocate > 4 MiB per PE just in
// out-buffers; the budget below would fail immediately.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/histogram.hpp"
#include "core/alloc_probe.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "runtime/scheduler.hpp"
#include "serve/service.hpp"
#include "shmem/shmem.hpp"
#include "viz/heatmap_json.hpp"
#include "viz/render.hpp"
#include "test_tmpdir.hpp"

ACTORPROF_ALLOC_PROBE_DEFINE()

namespace {

namespace fs = std::filesystem;
using namespace ap;

// TSan instruments every fiber stack and context switch; a 1024-fiber fleet
// is minutes of shadow bookkeeping for no extra coverage. Shrink under
// sanitizers, keep the full fleet everywhere else.
#if defined(__SANITIZE_THREAD__)
constexpr int kPes = 128;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kPes = 128;
#else
constexpr int kPes = 1024;
#endif
#else
constexpr int kPes = 1024;
#endif

constexpr std::size_t kUpdatesPerPe = 128;

TEST(ScaleSmoke, ThousandPeFleetEndToEnd) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "scale_smoke_trace";
  fs::remove_all(dir);

  prof::Config pc = prof::Config::all_enabled();
  pc.trace_dir = dir;
  prof::Profiler profiler(pc);

  rt::LaunchConfig lc;
  lc.num_pes = kPes;
  lc.pes_per_node = 32;
  // 1024 fibers at the 1 MiB default stack would be 1 GiB of stacks alone;
  // the histogram actor's frames are shallow.
  lc.stack_bytes = 128 * 1024;

  const std::uint64_t before = prof::AllocProbe::bytes_allocated();
  apps::HistogramResult res;
  shmem::run(lc, [&] {
    const auto r =
        apps::histogram_actor(/*buckets_per_pe=*/64, kUpdatesPerPe,
                              /*seed=*/0x5CA1E, &profiler);
    if (shmem::my_pe() == 0) res = r;
  });
  const std::uint64_t after = prof::AllocProbe::bytes_allocated();

  EXPECT_EQ(res.global_updates,
            static_cast<std::int64_t>(kPes) *
                static_cast<std::int64_t>(kUpdatesPerPe));

  // The whole run — fiber stacks, scheduler, conveyor, actor, profiler
  // events — must stay O(P * touched-destinations). Each PE touches at
  // most kUpdatesPerPe destinations, so per-PE heap is bounded by a
  // constant; O(P^2) structures (eager out-buffers, dense seq bookkeeping)
  // would blow past this budget by an order of magnitude at 1024 PEs.
  const std::uint64_t bytes_per_pe =
      (after - before) / static_cast<std::uint64_t>(kPes);
  EXPECT_LT(bytes_per_pe, 1u << 20)
      << "per-PE heap " << bytes_per_pe
      << " B suggests an O(P^2) allocation crept back in";

  profiler.write_traces();

  // Reload and aggregate sparsely: the dense P x P matrix is never built.
  const auto t = prof::io::load_trace_dir(dir, kPes);
  EXPECT_EQ(t.num_pes, kPes);
  const auto sm = t.logical_sparse();
  EXPECT_EQ(sm.total(), static_cast<std::uint64_t>(kPes) * kUpdatesPerPe);
  EXPECT_LE(sm.nonzero_cells(),
            static_cast<std::size_t>(kPes) * kUpdatesPerPe);

  // Terminal heatmap buckets before densifying; at >64 PEs it must say so.
  const std::string heat = viz::render_heatmap(sm);
  EXPECT_FALSE(heat.empty());
  EXPECT_NE(heat.find("downsampled"), std::string::npos);

  // JSON export of the full trace dir.
  std::ostringstream js;
  viz::write_heatmap_json(js, t);
  const std::string json = js.str();
  EXPECT_NE(json.find("\"num_pes\":" + std::to_string(kPes)),
            std::string::npos);
  EXPECT_NE(json.find("\"bucketed\":true"), std::string::npos);

  // The live service ingests the same dir and serves both hot endpoints.
  serve::TraceService svc(dir);
  EXPECT_EQ(svc.num_pes(), kPes);
  const auto heatmap = svc.handle("GET", "/heatmap");
  EXPECT_EQ(heatmap.status, 200);
  EXPECT_NE(heatmap.body.find("\"bucketed\":true"), std::string::npos);
  const auto analyze = svc.handle("GET", "/analyze");
  EXPECT_EQ(analyze.status, 200);
  EXPECT_FALSE(analyze.body.empty());
}

}  // namespace
