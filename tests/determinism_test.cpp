// Whole-pipeline determinism: two identical case-study runs must produce
// byte-identical trace files — the property that makes every figure in
// EXPERIMENTS.md reproducible — and three fixed fiber runs must keep
// producing the exact bytes recorded below, so a refactor that changes any
// trace file, even deterministically, fails here.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "apps/histogram.hpp"
#include "apps/index_gather.hpp"
#include "apps/triangle.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "shmem/shmem.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ap;

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

rt::LaunchConfig fiber_launch() {
  rt::LaunchConfig lc;
  lc.num_pes = 8;
  lc.pes_per_node = 4;
  // Byte-identical traces are a fiber-backend guarantee; pin it so the
  // suite also passes under ACTORPROF_BACKEND=threads.
  lc.backend = rt::Backend::fiber;
  return lc;
}

/// Every trace kind off; each run turns on exactly what it records.
prof::Config kinds_off(const fs::path& dir) {
  prof::Config pc;
  pc.logical = pc.papi = pc.overall = pc.physical = pc.supersteps = false;
  pc.timeline = pc.metrics = pc.check = false;
  pc.trace_format = prof::TraceFormat::csv;
  pc.trace_dir = dir;
  return pc;
}

void run_triangle(const fs::path& dir,
                  prof::TraceFormat format = prof::TraceFormat::csv,
                  bool compress = false) {
  fs::remove_all(dir);
  graph::RmatParams gp;
  gp.scale = 8;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto edges = graph::rmat_edges(gp);
  const auto L =
      graph::Csr::from_edges(graph::Vertex{1} << gp.scale, edges, true);
  prof::Config pc = prof::Config::all_enabled();
  pc.trace_dir = dir;
  pc.trace_format = format;
  pc.trace_compress = compress;
  prof::Profiler profiler(pc);
  shmem::run(fiber_launch(), [&] {
    graph::CyclicDistribution dist(shmem::n_pes());
    apps::count_triangles_actor(L, dist, &profiler);
  });
  profiler.write_traces();
}

void run_histogram_overall(const fs::path& dir) {
  prof::Config pc = kinds_off(dir);
  pc.overall = true;
  prof::Profiler profiler(pc);
  shmem::run(fiber_launch(), [&] {
    apps::histogram_actor(64, 3000, 0x5EED, &profiler);
  });
  profiler.write_traces();
}

/// Mailbox-0 handlers send their replies into mailbox 1, so sends happen
/// inside PROC regions.
void run_index_gather_counts(const fs::path& dir) {
  prof::Config pc = kinds_off(dir);
  pc.overall = pc.supersteps = pc.logical = pc.physical = true;
  prof::Profiler profiler(pc);
  shmem::run(fiber_launch(), [&] {
    apps::index_gather_actor(128, 1500, 0xDEC0DE, &profiler);
  });
  profiler.write_traces();
}

/// The same program with PAPI rows: each mailbox-0 handler's send into
/// mailbox 1 lands in a PROC row, and MAIN rows follow the latest send from
/// MAIN. TOT_CYC pins the cycles each row absorbed.
void run_index_gather_papi(const fs::path& dir) {
  prof::Config pc = kinds_off(dir);
  pc.overall = pc.papi = pc.supersteps = true;
  pc.papi_events = {papi::Event::TOT_INS, papi::Event::LST_INS,
                    papi::Event::TOT_CYC, papi::Event::kCount};
  prof::Profiler profiler(pc);
  shmem::run(fiber_launch(), [&] {
    apps::index_gather_actor(128, 1500, 0xDEC0DE, &profiler);
  });
  profiler.write_traces();
}

/// 80 PEs on 10 nodes: above 64 PEs the conveyor endpoints are compact, so
/// this run pins the order in which compact receivers deliver their sources
/// (Auto routes multi-node fleets over Mesh2D, so rows forward too), with
/// the checker's report among the pinned files.
void run_histogram_compact(const fs::path& dir) {
  prof::Config pc = kinds_off(dir);
  pc.overall = pc.supersteps = pc.physical = pc.check = true;
  prof::Profiler profiler(pc);
  rt::LaunchConfig lc = fiber_launch();
  lc.num_pes = 80;
  lc.pes_per_node = 8;
  shmem::run(lc, [&] {
    apps::histogram_actor(32, 2000, 0xC0FFEE, &profiler);
  });
  profiler.write_traces();
}

/// FNV-1a of MANIFEST.txt, which itself lists an FNV-1a per trace file: one
/// number pins every byte the run wrote.
std::uint64_t manifest_checksum(const fs::path& dir, std::string& manifest) {
  manifest = slurp(dir / prof::io::kManifestFile);
  return prof::io::fnv1a64(manifest.data(), manifest.size());
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void expect_golden(const fs::path& dir, std::uint64_t golden) {
  std::string manifest;
  const std::uint64_t got = manifest_checksum(dir, manifest);
  EXPECT_EQ(hex(got), hex(golden)) << "MANIFEST.txt now reads:\n" << manifest;
}

TEST(Determinism, TraceFilesAreByteIdenticalAcrossRuns) {
  const testutil::TestTmpDir tmp;
  const fs::path a = tmp / "det_a";
  const fs::path b = tmp / "det_b";
  run_triangle(a);
  run_triangle(b);
  int compared = 0;
  for (const auto& entry : fs::directory_iterator(a)) {
    const auto name = entry.path().filename();
    ASSERT_TRUE(fs::exists(b / name)) << name;
    EXPECT_EQ(slurp(entry.path()), slurp(b / name)) << name;
    ++compared;
  }
  // 8 PEi_send.csv + 8 PEi_PAPI.csv + 8 PEi_steps.csv + overall.txt +
  // physical.txt + MANIFEST.txt (itself deterministic: checksums of
  // deterministic files)
  EXPECT_EQ(compared, 27);
}

// Golden bytes: the constants are the traces of the per-message dispatch
// path, and the batch-drain path that count-only configs take must
// reproduce them exactly. A deliberate change to a trace format or to the
// cost model updates them (the failure message prints the new MANIFEST).

TEST(Determinism, GoldenHistogramOverallOnly) {
  const testutil::TestTmpDir tmp;
  run_histogram_overall(tmp.path());
  expect_golden(tmp.path(), 0xb6f5ff5c15a46138ull);
}

TEST(Determinism, GoldenIndexGatherCountKinds) {
  const testutil::TestTmpDir tmp;
  run_index_gather_counts(tmp.path());
  expect_golden(tmp.path(), 0xfce511f8ab45ebc4ull);
}

TEST(Determinism, GoldenIndexGatherPapi) {
  const testutil::TestTmpDir tmp;
  run_index_gather_papi(tmp.path());
  expect_golden(tmp.path(), 0x88ec75f065f785a3ull);
}

TEST(Determinism, GoldenTriangleAllEnabled) {
  const testutil::TestTmpDir tmp;
  run_triangle(tmp.path());
  expect_golden(tmp.path(), 0x585fd750b74c6ca3ull);
}

// The same run in the .apt containers: the MANIFEST checksums pin every
// byte of the version-1 encoding and of its compressed version-2 form.
TEST(Determinism, GoldenTriangleAllEnabledBinary) {
  const testutil::TestTmpDir tmp;
  run_triangle(tmp.path(), prof::TraceFormat::binary);
  expect_golden(tmp.path(), 0x496f62bd0a363990ull);
}

TEST(Determinism, GoldenTriangleAllEnabledCompressed) {
  const testutil::TestTmpDir tmp;
  run_triangle(tmp.path(), prof::TraceFormat::binary, true);
  expect_golden(tmp.path(), 0xdd3c305dce2187b5ull);
}

TEST(Determinism, GoldenHistogramCompactMesh2D) {
  const testutil::TestTmpDir tmp;
  run_histogram_compact(tmp.path());
  expect_golden(tmp.path(), 0xfd2be42c8a7eb885ull);
}

}  // namespace
