// Full-pipeline integration tests: run a profiled FA-BSP application,
// write the paper's trace files, then (a) reload and cross-check them and
// (b) drive the actorprof_viz CLI binary on them like a user would.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "apps/triangle.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "shmem/shmem.hpp"
#include "viz/render.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ap;

constexpr int kPes = 8;
constexpr int kPpn = 4;

/// Runs the §IV pipeline into `dir` and returns the in-memory profiler
/// results for cross-checking.
struct PipelineResult {
  prof::CommMatrix logical;
  prof::CommMatrix physical;
  std::vector<prof::OverallRecord> overall;
  std::int64_t triangles = 0;
  std::int64_t expected = 0;
};

PipelineResult run_pipeline(const fs::path& dir, graph::DistKind kind) {
  fs::remove_all(dir);
  graph::RmatParams gp;
  gp.scale = 8;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto edges = graph::rmat_edges(gp);
  const auto lower =
      graph::Csr::from_edges(graph::Vertex{1} << gp.scale, edges, true);

  prof::Config pc = prof::Config::all_enabled();
  pc.trace_dir = dir;
  prof::Profiler profiler(pc);

  PipelineResult r;
  r.expected = graph::count_triangles_serial(lower);

  rt::LaunchConfig lc;
  lc.num_pes = kPes;
  lc.pes_per_node = kPpn;
  shmem::run(lc, [&] {
    const auto dist = graph::make_distribution(kind, shmem::n_pes(), lower);
    const auto res = apps::count_triangles_actor(lower, *dist, &profiler);
    if (shmem::my_pe() == 0) r.triangles = res.triangles;
  });
  profiler.write_traces();

  r.logical = profiler.logical_matrix();
  r.physical = profiler.physical_matrix();
  r.overall = profiler.overall();
  return r;
}

TEST(Integration, TraceFilesRoundTripAndValidate) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "integration_cyclic";
  const auto r = run_pipeline(dir, graph::DistKind::Cyclic1D);
  EXPECT_EQ(r.triangles, r.expected);

  const auto t = prof::io::load_trace_dir(dir, kPes);
  EXPECT_EQ(t.logical_matrix(), r.logical);
  EXPECT_EQ(t.physical_matrix(), r.physical);
  ASSERT_EQ(t.overall.size(), static_cast<std::size_t>(kPes));
  for (int pe = 0; pe < kPes; ++pe) {
    const auto& disk = t.overall[static_cast<std::size_t>(pe)];
    const auto& mem = r.overall[static_cast<std::size_t>(pe)];
    EXPECT_EQ(disk.t_main, mem.t_main);
    EXPECT_EQ(disk.t_proc, mem.t_proc);
    EXPECT_EQ(disk.t_comm(), mem.t_comm());
  }
  // Logical row sums on disk equal the per-PE send counts.
  const auto sums = t.logical_matrix().row_sums();
  for (int pe = 0; pe < kPes; ++pe) {
    EXPECT_EQ(sums[static_cast<std::size_t>(pe)],
              t.logical[static_cast<std::size_t>(pe)].size());
  }
}

TEST(Integration, RangeTraceShowsLObservationOnDisk) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "integration_range";
  const auto r = run_pipeline(dir, graph::DistKind::Range1D);
  EXPECT_EQ(r.triangles, r.expected);
  const auto t = prof::io::load_trace_dir(dir, kPes);
  EXPECT_TRUE(t.logical_matrix().is_lower_triangular());
  // Monotone-decreasing recvs.
  const auto recvs = t.logical_matrix().col_sums();
  int inversions = 0;
  for (std::size_t i = 1; i < recvs.size(); ++i)
    if (recvs[i] > recvs[i - 1]) ++inversions;
  EXPECT_LE(inversions, 1);
}

#ifdef ACTORPROF_VIZ_BIN
int run_cli(const std::string& args, const fs::path& out) {
  const std::string cmd = std::string(ACTORPROF_VIZ_BIN) + " " + args + " > " +
                          out.string() + " 2>&1";
  return std::system(cmd.c_str());
}

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(Integration, CliRendersAllPlotKinds) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "integration_cli";
  const auto r = run_pipeline(dir, graph::DistKind::Cyclic1D);
  ASSERT_EQ(r.triangles, r.expected);

  const fs::path out = tmp / "cli_out.txt";
  const fs::path svg_prefix = tmp / "cli_svg";
  const int rc = run_cli("-l -lp -s -p --violin --svg " +
                             svg_prefix.string() + " --num-pes " +
                             std::to_string(kPes) + " " + dir.string(),
                         out);
  ASSERT_EQ(rc, 0) << slurp(out);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("Logical Trace Heatmap"), std::string::npos);
  EXPECT_NE(text.find("Physical Trace Heatmap"), std::string::npos);
  EXPECT_NE(text.find("Overall Profiling"), std::string::npos);
  EXPECT_NE(text.find("PAPI_TOT_INS"), std::string::npos);
  EXPECT_NE(text.find("T_MAIN"), std::string::npos);
  EXPECT_TRUE(fs::exists(svg_prefix.string() + "_logical_heatmap.svg"));
  EXPECT_TRUE(fs::exists(svg_prefix.string() + "_overall_relative.svg"));
  EXPECT_TRUE(fs::exists(svg_prefix.string() + "_physical_heatmap.svg"));
}

TEST(Integration, CliAdvisorAndByNodeViews) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "integration_advise";
  const auto r = run_pipeline(dir, graph::DistKind::Cyclic1D);
  ASSERT_EQ(r.triangles, r.expected);
  const fs::path out = tmp / "cli_advise.txt";
  const int rc = run_cli("--advise -p --by-node --ppn " +
                             std::to_string(kPpn) + " --num-pes " +
                             std::to_string(kPes) + " " + dir.string(),
                         out);
  ASSERT_EQ(rc, 0) << slurp(out);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("ActorProf advisor"), std::string::npos);
  EXPECT_NE(text.find("COMM accounts for"), std::string::npos);
  // By-node physical heatmap has 2 rows (2 nodes), not 8.
  EXPECT_NE(text.find("max cell"), std::string::npos);
  EXPECT_EQ(text.find("PE7"), std::string::npos)
      << "per-PE rows should not appear in a by-node heatmap";
}

TEST(Integration, CliWithTooFewPesWarnsOnceAndStaysInRange) {
  // PE ids in the trace reach 7; plotting it as 4 PEs must skip them (the
  // advisor's dense matrices used to be indexed out of bounds) and say so.
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "integration_fewer_pes";
  const auto r = run_pipeline(dir, graph::DistKind::Cyclic1D);
  ASSERT_EQ(r.triangles, r.expected);
  const fs::path out = tmp / "cli_fewer_pes.txt";
  ASSERT_EQ(run_cli("--advise -l -p --num-pes 4 " + dir.string(), out), 0)
      << slurp(out);
  const std::string text = slurp(out);
  const std::string warning =
      "warning: --num-pes 4 differs from MANIFEST.txt's num_pes " +
      std::to_string(kPes);
  const std::size_t at = text.find(warning);
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_EQ(text.find(warning, at + 1), std::string::npos) << "warn once";
  EXPECT_NE(text.find("ActorProf advisor"), std::string::npos) << text;
}

TEST(Integration, CliUsageErrors) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path out = tmp / "cli_err.txt";
  EXPECT_NE(run_cli("", out), 0);                       // no flags
  EXPECT_NE(run_cli("-l /nonexistent", out), 0);        // missing num-pes
  EXPECT_NE(run_cli("--bogus -l --num-pes 4 x", out), 0);  // unknown flag
}

TEST(Integration, CliToleratesTruncatedTraceFiles) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "integration_partial";
  const auto r = run_pipeline(dir, graph::DistKind::Cyclic1D);
  ASSERT_EQ(r.triangles, r.expected);

  // Damage PE0's logical trace the way a mid-write kill would: keep a
  // prefix that ends mid-line.
  const fs::path victim = dir / "PE0_send.csv";
  fs::resize_file(victim, fs::file_size(victim) - 7);

  const fs::path out = tmp / "cli_partial.txt";
  // Without --tolerate-partial the damage is reported and the exit code is
  // nonzero...
  EXPECT_NE(run_cli("-l -s --num-pes " + std::to_string(kPes) + " " +
                        dir.string(),
                    out),
            0);
  std::string text = slurp(out);
  EXPECT_NE(text.find("PE0_send.csv"), std::string::npos) << text;
  EXPECT_NE(text.find("--tolerate-partial"), std::string::npos) << text;

  // ...with it, the CLI warns per file, renders what survived, exits 0.
  ASSERT_EQ(run_cli("-l -s --tolerate-partial --num-pes " +
                        std::to_string(kPes) + " " + dir.string(),
                    out),
            0)
      << slurp(out);
  text = slurp(out);
  EXPECT_NE(text.find("warning: PE0_send.csv"), std::string::npos) << text;
  EXPECT_NE(text.find("continuing with remaining PEs"), std::string::npos);
  EXPECT_NE(text.find("Logical Trace Heatmap"), std::string::npos);
  EXPECT_NE(text.find("Overall Profiling"), std::string::npos);
}

/// One all_enabled + check triangle run in the given container. Pinned to
/// fiber: only that backend promises the same rows from two runs.
void run_checked_triangle(const fs::path& dir, prof::TraceFormat format,
                          bool compress) {
  fs::remove_all(dir);
  graph::RmatParams gp;
  gp.scale = 8;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto lower = graph::Csr::from_edges(graph::Vertex{1} << gp.scale,
                                            graph::rmat_edges(gp), true);
  prof::Config pc = prof::Config::all_enabled();
  pc.check = true;
  pc.trace_dir = dir;
  pc.trace_format = format;
  pc.trace_compress = compress;
  prof::Profiler profiler(pc);
  rt::LaunchConfig lc;
  lc.num_pes = kPes;
  lc.pes_per_node = kPpn;
  lc.backend = rt::Backend::fiber;
  shmem::run(lc, [&] {
    graph::CyclicDistribution dist(shmem::n_pes());
    apps::count_triangles_actor(lower, dist, &profiler);
  });
  profiler.write_traces();
}

TEST(Integration, ExportCsvOfBinaryTracesMatchesTheCsvRun) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path csv = tmp / "export_csv";
  run_checked_triangle(csv, prof::TraceFormat::csv, false);
  for (const bool compress : {false, true}) {
    const fs::path bin = tmp / (compress ? "export_lz" : "export_apt");
    const fs::path out = tmp / (compress ? "export_lz_csv" : "export_apt_csv");
    run_checked_triangle(bin, prof::TraceFormat::binary, compress);
    const fs::path log = tmp / "export_log.txt";
    ASSERT_EQ(run_cli("export --csv -o " + out.string() + " " + bin.string(),
                      log),
              0)
        << slurp(log);
    int compared = 0;
    for (const auto& entry : fs::directory_iterator(csv)) {
      const fs::path name = entry.path().filename();
      ASSERT_TRUE(fs::exists(out / name)) << name << " (compress=" << compress
                                          << ")";
      EXPECT_EQ(slurp(entry.path()), slurp(out / name))
          << name << " (compress=" << compress << ")";
      ++compared;
    }
    // 8 each of PEi_send, PEi_PAPI and PEi_steps, overall.txt,
    // physical.txt, check.csv and MANIFEST.txt.
    EXPECT_EQ(compared, 28);
    EXPECT_EQ(std::distance(fs::directory_iterator(out),
                            fs::directory_iterator{}),
              compared);
  }
}
#endif

TEST(Integration, HeatmapRenderOfRealTraceIsStable) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "integration_render";
  const auto r1 = run_pipeline(dir, graph::DistKind::Cyclic1D);
  const std::string a = viz::render_heatmap(r1.logical);
  const auto r2 = run_pipeline(dir, graph::DistKind::Cyclic1D);
  const std::string b = viz::render_heatmap(r2.logical);
  EXPECT_EQ(a, b);  // full determinism across identical runs
}

}  // namespace
