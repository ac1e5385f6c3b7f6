// The paper's §IV case study as a runnable example: distributed triangle
// counting on an R-MAT graph, 1D Cyclic vs 1D Range distribution, with
// the full ActorProf pipeline (trace files + terminal plots).
//
//   $ ./examples/triangle_case_study [scale] [pes] [pes_per_node]
//
// Defaults: scale 10, 16 PEs, 16 PEs/node (one node). The run validates
// the triangle count against the serial reference, exactly like the
// paper's assertion-based validation.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <vector>

#include "analysis/analysis.hpp"
#include "apps/triangle.hpp"
#include "core/advisor.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "shmem/shmem.hpp"
#include "viz/render.hpp"

int main(int argc, char** argv) {
  using namespace ap;
  const int scale = argc > 1 ? std::atoi(argv[1]) : 10;
  const int pes = argc > 2 ? std::atoi(argv[2]) : 16;
  const int ppn = argc > 3 ? std::atoi(argv[3]) : 16;

  graph::RmatParams gp;
  gp.scale = scale;
  gp.edge_factor = 16;
  gp.permute_vertices = false;  // keep the paper's id<->degree correlation
  const auto edges = graph::rmat_edges(gp);
  const auto lower =
      graph::Csr::from_edges(graph::Vertex{1} << scale, edges, true);
  const std::int64_t expected = graph::count_triangles_serial(lower);
  std::printf("R-MAT scale %d, %zu lower-triangular entries, %lld "
              "triangles (serial reference)\n\n",
              scale, lower.num_entries(), static_cast<long long>(expected));

  for (const auto kind :
       {graph::DistKind::Cyclic1D, graph::DistKind::Range1D}) {
    prof::Config pc = prof::Config::all_enabled();
    pc.keep_logical_events = false;  // aggregates are enough for plots
    pc.keep_physical_events = true;
    const prof::Config env = prof::Config::from_env();
    pc.check = env.check;                  // honor ACTORPROF_CHECK=1
    pc.trace_format = env.trace_format;    // ACTORPROF_TRACE_FORMAT
    pc.trace_compress = env.trace_compress;  // ACTORPROF_TRACE_COMPRESS=1
    const char* tag = kind == graph::DistKind::Cyclic1D ? "cyclic" : "range";
    pc.trace_dir = std::string("triangle_trace_") + tag;
    if (!env.publish.empty()) {  // ACTORPROF_PUBLISH=host:port live-streams
      pc.publish = env.publish;  // each distribution as its own run id
      pc.publish_run =
          (env.publish_run.empty() ? "triangle_" : env.publish_run + "_") +
          std::string(tag);
    }
    prof::Profiler profiler(pc);

    std::int64_t got = 0;
    std::vector<apps::TriangleResult> per_pe(static_cast<std::size_t>(pes));
    rt::LaunchConfig lc;
    lc.num_pes = pes;
    lc.pes_per_node = ppn;
    lc.symm_heap_bytes = 64 << 20;
    shmem::run(lc, [&] {
      const auto dist = graph::make_distribution(kind, shmem::n_pes(), lower);
      const auto r = apps::count_triangles_actor(lower, *dist, &profiler);
      per_pe[static_cast<std::size_t>(shmem::my_pe())] = r;
      if (shmem::my_pe() == 0) got = r.triangles;
    });

    std::printf("== %s ==\n", graph::to_string(kind).c_str());
    std::printf("triangles: %lld  %s\n", static_cast<long long>(got),
                got == expected ? "(VALIDATED)" : "(MISMATCH!)");
    if (got != expected) return 1;
    // The handlers' probes of L, and the share that resumed from the
    // previous probe of the same row (graph::EntryCursor).
    std::uint64_t probes = 0, resumed = 0;
    for (const apps::TriangleResult& r : per_pe) {
      probes += r.probes;
      resumed += r.resumed_probes;
    }
    std::printf("handler probes: %llu, %.1f%% resumed\n",
                static_cast<unsigned long long>(probes),
                probes == 0 ? 0.0 : 100.0 * static_cast<double>(resumed) /
                                        static_cast<double>(probes));

    const auto m = profiler.logical_matrix();
    viz::HeatmapOptions ho;
    ho.title = "logical trace heatmap";
    ho.cell_width = 2;
    std::cout << viz::render_heatmap(m, ho);
    std::printf("send imbalance %.2fx, recv imbalance %.2fx, "
                "lower-triangular: %s\n",
                prof::imbalance_factor(m.row_sums()),
                prof::imbalance_factor(m.col_sums()),
                m.is_lower_triangular() ? "yes" : "no");

    viz::StackedBarOptions so;
    so.title = "overall breakdown";
    so.relative = true;
    std::cout << viz::render_overall_stacked(profiler.overall(), so);
    std::cout << prof::format_report(prof::advise(profiler));

    profiler.write_traces();
    std::uintmax_t trace_bytes = 0;
    for (const auto& e :
         std::filesystem::directory_iterator(pc.trace_dir))
      if (e.is_regular_file()) trace_bytes += e.file_size();
    std::printf("traces -> ./%s (%ju bytes, %s format)\n\n",
                pc.trace_dir.string().c_str(), trace_bytes,
                pc.trace_format == prof::TraceFormat::binary ? "binary .apt"
                                                             : "csv");

    // Superstep-resolved analysis of the trace we just wrote — the same
    // report `actorprof analyze <dir>` produces from the files on disk.
    const prof::io::TraceDir trace = prof::io::load_trace_dir(pc.trace_dir, pes);
    const auto an = prof::analysis::analyze(trace);
    prof::analysis::write_text(std::cout, an);
    prof::Report barrier_report;
    barrier_report.findings = prof::analysis::barrier_wait_findings(an);
    std::cout << prof::format_report(barrier_report) << '\n';
  }

  // Both distributions are now on disk — the rest of the §IV comparison
  // works from the files alone (docs/TRACE_FORMAT.md, OBSERVABILITY.md §8):
  std::printf(
      "next steps:\n"
      "  ACTORPROF_TRACE_FORMAT=binary %s   # rerun with ~90x smaller "
      ".apt shards\n"
      "  actorprof serve triangle_trace_range        # live HTTP: "
      "curl :7077/analyze\n"
      "  curl -s 'localhost:7077/diff?base=triangle_trace_cyclic'  # "
      "Range vs Cyclic\n"
      "  actorprof export --csv triangle_trace_range -o csv_copy   # "
      "CSV interchange\n"
      "live streaming (docs/OBSERVABILITY.md, \"Live streaming\"):\n"
      "  actorprof serve triangle_trace_range --port 7077 &   # the "
      "collector daemon\n"
      "  ACTORPROF_PUBLISH=127.0.0.1:7077 %s        # streams both runs "
      "into it\n"
      "  actorprof tail 127.0.0.1:7077 --run triangle_range   # "
      "superstep deltas as they close\n"
      "  curl -s 'localhost:7077/analyze?run=triangle_range'  # same "
      "bytes as the file-based report\n",
      argv[0], argv[0]);
  return 0;
}
