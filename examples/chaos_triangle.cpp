// Chaos harness for the fault-injection stack (docs/FAULT_INJECTION.md):
// triangle counting under whatever ACTORPROF_FI_* plan the environment
// carries, always writing traces — even when a PE was killed mid-run.
//
//   $ export ACTORPROF_FI_SEED=7 ACTORPROF_FI_KILL_PE=3
//   $ export ACTORPROF_TRACE_DIR=/tmp/t
//   $ ./examples/chaos_triangle [scale] [pes] [pes_per_node]
//
// Exit code 0 means the faults were contained: the launch terminated, the
// trace directory is loadable (tools/chaos.sh then renders it with
// --tolerate-partial), and — when no PE was killed — the triangle count
// matched the serial reference. Unlike triangle_case_study, a killed PE is
// not a failure here; a wrong count without any kill is.
#include <cstdio>
#include <cstdlib>

#include "apps/triangle.hpp"
#include "core/profiler.hpp"
#include "faultinject/faultinject.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "shmem/shmem.hpp"

int main(int argc, char** argv) {
  using namespace ap;
  const int scale = argc > 1 ? std::atoi(argv[1]) : 8;
  const int pes = argc > 2 ? std::atoi(argv[2]) : 8;
  const int ppn = argc > 3 ? std::atoi(argv[3]) : 4;

  graph::RmatParams gp;
  gp.scale = scale;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto edges = graph::rmat_edges(gp);
  const auto lower =
      graph::Csr::from_edges(graph::Vertex{1} << scale, edges, true);
  const std::int64_t expected = graph::count_triangles_serial(lower);

  // Config::from_env picks up ACTORPROF_TRACE_DIR and defaults crash_safe
  // on when ACTORPROF_FI_KILL_PE is set; shmem::run auto-installs the
  // ACTORPROF_FI_* plan itself.
  prof::Config pc = prof::Config::from_env();
  pc.logical = pc.papi = pc.overall = pc.physical = true;
  prof::Profiler profiler(pc);

  std::int64_t got = 0;
  rt::LaunchConfig lc;
  lc.num_pes = pes;
  lc.pes_per_node = ppn;
  lc.symm_heap_bytes = 64 << 20;
  shmem::run(lc, [&] {
    const auto dist = graph::make_distribution(graph::DistKind::Cyclic1D,
                                               shmem::n_pes(), lower);
    const auto r = apps::count_triangles_actor(lower, *dist, &profiler);
    if (shmem::my_pe() == 0) got = r.triangles;
  });

  // Traces first: the whole point is that a faulted run still leaves a
  // loadable (possibly partial) trace directory behind.
  profiler.write_traces();
  std::printf("trace dir: %s\n", pc.trace_dir.string().c_str());

  const auto& killed = fi::killed_pes();
  for (int pe : killed) std::printf("killed: PE%d\n", pe);
  if (!killed.empty()) {
    std::printf("run contained %zu kill(s); count not validated\n",
                killed.size());
    return 0;
  }
  if (got != expected) {
    std::fprintf(stderr, "FAIL: %lld triangles, expected %lld\n",
                 static_cast<long long>(got),
                 static_cast<long long>(expected));
    return 1;
  }
  std::printf("OK: %lld triangles (injections changed nothing)\n",
              static_cast<long long>(got));
  return 0;
}
