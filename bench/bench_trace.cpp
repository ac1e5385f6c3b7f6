// Trace-format throughput and size: CSV (buffered Sink writers + the
// from_chars scanner) vs the .apt binary columnar codec, measured on the
// records of a real FA-BSP run — the scaling_triangle workload with every
// record kind enabled. tools/bench.sh --check gates on the committed
// BENCH_trace.json: the binary format must stay >= 5x smaller than CSV
// and decode at least 4x as fast (docs/TRACE_FORMAT.md).
//
// Sections (items = trace rows across all kinds and PEs):
//   csv_write / csv_read — io::write_csv / io::read_into on CSV text
//   bin_write / bin_read — io::encode / io::read_into on .apt (CRC verified)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/triangle.hpp"
#include "bench_json.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "shmem/shmem.hpp"

namespace {

using namespace ap;

constexpr int kPes = 8;

struct Records {
  prof::Config cfg;
  std::vector<std::vector<prof::LogicalSendRecord>> logical;
  std::vector<std::vector<prof::PapiSegmentRecord>> papi;
  std::vector<std::vector<prof::SuperstepRecord>> steps;
  std::vector<prof::PhysicalRecord> physical;
  std::uint64_t rows = 0;
};

/// One triangle-count run with every row-producing trace enabled; the
/// records stay in memory (no files) — the codecs are what's measured.
Records collect(int scale) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 16;
  p.seed = 0x5CA1E;
  p.permute_vertices = false;
  const auto edges = graph::rmat_edges(p);
  const graph::Csr lower =
      graph::Csr::from_edges(graph::Vertex{1} << scale, edges, true);

  Records r;
  r.cfg.logical = true;
  r.cfg.papi = true;
  r.cfg.supersteps = true;
  r.cfg.physical = true;
  prof::Profiler profiler(r.cfg);
  rt::LaunchConfig lc;
  lc.num_pes = kPes;
  lc.pes_per_node = kPes;
  lc.symm_heap_bytes = 64 << 20;
  shmem::run(lc, [&] {
    graph::RangeDistribution dist(shmem::n_pes(), lower);
    apps::count_triangles_actor(lower, dist, &profiler);
  });
  for (int pe = 0; pe < kPes; ++pe) {
    r.logical.push_back(profiler.logical_events(pe).records());
    r.papi.push_back(profiler.papi_segments(pe));
    r.steps.push_back(profiler.supersteps(pe));
    const auto& phys = profiler.physical_events(pe);
    r.physical.insert(r.physical.end(), phys.begin(), phys.end());
    r.rows += r.logical.back().size() + r.papi.back().size() +
              r.steps.back().size() + phys.size();
  }
  return r;
}

/// Best-of-3 CPU seconds of `fn` (which must keep its result alive via
/// captures so the work is not optimized away).
template <class Fn>
double best_of_3(Fn&& fn) {
  double best = 1e100;
  for (int i = 0; i < 3; ++i) {
    const bench_json::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

/// Every trace body of `r` in one container: the per-PE send, PAPI and
/// steps shards, then physical.
std::vector<std::string> encode_all(const Records& r, bool binary) {
  std::vector<std::string> bodies;
  const auto add = [&](const auto& rows, const prof::io::FileMeta& meta) {
    if (binary) {
      bodies.push_back(prof::io::encode(rows, meta));
    } else {
      prof::io::Sink s;
      prof::io::write_csv(s, rows, meta);
      bodies.push_back(std::move(s).str());
    }
  };
  for (const auto& rows : r.logical) add(rows, {});
  for (const auto& rows : r.papi) add(rows, prof::io::FileMeta::papi(r.cfg));
  for (const auto& rows : r.steps) add(rows, {});
  add(r.physical, {});
  return bodies;
}

std::uint64_t total_bytes(const std::vector<std::string>& bodies) {
  std::uint64_t n = 0;
  for (const auto& b : bodies) n += b.size();
  return n;
}

/// Rows read back from encode_all's bodies (either container).
std::uint64_t read_all(const std::vector<std::string>& bodies) {
  std::uint64_t rows = 0;
  std::vector<prof::LogicalSendRecord> lg;
  std::vector<prof::PapiSegmentRecord> pp;
  std::vector<prof::SuperstepRecord> st;
  std::vector<prof::PhysicalRecord> ph;
  const auto read = [&](std::size_t i, auto& out) {
    out.clear();
    prof::io::read_into(bodies[i], out);
    rows += out.size();
  };
  constexpr std::size_t n = kPes;
  for (std::size_t pe = 0; pe < n; ++pe) {
    read(pe, lg);
    read(n + pe, pp);
    read(2 * n + pe, st);
  }
  read(3 * n, ph);
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = bench_json::json_path(argc, argv);
  const char* scale_env = std::getenv("AP_SCALE");
  const int scale = scale_env != nullptr ? std::atoi(scale_env) : 10;

  const Records r = collect(scale);
  const auto rows = static_cast<double>(r.rows);

  std::vector<std::string> csv;
  const double t_csv_w = best_of_3([&] { csv = encode_all(r, false); });
  std::vector<std::string> bin;
  const double t_bin_w = best_of_3([&] { bin = encode_all(r, true); });
  std::uint64_t csv_rows = 0;
  const double t_csv_r = best_of_3([&] { csv_rows = read_all(csv); });
  std::uint64_t bin_rows = 0;
  const double t_bin_r = best_of_3([&] { bin_rows = read_all(bin); });
  if (csv_rows != r.rows || bin_rows != r.rows) {
    std::fprintf(stderr,
                 "bench_trace: row mismatch (run %llu, csv %llu, bin %llu)\n",
                 static_cast<unsigned long long>(r.rows),
                 static_cast<unsigned long long>(csv_rows),
                 static_cast<unsigned long long>(bin_rows));
    return 1;
  }

  const std::uint64_t csv_bytes = total_bytes(csv);
  const std::uint64_t bin_bytes = total_bytes(bin);
  const double ratio =
      static_cast<double>(csv_bytes) / static_cast<double>(bin_bytes);

  const auto section = [&](const char* name, double secs,
                           std::uint64_t bytes) {
    bench_json::Section s;
    s.name = name;
    s.m.items_per_sec = rows / secs;
    s.m.bytes_per_sec = static_cast<double>(bytes) / secs;
    return s;
  };
  std::vector<bench_json::Section> sections{
      section("csv_write", t_csv_w, csv_bytes),
      section("csv_read", t_csv_r, csv_bytes),
      section("bin_write", t_bin_w, bin_bytes),
      section("bin_read", t_bin_r, bin_bytes),
  };

  char config[256];
  std::snprintf(config, sizeof config,
                "{\"pes\": %d, \"scale\": %d, \"rows\": %llu, \"csv_bytes\": "
                "%llu, \"bin_bytes\": %llu, \"size_ratio\": %.2f}",
                kPes, scale, static_cast<unsigned long long>(r.rows),
                static_cast<unsigned long long>(csv_bytes),
                static_cast<unsigned long long>(bin_bytes), ratio);
  if (path != nullptr) {
    if (!bench_json::write(path, "bench_trace", config, sections)) return 1;
  }
  std::printf(
      "bench_trace: %llu rows | csv %llu B, bin %llu B (%.2fx smaller)\n"
      "  csv_write %.2f Mrows/s  csv_read %.2f Mrows/s\n"
      "  bin_write %.2f Mrows/s  bin_read %.2f Mrows/s\n",
      static_cast<unsigned long long>(r.rows),
      static_cast<unsigned long long>(csv_bytes),
      static_cast<unsigned long long>(bin_bytes), ratio,
      rows / t_csv_w / 1e6, rows / t_csv_r / 1e6, rows / t_bin_w / 1e6,
      rows / t_bin_r / 1e6);
  return 0;
}
