// perfbench: ActorProf's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir>
//
// Workloads (all on the deterministic fiber backend, one thread):
//   case_study         triangle counting, R-MAT scale 12 / edge factor 16,
//                      16 PEs on 1 node, 1D Cyclic (paper §IV, Fig 12)
//   histogram_overall  histogram, 8 PEs on 2 nodes, 200k updates per PE,
//                      profiler in overall mode only
//   many_pes           histogram, 256 PEs on 16 nodes, 2048 updates per PE,
//                      overall + superstep profiling with binary shards.
//                      Runnable, but not in BENCHMARK.json: loading its 258
//                      small shards is file-system bound and its report time
//                      varied by more than any allowed bound between runs on
//                      a shared machine.
//
// --trace 0 measures the end-to-end metrics with nothing but the program
// running; --trace 1 wraps the public observer seams with the decorators of
// seams.hpp and times calls into each layer's public functions, giving the
// per-layer metrics. Every kernel output is checked against a serial
// reference; a failed check is counted, never fatal. The last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/METRICS.md defines each metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "apps/histogram.hpp"
#include "apps/triangle.hpp"
#include "conveyor/conveyor.hpp"
#include "core/alloc_probe.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "graph/csr.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "seams.hpp"
#include "shmem/shmem.hpp"
#include "viz/render.hpp"

ACTORPROF_ALLOC_PROBE_DEFINE()

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace ap;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// The resident-set line `key` of /proc/self/status, in MB.
double proc_status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':')
      return std::strtod(line.c_str() + klen + 1, nullptr) / 1024.0;
  }
  return 0.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  graph::SplitMix64 g(seed * 0x9E3779B97F4A7C15ull + stream);
  return g.next();
}

// ------------------------------------------------------------- workloads

struct Launch {
  double secs = 0.0;
  std::uint64_t msgs = 0;  ///< application sends (conveyor pushes)
  bool ok = false;         ///< output matched the serial reference
};

struct InputTimes {
  double rmat_s = 0.0;
  double csr_s = 0.0;
};

class Workload {
 public:
  Workload(int pes, int pes_per_node, prof::Config profile, bool analyze,
           bool heatmap)
      : pes_(pes),
        pes_per_node_(pes_per_node),
        profile_(std::move(profile)),
        analyze_(analyze),
        heatmap_(heatmap) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Make the inputs for `seed`.
  virtual InputTimes generate(std::uint64_t seed) = 0;
  /// Compute the expected output serially (also the COST reference).
  virtual void serial_reference() = 0;
  /// One launch of the kernel, profiled when `profiler` is non-null, with
  /// its output checked.
  virtual Launch launch(prof::Profiler* profiler) = 0;

  [[nodiscard]] int pes() const { return pes_; }
  [[nodiscard]] const prof::Config& profile() const { return profile_; }
  [[nodiscard]] bool analyzes() const { return analyze_; }
  [[nodiscard]] bool renders_heatmap() const { return heatmap_; }
  void set_trace_dir(const fs::path& dir) { profile_.trace_dir = dir; }

  [[nodiscard]] rt::LaunchConfig launch_config() const {
    rt::LaunchConfig lc;
    lc.num_pes = pes_;
    lc.pes_per_node = pes_per_node_;
    lc.backend = rt::Backend::fiber;
    return lc;
  }

 private:
  int pes_;
  int pes_per_node_;
  prof::Config profile_;
  bool analyze_;
  bool heatmap_;
};

/// The paper's case study: bench/case_study.hpp's defaults.
class TriangleWorkload final : public Workload {
 public:
  TriangleWorkload()
      : Workload(16, 16, profile_config(), /*analyze=*/true,
                 /*heatmap=*/true) {}

  InputTimes generate(std::uint64_t seed) override {
    InputTimes t;
    graph::RmatParams p;
    p.scale = 12;
    p.edge_factor = 16;
    p.seed = mix_seed(seed, 1);
    p.permute_vertices = false;
    Clock::time_point t0 = Clock::now();
    const std::vector<graph::Edge> edges = graph::rmat_edges(p);
    t.rmat_s = seconds_since(t0);
    t0 = Clock::now();
    lower_ = graph::Csr::from_edges(graph::Vertex{1} << p.scale, edges, true);
    t.csr_s = seconds_since(t0);
    return t;
  }

  void serial_reference() override {
    expected_ = graph::count_triangles_serial(lower_);
  }

  Launch launch(prof::Profiler* profiler) override {
    std::vector<std::uint64_t> sends(static_cast<std::size_t>(pes()), 0);
    std::int64_t triangles = -1;
    const Clock::time_point t0 = Clock::now();
    shmem::run(launch_config(), [&] {
      const auto dist = graph::make_distribution(
          graph::DistKind::Cyclic1D, shmem::n_pes(), lower_);
      convey::Options opts;
      opts.buffer_bytes = 1024;
      const apps::TriangleResult r =
          apps::count_triangles_actor(lower_, *dist, opts, profiler);
      sends[static_cast<std::size_t>(shmem::my_pe())] = r.sends;
      if (shmem::my_pe() == 0) triangles = r.triangles;
    });
    Launch out;
    out.secs = seconds_since(t0);
    for (std::uint64_t s : sends) out.msgs += s;
    out.ok = triangles == expected_;
    return out;
  }

 private:
  static prof::Config profile_config() {
    prof::Config c = prof::Config::all_enabled();
    c.trace_format = prof::TraceFormat::binary;
    return c;
  }

  graph::Csr lower_;
  std::int64_t expected_ = -2;
};

/// bale's histogram kernel (apps/histogram.cpp), checked bucket by bucket
/// against a serial replay of the same SplitMix64 streams.
class HistogramWorkload final : public Workload {
 public:
  HistogramWorkload(int pes, int pes_per_node, std::size_t updates_per_pe,
                    prof::Config profile, bool analyze)
      : Workload(pes, pes_per_node, std::move(profile), analyze,
                 /*heatmap=*/false),
        updates_(updates_per_pe) {}

  InputTimes generate(std::uint64_t seed) override {
    seed_ = mix_seed(seed, 2);
    return {};
  }

  void serial_reference() override {
    const auto n = static_cast<std::uint64_t>(pes());
    expected_.assign(static_cast<std::size_t>(n) * kBuckets, 0);
    for (std::uint64_t pe = 0; pe < n; ++pe) {
      graph::SplitMix64 rng(seed_ + pe * 0x9E37ull);
      for (std::size_t i = 0; i < updates_; ++i)
        ++expected_[rng.next_below(expected_.size())];
    }
  }

  Launch launch(prof::Profiler* profiler) override {
    const auto n = static_cast<std::size_t>(pes());
    std::vector<std::uint64_t> sends(n, 0);
    std::vector<std::uint64_t> wrong(n, 0);
    std::int64_t global_updates = -1;
    const Clock::time_point t0 = Clock::now();
    shmem::run(launch_config(), [&] {
      const apps::HistogramResult r =
          apps::histogram_actor(kBuckets, updates_, seed_, profiler);
      const auto me = static_cast<std::size_t>(shmem::my_pe());
      // Global bucket g lives on PE g % n at slot g / n.
      std::uint64_t bad = r.local_buckets.size() == kBuckets ? 0 : 1;
      for (std::size_t s = 0; bad == 0 && s < kBuckets; ++s)
        if (r.local_buckets[s] != expected_[s * n + me]) ++bad;
      wrong[me] = bad;
      sends[me] = r.sends;
      if (me == 0) global_updates = r.global_updates;
    });
    Launch out;
    out.secs = seconds_since(t0);
    for (std::uint64_t s : sends) out.msgs += s;
    out.ok = global_updates == static_cast<std::int64_t>(n * updates_) &&
             std::all_of(wrong.begin(), wrong.end(),
                         [](std::uint64_t w) { return w == 0; });
    return out;
  }

 private:
  static constexpr std::size_t kBuckets = 256;  // per PE
  std::size_t updates_;
  std::uint64_t seed_ = 0;
  std::vector<std::int64_t> expected_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "case_study") return std::make_unique<TriangleWorkload>();
  if (name == "histogram_overall") {
    prof::Config c;
    c.logical = c.papi = c.physical = c.supersteps = false;
    c.overall = true;
    c.keep_logical_events = c.keep_physical_events = false;
    return std::make_unique<HistogramWorkload>(8, 4, 200000, c, false);
  }
  if (name == "many_pes") {
    prof::Config c;
    c.logical = c.papi = c.physical = false;
    c.overall = c.supersteps = true;
    c.trace_format = prof::TraceFormat::binary;
    return std::make_unique<HistogramWorkload>(256, 16, 2048, c, true);
  }
  return nullptr;
}

// ---------------------------------------------------------------- checks

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
};

// ------------------------------------------------------ report pipeline

/// write_traces -> load_trace_dir -> analyze (-> heatmap), and what the
/// trace layer produced.
struct Report {
  double write_s = 0.0, load_s = 0.0, analyze_s = 0.0, heatmap_s = 0.0;
  /// From a trace on disk to an answer: load + analyze (+ heatmap). The
  /// write is left out: it is bound by file-system metadata work (one
  /// create and one rename per file), which on a shared disk varied
  /// several-fold between otherwise identical runs. It is reported per
  /// layer as trace.write_s.
  double answer_s = 0.0;
  std::uint64_t rows = 0, files = 0, bytes = 0, supersteps = 0;
};

/// True when the loaded trace holds as many records of every kind as the
/// profiler held in memory; adds the loaded rows to `rows`.
bool same_record_counts(const prof::Profiler& p, const prof::io::TraceDir& t,
                        const prof::Config& cfg, std::uint64_t& rows) {
  const int n = p.num_pes();
  bool ok = t.num_pes == n;
  const auto add = [&](std::size_t loaded, std::size_t held) {
    rows += loaded;
    ok = ok && loaded == held;
  };
  const auto per_pe = [&](const auto& loaded, auto&& held_of) {
    for (int pe = 0; pe < n; ++pe) {
      const std::size_t l = static_cast<std::size_t>(pe) < loaded.size()
                                ? loaded[static_cast<std::size_t>(pe)].size()
                                : 0;
      add(l, held_of(pe));
    }
  };
  if (cfg.logical && cfg.keep_logical_events)
    per_pe(t.logical, [&](int pe) { return p.logical_events(pe).size(); });
  if (cfg.papi)
    per_pe(t.papi, [&](int pe) { return p.papi_segments(pe).size(); });
  if (cfg.supersteps)
    per_pe(t.steps, [&](int pe) { return p.supersteps(pe).size(); });
  if (cfg.overall) add(t.overall.size(), p.overall().size());
  if (cfg.physical && cfg.keep_physical_events) {
    std::size_t held = 0;
    for (int pe = 0; pe < n; ++pe) held += p.physical_events(pe).size();
    add(t.physical.size(), held);
  }
  return ok;
}

/// Answers from one written trace are repeated until this much time has
/// passed, so a small trace (many_pes' 258 shards load in ~10 ms) still
/// contributes a median of several answers per rep.
constexpr double kMinAnswerSeconds = 0.05;

Report run_report(const Workload& w, const prof::Profiler& p, Checks& checks) {
  const prof::Config& cfg = w.profile();
  fs::remove_all(cfg.trace_dir);
  Report r;
  Clock::time_point t0 = Clock::now();
  p.write_traces();
  r.write_s = seconds_since(t0);
  std::vector<double> load_s, analyze_s, heatmap_s, answer_s;
  const Clock::time_point start = Clock::now();
  do {
    t0 = Clock::now();
    const prof::io::TraceDir trace =
        prof::io::load_trace_dir(cfg.trace_dir, w.pes());
    load_s.push_back(seconds_since(t0));
    analyze_s.push_back(0.0);
    heatmap_s.push_back(0.0);
    const bool first = answer_s.empty();
    if (w.analyzes()) {
      t0 = Clock::now();
      const prof::analysis::Analysis a = prof::analysis::analyze(trace);
      analyze_s.back() = seconds_since(t0);
      r.supersteps = a.steps.size();
      if (first)
        checks.expect(!a.steps.empty(), "analyze returned no superstep");
    }
    if (w.renders_heatmap()) {
      t0 = Clock::now();
      const std::string heatmap = viz::render_heatmap(trace.logical_matrix());
      heatmap_s.back() = seconds_since(t0);
      if (first) checks.expect(!heatmap.empty(), "empty heatmap");
    }
    answer_s.push_back(load_s.back() + analyze_s.back() + heatmap_s.back());
    if (first)
      checks.expect(same_record_counts(p, trace, cfg, r.rows),
                    "loaded trace record counts differ from the profiler's");
  } while (seconds_since(start) < kMinAnswerSeconds);
  r.load_s = median(load_s);
  r.analyze_s = median(analyze_s);
  r.heatmap_s = median(heatmap_s);
  r.answer_s = median(answer_s);
  for (const fs::directory_entry& e : fs::directory_iterator(cfg.trace_dir)) {
    if (!e.is_regular_file()) continue;
    ++r.files;
    r.bytes += e.file_size();
  }
  return r;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const std::vector<Metric>& metrics, const Checks& checks) {
  for (const Metric& m : metrics)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ------------------------------------------------- end-to-end (--trace 0)

constexpr int kSetups = 5;
constexpr int kPlainPerRep = 4;

struct SetUp {
  std::unique_ptr<Workload> workload;
  double seconds = 0.0;  ///< everything before the first timed rep
  InputTimes inputs;
  double serial_s = 0.0;
};

/// Input generation, the serial reference and one warm-up launch of each
/// kind (unprofiled, then profiled): everything before the first timed rep.
/// `after`, when given, runs once the set-up is timed, while the warm-up
/// profiler still holds its records.
SetUp set_up(const std::string& name, std::uint64_t seed, const fs::path& out,
             Checks& checks,
             const std::function<void(const Workload&, const prof::Profiler&)>&
                 after = nullptr) {
  const Clock::time_point start = Clock::now();
  SetUp su;
  su.workload = make_workload(name);
  Workload& w = *su.workload;
  w.set_trace_dir(out / name);
  su.inputs = w.generate(seed);
  const Clock::time_point t0 = Clock::now();
  w.serial_reference();
  su.serial_s = seconds_since(t0);
  checks.expect(w.launch(nullptr).ok, "warm-up output");
  prof::Profiler profiler(w.profile());
  checks.expect(w.launch(&profiler).ok, "warm-up profiled output");
  su.seconds = seconds_since(start);
  if (after) after(w, profiler);
  return su;
}

std::vector<Metric> end_to_end(const std::string& name, std::uint64_t seed,
                               double seconds, const fs::path& out,
                               Checks& checks) {
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
  std::unique_ptr<Workload> w;
  // The first set-up also reports on its warm-up trace and records the peak
  // of one run of the workload from a fresh process, which does not depend
  // on how many set-ups or reps follow.
  const auto report_and_peak = [&](const Workload& wl,
                                   const prof::Profiler& p) {
    run_report(wl, p, checks);
    peak_rss_mb = proc_status_mb("VmHWM");
  };
  for (int k = 0; k < kSetups; ++k) {
    w.reset();
    SetUp su = k == 0 ? set_up(name, seed, out, checks, report_and_peak)
                      : set_up(name, seed, out, checks);
    setup_s.push_back(su.seconds);
    w = std::move(su.workload);
  }

  std::vector<double> plain_s, prof_s, pair_x, serial_s, report_s;
  std::uint64_t msgs = 0, trace_bytes = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int rep = 0; rep < 2 || Clock::now() < deadline; ++rep) {
    try {
      const Clock::time_point t0 = Clock::now();
      w->serial_reference();
      serial_s.push_back(seconds_since(t0));

      // The profiled launch pairs with the unprofiled launch next to it;
      // which side runs first alternates. The extra unprofiled launches
      // give the tail percentile its samples.
      Launch profiled;
      Report rep_out;
      const auto run_profiled = [&] {
        prof::Profiler profiler(w->profile());
        profiled = w->launch(&profiler);
        rep_out = run_report(*w, profiler, checks);
      };
      if (rep % 2 == 1) run_profiled();
      std::vector<Launch> plain;
      for (int i = 0; i < kPlainPerRep; ++i) plain.push_back(w->launch(nullptr));
      if (rep % 2 == 0) run_profiled();
      for (const Launch& l : plain) {
        checks.expect(l.ok, "unprofiled output");
        checks.expect(l.msgs == profiled.msgs, "message counts differ");
        plain_s.push_back(l.secs);
      }
      checks.expect(profiled.ok, "profiled output");
      msgs = profiled.msgs;
      prof_s.push_back(profiled.secs);
      const Launch& partner = rep % 2 == 1 ? plain.front() : plain.back();
      pair_x.push_back(profiled.secs / partner.secs);
      report_s.push_back(rep_out.answer_s);
      trace_bytes = rep_out.bytes;
    } catch (const std::exception& e) {
      checks.expect(false, e.what());
    }
  }

  if (plain_s.empty() || prof_s.empty())
    throw std::runtime_error("no rep completed");
  // Tail: the 75th percentile, or the highest order statistic below it
  // that still has ten samples above it. Higher percentiles of a run on a
  // shared machine mostly measure the other tenants.
  std::vector<double> sorted = plain_s;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t tail_at =
      n > 10 ? std::min(n * 3 / 4, n - 11) : n - 1;
  std::printf("%s seed %llu: %zu reps; run_s_tail is sample %zu of %zu "
              "(%zu above it)\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              prof_s.size(), tail_at + 1, n, n - 1 - tail_at);

  const double plain_med = median(plain_s);
  const auto dmsgs = static_cast<double>(msgs);
  return {
      {"setup_s", median(setup_s), "s"},
      {"msgs_per_s", dmsgs / plain_med, "msg/s"},
      {"run_s_tail", sorted[tail_at], "s"},
      {"profiled_msgs_per_s", dmsgs / median(prof_s), "msg/s"},
      {"overhead_x", median(pair_x), "ratio"},
      {"cost_x", plain_med / median(serial_s), "ratio"},
      {"report_s", median(report_s), "s"},
      {"trace_bytes", static_cast<double>(trace_bytes), "B"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

// ------------------------------------------------------ per-layer (--trace 1)

/// Median cost of timing an empty region with two clock reads; subtracted
/// from every forwarded call the decorators time.
double timer_cost_ns() {
  std::vector<double> v;
  v.reserve(2001);
  for (int i = 0; i < 2001; ++i) {
    const Clock::time_point a = Clock::now();
    v.push_back(static_cast<double>(ns_between(a, Clock::now())));
  }
  return median(std::move(v));
}

/// Exact counts of one traced unprofiled launch.
struct LayerCounts {
  std::uint64_t msgs = 0;
  ActorSeam::Counts actor;
  TransferSeam::Counts transfer;
  RmaSeam::Counts rma;
  convey::ConveyorStats conveyor;

  [[nodiscard]] bool same_counts(const LayerCounts& o) const {
    const convey::ConveyorStats& a = conveyor;
    const convey::ConveyorStats& b = o.conveyor;
    return msgs == o.msgs && actor.sends == o.actor.sends &&
           actor.handled == o.actor.handled &&
           actor.batches == o.actor.batches &&
           transfer.transfers == o.transfer.transfers &&
           transfer.advances == o.transfer.advances &&
           rma.nbi_puts == o.rma.nbi_puts && rma.quiets == o.rma.quiets &&
           rma.barriers == o.rma.barriers && rma.atomics == o.rma.atomics &&
           a.pushed == b.pushed && a.forwarded == b.forwarded &&
           a.local_sends == b.local_sends &&
           a.nonblock_sends == b.nonblock_sends &&
           a.progress_calls == b.progress_calls && a.memcpys == b.memcpys;
  }
};

convey::ConveyorStats minus(const convey::ConveyorStats& b,
                            const convey::ConveyorStats& a) {
  convey::ConveyorStats d;
  d.pushed = b.pushed - a.pushed;
  d.pulled = b.pulled - a.pulled;
  d.forwarded = b.forwarded - a.forwarded;
  d.local_sends = b.local_sends - a.local_sends;
  d.nonblock_sends = b.nonblock_sends - a.nonblock_sends;
  d.progress_calls = b.progress_calls - a.progress_calls;
  d.local_send_bytes = b.local_send_bytes - a.local_send_bytes;
  d.nonblock_send_bytes = b.nonblock_send_bytes - a.nonblock_send_bytes;
  d.memcpys = b.memcpys - a.memcpys;
  d.drains = b.drains - a.drains;
  return d;
}

struct AllocDelta {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

template <class F>
AllocDelta allocations_of(F&& f) {
  const std::uint64_t c0 = prof::AllocProbe::count();
  const std::uint64_t b0 = prof::AllocProbe::bytes_allocated();
  f();
  return {prof::AllocProbe::count() - c0,
          prof::AllocProbe::bytes_allocated() - b0};
}

std::vector<Metric> per_layer(const std::string& name, std::uint64_t seed,
                              double seconds, const fs::path& out,
                              Checks& checks) {
  const SetUp su = set_up(name, seed, out, checks);
  const std::unique_ptr<Workload>& w = su.workload;
  const int pes = w->pes();
  const double tcost = timer_cost_ns();

  // runtime: a barrier-only launch at the workload's P and topology.
  const rt::LaunchConfig lc = w->launch_config();
  const auto barrier_launch = [&] {
    shmem::run(lc, [] { shmem::barrier_all(); });
  };
  std::vector<double> launch_s;
  AllocDelta launch_alloc;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t0 = Clock::now();
    launch_alloc = allocations_of(barrier_launch);
    launch_s.push_back(seconds_since(t0));
  }
  // Resident growth over repeated unprofiled launches.
  std::vector<double> rss;
  for (int i = 0; i < 4; ++i) {
    checks.expect(w->launch(nullptr).ok, "unprofiled output");
    rss.push_back(proc_status_mb("VmRSS"));
  }

  std::vector<double> plain_s, prof_s, traced_plain_s, comm_s, proc_s,
      main_s, callback_s, write_s, load_s, analyze_s, heatmap_s;
  LayerCounts first;
  AllocDelta plain_alloc, prof_alloc;
  std::uint64_t callbacks = 0;
  bool per_message_path = false;
  Report report;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int it = 0; it < 2 || Clock::now() < deadline; ++it) {
    // Untraced pair: the reference the traced numbers are compared with.
    Launch plain, profiled;
    plain_alloc = allocations_of([&] { plain = w->launch(nullptr); });
    {
      prof::Profiler profiler(w->profile());
      prof_alloc = allocations_of([&] { profiled = w->launch(&profiler); });
    }
    checks.expect(plain.ok, "unprofiled output");
    checks.expect(profiled.ok, "profiled output");
    plain_s.push_back(plain.secs);
    prof_s.push_back(profiled.secs);

    // Traced unprofiled launch: the seams wrap no observer.
    LayerCounts c;
    {
      RegionClock regions(pes);
      ForwardMeter unused;
      ActorSeam actor(regions, unused);
      TransferSeam transfer(unused);
      RmaSeam rma(regions, unused);
      const convey::ConveyorStats before = convey::lifetime_totals();
      const Launch l = w->launch(nullptr);
      checks.expect(l.ok, "traced unprofiled output");
      checks.expect(unused.calls == 0, "seams forwarded without an observer");
      c.conveyor = minus(convey::lifetime_totals(), before);
      c.msgs = l.msgs;
      c.actor = actor.counts();
      c.transfer = transfer.counts();
      c.rma = rma.counts();
      traced_plain_s.push_back(l.secs);
      comm_s.push_back(static_cast<double>(regions.comm_ns()) * 1e-9);
      checks.expect(c.actor.sends == l.msgs && c.conveyor.pushed == l.msgs,
                    "actor sends, conveyor pushes and kernel sends differ");
    }
    if (it == 0)
      first = c;
    else
      checks.expect(c.same_counts(first), "layer counts did not repeat");

    // Traced profiled launch: the seams wrap the Profiler.
    {
      prof::Profiler profiler(w->profile());
      ForwardMeter meter;
      {
        RegionClock regions(pes);
        ActorSeam actor(regions, meter);
        TransferSeam transfer(meter);
        RmaSeam rma(regions, meter);
        const Launch l = w->launch(&profiler);
        checks.expect(l.ok, "traced profiled output");
        per_message_path = profiler.wants_per_message_events();
        const double cb = std::max(
            0.0, (static_cast<double>(meter.ns) -
                  static_cast<double>(meter.calls) * tcost) * 1e-9);
        const double comm = static_cast<double>(regions.comm_ns()) * 1e-9;
        const double proc = static_cast<double>(regions.proc_ns()) * 1e-9;
        callbacks = meter.calls;
        callback_s.push_back(cb);
        proc_s.push_back(proc);
        main_s.push_back(l.secs - comm - proc - cb);
      }
      report = run_report(*w, profiler, checks);
      write_s.push_back(report.write_s);
      load_s.push_back(report.load_s);
      analyze_s.push_back(report.analyze_s);
      heatmap_s.push_back(report.heatmap_s);
    }
  }

  const auto msgs = static_cast<double>(first.msgs);
  const convey::ConveyorStats& cs = first.conveyor;
  const auto transfers = static_cast<double>(
      first.transfer.transfers[static_cast<std::size_t>(
          convey::SendType::local_send)] +
      first.transfer.transfers[static_cast<std::size_t>(
          convey::SendType::nonblock_send)]);
  const double comm = median(comm_s);
  const double cb = median(callback_s);
  const double rows = static_cast<double>(report.rows);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto signed_allocs = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a) - static_cast<double>(b);
  };
  return {
      {"graph.rmat_s", su.inputs.rmat_s, "s"},
      {"graph.csr_s", su.inputs.csr_s, "s"},
      {"graph.serial_ref_s", su.serial_s, "s"},
      {"runtime.launch_s", median(launch_s), "s"},
      {"runtime.launch_alloc_bytes_per_pe",
       count(launch_alloc.bytes) / pes, "B"},
      {"runtime.rss_growth_mb_per_run",
       (rss.back() - rss.front()) / static_cast<double>(rss.size() - 1), "MB"},
      {"shmem.nbi_puts", count(first.rma.nbi_puts), "count"},
      {"shmem.nbi_bytes_per_msg", ratio(count(first.rma.nbi_bytes), msgs),
       "B/msg"},
      {"shmem.quiets", count(first.rma.quiets), "count"},
      {"shmem.puts_per_quiet",
       ratio(count(first.rma.completed_by_quiet), count(first.rma.quiets)),
       "ratio"},
      {"shmem.barriers", count(first.rma.barriers), "count"},
      {"shmem.atomics", count(first.rma.atomics), "count"},
      {"conveyor.comm_s", comm, "s"},
      {"conveyor.comm_share", ratio(comm, median(traced_plain_s)), "ratio"},
      {"conveyor.ns_per_msg", ratio(comm * 1e9, msgs), "ns/msg"},
      {"conveyor.msgs_per_transfer",
       ratio(count(cs.pushed), count(cs.local_sends + cs.nonblock_sends)),
       "ratio"},
      {"conveyor.transfers_per_advance",
       ratio(transfers, count(first.transfer.advances)), "ratio"},
      {"conveyor.forwarded_per_msg", ratio(count(cs.forwarded), msgs),
       "ratio"},
      {"conveyor.memcpys_per_msg", ratio(count(cs.memcpys), msgs), "ratio"},
      {"conveyor.wire_bytes_per_msg",
       ratio(count(cs.local_send_bytes + cs.nonblock_send_bytes), msgs),
       "B/msg"},
      {"conveyor.local_sends", count(cs.local_sends), "count"},
      {"conveyor.nonblock_sends", count(cs.nonblock_sends), "count"},
      {"conveyor.progress_calls", count(cs.progress_calls), "count"},
      {"actor.sends", count(first.actor.sends), "count"},
      {"actor.handled", count(first.actor.handled), "count"},
      {"actor.batches", count(first.actor.batches), "count"},
      {"actor.msgs_per_batch",
       ratio(count(first.actor.handled), count(first.actor.batches)), "ratio"},
      {"actor.proc_s", median(proc_s), "s"},
      {"actor.main_s", median(main_s), "s"},
      {"profiler.callbacks_per_msg", ratio(count(callbacks), msgs), "ratio"},
      {"profiler.callback_s", cb, "s"},
      {"profiler.ns_per_callback", ratio(cb * 1e9, count(callbacks)), "ns"},
      {"profiler.per_message_path", per_message_path ? 1.0 : 0.0, "bool"},
      {"profiler.allocs_per_msg",
       ratio(signed_allocs(prof_alloc.count, plain_alloc.count), msgs),
       "ratio"},
      {"profiler.callback_share", ratio(cb, median(prof_s) - median(plain_s)),
       "ratio"},
      {"trace.rows", rows, "count"},
      {"trace.files", count(report.files), "count"},
      {"trace.bytes_per_row", ratio(count(report.bytes), rows), "B"},
      {"trace.write_s", median(write_s), "s"},
      {"trace.write_rows_per_s", ratio(rows, median(write_s)), "rows/s"},
      {"trace.load_s", median(load_s), "s"},
      {"trace.load_rows_per_s", ratio(rows, median(load_s)), "rows/s"},
      {"analysis.analyze_s", median(analyze_s), "s"},
      {"analysis.supersteps", count(report.supersteps), "count"},
      {"viz.heatmap_s", median(heatmap_s), "s"},
      {"mem.allocs_per_msg",
       ratio(signed_allocs(plain_alloc.count, launch_alloc.count), msgs),
       "ratio"},
      {"mem.alloc_bytes_per_pe", count(plain_alloc.bytes) / pes, "B"},
      {"bench.tracing_overhead_x",
       ratio(median(traced_plain_s), median(plain_s)), "ratio"},
  };
}

// ------------------------------------------------------------------ main

[[noreturn]] void usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <case_study|histogram_overall|"
               "many_pes> --seed <n> --seconds <s> --trace <0|1> --out <dir>\n";
  std::exit(2);
}

int main_impl(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  fs::path out = ".bench_build/traces";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload")
      workload = v;
    else if (arg == "--seed")
      seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds")
      seconds = std::strtod(v, nullptr);
    else if (arg == "--trace")
      trace = std::atoi(v);
    else if (arg == "--out")
      out = v;
    else
      usage(("unknown argument " + arg).c_str());
  }
  if (!make_workload(workload)) usage("unknown workload");
  if (!(seconds > 0.0)) usage("--seconds must be positive");

  Checks checks;
  const std::vector<Metric> metrics =
      trace != 0 ? per_layer(workload, seed, seconds, out, checks)
                 : end_to_end(workload, seed, seconds, out, checks);
  fs::remove_all(out / workload);
  std::printf("error_rate = %.6g ratio (%llu failed of %llu checks)\n",
              ratio(static_cast<double>(checks.failed),
                    static_cast<double>(checks.attempted)),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  print_result(metrics, checks);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
