// Tests for the live-metrics subsystem: registry instruments, the sampler
// ring + online straggler detector, self-overhead accounting, the strict
// ACTORPROF_METRICS* environment parsing, flow-id carriage through the
// conveyor, and the flow/counter events in the Chrome trace export.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "actor/selector.hpp"
#include "conveyor/conveyor.hpp"
#include "core/chrome_trace.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "metrics/registry.hpp"
#include "metrics/sampler.hpp"
#include "metrics/self_overhead.hpp"
#include "papi/papi.hpp"
#include "runtime/finish.hpp"
#include "shmem/shmem.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ap;

// ------------------------------------------------------------ JSON checker

/// Minimal recursive-descent JSON syntax validator. No values are built —
/// the tests only need to know the exporters emit well-formed JSON.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    ws();
    if (!value()) return false;
    ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++i_;  // '{'
    ws();
    if (peek('}')) return true;
    while (true) {
      ws();
      if (!string()) return false;
      ws();
      if (!expect(':')) return false;
      ws();
      if (!value()) return false;
      ws();
      if (peek('}')) return true;
      if (!expect(',')) return false;
    }
  }
  bool array() {
    ++i_;  // '['
    ws();
    if (peek(']')) return true;
    while (true) {
      ws();
      if (!value()) return false;
      ws();
      if (peek(']')) return true;
      if (!expect(',')) return false;
    }
  }
  bool string() {
    if (!expect('"')) return false;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') ++i_;
      ++i_;
    }
    return expect('"');
  }
  bool number() {
    const std::size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' || s_[i_] == '+' ||
            s_[i_] == '-'))
      ++i_;
    return i_ > start;
  }
  bool literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++i_)
      if (i_ >= s_.size() || s_[i_] != *p) return false;
    return true;
  }
  void ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\t' || s_[i_] == '\r'))
      ++i_;
  }
  bool peek(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }
  bool expect(char c) {
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// ---------------------------------------------------------------- Registry

TEST(Registry, CounterGaugeHistogramRoundTrip) {
  metrics::Registry r;
  const auto c = r.add_counter("t_sends_total", "sends");
  const auto g = r.add_gauge("t_depth", "queue depth");
  const auto h = r.add_histogram("t_bytes", "message bytes");
  r.bind(3);

  r.add(0, c);
  r.add(0, c, 4);
  r.add(2, c, 7);
  r.set(1, g, -5);
  r.add(1, g, 2);
  r.observe(0, h, 0);
  r.observe(0, h, 9);
  r.observe(0, h, 9);

  // Scalars per PE: the counter, then the gauge.
  std::vector<std::int64_t> row(2 * 3);
  r.snapshot_scalars(row.data());
  EXPECT_EQ(row, (std::vector<std::int64_t>{5, 0, 0, -3, 7, 0}));
  EXPECT_EQ(r.value(1, g), -3);
  // PE 0's histogram: the zero in bucket 0, the two nines in bucket 4.
  ASSERT_EQ(metrics::histogram_bucket(9), 4);
  std::stringstream json;
  r.write_json(json);
  EXPECT_NE(json.str().find(R"({"count":3,"sum":18,"buckets":[1,0,0,0,2,0,)"),
            std::string::npos)
      << json.str();

  r.bind(3);  // rebinding zeroes every value
  r.snapshot_scalars(row.data());
  EXPECT_EQ(row, std::vector<std::int64_t>(2 * 3, 0));
}

TEST(Registry, HistogramBucketsAreLog2) {
  EXPECT_EQ(metrics::histogram_bucket(0), 0);
  EXPECT_EQ(metrics::histogram_bucket(1), 1);
  EXPECT_EQ(metrics::histogram_bucket(2), 2);
  EXPECT_EQ(metrics::histogram_bucket(3), 2);
  EXPECT_EQ(metrics::histogram_bucket(4), 3);
  EXPECT_EQ(metrics::histogram_bucket(7), 3);
  EXPECT_EQ(metrics::histogram_bucket(8), 4);
  // The last bucket absorbs the tail.
  EXPECT_EQ(metrics::histogram_bucket(~std::uint64_t{0}),
            metrics::kHistogramBuckets - 1);
  EXPECT_EQ(metrics::histogram_bucket_le(0), 0u);
  EXPECT_EQ(metrics::histogram_bucket_le(1), 1u);
  EXPECT_EQ(metrics::histogram_bucket_le(3), 7u);
}

TEST(Registry, UpdatesRejectedBeforeBindAndOutOfRange) {
  metrics::Registry r;
  const auto c = r.add_counter("t_x_total", "x");
  EXPECT_THROW(r.add(0, c), std::out_of_range);
  r.bind(2);
  EXPECT_THROW(r.add(2, c), std::out_of_range);
  EXPECT_THROW(r.add(-1, c), std::out_of_range);
  EXPECT_THROW(r.add_counter("t_late_total", "too late"), std::logic_error);
}

TEST(Registry, ScalarLayoutIsCountersThenGauges) {
  metrics::Registry r;
  const auto a = r.add_counter("t_a_total", "a");
  const auto g = r.add_gauge("t_g", "g");
  const auto b = r.add_counter("t_b_total", "b");
  r.bind(2);
  ASSERT_EQ(r.num_scalars(), 3u);
  r.add(0, a, 1);
  r.add(0, b, 2);
  r.set(0, g, 3);
  r.add(1, b, 5);
  std::vector<std::int64_t> row(2 * 3);
  r.snapshot_scalars(row.data());
  EXPECT_EQ(row, (std::vector<std::int64_t>{1, 2, 3, 0, 5, 0}));
}

TEST(Registry, PrometheusExposition) {
  metrics::Registry r;
  const auto c = r.add_counter("t_sends_total", "number of sends");
  const auto h = r.add_histogram("t_bytes", "bytes");
  r.bind(2);
  r.add(1, c, 42);
  r.observe(0, h, 5);

  std::stringstream ss;
  r.write_prometheus(ss);
  const std::string out = ss.str();
  EXPECT_NE(out.find("# HELP t_sends_total number of sends"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE t_sends_total counter"), std::string::npos);
  EXPECT_NE(out.find("t_sends_total{pe=\"1\"} 42"), std::string::npos);
  EXPECT_NE(out.find("# TYPE t_bytes histogram"), std::string::npos);
  EXPECT_NE(out.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(out.find("t_bytes_count{pe=\"0\"} 1"), std::string::npos);
  EXPECT_NE(out.find("t_bytes_sum{pe=\"0\"} 5"), std::string::npos);
}

TEST(Registry, JsonExpositionIsValidJson) {
  metrics::Registry r;
  const auto c = r.add_counter("t_sends_total", "sends");
  r.add_gauge("t_depth", "d");
  r.add_histogram("t_bytes", "b");
  r.bind(2);
  r.add(0, c, 3);
  std::stringstream ss;
  r.write_json(ss);
  EXPECT_TRUE(JsonChecker(ss.str()).valid()) << ss.str();
  EXPECT_NE(ss.str().find("t_sends_total"), std::string::npos);
}

// -------------------------------------------------------------- SampleRing

TEST(SampleRing, OverwritesOldestWhenFull) {
  metrics::SampleRing ring;
  ring.bind(/*num_pes=*/2, /*num_series=*/1, /*capacity=*/3);
  std::int64_t row[2];
  for (std::int64_t t = 1; t <= 5; ++t) {
    row[0] = 10 * t;
    row[1] = 10 * t + 1;
    ring.push(static_cast<std::uint64_t>(t), row);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.overwritten(), 2u);
  // Oldest retained is t=3, newest t=5.
  EXPECT_EQ(ring.at(0).t_cycles, 3u);
  EXPECT_EQ(ring.at(2).t_cycles, 5u);
  EXPECT_EQ(ring.value(0, 0, 0), 30);
  EXPECT_EQ(ring.value(2, 1, 0), 51);
  ring.bind(2, 1, 3);  // rebinding empties the ring
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.overwritten(), 0u);
}

// ---------------------------------------------------------------- detector

TEST(Detector, MedianAndDivergence) {
  EXPECT_DOUBLE_EQ(metrics::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(metrics::median({4.0, 1.0, 2.0, 3.0}), 2.5);

  // PE 3 is 10x the fleet median and far above the absolute floor.
  const std::vector<double> v{10.0, 12.0, 11.0, 110.0};
  const std::vector<int> flagged = metrics::diverging_pes(v, 2.0, 8.0);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], 3);

  // Tiny values divergent in ratio but below the absolute floor: quiet.
  const std::vector<double> tiny{0.1, 0.1, 0.1, 0.4};
  EXPECT_TRUE(metrics::diverging_pes(tiny, 2.0, 8.0).empty());
}

TEST(Detector, AnomalyLogSaturates) {
  metrics::AnomalyLog log(2);
  metrics::Anomaly a;
  a.kind = metrics::AnomalyKind::ProcBacklog;
  for (int i = 0; i < 5; ++i) {
    a.pe = i;
    log.record(a);
  }
  EXPECT_EQ(log.items().size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
}

// ------------------------------------------------------------ OverheadMeter

TEST(OverheadMeter, BucketsPerPePlusFleetSlot) {
  metrics::OverheadMeter m;
  m.bind(2);
  m.add(0, metrics::OverheadCategory::actor_send, 10);
  m.add(1, metrics::OverheadCategory::actor_send, 20);
  m.add(metrics::OverheadMeter::kGlobalSlot, metrics::OverheadCategory::sampler,
        5);
  // Out-of-range PEs charge the fleet slot (cycles are never lost).
  m.add(99, metrics::OverheadCategory::rma, 1);
  EXPECT_EQ(m.cycles(0, metrics::OverheadCategory::actor_send), 10u);
  EXPECT_EQ(m.total(1), 20u);
  EXPECT_EQ(m.total(metrics::OverheadMeter::kGlobalSlot), 6u);
  EXPECT_EQ(m.grand_total(), 36u);
  m.bind(2);  // rebinding zeroes every bucket
  EXPECT_EQ(m.grand_total(), 0u);
}

TEST(OverheadMeter, ScopeChargesElapsedCycles) {
  metrics::OverheadMeter m;
  m.bind(1);
  {
    metrics::OverheadMeter::Scope s(&m, metrics::OverheadCategory::transfer, 0);
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_GT(m.cycles(0, metrics::OverheadCategory::transfer), 0u);
  // A null meter makes the scope free and safe.
  metrics::OverheadMeter::Scope null_scope(
      nullptr, metrics::OverheadCategory::transfer, 0);
}

// ------------------------------------------------------- env configuration

class EnvGuard {
 public:
  ~EnvGuard() {
    for (const std::string& n : names_) ::unsetenv(n.c_str());
  }
  void set(const char* name, const char* value) {
    ::setenv(name, value, 1);
    names_.insert(name);
  }

 private:
  std::set<std::string> names_;
};

TEST(ConfigEnv, MetricsVariablesParse) {
  EnvGuard env;
  env.set("ACTORPROF_METRICS", "1");
  env.set("ACTORPROF_METRICS_INTERVAL_MS", "2.5");
  env.set("ACTORPROF_METRICS_RING", "64");
  env.set("ACTORPROF_METRICS_STRAGGLER_FACTOR", "3");
  env.set("ACTORPROF_TIMELINE", "1");
  const prof::Config c = prof::Config::from_env();
  EXPECT_TRUE(c.metrics);
  EXPECT_TRUE(c.timeline);
  EXPECT_DOUBLE_EQ(c.metrics_interval_virtual_ms, 2.5);
  EXPECT_EQ(c.metrics_ring_capacity, 64u);
  EXPECT_DOUBLE_EQ(c.metrics_straggler_factor, 3.0);
}

TEST(ConfigEnv, RejectsMalformedMetricsValues) {
  {
    EnvGuard env;
    env.set("ACTORPROF_METRICS", "maybe");
    EXPECT_THROW(prof::Config::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env;
    env.set("ACTORPROF_METRICS_INTERVAL_MS", "0");
    EXPECT_THROW(prof::Config::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env;
    env.set("ACTORPROF_METRICS_INTERVAL_MS", "fast");
    EXPECT_THROW(prof::Config::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env;
    env.set("ACTORPROF_METRICS_RING", "-3");
    EXPECT_THROW(prof::Config::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env;
    env.set("ACTORPROF_METRICS_RING", "12cats");
    EXPECT_THROW(prof::Config::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env;
    env.set("ACTORPROF_METRICS_STRAGGLER_FACTOR", "0.5");
    EXPECT_THROW(prof::Config::from_env(), std::invalid_argument);
  }
  {
    EnvGuard env;
    env.set("ACTORPROF_TIMELINE", "yes");
    EXPECT_THROW(prof::Config::from_env(), std::invalid_argument);
  }
}

TEST(ConfigEnv, ErrorNamesVariableAndValue) {
  EnvGuard env;
  env.set("ACTORPROF_METRICS_RING", "zero");
  try {
    (void)prof::Config::from_env();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ACTORPROF_METRICS_RING"), std::string::npos) << what;
    EXPECT_NE(what.find("zero"), std::string::npos) << what;
  }
}

// --------------------------------------------------- conveyor flow carriage

TEST(ConveyorFlow, FlowIdsSurviveAggregation) {
  rt::LaunchConfig lc;
  lc.num_pes = 8;
  lc.pes_per_node = 8;
  shmem::run(lc, [] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = 256;
    o.carry_flow_ids = true;
    auto c = convey::Conveyor::create(o);
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    const std::size_t per_pe = 200;

    std::size_t i = 0;
    std::size_t received = 0;
    bool done = false;
    while (c->advance(done)) {
      for (; i < per_pe; ++i) {
        const std::int64_t payload =
            me * 100000 + static_cast<std::int64_t>(i);
        // The flow id is derived from the payload so the receiver can
        // verify the pairing without shared state.
        const std::uint64_t flow = static_cast<std::uint64_t>(payload) + 7;
        const int dst = static_cast<int>((me + i) % static_cast<std::size_t>(n));
        if (!c->push(&payload, dst, flow)) break;
      }
      c->drain([&received](const convey::Delivered& d) {
        std::int64_t item;
        std::memcpy(&item, d.payload, sizeof item);
        EXPECT_EQ(d.flow, static_cast<std::uint64_t>(item) + 7)
            << "flow id lost or reordered through aggregation";
        ++received;
      });
      done = (i == per_pe);
      rt::yield();
    }
    EXPECT_EQ(shmem::sum_reduce(static_cast<std::int64_t>(received)),
              8 * 200);
  });
}

// ------------------------------------------------------------- end to end

rt::LaunchConfig cfg_of(int pes, int ppn) {
  rt::LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  return cfg;
}

void run_workload(prof::Profiler& profiler, int pes, int ppn, int msgs) {
  shmem::run(cfg_of(pes, ppn), [&profiler, msgs] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    profiler.epoch_begin();
    hclib::finish([&] {
      a.start();
      for (int i = 0; i < msgs; ++i)
        a.send(1, (shmem::my_pe() + i) % shmem::n_pes());
      a.done(0);
    });
    profiler.epoch_end();
  });
}

prof::Config metrics_config() {
  prof::Config c;
  c.metrics = true;
  // One sample per 1000 virtual cycles: guarantees the ring fills even on
  // small test workloads.
  c.metrics_interval_virtual_ms = 0.001;
  return c;
}

std::uint64_t fleet_counter(const prof::Profiler& p, const std::string& name) {
  // Read from the Prometheus exposition so the test exercises the public
  // surface rather than internal handles.
  std::stringstream ss;
  p.write_metrics_prometheus(ss);
  std::uint64_t total = 0;
  std::string line;
  while (std::getline(ss, line)) {
    if (line.rfind(name + "{", 0) != 0) continue;
    const std::size_t sp = line.rfind(' ');
    total += std::stoull(line.substr(sp + 1));
  }
  return total;
}

TEST(LiveMetrics, CountersCoverActorConveyorAndShmemLayers) {
  prof::Profiler profiler(metrics_config());
  run_workload(profiler, 4, 2, 100);

  EXPECT_EQ(fleet_counter(profiler, "actorprof_actor_sends_total"), 400u);
  EXPECT_EQ(fleet_counter(profiler, "actorprof_actor_handlers_total"), 400u);
  EXPECT_GT(fleet_counter(profiler, "actorprof_conveyor_transfers_total"), 0u);
  EXPECT_GT(fleet_counter(profiler, "actorprof_conveyor_transfer_bytes_total"),
            0u);
  EXPECT_GT(fleet_counter(profiler, "actorprof_conveyor_advances_total"), 0u);
  // The conveyor moves buffers with non-blocking puts + quiet.
  EXPECT_GT(fleet_counter(profiler, "actorprof_shmem_nbi_puts_total"), 0u);
  EXPECT_GT(fleet_counter(profiler, "actorprof_shmem_quiets_total"), 0u);
}

TEST(LiveMetrics, SamplerFillsRingAndMetersItsOwnCost) {
  prof::Profiler profiler(metrics_config());
  run_workload(profiler, 4, 2, 200);

  const metrics::SampleRing& ring = profiler.metric_samples();
  ASSERT_GT(ring.size(), 0u);
  // Timestamps must be strictly increasing.
  for (std::size_t i = 1; i < ring.size(); ++i)
    EXPECT_GT(ring.at(i).t_cycles, ring.at(i - 1).t_cycles);
  // The profiler measured a nonzero cost for its own observers.
  EXPECT_GT(profiler.self_overhead().grand_total(), 0u);
  EXPECT_GE(profiler.queue_depth_series(), 0);
  EXPECT_GE(profiler.bytes_in_flight_series(), 0);
}

// Fleet time is the largest clock among the PEs still in the epoch, so it
// falls when the PE holding that maximum leaves. Sample times must still
// strictly increase: a sample waits until fleet time passes the last one.
TEST(LiveMetrics, SampleTimesIncreaseWhenTheLeadingPeLeaves) {
  prof::Profiler profiler(metrics_config());
  rt::LaunchConfig lc = cfg_of(2, 2);
  lc.backend = rt::Backend::fiber;  // one tick after each round, PE 0 first
  shmem::run(lc, [&profiler] {
    profiler.epoch_begin();
    rt::yield();  // round 1's tick takes the first sample, at both PEs' 0
    if (shmem::my_pe() == 0) {
      papi::account_loop_iters(100000);  // far ahead of PE 1
      profiler.on_comm_begin();          // folds: the sampler reads the fold
      profiler.on_comm_end();
      rt::yield();  // round 2's tick samples PE 0's clock
    } else {
      // Rounds 2-4: after round 2, PE 0 has left the epoch and fleet time
      // is PE 1's lower clock.
      for (int round = 0; round < 3; ++round) rt::yield();
    }
    profiler.epoch_end();
  });
  const metrics::SampleRing& ring = profiler.metric_samples();
  ASSERT_GT(ring.size(), 0u);
  for (std::size_t i = 1; i < ring.size(); ++i)
    EXPECT_GT(ring.at(i).t_cycles, ring.at(i - 1).t_cycles) << "sample " << i;
}

// The first tick that sees a PE in its epoch samples, so a run shorter
// than one interval still leaves a sample (under the threads backend only
// worker 0's sweeps tick, and a short run could otherwise end with none).
TEST(LiveMetrics, FirstTickInAnEpochTakesASample) {
  prof::Config c = metrics_config();
  c.metrics_interval_virtual_ms = 1000.0;  // far longer than the run
  prof::Profiler profiler(c);
  run_workload(profiler, 2, 2, 20);
  EXPECT_EQ(profiler.metric_samples().size(), 1u);
}

TEST(LiveMetrics, RingRespectsConfiguredCapacity) {
  prof::Config c = metrics_config();
  c.metrics_ring_capacity = 4;
  prof::Profiler profiler(c);
  run_workload(profiler, 2, 2, 200);
  const metrics::SampleRing& ring = profiler.metric_samples();
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_LE(ring.size(), 4u);
  EXPECT_GT(ring.size() + ring.overwritten(), 0u);
}

TEST(LiveMetrics, JsonExpositionIsValid) {
  prof::Profiler profiler(metrics_config());
  run_workload(profiler, 4, 2, 100);
  std::stringstream ss;
  profiler.write_metrics_json(ss);
  EXPECT_TRUE(JsonChecker(ss.str()).valid()) << ss.str().substr(0, 2000);
  EXPECT_NE(ss.str().find("\"self_overhead_cycles\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"samples\""), std::string::npos);
}

TEST(LiveMetrics, WriteMetricsProducesFiles) {
  const ap::testutil::TestTmpDir tmp;
  prof::Config c = metrics_config();
  c.trace_dir = tmp / "metrics_out";
  fs::remove_all(c.trace_dir);
  prof::Profiler profiler(c);
  run_workload(profiler, 2, 2, 50);
  profiler.write_metrics();
  ASSERT_TRUE(fs::exists(c.trace_dir / "metrics.prom"));
  ASSERT_TRUE(fs::exists(c.trace_dir / "metrics.json"));
  std::ifstream json(c.trace_dir / "metrics.json");
  std::stringstream ss;
  ss << json.rdbuf();
  EXPECT_TRUE(JsonChecker(ss.str()).valid());
}

TEST(LiveMetrics, OverallTxtGainsSelfOverheadLines) {
  const ap::testutil::TestTmpDir tmp;
  prof::Config c = metrics_config();
  c.overall = true;
  c.trace_dir = tmp / "overhead_out";
  fs::remove_all(c.trace_dir);
  prof::Profiler profiler(c);
  run_workload(profiler, 2, 2, 50);
  profiler.write_traces();
  std::ifstream is(c.trace_dir / "overall.txt");
  ASSERT_TRUE(is.is_open());
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_NE(ss.str().find("SelfOverhead"), std::string::npos);
  // The parser must still accept the file (SelfOverhead lines are skipped).
  std::vector<prof::OverallRecord> recs;
  prof::io::parse_overall_into(ss.str(), recs);
  EXPECT_EQ(recs.size(), 2u);
}

TEST(LiveMetrics, OverallTxtCleanWithoutMetrics) {
  const ap::testutil::TestTmpDir tmp;
  prof::Config c;
  c.overall = true;
  c.trace_dir = tmp / "no_overhead_out";
  fs::remove_all(c.trace_dir);
  prof::Profiler profiler(c);
  run_workload(profiler, 2, 2, 50);
  profiler.write_traces();
  std::ifstream is(c.trace_dir / "overall.txt");
  ASSERT_TRUE(is.is_open());
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_EQ(ss.str().find("SelfOverhead"), std::string::npos);
}

// ------------------------------------------------------- Chrome flow events

/// Collects the ids of every flow event of one phase ('s', 't', or 'f').
std::vector<int> flow_ids(const std::string& json, char phase) {
  std::vector<int> ids;
  const std::string needle =
      std::string(R"("cat":"flow","ph":")") + phase + R"(","id":)";
  std::size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    ids.push_back(std::atoi(json.c_str() + pos));
  }
  return ids;
}

TEST(ChromeFlow, EverySendHasAMatchingFinishAndOneFullChain) {
  prof::Config c = metrics_config();
  c.timeline = true;
  prof::Profiler profiler(c);
  run_workload(profiler, 4, 2, 60);

  std::stringstream ss;
  prof::write_chrome_trace(ss, profiler);
  const std::string json = ss.str();
  EXPECT_TRUE(JsonChecker(json).valid());

  const std::vector<int> starts = flow_ids(json, 's');
  const std::vector<int> steps = flow_ids(json, 't');
  const std::vector<int> finishes = flow_ids(json, 'f');
  ASSERT_FALSE(starts.empty()) << "no flow events in the trace";

  const std::set<int> start_set(starts.begin(), starts.end());
  const std::set<int> finish_set(finishes.begin(), finishes.end());
  EXPECT_EQ(start_set.size(), starts.size()) << "duplicate flow start ids";
  // Pairing: every start must terminate and vice versa.
  EXPECT_EQ(start_set, finish_set);

  // At least one Send -> Transfer -> Proc chain: a flow id that appears in
  // all three phases (messages that crossed PEs get a transfer step).
  bool full_chain = false;
  for (int id : steps)
    if (start_set.count(id) != 0 && finish_set.count(id) != 0)
      full_chain = true;
  EXPECT_TRUE(full_chain) << "no Send->Transfer->Proc flow chain";
}

TEST(ChromeFlow, CounterTracksAreMonotoneInTime) {
  prof::Config c = metrics_config();
  c.timeline = true;
  prof::Profiler profiler(c);
  run_workload(profiler, 4, 2, 100);

  std::stringstream ss;
  prof::write_chrome_trace(ss, profiler);
  const std::string json = ss.str();

  for (const char* track : {"queue_depth", "bytes_in_flight"}) {
    const std::string needle =
        std::string(R"("name":")") + track + R"(","ph":"C","ts":)";
    std::size_t pos = 0;
    double last_ts = -1.0;
    int count = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
      pos += needle.size();
      const double ts = std::atof(json.c_str() + pos);
      EXPECT_GE(ts, last_ts) << track << " counter track not monotone";
      last_ts = ts;
      ++count;
    }
    EXPECT_GT(count, 0) << "no " << track << " counter events";
  }
}

TEST(ChromeFlow, NoFlowEventsWithoutTimeline) {
  prof::Config c = metrics_config();
  prof::Profiler profiler(c);
  run_workload(profiler, 4, 2, 30);
  std::stringstream ss;
  prof::write_chrome_trace(ss, profiler);
  EXPECT_TRUE(flow_ids(ss.str(), 's').empty());
}

}  // namespace
