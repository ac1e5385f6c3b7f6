// Tests for timeline recording, trace sampling, and the Google Trace
// Events (Chrome tracing) export — the §VI future-work features.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "actor/selector.hpp"
#include "core/chrome_trace.hpp"
#include "core/profiler.hpp"
#include "runtime/finish.hpp"
#include "shmem/shmem.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ap;
using prof::TimelineEvent;

ap::rt::LaunchConfig cfg_of(int pes, int ppn = 0) {
  ap::rt::LaunchConfig cfg;
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

TEST(Timeline, RecordsBalancedRegionEvents) {
  prof::Config c = prof::Config::all_enabled();
  c.timeline = true;
  prof::Profiler profiler(c);
  run_workload(profiler, 2, 2, 50);

  for (int pe = 0; pe < 2; ++pe) {
    const auto& tl = profiler.timeline(pe);
    ASSERT_FALSE(tl.empty());
    EXPECT_EQ(tl.front().kind, TimelineEvent::Kind::BeginMain);
    EXPECT_EQ(tl.back().kind, TimelineEvent::Kind::EndMain);
    int proc_depth = 0, comm_depth = 0, sends = 0;
    std::uint64_t last_ts = 0;
    for (const TimelineEvent& e : tl) {
      EXPECT_GE(e.ts, last_ts) << "timeline must be monotone";
      last_ts = e.ts;
      switch (e.kind) {
        case TimelineEvent::Kind::BeginProc: ++proc_depth; break;
        case TimelineEvent::Kind::EndProc: --proc_depth; break;
        case TimelineEvent::Kind::BeginComm: ++comm_depth; break;
        case TimelineEvent::Kind::EndComm: --comm_depth; break;
        case TimelineEvent::Kind::Send: ++sends; break;
        default: break;
      }
      EXPECT_GE(proc_depth, 0);
      EXPECT_GE(comm_depth, 0);
    }
    EXPECT_EQ(proc_depth, 0) << "unbalanced PROC events";
    EXPECT_EQ(comm_depth, 0) << "unbalanced COMM events";
    EXPECT_EQ(sends, 50);
  }
}

TEST(Timeline, DisabledByDefault) {
  prof::Config c = prof::Config::all_enabled();
  prof::Profiler profiler(c);
  run_workload(profiler, 2, 2, 10);
  EXPECT_TRUE(profiler.timeline(0).empty());
}

TEST(Timeline, SendEventsCarryDestination) {
  prof::Config c = prof::Config::all_enabled();
  c.timeline = true;
  prof::Profiler profiler(c);
  shmem::run(cfg_of(4, 2), [&profiler] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    profiler.epoch_begin();
    hclib::finish([&] {
      a.start();
      if (shmem::my_pe() == 0) a.send(1, 3);
      a.done(0);
    });
    profiler.epoch_end();
  });
  bool found = false;
  for (const TimelineEvent& e : profiler.timeline(0)) {
    if (e.kind == TimelineEvent::Kind::Send) {
      EXPECT_EQ(e.arg0, 3);
      EXPECT_EQ(e.arg1, static_cast<std::int32_t>(sizeof(std::int64_t)));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Sampling, KeepsEveryKthEventButFullMatrix) {
  prof::Config c = prof::Config::all_enabled();
  c.sample_every = 10;
  prof::Profiler profiler(c);
  run_workload(profiler, 2, 2, 100);
  EXPECT_EQ(profiler.logical_events(0).size(), 10u);       // 100 / 10
  EXPECT_EQ(profiler.logical_matrix().row_sums()[0], 100u);  // complete
}

TEST(Sampling, RateOneKeepsEverything) {
  prof::Config c = prof::Config::all_enabled();
  c.sample_every = 1;
  prof::Profiler profiler(c);
  run_workload(profiler, 2, 2, 37);
  EXPECT_EQ(profiler.logical_events(1).size(), 37u);
}

TEST(ChromeTrace, ProducesValidJsonStructure) {
  prof::Config c = prof::Config::all_enabled();
  c.timeline = true;
  prof::Profiler profiler(c);
  run_workload(profiler, 4, 2, 30);

  std::stringstream ss;
  prof::write_chrome_trace(ss, profiler);
  const std::string json = ss.str();

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"MAIN\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"PROC\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"COMM\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"send\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"PE3\""), std::string::npos);
  // pid must reflect the node: PE3 lives on node 1 under ppn=2.
  EXPECT_NE(json.find("\"pid\":1,\"tid\":3"), std::string::npos);

  // Balanced braces (cheap well-formedness check).
  int depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  // B and E counts must match per name.
  auto count = [&json](const std::string& needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
      ++n;
      ++pos;
    }
    return n;
  };
  EXPECT_EQ(count("\"name\":\"PROC\",\"ph\":\"B\""),
            count("\"name\":\"PROC\",\"ph\":\"E\""));
  EXPECT_EQ(count("\"name\":\"COMM\",\"ph\":\"B\""),
            count("\"name\":\"COMM\",\"ph\":\"E\""));
}

TEST(ChromeTrace, WriteFileCreatesParents) {
  const ap::testutil::TestTmpDir tmp;
  prof::Config c = prof::Config::all_enabled();
  c.timeline = true;
  prof::Profiler profiler(c);
  run_workload(profiler, 2, 2, 5);
  const fs::path p = tmp / "chrome_out" / "trace.json";
  fs::remove_all(p.parent_path());
  prof::write_chrome_trace_file(p, profiler);
  ASSERT_TRUE(fs::exists(p));
  std::ifstream is(p);
  std::string head;
  std::getline(is, head);
  EXPECT_EQ(head.rfind("{\"traceEvents\":[", 0), 0u);
}

TEST(ChromeTrace, EmptyProfilerStillValid) {
  prof::Config c = prof::Config::all_enabled();
  c.timeline = true;
  prof::Profiler profiler(c);
  run_workload(profiler, 1, 0, 0);
  std::stringstream ss;
  prof::write_chrome_trace(ss, profiler);
  EXPECT_NE(ss.str().find("]"), std::string::npos);
}

}  // namespace
