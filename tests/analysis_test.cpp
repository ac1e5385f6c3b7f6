// Superstep analysis: reconstruction math on synthetic traces, the
// steps-CSV round trip, run-to-run diff semantics, the BarrierWait advisor
// bridge, end-to-end determinism of a profiled run, and the analyze/diff
// CLI subcommands.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifdef ACTORPROF_VIZ_BIN
#include <sys/wait.h>
#endif

#include "analysis/analysis.hpp"
#include "apps/histogram.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "shmem/shmem.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ap;
using namespace ap::prof::analysis;

constexpr int kPes = 4;

prof::SuperstepRecord rec(int pe, std::uint32_t epoch, std::uint32_t step,
                          std::uint64_t t_main, std::uint64_t t_proc,
                          std::uint64_t t_comm) {
  prof::SuperstepRecord r;
  r.pe = pe;
  r.epoch = epoch;
  r.step = step;
  r.t_main = t_main;
  r.t_proc = t_proc;
  r.t_comm = t_comm;
  return r;
}

/// Two PEs, two supersteps:
///   step (0,0): PE0 works 150 (100 MAIN + 50 PROC), PE1 works 200 (PROC)
///   step (0,1): PE0 works 300 (COMM), PE1 works 100 (MAIN)
prof::io::TraceDir synthetic_trace() {
  prof::io::TraceDir t;
  t.num_pes = 2;
  t.steps.resize(2);
  t.steps[0] = {rec(0, 0, 0, 100, 50, 0), rec(0, 0, 1, 0, 0, 300)};
  t.steps[1] = {rec(1, 0, 0, 0, 200, 0), rec(1, 0, 1, 100, 0, 0)};
  return t;
}

TEST(Analysis, ReconstructsBspTimelineFromPerPeClocks) {
  const Analysis a = analyze(synthetic_trace());
  EXPECT_EQ(a.num_pes, 2);
  ASSERT_EQ(a.steps.size(), 2u);

  // Step (0,0): PE1's 200 PROC cycles gate; PE0 waits 50.
  const StepStat& s0 = a.steps[0];
  EXPECT_EQ(s0.duration, 200u);
  EXPECT_EQ(s0.release, 200u);
  EXPECT_EQ(s0.straggler_pe, 1);
  EXPECT_EQ(s0.gate, Component::proc);
  ASSERT_EQ(s0.wait.size(), 2u);
  EXPECT_EQ(s0.wait[0], 50u);  // recs sorted by PE: [0] is PE0
  EXPECT_EQ(s0.wait[1], 0u);
  EXPECT_EQ(s0.total_wait, 50u);

  // Step (0,1): PE0's 300 COMM cycles gate; release accumulates.
  const StepStat& s1 = a.steps[1];
  EXPECT_EQ(s1.duration, 300u);
  EXPECT_EQ(s1.release, 500u);
  EXPECT_EQ(s1.straggler_pe, 0);
  EXPECT_EQ(s1.gate, Component::comm);
  EXPECT_EQ(s1.total_wait, 200u);

  EXPECT_EQ(a.total_cycles, 500u);
  ASSERT_EQ(a.gated_cycles_by_pe.size(), 2u);
  EXPECT_EQ(a.gated_cycles_by_pe[0], 300u);
  EXPECT_EQ(a.gated_cycles_by_pe[1], 200u);
  EXPECT_EQ(a.gated_cycles_by_component[0], 0u);    // MAIN
  EXPECT_EQ(a.gated_cycles_by_component[1], 200u);  // PROC
  EXPECT_EQ(a.gated_cycles_by_component[2], 300u);  // COMM
}

TEST(Analysis, WhatIfShavesTheStragglersComponent) {
  const Analysis a = analyze(synthetic_trace());  // factor 0.2
  ASSERT_FALSE(a.what_ifs.empty());
  // Best lever: PE0's COMM (the 300-cycle gate of step 1). 20% off 300
  // leaves 240, still above PE1's 100, so the total drops 500 -> 440.
  const WhatIf& best = a.what_ifs.front();
  EXPECT_EQ(best.pe, 0);
  EXPECT_EQ(best.component, Component::comm);
  EXPECT_EQ(best.new_total, 440u);
  EXPECT_DOUBLE_EQ(best.speedup_pct, 100.0 * 60.0 / 500.0);
}

TEST(Analysis, TextAndJsonReportsNameTheCriticalPath) {
  const Analysis a = analyze(synthetic_trace());
  std::ostringstream text;
  write_text(text, a);
  EXPECT_NE(text.str().find("Superstep analysis"), std::string::npos);
  EXPECT_NE(text.str().find("Critical path"), std::string::npos);
  EXPECT_NE(text.str().find("PE0 gates 300 cycles (60.0% of the run)"),
            std::string::npos);
  EXPECT_NE(text.str().find("What-if estimates"), std::string::npos);

  std::ostringstream json;
  write_json(json, a);
  EXPECT_NE(json.str().find("\"total_cycles\": 500"), std::string::npos);
  EXPECT_NE(json.str().find("\"straggler_pe\": 1"), std::string::npos);
  EXPECT_NE(json.str().find("\"gate\": \"COMM\""), std::string::npos);
}

TEST(Analysis, StepsCsvRoundTripsExactly) {
  std::vector<prof::SuperstepRecord> recs;
  for (int i = 0; i < 5; ++i) {
    prof::SuperstepRecord r = rec(i % 3, static_cast<std::uint32_t>(i / 2),
                                  static_cast<std::uint32_t>(i), 11u * i,
                                  7u * i, 3u * i);
    r.msgs_sent = 100u + i;
    r.bytes_sent = 1000u + i;
    r.msgs_handled = 50u + i;
    r.barrier_arrive = 1u << i;
    r.barrier_release = (1u << i) + 17u;
    recs.push_back(r);
  }
  prof::io::Sink s;
  prof::io::write_csv(s, recs);
  std::vector<prof::SuperstepRecord> back;
  prof::io::read_into(s.str(), back);
  EXPECT_EQ(back, recs);
}

TEST(Diff, AlignsByEpochStepAndFlagsRegressions) {
  Analysis a, b;
  StepStat s;
  s.epoch = 0;
  s.step = 0;
  s.duration = 100;
  a.steps.push_back(s);
  s.step = 1;
  a.steps.push_back(s);
  a.total_cycles = 200;

  s.step = 0;
  s.duration = 100;
  b.steps.push_back(s);
  s.step = 1;
  s.duration = 150;  // +50%
  b.steps.push_back(s);
  s.epoch = 1;
  s.step = 0;
  s.duration = 50;  // only in B: never a "regression"
  b.steps.push_back(s);
  b.total_cycles = 300;

  const Diff d = diff(a, b, 0.10);
  ASSERT_EQ(d.steps.size(), 3u);
  EXPECT_TRUE(d.steps[0].in_a && d.steps[0].in_b);
  EXPECT_DOUBLE_EQ(d.steps[1].rel_change(), 0.5);
  EXPECT_FALSE(d.steps[2].in_a);
  ASSERT_EQ(d.regressions().size(), 1u);
  EXPECT_EQ(d.regressions()[0].step, 1u);
  EXPECT_TRUE(d.any_regression());

  // A generous threshold silences the per-step hit AND the total growth.
  EXPECT_FALSE(diff(a, b, 0.60).any_regression());

  std::ostringstream text;
  write_diff_text(text, d);
  EXPECT_NE(text.str().find("REGRESSED"), std::string::npos);
  EXPECT_NE(text.str().find("REGRESSION:"), std::string::npos);
  std::ostringstream json;
  write_diff_json(json, d);
  EXPECT_NE(json.str().find("\"any_regression\": true"), std::string::npos);
}

TEST(Advisor, BarrierWaitFindingNamesWorstPeStepAndComponent) {
  const Analysis a = analyze(synthetic_trace());
  const auto findings = barrier_wait_findings(a);
  ASSERT_GE(findings.size(), 1u);
  const prof::Finding& worst = findings.front();
  EXPECT_EQ(worst.kind, prof::Finding::Kind::BarrierWait);
  EXPECT_EQ(worst.subject, 0);  // PE0 gates 300/500 = 60%
  EXPECT_EQ(worst.severity, prof::Finding::Severity::warning);
  EXPECT_NE(worst.message.find("PE0 gates 60.0%"), std::string::npos);
  EXPECT_NE(worst.message.find("superstep 0/1"), std::string::npos);
  EXPECT_NE(worst.message.find("COMM-bound"), std::string::npos);
  // PE1 gates 40% — past the default 25% warning share as well.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[1].subject, 1);
}

TEST(Advisor, NoStepsMeansNoFindings) {
  EXPECT_TRUE(barrier_wait_findings(Analysis{}).empty());
  std::ostringstream os;
  write_text(os, Analysis{});
  EXPECT_NE(os.str().find("no superstep records"), std::string::npos);
}

// ---- end-to-end: profiled run -> steps files -> analyze ----------------

void run_histogram_traced(const fs::path& dir, std::size_t updates,
                          rt::Backend backend = rt::Backend::auto_) {
  fs::remove_all(dir);
  prof::Config pc;
  pc.overall = true;
  pc.supersteps = true;
  pc.trace_dir = dir;
  prof::Profiler profiler(pc);
  rt::LaunchConfig lc;
  lc.num_pes = kPes;
  lc.pes_per_node = kPes / 2;
  lc.backend = backend;
  shmem::run(lc, [&] {
    (void)apps::histogram_actor(64, updates, 1234, &profiler);
  });
  profiler.write_traces();
}

TEST(AnalysisPipeline, StepComponentsSumToTheOverallProfile) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "an_pipeline";
  run_histogram_traced(dir, 2000);
  const auto t = prof::io::load_trace_dir(dir, kPes);
  ASSERT_EQ(t.steps.size(), static_cast<std::size_t>(kPes));
  ASSERT_EQ(t.overall.size(), static_cast<std::size_t>(kPes));
  for (int pe = 0; pe < kPes; ++pe) {
    ASSERT_FALSE(t.steps[static_cast<std::size_t>(pe)].empty());
    std::uint64_t m = 0, p = 0, c = 0;
    for (const auto& r : t.steps[static_cast<std::size_t>(pe)]) {
      EXPECT_EQ(r.pe, pe);
      EXPECT_GE(r.barrier_release, r.barrier_arrive);
      m += r.t_main;
      p += r.t_proc;
      c += r.t_comm;
    }
    const auto& o = t.overall[static_cast<std::size_t>(pe)];
    EXPECT_EQ(m, o.t_main) << "pe " << pe;
    EXPECT_EQ(p, o.t_proc) << "pe " << pe;
    EXPECT_EQ(c, o.t_comm()) << "pe " << pe;
  }
  const Analysis a = analyze(t);
  EXPECT_GT(a.total_cycles, 0u);
  EXPECT_GE(a.steps.size(), 1u);
}

TEST(AnalysisPipeline, SameSeedGivesByteIdenticalAnalysisJson) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path da = tmp / "an_det_a";
  const fs::path db = tmp / "an_det_b";
  // Pinned to fiber: two runs giving the same records is a fiber guarantee.
  run_histogram_traced(da, 2000, rt::Backend::fiber);
  run_histogram_traced(db, 2000, rt::Backend::fiber);
  std::ostringstream ja, jb;
  write_json(ja, analyze(prof::io::load_trace_dir(da, kPes)));
  write_json(jb, analyze(prof::io::load_trace_dir(db, kPes)));
  EXPECT_GT(ja.str().size(), 0u);
  EXPECT_EQ(ja.str(), jb.str());
}

// ---- the analyze/diff CLI subcommands ----------------------------------

#ifdef ACTORPROF_VIZ_BIN
int run_cli(const std::string& args, const fs::path& out) {
  const std::string cmd = std::string(ACTORPROF_VIZ_BIN) + " " + args + " > " +
                          out.string() + " 2>&1";
  const int rc = std::system(cmd.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string slurp(const fs::path& p) {
  std::ifstream is(p);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(AnalysisCli, AnalyzeReportsAndJsonSucceed) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "an_cli";
  run_histogram_traced(dir, 2000);
  const fs::path out = tmp / "an_cli_out.txt";

  // PE count comes from the MANIFEST — no --num-pes needed.
  ASSERT_EQ(run_cli("analyze " + dir.string(), out), 0) << slurp(out);
  const std::string text = slurp(out);
  EXPECT_NE(text.find("Superstep analysis"), std::string::npos);
  EXPECT_NE(text.find("Critical path"), std::string::npos);

  ASSERT_EQ(run_cli("analyze --json " + dir.string(), out), 0) << slurp(out);
  EXPECT_NE(slurp(out).find("\"total_cycles\""), std::string::npos);
}

TEST(AnalysisCli, DiffExitCodesGateOnThreshold) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path a = tmp / "an_cli_diff_a";
  const fs::path b = tmp / "an_cli_diff_b";
  run_histogram_traced(a, 2000);
  run_histogram_traced(b, 8000);  // ~4x the virtual work: a clear regression
  const fs::path out = tmp / "an_cli_diff.txt";

  // A run diffed against itself is clean.
  ASSERT_EQ(run_cli("diff " + a.string() + " " + a.string(), out), 0)
      << slurp(out);
  EXPECT_NE(slurp(out).find("no regression"), std::string::npos);

  // 4x the work trips the default 10% threshold -> dedicated exit code 3.
  EXPECT_EQ(run_cli("diff " + a.string() + " " + b.string(), out), 3)
      << slurp(out);
  EXPECT_NE(slurp(out).find("REGRESSION"), std::string::npos);

  // ... and a huge threshold waves the same pair through.
  EXPECT_EQ(run_cli("diff --threshold 10000 " + a.string() + " " + b.string(),
                    out),
            0)
      << slurp(out);

  // Usage errors are exit 2, distinct from load failures (1) and the
  // regression gate (3).
  EXPECT_EQ(run_cli("diff " + a.string(), out), 2);
  EXPECT_EQ(run_cli("analyze", out), 2);
}
#endif  // ACTORPROF_VIZ_BIN

}  // namespace
