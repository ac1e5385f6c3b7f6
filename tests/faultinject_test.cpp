// Fault-injection harness tests: every injection mode under a fixed seed,
// the determinism contract (same seed => the same quiet schedule), the
// contained-kill path end to end (survivors' traces load tolerantly, the
// heatmap marks the dead PE), and the symm_free-after-finalize regression.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/triangle.hpp"
#include "check/checker.hpp"
#include "core/profiler.hpp"
#include "core/trace_io.hpp"
#include "faultinject/faultinject.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "shmem/profiling_interface.hpp"
#include "shmem/shmem.hpp"
#include "viz/render.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace ap;

rt::LaunchConfig cfg_of(int pes, int ppn = 0) {
  rt::LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 4 << 20;
  // Fault injection is fiber-backend-only (shmem::run rejects plans under
  // threads); pin it so the suite also passes with ACTORPROF_BACKEND=threads.
  cfg.backend = rt::Backend::fiber;
  return cfg;
}

/// Every PE writes my_pe*100+dst into slot my_pe of every PE's array via
/// non-blocking puts, then quiets + barriers and checks what arrived. Run
/// under quiet-perturbation plans: whatever completion order the plan
/// chooses, the values after quiet must be exactly these.
void ring_put_program() {
  const int me = shmem::my_pe();
  const int n = shmem::n_pes();
  shmem::SymmArray<std::int64_t> arr(static_cast<std::size_t>(n));
  std::vector<std::int64_t> vals(static_cast<std::size_t>(n));
  shmem::barrier_all();
  for (int round = 0; round < 4; ++round) {
    for (int dst = 0; dst < n; ++dst) {
      vals[static_cast<std::size_t>(dst)] = me * 100 + dst + round;
      shmem::putmem_nbi(&arr[static_cast<std::size_t>(me)],
                        &vals[static_cast<std::size_t>(dst)],
                        sizeof(std::int64_t), dst);
    }
    shmem::quiet();
    shmem::barrier_all();
    // The last put this PE issued toward each dst targeted slot `me` of
    // dst's array; locally we can only check our own copy, written by the
    // put we issued to ourselves.
    EXPECT_EQ(arr[static_cast<std::size_t>(me)], me * 100 + me + round);
    shmem::barrier_all();
  }
}

fi::Plan quiet_chaos_plan(std::uint64_t seed) {
  fi::Plan p;
  p.seed = seed;
  p.delay_put_prob = 0.7;
  p.delay_yields = 2;
  p.dup_put_prob = 0.5;
  p.reorder_put_prob = 0.8;
  return p;
}

/// Records every quiet's completion order as the profiling interface's
/// conformance hooks report it: "pe:index" per applied put and
/// "pe:suspend@k" per held-back suffix — the schedule a quiet plan injects.
class QuietScheduleRecorder final : public shmem::RmaObserver {
 public:
  QuietScheduleRecorder() { shmem::set_rma_observer(this); }
  ~QuietScheduleRecorder() override { shmem::set_rma_observer(nullptr); }
  QuietScheduleRecorder(const QuietScheduleRecorder&) = delete;
  QuietScheduleRecorder& operator=(const QuietScheduleRecorder&) = delete;

  void on_put(int, std::size_t) override {}
  void on_put_nbi(int, std::size_t) override {}
  void on_get(int, std::size_t) override {}
  void on_quiet(std::size_t) override {}
  void on_barrier() override {}
  void on_atomic(int) override {}
  bool wants_conformance_events() const override { return true; }
  void on_quiet_begin(std::size_t) override { next_[my_pe()] = 0; }
  void on_nbi_applied(std::size_t index) override {
    // An unperturbed quiet applies 0..n-1 in order, each once.
    if (index != next_[my_pe()]++) perturbed_ = true;
    note(std::to_string(index));
  }
  void on_quiet_suspend(std::size_t applied, std::size_t) override {
    perturbed_ = true;
    note("suspend@" + std::to_string(applied));
  }

  [[nodiscard]] const std::string& schedule() const { return schedule_; }
  /// Some quiet reordered, duplicated or held back its puts.
  [[nodiscard]] bool perturbed() const { return perturbed_; }

 private:
  static std::size_t my_pe() {
    return static_cast<std::size_t>(shmem::my_pe());
  }
  void note(const std::string& event) {
    schedule_ += std::to_string(my_pe()) + ':' + event + ' ';
  }

  std::map<std::size_t, std::size_t> next_;  // per PE: next in-order index
  std::string schedule_;
  bool perturbed_ = false;
};

TEST(FaultInject, QuietPerturbationsPreserveRmaSemantics) {
  fi::Session session(quiet_chaos_plan(42));
  QuietScheduleRecorder recorder;
  shmem::run(cfg_of(4, 2), ring_put_program);
  EXPECT_TRUE(recorder.perturbed());
}

TEST(FaultInject, SameSeedGivesByteIdenticalSchedule) {
  const auto schedule_of = [](std::uint64_t seed) {
    fi::Session session(quiet_chaos_plan(seed));
    QuietScheduleRecorder recorder;
    shmem::run(cfg_of(4, 2), ring_put_program);
    EXPECT_TRUE(recorder.perturbed()) << "seed " << seed;
    return recorder.schedule();
  };
  const std::string first = schedule_of(7);
  EXPECT_EQ(schedule_of(7), first);
  EXPECT_NE(schedule_of(8), first);
}

/// Triangle-count under a plan must still produce the exact answer (the
/// injections perturb schedules, never data), and the per-PE overall
/// breakdown must still partition: T_MAIN + T_PROC <= T_TOTAL, so
/// T_TOTAL = T_MAIN + T_PROC + T_COMM holds without clamping.
std::int64_t triangle_run(const fi::Plan* plan, prof::Profiler* profiler,
                          int pes = 4) {
  graph::RmatParams gp;
  gp.scale = 7;
  gp.edge_factor = 8;
  gp.permute_vertices = false;
  const auto edges = graph::rmat_edges(gp);
  const auto L =
      graph::Csr::from_edges(graph::Vertex{1} << gp.scale, edges, true);
  std::optional<fi::Session> session;
  if (plan != nullptr) session.emplace(*plan);
  std::int64_t total = 0;
  shmem::run(cfg_of(pes, 2), [&] {
    graph::CyclicDistribution dist(shmem::n_pes());
    const auto r = apps::count_triangles_actor(L, dist, profiler);
    if (shmem::my_pe() == 0) total = r.triangles;
  });
  return total;
}

void expect_consistent_overall(const prof::Profiler& prof) {
  for (const prof::OverallRecord& r : prof.overall()) {
    if (fi::was_killed(r.pe)) continue;
    EXPECT_GT(r.t_total, 0u) << "PE" << r.pe;
    EXPECT_LE(r.t_main + r.t_proc, r.t_total) << "PE" << r.pe;
    EXPECT_EQ(r.t_main + r.t_comm() + r.t_proc, r.t_total) << "PE" << r.pe;
  }
}

TEST(FaultInject, StragglerRunCompletesWithExactResult) {
  const std::int64_t expected = triangle_run(nullptr, nullptr);
  fi::Plan p;
  p.seed = 3;
  p.straggler_pe = 1;
  p.straggler_factor = 5.0;
  prof::Profiler profiler(prof::Config::all_enabled());
  EXPECT_EQ(triangle_run(&p, &profiler), expected);
  expect_consistent_overall(profiler);
}

TEST(FaultInject, StalledAdvanceWindowsStillTerminate) {
  const std::int64_t expected = triangle_run(nullptr, nullptr);
  fi::Plan p;
  p.seed = 11;
  p.stall_pe = 2;
  p.stall_every = 16;
  p.stall_len = 6;
  prof::Profiler profiler(prof::Config::all_enabled());
  EXPECT_EQ(triangle_run(&p, &profiler), expected);
  expect_consistent_overall(profiler);
  // The run's conveyor did stall PE 2, and only PE 2.
  EXPECT_GT(fi::stalled_advances(2), 0u);
  for (int pe : {0, 1, 3}) EXPECT_EQ(fi::stalled_advances(pe), 0u) << pe;
}

TEST(FaultInject, QuietChaosTriangleStillExact) {
  const std::int64_t expected = triangle_run(nullptr, nullptr);
  const fi::Plan p = quiet_chaos_plan(1234);
  prof::Profiler profiler(prof::Config::all_enabled());
  EXPECT_EQ(triangle_run(&p, &profiler), expected);
  expect_consistent_overall(profiler);
}

// ------------------------------------------------------------------ kill

TEST(FaultInject, KillAtBarrierIsContainedAndSurvivorsFinish) {
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "fi_kill_trace";
  fs::remove_all(dir);

  prof::Config pc = prof::Config::all_enabled();
  pc.trace_dir = dir;
  pc.crash_safe = true;
  prof::Profiler profiler(pc);

  fi::Plan p;
  p.seed = 5;
  p.kill_pe = 2;
  p.kill_at_barrier = 3;
  {
    fi::Session session(p);
    shmem::run(cfg_of(4, 2), [&] {
      const int me = shmem::my_pe();
      const int n = shmem::n_pes();
      shmem::SymmArray<std::int64_t> arr(static_cast<std::size_t>(n));
      shmem::barrier_all();  // barrier 0
      for (int iter = 0; iter < 4; ++iter) {
        profiler.epoch_begin();
        std::int64_t v = me * 10 + iter;
        for (int dst = 0; dst < n; ++dst)
          if (shmem::pe_alive(dst))
            shmem::putmem_nbi(&arr[static_cast<std::size_t>(me)], &v,
                              sizeof v, dst);
        shmem::quiet();
        profiler.epoch_end();
        shmem::barrier_all();  // barriers 1..4; PE2 dies entering barrier 3
      }
      EXPECT_NE(me, 2) << "killed PE body must not run past its barrier";
      EXPECT_EQ(shmem::live_pes(), 3);
      EXPECT_TRUE(shmem::pe_alive(me));
      EXPECT_FALSE(shmem::pe_alive(2));
    });
  }

  EXPECT_TRUE(fi::was_killed(2));
  ASSERT_EQ(fi::killed_pes(), (std::vector<int>{2}));

  // The survivors' traces must load. The dead PE is named by the MANIFEST
  // and its overall lines are suppressed.
  profiler.write_traces();
  prof::io::LoadOptions lo;
  lo.tolerate_partial = true;
  const auto trace = prof::io::load_trace_dir(dir, 4, lo);
  EXPECT_EQ(trace.dead_pes, (std::vector<int>{2}));
  ASSERT_FALSE(trace.overall.empty());
  for (const auto& r : trace.overall) EXPECT_NE(r.pe, 2);

  // Superstep rows are NOT suppressed for the killed PE (unlike overall):
  // every row was closed at a boundary the PE actually reached, so its
  // steps file is a loadable prefix — the 3 epochs PE2 finished before
  // dying at barrier 3, vs the survivors' 4.
  ASSERT_EQ(trace.steps.size(), 4u);
  EXPECT_EQ(trace.steps[2].size(), 3u);
  for (const auto& r : trace.steps[2]) EXPECT_EQ(r.pe, 2);
  for (const std::size_t pe : {0u, 1u, 3u})
    EXPECT_EQ(trace.steps[pe].size(), 4u) << "pe " << pe;

  // And the heatmap marks the dead PE for the reader.
  viz::HeatmapOptions ho;
  ho.dead_pes = trace.dead_pes;
  const std::string hm = viz::render_heatmap(trace.logical_matrix(), ho);
  EXPECT_NE(hm.find("PE2!"), std::string::npos);
  EXPECT_NE(hm.find("dead PEs"), std::string::npos);
}

TEST(FaultInject, KillDuringConveyorRunIsContained) {
  // Kill a PE in the middle of the actor/conveyor triangle kernel: the
  // launch must still terminate (dead PEs count as done, their in-flight
  // items as lost) even though the answer is now meaningless.
  fi::Plan p;
  p.seed = 21;
  p.kill_pe = 1;
  p.kill_at_barrier = 1;
  (void)triangle_run(&p, nullptr);
  EXPECT_TRUE(fi::was_killed(1));
}

TEST(FaultInject, KillAtBarrierOnTreeBarrierPathReleasesSurvivors) {
  // At 40 PEs barrier_all's data-less fast path is a three-level combining
  // tree (fan-in 4: 10 leaves, 3 inner nodes, the root). The kill fires
  // at barrier entry before arrive(), so mark_current_pe_dead must
  // deactivate the dead PE's leaf-to-root path or every survivor of that
  // round — and of all later rounds — parks forever.
  fi::Plan p;
  p.seed = 11;
  p.kill_pe = 17;
  p.kill_at_barrier = 2;
  fi::Session session(p);
  shmem::run(cfg_of(40, 8), [] {
    const int me = shmem::my_pe();
    for (int iter = 0; iter < 5; ++iter) shmem::barrier_all();
    EXPECT_NE(me, 17) << "killed PE body must not run past its barrier";
    EXPECT_EQ(shmem::live_pes(), 39);
    // Data-carrying collectives keep working over the shrunken live set.
    EXPECT_EQ(shmem::sum_reduce(std::int64_t{1}), 39);
  });
  EXPECT_TRUE(fi::was_killed(17));
}

TEST(FaultInject, KillLastHoldoutOfOpenTreeBarrierRound) {
  // Same tree-path shape, but the kill lands on the PE the scheduler
  // resumes *last* in the round-robin order (PE 39): every other PE has
  // already arrived at the open round when the kill fires, so deactivate
  // itself must complete the round on the dead PE's behalf.
  fi::Plan p;
  p.seed = 13;
  p.kill_pe = 39;
  p.kill_at_barrier = 1;
  fi::Session session(p);
  shmem::run(cfg_of(40, 40), [] {
    for (int iter = 0; iter < 3; ++iter) shmem::barrier_all();
    EXPECT_EQ(shmem::live_pes(), 39);
  });
  EXPECT_TRUE(fi::was_killed(39));
}

// ------------------------------------------------- env plan + auto-install

struct EnvVar {
  explicit EnvVar(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~EnvVar() { ::unsetenv(name_); }
  const char* name_;
};

TEST(FaultInject, EnvPlanParsesStrictly) {
  {
    EnvVar seed("ACTORPROF_FI_SEED", "99");
    EnvVar kill("ACTORPROF_FI_KILL_PE", "3");
    EnvVar at("ACTORPROF_FI_KILL_AT_BARRIER", "2");
    EnvVar rp("ACTORPROF_FI_REORDER_PUTS", "0.25");
    const fi::Plan p = fi::Plan::from_env();
    EXPECT_EQ(p.seed, 99u);
    EXPECT_EQ(p.kill_pe, 3);
    EXPECT_EQ(p.kill_at_barrier, 2);
    EXPECT_DOUBLE_EQ(p.reorder_put_prob, 0.25);
    EXPECT_TRUE(p.enabled());
  }
  {
    EnvVar bad("ACTORPROF_FI_REORDER_PUTS", "1.5");
    EXPECT_THROW((void)fi::Plan::from_env(), std::invalid_argument);
  }
  {
    EnvVar bad("ACTORPROF_FI_KILL_PE", "two");
    EXPECT_THROW((void)fi::Plan::from_env(), std::invalid_argument);
  }
  EXPECT_FALSE(fi::Plan::from_env().enabled());
}

TEST(FaultInject, RunAutoInstallsEnvPlan) {
  EnvVar seed("ACTORPROF_FI_SEED", "17");
  EnvVar kill("ACTORPROF_FI_KILL_PE", "0");
  EnvVar at("ACTORPROF_FI_KILL_AT_BARRIER", "0");
  shmem::run(cfg_of(2), [] {
    shmem::barrier_all();  // PE0 dies here
    EXPECT_EQ(shmem::my_pe(), 1);
    EXPECT_EQ(shmem::live_pes(), 1);
  });
  EXPECT_FALSE(fi::active()) << "env guard must uninstall after run";
  EXPECT_TRUE(fi::was_killed(0));
}

// ------------------------------------------------ checker + fault plans
//
// The BSP conformance checker (docs/CHECKING.md) must deterministically
// flag the ordering faults the injector plants in quiet(): a reorder plan
// yields nbi_reordered diagnostics, a duplication plan nbi_duplicated,
// and — because every violation field is a logical quantity — the JSON
// report is byte-identical across runs of the same seed.

prof::Config check_config() {
  prof::Config c;
  c.check = true;
  return c;
}

std::string check_report_json(std::uint64_t seed, fi::Plan plan) {
  plan.seed = seed;
  prof::Profiler profiler(check_config());
  fi::Session session(plan);
  shmem::run(cfg_of(4, 2), ring_put_program);
  std::ostringstream os;
  check::write_json(os, profiler.bsp_violations(),
                    profiler.bsp_violations_dropped());
  return os.str();
}

TEST(CheckerFaultInject, ReorderPlanTriggersNbiReordered) {
  fi::Plan p;
  p.seed = 42;
  p.reorder_put_prob = 1.0;
  prof::Profiler profiler(check_config());
  fi::Session session(p);
  shmem::run(cfg_of(4, 2), ring_put_program);
  const auto& v = profiler.bsp_violations();
  ASSERT_FALSE(v.empty()) << "a certain-reorder plan must be flagged";
  for (const auto& x : v) {
    EXPECT_EQ(x.kind, check::Violation::Kind::NbiReordered);
    EXPECT_GE(x.pe, 0);
    EXPECT_LT(x.pe, 4);
    EXPECT_GE(x.other_pe, 0);               // the staged put's target PE
    EXPECT_EQ(x.bytes, sizeof(std::int64_t));
    EXPECT_NE(x.callsite.find("faultinject_test.cpp"), std::string::npos)
        << x.callsite;  // attribution points at the putmem_nbi above
  }
  // ring_put_program barriers each round, so later rounds' faults land in
  // later supersteps.
  EXPECT_GT(v.back().superstep, v.front().superstep);
}

TEST(CheckerFaultInject, DupPlanTriggersNbiDuplicated) {
  fi::Plan p;
  p.seed = 42;
  p.dup_put_prob = 1.0;
  prof::Profiler profiler(check_config());
  fi::Session session(p);
  shmem::run(cfg_of(4, 2), ring_put_program);
  const auto& v = profiler.bsp_violations();
  ASSERT_FALSE(v.empty()) << "a certain-dup plan must be flagged";
  for (const auto& x : v) {
    EXPECT_EQ(x.kind, check::Violation::Kind::NbiDuplicated);
    EXPECT_NE(x.detail.find("more than once"), std::string::npos) << x.detail;
  }
  // One duplicate per quiet, 4 PEs x 4 rounds.
  EXPECT_EQ(v.size(), 16u);
}

TEST(CheckerFaultInject, DelayPlanTriggersQuietInterrupted) {
  fi::Plan p;
  p.seed = 9;
  p.delay_put_prob = 1.0;
  p.delay_yields = 1;
  prof::Profiler profiler(check_config());
  fi::Session session(p);
  shmem::run(cfg_of(4, 2), ring_put_program);
  const auto& v = profiler.bsp_violations();
  ASSERT_FALSE(v.empty());
  bool saw_interrupt = false;
  for (const auto& x : v)
    saw_interrupt |= x.kind == check::Violation::Kind::QuietInterrupted;
  EXPECT_TRUE(saw_interrupt);
}

TEST(CheckerFaultInject, ReportJsonIsByteIdenticalPerSeed) {
  const std::string first = check_report_json(7, quiet_chaos_plan(0));
  ASSERT_NE(first.find("\"violations\""), std::string::npos);
  EXPECT_EQ(check_report_json(7, quiet_chaos_plan(0)), first);
  EXPECT_NE(check_report_json(8, quiet_chaos_plan(0)), first)
      << "a different seed must perturb the report";
}

// --------------------------------------------- symm_free after finalize

TEST(FaultInject, SymmFreeAfterFinalizeIsWarnedNoOp) {
  void* leaked = nullptr;
  shmem::run(cfg_of(1), [&] { leaked = shmem::symm_malloc(64); });
  // The world (and with it the symmetric heap) is gone; this used to throw
  // std::logic_error from require_pe(). Now: warning + no-op.
  EXPECT_NO_THROW(shmem::symm_free(leaked));

  // Same through SymmArray's destructor — the common form of the bug: a
  // SymmArray that outlives the shmem::run() region it was created in.
  std::optional<shmem::SymmArray<int>> arr;
  shmem::run(cfg_of(1), [&] { arr.emplace(16); });
  EXPECT_NO_THROW(arr.reset());
}

}  // namespace
