// Tests for HClib-Actor: Selector semantics, FA-BSP interleaving, the
// finish integration, dependent-mailbox chaining, and the observer seam.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "actor/selector.hpp"
#include "core/profiler.hpp"
#include "papi/papi.hpp"
#include "runtime/finish.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/shmem.hpp"

namespace {

namespace shmem = ap::shmem;
namespace actor = ap::actor;
namespace prof = ap::prof;
using ap::rt::LaunchConfig;

LaunchConfig cfg_of(int pes, int ppn = 0) {
  LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 16 << 20;
  return cfg;
}

/// The paper's Listing 1/2 actor: increments slots of a local array.
class IncrementActor : public actor::Actor<std::int64_t> {
 public:
  explicit IncrementActor(std::vector<std::int64_t>* larray)
      : larray_(larray) {
    mb[0].process = [this](std::int64_t idx, int sender_rank) {
      (void)sender_rank;
      (*larray_)[static_cast<std::size_t>(idx)] += 1;  // no atomics needed
    };
  }

 private:
  std::vector<std::int64_t>* larray_;
};

TEST(Selector, Listing1HistogramPattern) {
  shmem::run(cfg_of(4, 4), [] {
    const int n = shmem::n_pes();
    const int me = shmem::my_pe();
    const std::int64_t kSends = 200;
    std::vector<std::int64_t> larray(8, 0);
    auto actor_ptr = std::make_unique<IncrementActor>(&larray);

    ap::hclib::finish([&] {
      actor_ptr->start();
      for (std::int64_t i = 0; i < kSends; ++i) {
        const int dst = static_cast<int>((me + i) % n);
        actor_ptr->send(i % 8, dst);
      }
      actor_ptr->done(0);
    });

    // Every PE receives exactly kSends increments in total (the send
    // pattern above is a permutation across PEs per round).
    const std::int64_t local =
        std::accumulate(larray.begin(), larray.end(), std::int64_t{0});
    EXPECT_EQ(local, kSends);
    EXPECT_EQ(shmem::sum_reduce(local), kSends * n);
  });
}

TEST(Selector, MessagesCarrySenderRank) {
  shmem::run(cfg_of(3, 3), [] {
    std::vector<int> senders;
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [&senders](std::int64_t msg, int sender) {
      EXPECT_EQ(msg, sender * 10);
      senders.push_back(sender);
    };
    ap::hclib::finish([&] {
      a.start();
      const std::int64_t msg = shmem::my_pe() * 10;
      for (int d = 0; d < shmem::n_pes(); ++d) a.send(msg, d);
      a.done(0);
    });
    EXPECT_EQ(senders.size(), 3u);
  });
}

TEST(Selector, HandledCountsPerMailbox) {
  shmem::run(cfg_of(2, 2), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 50; ++i) a.send(1, 1 - shmem::my_pe());
      a.done(0);
    });
    EXPECT_EQ(a.handled(0), 50u);
  });
}

TEST(Selector, TwoMailboxRequestReply) {
  // mb0 carries requests; handlers reply on mb1. Termination relies on the
  // dependent-mailbox chaining (done(1) fires when mb0 terminates).
  shmem::run(cfg_of(4, 2), [] {
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    std::int64_t replies = 0;

    class ReqRep : public actor::Selector<2, std::int64_t> {
     public:
      ReqRep(std::int64_t* replies) {
        mb[0].process = [this](std::int64_t v, int sender) {
          send(1, v * 2, sender);  // reply with the doubled value
        };
        mb[1].process = [replies](std::int64_t v, int) {
          *replies += v;
        };
      }
    };

    ReqRep sel(&replies);
    ap::hclib::finish([&] {
      sel.start();
      for (int d = 0; d < n; ++d)
        sel.send(0, me * 100 + d, d);
      sel.done(0);
      // NOTE: no done(1) — chaining must trigger it.
    });

    std::int64_t expect = 0;
    for (int d = 0; d < n; ++d) expect += 2 * (me * 100 + d);
    EXPECT_EQ(replies, expect);
    EXPECT_TRUE(sel.terminated());
  });
}

TEST(Selector, HandlersRunOneAtATimeNoAtomicsNeeded) {
  // Many PEs hammer one counter slot on PE0; without single-threaded
  // handler execution this would lose updates.
  shmem::run(cfg_of(8, 4), [] {
    std::int64_t counter = 0;
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [&counter](std::int64_t v, int) { counter += v; };
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 300; ++i) a.send(1, 0);
      a.done(0);
    });
    shmem::barrier_all();
    if (shmem::my_pe() == 0) {
      EXPECT_EQ(counter, 8 * 300);
    } else {
      EXPECT_EQ(counter, 0);
    }
  });
}

TEST(Selector, SendBeforeStartThrows) {
  shmem::run(cfg_of(2, 2), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    EXPECT_THROW(a.send(1, 0), std::logic_error);
    // Bring both PEs through a finish so teardown stays symmetric.
    ap::hclib::finish([&] {
      a.start();
      a.done(0);
    });
  });
}

TEST(Selector, StartOutsideFinishThrows) {
  shmem::run(cfg_of(1), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    EXPECT_THROW(a.start(), std::logic_error);
  });
}

TEST(Selector, StartWithoutHandlerThrows) {
  shmem::run(cfg_of(1), [] {
    actor::Actor<std::int64_t> a;
    ap::hclib::finish([&] { EXPECT_THROW(a.start(), std::logic_error); });
  });
}

TEST(Selector, SendAfterDoneThrows) {
  shmem::run(cfg_of(2, 2), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    ap::hclib::finish([&] {
      a.start();
      a.done(0);
      EXPECT_THROW(a.send(1, 0), std::logic_error);
    });
  });
}

TEST(Selector, BadMailboxIdThrows) {
  shmem::run(cfg_of(1), [] {
    actor::Selector<2, std::int64_t> s;
    s.mb[0].process = [](std::int64_t, int) {};
    s.mb[1].process = [](std::int64_t, int) {};
    ap::hclib::finish([&] {
      s.start();
      EXPECT_THROW(s.send(2, 1, 0), std::out_of_range);
      EXPECT_THROW(s.send(-1, 1, 0), std::out_of_range);
      EXPECT_THROW(s.done(5), std::out_of_range);
      s.done(0);
    });
  });
}

TEST(Selector, StructMessagesTravelIntact) {
  struct Edge {
    std::int64_t u, v;
    double w;
  };
  shmem::run(cfg_of(4, 2), [] {
    double wsum = 0;
    actor::Actor<Edge> a;
    a.mb[0].process = [&wsum](Edge e, int) {
      EXPECT_EQ(e.u + 1, e.v);
      wsum += e.w;
    };
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 64; ++i) {
        Edge e{i, i + 1, 0.5};
        a.send(e, i % shmem::n_pes());
      }
      a.done(0);
    });
    EXPECT_DOUBLE_EQ(shmem::sum_reduce(wsum), 4 * 64 * 0.5);
  });
}

TEST(Selector, TinyBuffersStillTerminate) {
  shmem::run(cfg_of(4, 2), [] {
    ap::convey::Options o;
    o.buffer_bytes = 32;  // brutal back-pressure
    std::int64_t got = 0;
    actor::Actor<std::int64_t> a{o};
    a.mb[0].process = [&got](std::int64_t, int) { ++got; };
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 500; ++i) a.send(1, (shmem::my_pe() + i) % 4);
      a.done(0);
    });
    EXPECT_EQ(shmem::sum_reduce(got), 4 * 500);
  });
}

TEST(Selector, HandlerMaySendToAnotherSelector) {
  // Two cooperating actors: A forwards everything it receives to B.
  shmem::run(cfg_of(4, 4), [] {
    std::int64_t sink = 0;
    bool b_done_sent = false;
    actor::Actor<std::int64_t> b;
    b.mb[0].process = [&sink](std::int64_t v, int) { sink += v; };
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [&b](std::int64_t v, int) {
      b.send(v, 0);  // everything funnels to PE0's B actor
    };
    ap::hclib::finish([&] {
      b.start();
      a.start();
      for (int i = 0; i < 20; ++i) a.send(1, i % shmem::n_pes());
      a.done(0);
      // B may receive from A's handlers until A has fully terminated;
      // declare B done only then (HClib-Actor expresses the same with a
      // teardown dependency between selectors).
      ap::hclib::FinishScope::current()->register_pump([&] {
        if (!a.terminated()) return false;
        if (!b_done_sent) {
          b.done(0);
          b_done_sent = true;
        }
        return true;
      });
    });
    shmem::barrier_all();
    if (shmem::my_pe() == 0) {
      EXPECT_EQ(sink, 4 * 20);
    }
  });
}

// ---------------------------------------------------------- observer seam

/// Atomic counts: under the threads backend every worker calls in at once.
struct CountingActorObserver : actor::ActorObserver {
  std::atomic<int> sends = 0, handler_begins = 0, handler_ends = 0;
  std::atomic<int> comm_begins = 0, comm_ends = 0;
  void on_send(int, int, std::size_t, std::uint64_t) override { ++sends; }
  void on_handler_begin(int, int, std::size_t, std::uint64_t) override {
    ++handler_begins;
  }
  void on_handler_end(int) override { ++handler_ends; }
  void on_comm_begin() override { ++comm_begins; }
  void on_comm_end() override { ++comm_ends; }
};

TEST(Selector, ObserverSeesEverySendAndHandler) {
  CountingActorObserver obs;
  actor::set_actor_observer(&obs);
  shmem::run(cfg_of(2, 2), [] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 30; ++i) a.send(1, 1 - shmem::my_pe());
      a.done(0);
    });
  });
  actor::set_actor_observer(nullptr);
  EXPECT_EQ(obs.sends, 60);            // both PEs' sends
  EXPECT_EQ(obs.handler_begins, 60);   // every message handled once
  EXPECT_EQ(obs.handler_ends, 60);
  EXPECT_GT(obs.comm_begins, 0);
  EXPECT_EQ(obs.comm_begins, obs.comm_ends);  // balanced regions
}

// ------------------------------------------- profiler dispatch-path choice

/// Forwards every ActorObserver call to a Profiler and counts the handler
/// hooks, so a test sees which dispatch path the selector took for it.
/// `per_message` forces the per-message path whatever the Profiler answers.
/// Like perfbench's seams, it does not forward wants_per_send_charges(), so
/// the selector charges each send at the send: exact for every observer.
class HookCounter final : public actor::ActorObserver {
 public:
  explicit HookCounter(prof::Profiler& inner, bool per_message = false)
      : inner_(inner), per_message_(per_message) {
    actor::set_actor_observer(this);
  }
  ~HookCounter() override { actor::set_actor_observer(&inner_); }
  HookCounter(const HookCounter&) = delete;
  HookCounter& operator=(const HookCounter&) = delete;

  std::uint64_t handler_begins = 0, handler_ends = 0;
  std::uint64_t batch_begins = 0, batch_closes = 0, batch_msgs = 0;
  /// Closes without an open batch, or begins inside an open one.
  std::uint64_t unbalanced = 0;

  void on_send(int mb, int dst, std::size_t bytes, std::uint64_t f) override {
    inner_.on_send(mb, dst, bytes, f);
  }
  void on_handler_begin(int mb, int src, std::size_t bytes,
                        std::uint64_t f) override {
    ++handler_begins;
    inner_.on_handler_begin(mb, src, bytes, f);
  }
  void on_handler_end(int mb) override {
    ++handler_ends;
    inner_.on_handler_end(mb);
  }
  void on_comm_begin() override { inner_.on_comm_begin(); }
  void on_comm_end() override { inner_.on_comm_end(); }
  [[nodiscard]] bool wants_per_message_events() const override {
    return per_message_ || inner_.wants_per_message_events();
  }
  void on_handler_batch_begin(int mb) override {
    ++batch_begins;
    // Handlers that send may yield to another PE mid-batch, so the flag is
    // per PE (the fiber backend runs one PE at a time).
    if (open_[ap::rt::my_pe()]) ++unbalanced;
    open_[ap::rt::my_pe()] = true;
    inner_.on_handler_batch_begin(mb);
  }
  void on_handler_batch(int mb, std::size_t count,
                        std::size_t bytes) override {
    ++batch_closes;
    batch_msgs += count;
    if (!open_[ap::rt::my_pe()]) ++unbalanced;
    open_[ap::rt::my_pe()] = false;
    inner_.on_handler_batch(mb, count, bytes);
  }
  void on_actor_misuse(const char* what) override {
    inner_.on_actor_misuse(what);
  }
  [[nodiscard]] bool wants_flow_ids() const override {
    return inner_.wants_flow_ids();
  }

 private:
  prof::Profiler& inner_;
  bool per_message_;
  std::map<int, bool> open_;  // by PE
};

/// The decorator counts with plain fields and open-batch flags, so the
/// profiled runs below pin the single-threaded fiber backend.
LaunchConfig fiber_cfg_of(int pes, int ppn = 0) {
  LaunchConfig cfg = cfg_of(pes, ppn);
  cfg.backend = ap::rt::Backend::fiber;
  return cfg;
}

/// Every trace kind off; the caller turns on what it wants.
prof::Config kinds_off() {
  prof::Config c;
  c.logical = c.papi = c.overall = c.physical = c.supersteps = false;
  c.timeline = c.metrics = c.check = false;
  return c;
}

/// Messages 4 PEs handle in run_profiled().
constexpr std::uint64_t kProfiledMsgs = 4 * 300;

/// A profiled all-to-all run on 4 PEs; returns how many messages the
/// selectors handled.
std::uint64_t run_profiled(prof::Profiler& profiler) {
  std::vector<std::uint64_t> handled(4, 0);
  shmem::run(fiber_cfg_of(4, 2), [&] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [](std::int64_t, int) {};
    profiler.epoch_begin();
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < 300; ++i) a.send(i, (shmem::my_pe() + i) % 4);
      a.done(0);
    });
    profiler.epoch_end();
    handled[static_cast<std::size_t>(shmem::my_pe())] = a.handled(0);
  });
  return std::accumulate(handled.begin(), handled.end(), std::uint64_t{0});
}

/// Per-PE values of one metric, read from the Prometheus exposition.
std::map<std::string, std::string> metric_by_pe(const prof::Profiler& p,
                                                const std::string& name) {
  std::stringstream ss;
  p.write_metrics_prometheus(ss);
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(ss, line)) {
    if (line.rfind(name + "{", 0) != 0) continue;
    const std::size_t sp = line.rfind(' ');
    out[line.substr(0, sp)] = line.substr(sp + 1);
  }
  return out;
}

TEST(ProfilerPath, CountOnlyConfigsTakeTheBatchDrainPath) {
  std::vector<prof::Config> configs(6, kinds_off());
  configs[0].overall = true;
  configs[1].overall = configs[1].supersteps = configs[1].logical =
      configs[1].physical = true;
  configs[2].supersteps = true;
  configs[3].metrics = true;
  configs[4].check = true;
  // configs[5]: every kind off.
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    prof::Profiler profiler(configs[i]);
    ASSERT_FALSE(profiler.wants_per_message_events());
    HookCounter hooks(profiler);
    const std::uint64_t handled = run_profiled(profiler);
    EXPECT_EQ(handled, kProfiledMsgs);
    EXPECT_EQ(hooks.handler_begins, 0u);
    EXPECT_EQ(hooks.handler_ends, 0u);
    EXPECT_GT(hooks.batch_begins, 0u);
    EXPECT_EQ(hooks.batch_begins, hooks.batch_closes);
    EXPECT_EQ(hooks.unbalanced, 0u);
    EXPECT_EQ(hooks.batch_msgs, handled);
  }
}

/// Sum of num_sends over every PE's PROC (handler) rows.
std::uint64_t proc_row_msgs(const prof::Profiler& p) {
  std::uint64_t n = 0;
  for (int pe = 0; pe < p.num_pes(); ++pe)
    for (const prof::PapiSegmentRecord& r : p.papi_segments(pe))
      if (r.is_proc) n += r.num_sends;
  return n;
}

TEST(ProfilerPath, PapiTakesTheBatchDrainPath) {
  prof::Config c = kinds_off();
  c.papi = true;
  prof::Profiler profiler(c);
  ASSERT_FALSE(profiler.wants_per_message_events());
  ASSERT_TRUE(profiler.wants_per_send_charges());
  std::uint64_t handled = 0;
  {
    HookCounter hooks(profiler);
    handled = run_profiled(profiler);
    EXPECT_EQ(handled, kProfiledMsgs);
    EXPECT_EQ(hooks.handler_begins, 0u);
    EXPECT_EQ(hooks.handler_ends, 0u);
    EXPECT_GT(hooks.batch_begins, 0u);
    EXPECT_EQ(hooks.batch_begins, hooks.batch_closes);
    EXPECT_EQ(hooks.unbalanced, 0u);
    EXPECT_EQ(hooks.batch_msgs, handled);
  }
  EXPECT_EQ(proc_row_msgs(profiler), handled);
}

TEST(ProfilerPath, TimelineKeepsPerMessageHooks) {
  prof::Config c = kinds_off();
  c.timeline = true;
  prof::Profiler profiler(c);
  ASSERT_TRUE(profiler.wants_per_message_events());
  HookCounter hooks(profiler);
  const std::uint64_t handled = run_profiled(profiler);
  EXPECT_EQ(handled, kProfiledMsgs);
  EXPECT_EQ(hooks.handler_begins, handled);
  EXPECT_EQ(hooks.handler_ends, handled);
  EXPECT_EQ(hooks.batch_begins, 0u);
  EXPECT_EQ(hooks.batch_closes, 0u);
}

/// Four PEs send bursts of 8 from MAIN into mailbox 0; each mailbox-0
/// handler does some work and replies into mailbox 1, so PROC rows absorb
/// sends and MAIN rows switch between destinations.
void run_papi_rows(prof::Profiler& profiler) {
  shmem::run(fiber_cfg_of(4, 2), [&] {
    actor::Selector<2, std::int64_t> s;
    s.mb[0].process = [&s](std::int64_t v, int src) {
      ap::papi::account_loop_iters(static_cast<std::uint64_t>(v % 7));
      s.send(1, v, src);
    };
    s.mb[1].process = [](std::int64_t, int) {
      ap::papi::account_loop_iters(3);
    };
    profiler.epoch_begin();
    ap::hclib::finish([&] {
      s.start();
      for (int i = 0; i < 300; ++i) {
        ap::papi::account_loop_iters(static_cast<std::uint64_t>(i % 5));
        s.send(0, i, (shmem::my_pe() + i / 8) % 4);
      }
      s.done(0);
    });
    profiler.epoch_end();
  });
}

TEST(ProfilerPath, PapiRowsMatchPerMessagePath) {
  prof::Config c = kinds_off();
  c.papi = c.overall = c.supersteps = true;
  c.papi_events = {ap::papi::Event::TOT_INS, ap::papi::Event::LST_INS,
                   ap::papi::Event::TOT_CYC, ap::papi::Event::kCount};
  prof::Profiler on_batch(c);
  {
    HookCounter hooks(on_batch);
    run_papi_rows(on_batch);
    EXPECT_EQ(hooks.handler_begins, 0u);
    EXPECT_EQ(hooks.unbalanced, 0u);
    EXPECT_EQ(hooks.batch_msgs, 2u * 4 * 300);
  }
  // The reference also folds at every send, as metrics mode does: skipping
  // the folds that move no attribution must not change a row.
  prof::Config every_send = c;
  every_send.metrics = true;
  prof::Profiler on_each(every_send);
  {
    HookCounter hooks(on_each, /*per_message=*/true);
    run_papi_rows(on_each);
    EXPECT_EQ(hooks.handler_begins, 2u * 4 * 300);
    EXPECT_EQ(hooks.batch_begins, 0u);
  }
  ASSERT_EQ(on_batch.num_pes(), 4);
  for (int pe = 0; pe < 4; ++pe) {
    SCOPED_TRACE("PE " + std::to_string(pe));
    const auto rows = on_batch.papi_segments(pe);
    EXPECT_EQ(rows, on_each.papi_segments(pe));
    // Mailbox 0 and 1 PROC rows, and a MAIN row per mailbox-0 destination
    // plus the replies' rows.
    EXPECT_GE(rows.size(), 6u);
    const prof::OverallRecord b = on_batch.overall().at(
        static_cast<std::size_t>(pe));
    const prof::OverallRecord e = on_each.overall().at(
        static_cast<std::size_t>(pe));
    EXPECT_EQ(b.t_main, e.t_main);
    EXPECT_EQ(b.t_proc, e.t_proc);
    EXPECT_EQ(b.t_total, e.t_total);
  }
  EXPECT_EQ(proc_row_msgs(on_batch), 2u * 4 * 300);
}

TEST(ProfilerPath, MetricsCountHandlersAlikeOnBothPaths) {
  prof::Config c = kinds_off();
  c.metrics = true;
  prof::Profiler on_batch(c);
  ASSERT_FALSE(on_batch.wants_per_message_events());
  run_profiled(on_batch);
  const auto handlers =
      metric_by_pe(on_batch, "actorprof_actor_handlers_total");
  const auto depth = metric_by_pe(on_batch, "actorprof_actor_queue_depth");
  prof::Profiler on_each(c);
  {
    HookCounter hooks(on_each, /*per_message=*/true);
    const std::uint64_t handled = run_profiled(on_each);
    EXPECT_EQ(hooks.handler_begins, handled);
  }
  ASSERT_EQ(handlers.size(), 4u);
  std::uint64_t total = 0;
  for (const auto& [series, v] : handlers) total += std::stoull(v);
  EXPECT_EQ(total, kProfiledMsgs);
  EXPECT_EQ(handlers,
            metric_by_pe(on_each, "actorprof_actor_handlers_total"));
  ASSERT_EQ(depth.size(), 4u);
  for (const auto& [series, v] : depth) EXPECT_EQ(v, "0") << series;
  EXPECT_EQ(depth, metric_by_pe(on_each, "actorprof_actor_queue_depth"));
}

/// One PE sends itself ten messages; the handler throws on message 5, the
/// caller catches it, then MAIN does a fixed amount of work before the
/// epoch ends. Returns PE 0's overall record and superstep records.
struct ThrowRun {
  prof::OverallRecord overall;
  std::vector<prof::SuperstepRecord> steps;
  std::uint64_t handled = 0;
  int handler_calls = 0;
};

ThrowRun run_throwing_handler(prof::Profiler& profiler) {
  ThrowRun out;
  shmem::run(fiber_cfg_of(1), [&] {
    actor::Actor<std::int64_t> a;
    a.mb[0].process = [&out](std::int64_t v, int) {
      ++out.handler_calls;
      ap::papi::account_loop_iters(50);
      if (v == 5) throw std::runtime_error("handler failed");
    };
    profiler.epoch_begin();
    EXPECT_THROW(ap::hclib::finish([&] {
                   a.start();
                   for (int i = 0; i < 10; ++i) a.send(i, 0);
                   a.done(0);
                 }),
                 std::runtime_error);
    ap::papi::account_loop_iters(1000);  // MAIN work after the catch
    EXPECT_NO_THROW(profiler.epoch_end());
    out.handled = a.handled(0);
  });
  out.overall = profiler.overall().at(0);
  out.steps = profiler.supersteps(0);
  return out;
}

TEST(ProfilerPath, HandlerThrowClosesTheBatchLikeThePerMessagePath) {
  prof::Config batch = kinds_off();
  batch.overall = batch.supersteps = true;

  prof::Profiler on_batch(batch);
  ThrowRun b;
  {
    HookCounter hooks(on_batch);
    b = run_throwing_handler(on_batch);
    EXPECT_EQ(hooks.handler_begins, 0u);
    EXPECT_EQ(hooks.batch_begins, hooks.batch_closes);
    EXPECT_EQ(hooks.unbalanced, 0u);
    // The handler that threw is counted as entered.
    EXPECT_EQ(hooks.batch_msgs, 6u);
  }
  EXPECT_EQ(b.handler_calls, 6);
  EXPECT_EQ(b.handled, 5u);

  // MAIN/PROC/COMM partition: the step buckets sum to the epoch total.
  std::uint64_t main = 0, proc = 0, comm = 0, msgs = 0;
  for (const prof::SuperstepRecord& s : b.steps) {
    main += s.t_main;
    proc += s.t_proc;
    comm += s.t_comm;
    msgs += s.msgs_handled;
  }
  EXPECT_EQ(main, b.overall.t_main);
  EXPECT_EQ(proc, b.overall.t_proc);
  EXPECT_EQ(main + proc + comm, b.overall.t_total);
  EXPECT_GT(proc, 0u);
  EXPECT_EQ(msgs, 6u);

  // The per-message path charges the same cycles to the same regions, and
  // so does the batch path with construct charges deferred (no decorator).
  // A decorator, not the timeline, forces the per-message path: timeline
  // flow ids widen the wire records and with them the modelled COMM cost.
  prof::Profiler on_each(batch);
  ThrowRun e;
  {
    HookCounter hooks(on_each, /*per_message=*/true);
    e = run_throwing_handler(on_each);
    EXPECT_EQ(hooks.handler_begins, 6u);
  }
  prof::Profiler deferred(batch);
  ASSERT_FALSE(deferred.wants_per_send_charges());
  ThrowRun d = run_throwing_handler(deferred);
  for (const ThrowRun* r : {&e, &d}) {
    EXPECT_EQ(r->overall.t_main, b.overall.t_main);
    EXPECT_EQ(r->overall.t_proc, b.overall.t_proc);
    EXPECT_EQ(r->overall.t_total, b.overall.t_total);
  }
}

/// A decorator that forwards on_handler_batch but not the begin hook (as
/// perfbench's seams do) must leave the profiler consistent, and PAPI PROC
/// rows still count every handled message.
TEST(ProfilerPath, BatchCloseWithoutBeginIsHarmless) {
  struct CloseOnly final : actor::ActorObserver {
    prof::Profiler& p;
    explicit CloseOnly(prof::Profiler& inner) : p(inner) {
      actor::set_actor_observer(this);
    }
    ~CloseOnly() override { actor::set_actor_observer(&p); }
    void on_send(int mb, int d, std::size_t b, std::uint64_t f) override {
      p.on_send(mb, d, b, f);
    }
    void on_handler_begin(int, int, std::size_t, std::uint64_t) override {}
    void on_handler_end(int) override {}
    void on_comm_begin() override { p.on_comm_begin(); }
    void on_comm_end() override { p.on_comm_end(); }
    [[nodiscard]] bool wants_per_message_events() const override {
      return p.wants_per_message_events();
    }
    void on_handler_batch(int mb, std::size_t n, std::size_t b) override {
      p.on_handler_batch(mb, n, b);
    }
  };
  for (const bool papi : {false, true}) {
    SCOPED_TRACE(papi ? "overall + papi" : "overall");
    prof::Config c = kinds_off();
    c.overall = true;
    c.papi = papi;
    prof::Profiler profiler(c);
    {
      CloseOnly seam(profiler);
      EXPECT_NO_THROW(run_profiled(profiler));
    }
    for (const prof::OverallRecord& r : profiler.overall()) {
      EXPECT_EQ(r.t_proc, 0u) << "PE " << r.pe;
      EXPECT_LE(r.t_main + r.t_proc, r.t_total) << "PE " << r.pe;
      EXPECT_GT(r.t_comm(), 0u) << "PE " << r.pe;
    }
    EXPECT_EQ(proc_row_msgs(profiler), papi ? kProfiledMsgs : 0u);
  }
}

// ------------------------------------------------------------ sweeps

// gtest names each case by the bytes of its parameter (ctest lists those
// names), so the struct has no padding: the explicit zero word keeps the
// bytes, and with them the names, the same in every build.
struct ActorSweep {
  ActorSweep(int pes_, int ppn_, int sends_, std::size_t buffer_bytes_)
      : pes(pes_), ppn(ppn_), sends(sends_), buffer_bytes(buffer_bytes_) {}
  int pes, ppn, sends;
  std::int32_t zero_pad = 0;
  std::size_t buffer_bytes;
};
static_assert(std::has_unique_object_representations_v<ActorSweep>);

class SelectorSweep : public ::testing::TestWithParam<ActorSweep> {};

TEST_P(SelectorSweep, AllMessagesDeliveredExactlyOnce) {
  const auto p = GetParam();
  shmem::run(cfg_of(p.pes, p.ppn), [&p] {
    ap::convey::Options o;
    o.buffer_bytes = p.buffer_bytes;
    std::map<std::int64_t, int> seen;
    actor::Actor<std::int64_t> a{o};
    a.mb[0].process = [&seen](std::int64_t v, int) { seen[v]++; };
    const int me = shmem::my_pe();
    const int n = shmem::n_pes();
    ap::hclib::finish([&] {
      a.start();
      for (int i = 0; i < p.sends; ++i) {
        const std::int64_t tag = static_cast<std::int64_t>(me) * 1000000 + i;
        a.send(tag, (me * 3 + i * 7) % n);
      }
      a.done(0);
    });
    std::int64_t local = 0;
    for (auto& [tag, cnt] : seen) {
      EXPECT_EQ(cnt, 1) << "duplicate tag " << tag;
      local += cnt;
    }
    EXPECT_EQ(shmem::sum_reduce(local),
              static_cast<std::int64_t>(p.pes) * p.sends);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SelectorSweep,
    ::testing::Values(ActorSweep{1, 0, 100, 4096},
                      ActorSweep{2, 2, 500, 64},
                      ActorSweep{4, 4, 400, 128},
                      ActorSweep{8, 4, 300, 96},
                      ActorSweep{16, 16, 200, 1024},
                      ActorSweep{16, 8, 200, 128},
                      ActorSweep{32, 16, 100, 512},
                      ActorSweep{6, 3, 257, 48}));

}  // namespace
