// Microbenchmarks of the Conveyors reimplementation: aggregation
// throughput across buffer sizes and topologies, plus the self-send
// memcpy count the paper's §IV-D note discusses (real Conveyors can incur
// up to six copies for one self-send; ours are observable via stats).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "bench_json.hpp"
#include "conveyor/conveyor.hpp"
#include "core/alloc_probe.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/shmem.hpp"

ACTORPROF_ALLOC_PROBE_DEFINE()

namespace {

using namespace ap;

/// The canonical conveyor loop: push round-robin, consume through drain().
void drive(convey::Conveyor& c, std::size_t msgs, int n_pes) {
  std::size_t i = 0;
  bool done = false;
  const int me = shmem::my_pe();
  std::int64_t sink = 0;
  while (c.advance(done)) {
    for (; i < msgs; ++i) {
      const std::int64_t v = static_cast<std::int64_t>(i);
      if (!c.push(&v, static_cast<int>((me + i) % static_cast<std::size_t>(n_pes))))
        break;
    }
    c.drain([&sink](const convey::Delivered& d) {
      std::int64_t v;
      std::memcpy(&v, d.payload, sizeof v);
      sink += v;
    });
    done = (i == msgs);
    rt::yield();
  }
  benchmark::DoNotOptimize(sink);
}

void BM_ConveyorThroughput(benchmark::State& state) {
  const int pes = static_cast<int>(state.range(0));
  const int ppn = static_cast<int>(state.range(1));
  const auto buffer = static_cast<std::size_t>(state.range(2));
  const std::size_t msgs = 20000;
  for (auto _ : state) {
    rt::LaunchConfig lc;
    lc.num_pes = pes;
    lc.pes_per_node = ppn;
    shmem::run(lc, [&] {
      convey::Options o;
      o.buffer_bytes = buffer;
      auto c = convey::Conveyor::create(o);
      drive(*c, msgs, pes);
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msgs) * pes);
  state.SetLabel(std::to_string(pes) + "pes/" + std::to_string(ppn) +
                 "ppn/" + std::to_string(buffer) + "B");
}

BENCHMARK(BM_ConveyorThroughput)
    ->Args({8, 8, 256})
    ->Args({8, 8, 1024})
    ->Args({8, 8, 8192})
    ->Args({8, 4, 256})
    ->Args({8, 4, 1024})
    ->Args({8, 4, 8192})
    ->Args({16, 16, 1024})
    ->Args({16, 8, 1024})
    ->Unit(benchmark::kMillisecond);

/// Self-send cost: the per-item copy count through the full stack.
void BM_ConveyorSelfSendCopies(benchmark::State& state) {
  double copies_per_item = 0;
  for (auto _ : state) {
    rt::LaunchConfig lc;
    lc.num_pes = 1;
    shmem::run(lc, [&] {
      convey::Options o;
      o.buffer_bytes = 1024;
      auto c = convey::Conveyor::create(o);
      const std::size_t msgs = 10000;
      std::size_t i = 0;
      bool done = false;
      while (c->advance(done)) {
        for (; i < msgs; ++i) {
          const std::int64_t v = static_cast<std::int64_t>(i);
          if (!c->push(&v, 0)) break;
        }
        c->drain([](const convey::Delivered& d) {
          benchmark::DoNotOptimize(d.payload);
        });
        done = (i == msgs);
      }
      copies_per_item = static_cast<double>(c->stats().memcpys) /
                        static_cast<double>(msgs);
    });
  }
  // Amortized: one push copy per item plus one flush and one delivery copy
  // per buffer; drain() copies nothing.
  state.counters["memcpys_per_self_send"] = copies_per_item;
  // Paper note: Conveyors can incur up to 6 memcpys per self-send because
  // no bypass is possible without risking out-of-order delivery.
}
BENCHMARK(BM_ConveyorSelfSendCopies)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------- --json mode

/// One timed session at the comparable configuration (8 PEs / 8 per node /
/// 1024-byte buffers — the BENCH_conveyor.json reference point). The loop
/// is drive()'s with the PE count a constant, as the committed baseline
/// was measured: a run-time modulus would add a division per item.
bench_json::Metrics measure(std::size_t msgs) {
  constexpr int kPes = 8;
  rt::LaunchConfig lc;
  lc.num_pes = kPes;
  lc.pes_per_node = kPes;
  convey::reset_lifetime_totals();
  const std::uint64_t allocs0 = prof::AllocProbe::count();
  const bench_json::Timer t;
  shmem::run(lc, [&] {
    convey::Options o;
    o.buffer_bytes = 1024;
    auto c = convey::Conveyor::create(o);
    std::size_t i = 0;
    bool done = false;
    const int me = shmem::my_pe();
    std::int64_t sink = 0;
    while (c->advance(done)) {
      for (; i < msgs; ++i) {
        const std::int64_t v = static_cast<std::int64_t>(i);
        if (!c->push(&v, static_cast<int>((me + i) % kPes))) break;
      }
      c->drain([&](const convey::Delivered& d) {
        std::int64_t v;
        std::memcpy(&v, d.payload, sizeof v);
        sink += v;
      });
      done = (i == msgs);
      rt::yield();
    }
    benchmark::DoNotOptimize(sink);
  });
  const double secs = t.seconds();
  const std::uint64_t allocs = prof::AllocProbe::count() - allocs0;
  const convey::ConveyorStats s = convey::lifetime_totals();
  const auto items = static_cast<double>(s.pushed);
  bench_json::Metrics m;
  m.items_per_sec = items / secs;
  m.bytes_per_sec =
      static_cast<double>(s.local_send_bytes + s.nonblock_send_bytes) / secs;
  m.memcpys_per_item = static_cast<double>(s.memcpys) / items;
  m.allocs_per_item = static_cast<double>(allocs) / items;
  return m;
}

/// Best of three timed sessions — one slow outlier (scheduler preemption,
/// cold frequency) must not end up recorded as the machine's capability.
bench_json::Metrics best_of_3(std::size_t msgs) {
  bench_json::Metrics best = measure(msgs);
  for (int r = 1; r < 3; ++r) {
    const bench_json::Metrics m = measure(msgs);
    if (m.items_per_sec > best.items_per_sec) best = m;
  }
  return best;
}

int run_json(const char* path, std::size_t msgs) {
  measure(msgs);  // warmup (first-touch, page faults, code paths)
  std::vector<bench_json::Section> sections;
  sections.push_back({"drain", best_of_3(msgs)});
  char config[160];
  std::snprintf(config, sizeof config,
                "{\"pes\": 8, \"ppn\": 8, \"buffer_bytes\": 1024, "
                "\"item_bytes\": 8, \"msgs_per_pe\": %zu}",
                msgs);
  return bench_json::write(path, "micro_conveyor", config, sections) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* path = bench_json::json_path(argc, argv))
    return run_json(path, bench_json::arg_msgs(argc, argv, 20000));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
