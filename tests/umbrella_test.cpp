// The umbrella header must pull in the whole public API cleanly.
#include "actorprof.hpp"

#include <gtest/gtest.h>

#include <atomic>

TEST(Umbrella, EverythingIsVisible) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = 2;
  std::atomic<std::int64_t> got{0};
  ap::shmem::run(cfg, [&got] {
    ap::actor::Actor<std::int64_t> a;
    a.mb[0].process = [&got](std::int64_t v, int) { got.fetch_add(v); };
    ap::hclib::finish([&] {
      a.start();
      a.send(21, 1 - ap::shmem::my_pe());
      a.done(0);
    });
  });
  EXPECT_EQ(got.load(), 42);
  // A few type names from every module, proving the includes resolve.
  ap::prof::CommMatrix m(2);
  ap::prof::AdvisorOptions ao;
  ap::viz::HeatmapOptions ho;
  ap::graph::RmatParams rp;
  ap::convey::Options co;
  ap::papi::CostModel pm;
  (void)ao; (void)ho; (void)rp; (void)co; (void)pm; (void)m;
}
