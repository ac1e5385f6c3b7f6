#include "papi/cycles.hpp"

namespace ap::papi {

CycleSource detail::g_cycle_source = CycleSource::virtual_;

void set_cycle_source(CycleSource s) { detail::g_cycle_source = s; }

std::uint64_t cycles_now() {
  if (cycle_source() == CycleSource::rdtsc) return rdtsc_now();
  return counter_value(Event::TOT_CYC);
}

}  // namespace ap::papi
