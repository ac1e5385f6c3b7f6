// Cycle counting for the Overall profile (paper §III-B).
//
// The paper deliberately uses the raw x86 `rdtsc` instruction (not rdtscp,
// which would flush the pipeline) to timestamp MAIN/PROC/COMM transitions.
// We do the same on x86-64 and fall back to steady_clock elsewhere. A
// *virtual* mode derives "cycles" from the sim-PAPI cost model instead,
// giving bit-deterministic overall profiles for tests and reproducible
// figures (the paper's analyses only use cycle ratios, which both modes
// preserve).
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

#include "papi/papi.hpp"

namespace ap::papi {

enum class CycleSource {
  rdtsc,    ///< hardware timestamp counter (paper's choice)
  virtual_  ///< deterministic: sim-PAPI PAPI_TOT_CYC of the current PE
};

namespace detail {
// Plain global (not thread_local): the threads backend's workers must see
// the source chosen on the launching thread. Always set before a launch
// creates workers, so thread creation orders the write.
extern CycleSource g_cycle_source;
}  // namespace detail

/// Read on every clock fold, hence inline.
inline CycleSource cycle_source() { return detail::g_cycle_source; }
void set_cycle_source(CycleSource s);

/// Current cycle stamp of the calling PE under the active source.
inline std::uint64_t rdtsc_now() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

std::uint64_t cycles_now();

/// cycles_now() for a caller that already holds the PE's counters.
inline std::uint64_t cycles_now(const Counters& raw) {
  return cycle_source() == CycleSource::rdtsc
             ? rdtsc_now()
             : raw[static_cast<std::size_t>(Event::TOT_CYC)];
}

}  // namespace ap::papi
