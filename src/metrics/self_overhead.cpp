#include "metrics/self_overhead.hpp"

#include <stdexcept>

namespace ap::metrics {

std::string_view to_string(OverheadCategory c) {
  switch (c) {
    case OverheadCategory::actor_send: return "actor_send";
    case OverheadCategory::actor_handler: return "actor_handler";
    case OverheadCategory::comm_region: return "comm_region";
    case OverheadCategory::transfer: return "transfer";
    case OverheadCategory::rma: return "rma";
    case OverheadCategory::sampler: return "sampler";
    case OverheadCategory::superstep: return "superstep";
    case OverheadCategory::check: return "check";
    case OverheadCategory::publish: return "publish";
    case OverheadCategory::kCount: break;
  }
  return "unknown";
}

void OverheadMeter::bind(int num_pes) {
  if (num_pes <= 0)
    throw std::invalid_argument("OverheadMeter::bind: num_pes must be > 0");
  num_pes_ = num_pes;
  cells_.assign(static_cast<std::size_t>(num_pes) + 1, {});
}

std::size_t OverheadMeter::slot(int pe) const {
  if (pe == kGlobalSlot || pe >= num_pes_)
    return static_cast<std::size_t>(num_pes_);
  return static_cast<std::size_t>(pe);
}

void OverheadMeter::add(int pe, OverheadCategory c, std::uint64_t cycles) {
  if (!bound()) return;  // ticks may fire before the first world binds
  cells_[slot(pe < 0 ? kGlobalSlot : pe)][static_cast<std::size_t>(c)] +=
      cycles;
}

std::uint64_t OverheadMeter::cycles(int pe, OverheadCategory c) const {
  if (!bound()) return 0;
  return cells_[slot(pe)][static_cast<std::size_t>(c)];
}

std::uint64_t OverheadMeter::total(int pe) const {
  if (!bound()) return 0;
  std::uint64_t t = 0;
  for (std::uint64_t v : cells_[slot(pe)]) t += v;
  return t;
}

std::uint64_t OverheadMeter::grand_total() const {
  std::uint64_t t = 0;
  for (const auto& row : cells_)
    for (std::uint64_t v : row) t += v;
  return t;
}

}  // namespace ap::metrics
