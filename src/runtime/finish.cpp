#include "runtime/finish.hpp"

#include <stdexcept>
#include <utility>

#include "runtime/scheduler.hpp"

namespace ap::hclib {

namespace {
// Per-PE stack of active finish scopes. Pushes and pops are symmetric, so
// entries are always empty between launches; thread_local isolates threads.
thread_local std::vector<std::vector<FinishScope*>> g_scopes;

std::vector<FinishScope*>& scopes_for_current_pe() {
  const int pe = rt::my_pe();
  if (pe < 0)
    throw std::logic_error("hclib: finish used outside an SPMD launch");
  if (g_scopes.size() <= static_cast<std::size_t>(pe))
    g_scopes.resize(static_cast<std::size_t>(pe) + 1);
  return g_scopes[static_cast<std::size_t>(pe)];
}
}  // namespace

FinishScope::FinishScope() : pe_(rt::my_pe()) {
  scopes_for_current_pe().push_back(this);
}

FinishScope::~FinishScope() {
  auto& stack = g_scopes[static_cast<std::size_t>(pe_)];
  stack.pop_back();
}

FinishScope* FinishScope::current() {
  auto& stack = scopes_for_current_pe();
  return stack.empty() ? nullptr : stack.back();
}

void FinishScope::register_pump(std::function<bool()> pump) {
  pumps_.push_back(std::move(pump));
}

bool FinishScope::step() {
  bool quiescent = true;
  for (std::size_t i = 0; i < pumps_.size();) {
    if (pumps_[i]()) {
      pumps_.erase(pumps_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      quiescent = false;
      ++i;
    }
  }
  return quiescent;
}

void FinishScope::await() {
  while (!step()) rt::yield();
}

void finish(const std::function<void()>& body) {
  FinishScope scope;
  body();
  scope.await();
}

}  // namespace ap::hclib
