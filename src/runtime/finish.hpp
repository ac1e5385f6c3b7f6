// Mini-HClib: the `finish` scope of the Habanero C/C++ library that
// HClib-Actor relies on.
//
// HClib-Actor uses finish only to delimit the communication epoch: each PE
// is single-threaded (paper §II-A), and the work inside a scope is its
// registered "pumps" (long-running workers such as a Selector's
// conveyor-progress loop). finish(body) runs `body`, then blocks until
// every pump registered inside the scope reports completion. While
// waiting, the PE yields so other PEs can progress — this is where the
// FA-BSP interleaving of MAIN / PROC / COMM happens.
#pragma once

#include <functional>
#include <vector>

namespace ap::hclib {

/// A dynamically-scoped finish region on the current PE.
class FinishScope {
 public:
  FinishScope();
  ~FinishScope();

  FinishScope(const FinishScope&) = delete;
  FinishScope& operator=(const FinishScope&) = delete;

  /// Register a cooperative worker. `pump` is called repeatedly during the
  /// scope's quiescence loop; it must return true once the worker is done
  /// (e.g. the Selector's conveyors have fully terminated).
  void register_pump(std::function<bool()> pump);

  /// Run the pumps until every one is done. Yields to other PEs between
  /// rounds.
  void await();

  /// Innermost finish scope on the PE currently executing, or nullptr.
  static FinishScope* current();

 private:
  bool step();  // one round; returns true if fully quiescent

  int pe_;
  std::vector<std::function<bool()>> pumps_;
};

/// HClib-style structured parallelism: run `body`, then wait until every
/// worker registered within it is done.
void finish(const std::function<void()>& body);

}  // namespace ap::hclib
