#include "actor/observer.hpp"

#include <atomic>

namespace ap::actor {

// Plain global (was thread_local): observers are installed on the
// launching thread before a launch creates worker threads, so thread
// creation orders the pointer for every worker under the threads backend.
ActorObserver* detail::g_observer = nullptr;

namespace {
// Atomic: flow ids are minted from every worker's send path concurrently.
std::atomic<std::uint64_t> g_next_flow{0};
}  // namespace

void set_actor_observer(ActorObserver* obs) { detail::g_observer = obs; }

std::uint64_t next_flow_id() {
  return g_next_flow.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace ap::actor
