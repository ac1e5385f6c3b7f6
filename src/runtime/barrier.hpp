// Generation-counting (sense-reversing) combining-tree barrier for the
// threads backend.
//
// The barrier splits arrival from completion so it composes with the
// cooperative scheduler: arrive() registers this PE and returns a ticket,
// passed(ticket) is the predicate the PE hands to rt::wait_until. Under the
// fiber backend the predicate flips within the same thread; under the
// threads backend the last arriver's release store publishes the new
// generation to every polling worker (acquire loads). The generation
// counter is the generalized form of a sense-reversing flag: waiters of
// round g poll for gen >= g+1, so reuse across rounds can never confuse a
// late waiter from the previous round.
//
// Arrivals fan into a fan_in-ary combining tree so large fleets don't
// serialize on one cache line; a fleet of at most fan_in PEs is one node,
// which is the flat counter.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace ap::rt {

/// Combining-tree barrier: PEs arrive at a leaf; the last arriver of each
/// node climbs to its parent; the final climber at the root publishes the
/// new generation. Intermediate resets are ordered for the next round by
/// the acq_rel arrival RMWs along the climb plus the root's release store.
class TreeBarrier {
 public:
  explicit TreeBarrier(int participants, int fan_in = 4)
      : fan_in_(fan_in < 2 ? 2 : fan_in) {
    // Level 0 holds the leaves; build parents until one root remains.
    int level_begin = 0;
    int level_count = (participants + fan_in_ - 1) / fan_in_;
    append_level(level_count, participants);
    while (level_count > 1) {
      const int parent_count = (level_count + fan_in_ - 1) / fan_in_;
      const int parent_begin = static_cast<int>(nodes_.size());
      append_level(parent_count, level_count);
      for (int i = 0; i < level_count; ++i)
        nodes_[static_cast<std::size_t>(level_begin + i)]->parent =
            parent_begin + i / fan_in_;
      level_begin = parent_begin;
      level_count = parent_count;
    }
  }

  /// Register `pe`'s arrival; returns the generation to wait for. The
  /// caller must not arrive again before passed(ticket) holds.
  std::uint64_t arrive(int pe) {
    // Our own arrival is part of this round, so the round cannot complete
    // (and gen_ cannot advance past ticket-1) before our arrival below.
    const std::uint64_t ticket = gen_.load(std::memory_order_acquire) + 1;
    int n = pe / fan_in_;  // this PE's leaf
    while (true) {
      Node& node = *nodes_[static_cast<std::size_t>(n)];
      if (node.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 !=
          node.expected)
        break;  // not last here; someone else carries the round upward
      node.arrived.store(0, std::memory_order_relaxed);
      if (node.parent < 0) {
        gen_.store(ticket, std::memory_order_release);
        break;
      }
      n = node.parent;
    }
    return ticket;
  }

  [[nodiscard]] bool passed(std::uint64_t ticket) const {
    return gen_.load(std::memory_order_acquire) >= ticket;
  }

  /// Permanently remove `pe` (a fault-injected kill; fiber-backend-only,
  /// so never concurrent with arrive()). Walk the PE's leaf-to-root path:
  /// shrink each node's expected count, prune subtrees that become empty,
  /// and — if the dead PE was the only arrival a node was still waiting
  /// for — complete the node exactly as its last arriver would have,
  /// climbing and ultimately publishing the generation at the root. A
  /// kill can therefore never strand the survivors of an open round.
  void deactivate(int pe) {
    int n = pe / fan_in_;
    bool removing = true;  // first shrink expected; then climb as arrival
    while (n >= 0) {
      Node& node = *nodes_[static_cast<std::size_t>(n)];
      if (removing) {
        --node.expected;
        if (node.expected == 0) {
          // Subtree has no live PEs left: prune it from the parent too.
          // (Its arrived count is necessarily 0 — a sole live child that
          // had arrived would already have completed and reset the node.)
          n = node.parent;
          continue;
        }
        if (node.arrived.load(std::memory_order_relaxed) < node.expected)
          return;  // round still open here; a live arriver will finish it
      } else if (node.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 !=
                 node.expected) {
        return;
      }
      // Node completed: behave like its last arriver.
      node.arrived.store(0, std::memory_order_relaxed);
      if (node.parent < 0) {
        gen_.store(gen_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
        return;
      }
      n = node.parent;
      removing = false;
    }
  }

 private:
  struct Node {
    std::atomic<int> arrived{0};
    int expected = 0;
    int parent = -1;
  };

  void append_level(int count, int child_total) {
    for (int i = 0; i < count; ++i) {
      auto node = std::make_unique<Node>();
      // The last node of a level may have fewer children.
      node->expected = std::min(fan_in_, child_total - i * fan_in_);
      nodes_.push_back(std::move(node));
    }
  }

  int fan_in_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::atomic<std::uint64_t> gen_{0};
};

}  // namespace ap::rt
