// Conveyors routing topologies (paper §III-C / [4][11]).
//
// Conveyors arranges PEs in a logical grid and routes every message along a
// static multi-hop path: 1D linear (direct), 2D mesh (one hop along the
// sender's row — intra-node — then one along the destination column —
// inter-node), or 3D cube. The grid rows coincide with cluster nodes, so
// row hops travel over shared memory (local_send) and column hops over the
// network (nonblock_send), exactly the behaviour Figures 8–9 visualize.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "shmem/topology.hpp"

namespace ap::convey {

enum class RouteKind {
  Auto,      ///< Linear1D when 1 node, Mesh2D otherwise (Conveyors' default)
  Linear1D,  ///< direct source->destination
  Mesh2D,    ///< row hop (intra-node), then column hop (inter-node)
  Cube3D     ///< row hop, then two node-grid hops (requires composite node count)
};

/// Computes the next hop of the static route from `me` toward `dst`.
class Router {
 public:
  Router(const shmem::Topology& topo, RouteKind kind)
      : topo_(topo), kind_(resolve(topo, kind)) {
    if (kind_ == RouteKind::Cube3D) {
      // Factor the node count into two near-square dimensions a*b.
      const int nodes = topo_.num_nodes();
      int a = 1;
      for (int d = 1; d * d <= nodes; ++d)
        if (nodes % d == 0) a = d;
      // A prime node count leaves dim_a_ == 1: the cube degenerates to a
      // mesh in that axis.
      dim_a_ = a;
    }
  }

  [[nodiscard]] RouteKind kind() const { return kind_; }

  /// The PE the message must be handed to next (may be `dst` itself, or
  /// `me` when me == dst).
  [[nodiscard]] int next_hop(int me, int dst) const {
    switch (kind_) {
      case RouteKind::Linear1D:
        return dst;
      case RouteKind::Mesh2D: {
        if (topo_.same_node(me, dst)) return dst;  // row hop finishes it
        const int col = topo_.local_rank(dst);
        if (topo_.local_rank(me) != col) {
          // Row hop to the destination's column — unless the grid is
          // ragged (uneven last node) and that PE does not exist, in which
          // case the route degenerates to a direct hop.
          const int mid = grid_pe(topo_.node_of(me), col);
          return mid >= 0 ? mid : dst;
        }
        return dst;  // column hop
      }
      case RouteKind::Cube3D: {
        if (topo_.same_node(me, dst)) return dst;
        const int col = topo_.local_rank(dst);
        if (topo_.local_rank(me) != col) {
          const int mid = grid_pe(topo_.node_of(me), col);  // axis 0 (row)
          return mid >= 0 ? mid : dst;
        }
        const int my_node = topo_.node_of(me);
        const int dst_node = topo_.node_of(dst);
        const int my_a = my_node % dim_a_;
        const int dst_a = dst_node % dim_a_;
        if (my_a != dst_a) {
          // axis 1: move within the node-grid row.
          const int mid_node = (my_node / dim_a_) * dim_a_ + dst_a;
          const int mid = grid_pe(mid_node, col);
          return mid >= 0 ? mid : dst;
        }
        return dst;  // axis 2: final node-grid hop
      }
      case RouteKind::Auto:
        break;
    }
    throw std::logic_error("Router: unresolved route kind");
  }

  /// Dense next-hop table for one endpoint: table[d] == next_hop(me, d).
  /// Computed once at conveyor construction so the per-item hot path does
  /// one array load instead of the division-heavy topology math above.
  [[nodiscard]] std::vector<std::int32_t> table_for(int me) const {
    std::vector<std::int32_t> t(static_cast<std::size_t>(topo_.num_pes()));
    for (int d = 0; d < topo_.num_pes(); ++d)
      t[static_cast<std::size_t>(d)] = next_hop(me, d);
    return t;
  }

  static RouteKind resolve(const shmem::Topology& topo, RouteKind kind) {
    if (kind != RouteKind::Auto) return kind;
    return topo.num_nodes() <= 1 ? RouteKind::Linear1D : RouteKind::Mesh2D;
  }

 private:
  /// PE at (node, local_rank), or -1 when the grid is ragged there.
  [[nodiscard]] int grid_pe(int node, int local_rank) const {
    const int pe = node * topo_.pes_per_node() + local_rank;
    return pe < topo_.num_pes() ? pe : -1;
  }

  shmem::Topology topo_;
  RouteKind kind_;
  int dim_a_ = 1;
};

}  // namespace ap::convey
