// PE <-> node topology of the simulated cluster.
//
// PEs are numbered 0..n-1 and packed onto nodes in rank order, exactly as
// `srun --ntasks-per-node` lays out OpenSHMEM PEs on Perlmutter in the
// paper's experiments: node k owns PEs [k*ppn, (k+1)*ppn).
#pragma once

#include <stdexcept>

namespace ap::shmem {

/// Immutable PE/node layout for one launch.
class Topology {
 public:
  Topology() = default;
  Topology(int num_pes, int pes_per_node)
      : num_pes_(num_pes),
        pes_per_node_(pes_per_node > 0 ? pes_per_node : num_pes) {
    if (num_pes_ <= 0) throw std::invalid_argument("Topology: num_pes <= 0");
    if (pes_per_node_ <= 0)
      throw std::invalid_argument("Topology: pes_per_node <= 0");
  }

  [[nodiscard]] int num_pes() const { return num_pes_; }
  [[nodiscard]] int pes_per_node() const { return pes_per_node_; }
  [[nodiscard]] int num_nodes() const {
    return (num_pes_ + pes_per_node_ - 1) / pes_per_node_;
  }

  [[nodiscard]] int node_of(int pe) const {
    check_pe(pe);
    return pe / pes_per_node_;
  }
  /// Rank of `pe` within its node (the "column" of the 2D-mesh routing grid).
  [[nodiscard]] int local_rank(int pe) const {
    check_pe(pe);
    return pe % pes_per_node_;
  }
  [[nodiscard]] bool same_node(int a, int b) const {
    return node_of(a) == node_of(b);
  }

 private:
  void check_pe(int pe) const {
    if (pe < 0 || pe >= num_pes_)
      throw std::out_of_range("Topology: PE id out of range");
  }

  int num_pes_ = 1;
  int pes_per_node_ = 1;
};

}  // namespace ap::shmem
