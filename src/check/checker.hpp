// BSP conformance checker (docs/CHECKING.md).
//
// Models each barrier-to-barrier superstep as a vector-clock epoch over the
// symmetric heap and flags violations of the FA-BSP memory model on the
// fly: remote-write/local-read conflicts on the same heap range within one
// superstep, reads of nbi-put targets before the owning quiet(), staged
// puts still outstanding when a PE enters a non-quiescing collective, and
// conveyor/actor API misuse. The approach follows TASKPROF's insight
// (PAPERS.md) that an on-the-fly happens-before checker can ride the
// profiler's existing instrumentation seams: every event below arrives via
// the RmaObserver/TransferObserver/ActorObserver hooks the profiler already
// owns — the checker adds no instrumentation of its own.
//
// The checker is deliberately standalone (stdlib only, no runtime/shmem
// includes): the profiler feeds it plain PE indices, heap offsets, and
// callsite strings, which keeps it unit-testable without a world and keeps
// trace replay (check.csv) independent of the live runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace ap::check {

/// One detected BSP-model violation. All fields are deterministic
/// functions of the program + fault-injection seed (logical ticks, no wall
/// time), so reports — including their JSON rendering — are byte-stable
/// across runs.
struct Violation {
  enum class Kind {
    /// A PE read a heap range another PE wrote in the same superstep with
    /// no intervening synchronization (quiet-publish, wait_until, barrier).
    WriteReadRace,
    /// A heap range with a staged (un-quiesced) nbi put targeting it was
    /// read before the initiating PE called quiet().
    ReadBeforeQuiet,
    /// A PE entered a collective (barrier_all / sync_all / reduction) with
    /// staged nbi puts still outstanding — the next superstep starts with
    /// this PE's writes invisible.
    UnquiescedAtBarrier,
    /// quiet() applied staged puts out of staging order (fault injection).
    NbiReordered,
    /// quiet() applied the same staged put more than once (fault injection).
    NbiDuplicated,
    /// quiet() suspended mid-application, exposing partially-applied state
    /// to other fibers (fault injection).
    QuietInterrupted,
    /// Conveyor or actor API protocol misuse (nested drain_begin, push
    /// after done, send after done, ...).
    ApiMisuse,
  };

  Kind kind = Kind::WriteReadRace;
  int pe = -1;        ///< PE the violation is attributed to (the reader /
                      ///< the PE entering the collective / the misuser)
  int other_pe = -1;  ///< peer involved (the writer / put initiator), or -1
  std::uint32_t superstep = 0;  ///< superstep index of `pe` when flagged
  std::uint64_t offset = 0;     ///< symmetric-heap offset of the range
  std::uint64_t bytes = 0;      ///< length of the range (0 when N/A)
  std::string callsite;         ///< "file:line" of the reading/misusing
                                ///< call, empty when unknown
  std::string detail;           ///< human-readable specifics (comma-free)
};

[[nodiscard]] const char* to_string(Violation::Kind k);

/// Render violations as an aligned human-readable report (one line each,
/// plus a trailing summary). Used by `actorprof check` and test failures.
void write_text(std::ostream& os, const std::vector<Violation>& v,
                std::uint64_t dropped);
/// Render violations as deterministic JSON: {"violations":[...],
/// "dropped":N,"count":N}. Byte-identical for identical inputs.
void write_json(std::ostream& os, const std::vector<Violation>& v,
                std::uint64_t dropped);

/// The happens-before engine. One instance checks one world (bind() per
/// topology); all methods are called from PE fiber context by the profiler,
/// which serializes them (the runtime is single-threaded by design).
class Checker {
 public:
  /// (Re)initialize for a world of `num_pes`. Clears all prior state
  /// except recorded violations (a harness may run several worlds and read
  /// the union at the end; a fresh Checker starts empty).
  void bind(int num_pes);
  [[nodiscard]] bool bound() const { return num_pes_ > 0; }

  // --- event intake (mirrors the RmaObserver conformance hooks) ---
  void on_store(int writer, int target, std::uint64_t off, std::uint64_t n,
                const char* file, unsigned line);
  void on_nbi_staged(int initiator, int target, std::uint64_t off,
                     std::uint64_t n, const char* file, unsigned line);
  void on_quiet_begin(int pe, std::size_t outstanding);
  void on_nbi_applied(int pe, std::size_t index);
  void on_quiet_suspend(int pe, std::size_t applied, std::size_t remaining);
  void on_quiet_end(int pe);
  void on_plain_read(int reader, int target, std::uint64_t off,
                     std::uint64_t n, const char* file, unsigned line);
  void on_acquire_read(int reader, std::uint64_t off, std::uint64_t n);
  void on_atomic(int pe, int target, std::uint64_t off, const char* file,
                 unsigned line);
  void on_collective_arrive(int pe);
  void on_pe_dead(int pe);
  void on_misuse(int pe, const char* what);

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  /// Violations suppressed once the report cap was hit.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint32_t superstep_of(int pe) const;

  /// Report cap: at most this many violations are stored; the rest only
  /// bump dropped(). Keeps a hopelessly racy run from ballooning memory.
  static constexpr std::size_t kMaxViolations = 4096;

 private:
  /// One recorded write interval [start, end) on some PE's heap.
  struct WriteRec {
    std::uint64_t end = 0;
    int writer = -1;
    std::uint64_t tick = 0;  ///< writer's VC component when it wrote
    const char* file = nullptr;
    unsigned line = 0;
  };
  /// One staged (un-quiesced) nbi put.
  struct Staged {
    int dst = -1;
    std::uint64_t off = 0;
    std::uint64_t bytes = 0;
    const char* file = nullptr;
    unsigned line = 0;
  };
  /// Per-PE quiet() application-order tracker.
  struct QuietStream {
    bool active = false;
    std::size_t expected = 0;
    long max_index = -1;
    std::vector<char> seen;
  };

  void record(Violation v);
  void insert_write(int target, std::uint64_t off, std::uint64_t n,
                    int writer, const char* file, unsigned line);
  void complete_round();
  [[nodiscard]] static std::string format_callsite(const char* file,
                                                   unsigned line);

  int num_pes_ = 0;
  int live_ = 0;
  int arrived_ = 0;
  std::vector<char> alive_;
  std::vector<std::vector<std::uint64_t>> vc_;  // vc_[pe][component]
  std::vector<std::map<std::uint64_t, WriteRec>> writes_;  // per target PE
  std::vector<std::vector<Staged>> staged_;                // per initiator
  std::vector<QuietStream> quiet_;
  std::vector<std::uint32_t> step_;
  std::vector<Violation> violations_;
  std::uint64_t dropped_ = 0;
};

}  // namespace ap::check
