// Trace record types — the rows of the four files ActorProf emits
// (paper §III-A/B/C implementation notes).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "conveyor/observer.hpp"
#include "papi/papi.hpp"

namespace ap::prof {

/// One application-level send before aggregation (a line of PEi_send.csv):
///   source node, source PE, destination node, destination PE, message size
struct LogicalSendRecord {
  int src_node = 0;
  int src_pe = 0;
  int dst_node = 0;
  int dst_pe = 0;
  std::uint32_t msg_bytes = 0;

  friend bool operator==(const LogicalSendRecord&,
                         const LogicalSendRecord&) = default;
};

/// One PE's logical trace as loaded from PEi_send: consecutive identical
/// rows share one run, so memory grows with runs, not sends. A run keeps
/// the whole row, because a file's rows need not follow any topology.
/// size() is the record count; records() expands the runs (for tests and
/// benches: the report path reads runs()).
class LogicalSendLog {
 public:
  using value_type = LogicalSendRecord;

  /// `count` copies of `row` in 24 bytes; a longer stretch splits.
  struct Run {
    LogicalSendRecord row;
    std::uint32_t count = 0;

    friend bool operator==(const Run&, const Run&) = default;
  };
  static constexpr std::uint32_t kMaxRun =
      std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] std::size_t size() const { return records_; }
  [[nodiscard]] bool empty() const { return records_ == 0; }
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }
  [[nodiscard]] std::vector<LogicalSendRecord> records() const {
    std::vector<LogicalSendRecord> out;
    out.reserve(records_);
    for (const Run& r : runs_) out.insert(out.end(), r.count, r.row);
    return out;
  }
  /// Calls fn(row, count) per run, the form the trace writers read.
  template <class Fn>
  void for_each_run(Fn&& fn) const {
    for (const Run& r : runs_) fn(r.row, std::uint64_t{r.count});
  }

  /// Append `count` copies of `row`, extending the last run when it holds
  /// the same row.
  void append(const LogicalSendRecord& row, std::uint64_t count = 1) {
    records_ += count;
    while (count > 0) {
      if (runs_.empty() || runs_.back().row != row ||
          runs_.back().count == kMaxRun)
        runs_.push_back(Run{row, 0});
      const auto k = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(count, kMaxRun - runs_.back().count));
      runs_.back().count += k;
      count -= k;
    }
  }
  void push_back(const LogicalSendRecord& row) { append(row); }
  /// Append every record of `more`: its first run joins this log's last
  /// one when they hold the same row.
  void append(const LogicalSendLog& more) {
    more.for_each_run([&](const LogicalSendRecord& row, std::uint64_t n) {
      append(row, n);
    });
  }
  void clear() {
    runs_.clear();
    records_ = 0;
  }

  /// Runs merge whenever they can, so equal logs hold equal records.
  friend bool operator==(const LogicalSendLog&,
                         const LogicalSendLog&) = default;

 private:
  std::vector<Run> runs_;
  std::uint64_t records_ = 0;
};
static_assert(sizeof(LogicalSendLog::Run) == 24);

/// One PAPI segment row (a line of PEi_PAPI.csv):
///   source node, source PE, dst node, dst PE, pkt size, MAILBOXID,
///   NUM_SENDS, <counter values...>
/// MAIN rows aggregate the sends of one mailbox toward one destination;
/// PROC rows (dst == src) aggregate that mailbox's handler executions.
struct PapiSegmentRecord {
  int src_node = 0;
  int src_pe = 0;
  int dst_node = 0;
  int dst_pe = 0;
  std::uint32_t pkt_bytes = 0;
  int mailbox_id = 0;
  std::uint64_t num_sends = 0;
  /// Values of the configured events (papi::kMaxEventsPerSet at most),
  /// in configuration order; unused slots are zero.
  std::array<std::uint64_t, papi::kMaxEventsPerSet> counters{};
  /// True for a PROC (handler) row, false for a MAIN (send) row.
  bool is_proc = false;

  friend bool operator==(const PapiSegmentRecord&,
                         const PapiSegmentRecord&) = default;
};

/// One network-level transfer (a line of physical.txt):
///   send type, buffer (network-packet) size, source PE, destination PE
struct PhysicalRecord {
  convey::SendType type = convey::SendType::local_send;
  std::uint64_t buffer_bytes = 0;
  int src_pe = 0;
  int dst_pe = 0;

  friend bool operator==(const PhysicalRecord&,
                         const PhysicalRecord&) = default;
};

/// Per-PE, per-superstep breakdown (a line of PEi_steps.csv).
///
/// A superstep is a barrier-to-barrier interval inside an epoch: it opens
/// at epoch_begin() or at the previous collective arrival and closes when
/// the PE arrives at the next collective (barrier_all / sync_all / reduce)
/// or at epoch_end(). `barrier_arrive` is the PE's own virtual
/// cycle stamp at arrival; `barrier_release` is the max arrival stamp over
/// all PEs that reached the same (epoch, step) — a lower bound on the
/// release under the per-PE busy clock (the analysis layer reconstructs
/// true BSP wait times; see docs/ANALYSIS.md). Steps closed by epoch_end()
/// have barrier_arrive == barrier_release == the epoch-end stamp.
struct SuperstepRecord {
  int pe = 0;
  /// 0-based index of the epoch this step belongs to (epoch_begin count).
  std::uint32_t epoch = 0;
  /// 0-based index of the step within its epoch.
  std::uint32_t step = 0;
  std::uint64_t t_main = 0;
  std::uint64_t t_proc = 0;
  std::uint64_t t_comm = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_handled = 0;
  std::uint64_t barrier_arrive = 0;
  std::uint64_t barrier_release = 0;

  /// Busy cycles of the step (what the PE actually computed/communicated).
  [[nodiscard]] std::uint64_t work() const { return t_main + t_proc + t_comm; }
  /// Recorded (stamp-based) wait: release minus own arrival.
  [[nodiscard]] std::uint64_t barrier_wait() const {
    return barrier_release > barrier_arrive
               ? barrier_release - barrier_arrive
               : 0;
  }

  friend bool operator==(const SuperstepRecord&,
                         const SuperstepRecord&) = default;
};

/// Per-PE overall breakdown (two lines of overall.txt: Absolute, Relative).
/// T_COMM is derived: T_TOTAL - T_MAIN - T_PROC (paper §III-B).
struct OverallRecord {
  int pe = 0;
  std::uint64_t t_main = 0;
  std::uint64_t t_proc = 0;
  std::uint64_t t_total = 0;

  [[nodiscard]] std::uint64_t t_comm() const {
    const std::uint64_t used = t_main + t_proc;
    return t_total > used ? t_total - used : 0;
  }
  [[nodiscard]] double rel_main() const {
    return t_total == 0 ? 0.0 : static_cast<double>(t_main) / static_cast<double>(t_total);
  }
  [[nodiscard]] double rel_proc() const {
    return t_total == 0 ? 0.0 : static_cast<double>(t_proc) / static_cast<double>(t_total);
  }
  [[nodiscard]] double rel_comm() const {
    return t_total == 0 ? 0.0 : static_cast<double>(t_comm()) / static_cast<double>(t_total);
  }

  friend bool operator==(const OverallRecord&, const OverallRecord&) = default;
};

}  // namespace ap::prof
