// The ActorProf profiler (paper §III, Figure 2).
//
// One Profiler instance observes a whole SPMD launch. It implements the
// three instrumentation seams of the stack —
//   * actor::ActorObserver    : logical sends, MAIN/PROC/COMM regions,
//                               per-segment PAPI deltas,
//   * convey::TransferObserver: physical transfers + buffer occupancy,
//   * shmem::RmaObserver      : put/put_nbi/quiet counts (live metrics)
// — and accumulates, per PE:
//   1. the logical trace (§III-A)            -> PEi_send.csv
//   2. PAPI segment records (§III-A)         -> PEi_PAPI.csv
//   3. the overall rdtsc breakdown (§III-B)  -> overall.txt
//   4. the physical trace (§III-C)           -> physical.txt
//   5. live metrics (Config::metrics)        -> metrics.prom / metrics.json
//
// With Config::metrics the profiler additionally installs a scheduler tick
// hook: every round-robin sweep it checks the fleet's virtual clock and,
// once per metrics_interval_virtual_ms, snapshots the registry into a
// bounded ring and runs the online straggler/backpressure detector. Its
// own callback cost is metered per category (self-overhead accounting).
//
// Usage (SPMD):
//   ap::prof::Profiler prof(cfg);        // installs observers
//   ap::shmem::run(launch_cfg, [&] {
//     ... build inputs ...
//     prof.epoch_begin();                // start of the profiled kernel
//     ap::hclib::finish([&] { ... actor program ... });
//     prof.epoch_end();
//     ap::shmem::barrier_all();
//     if (ap::shmem::my_pe() == 0) prof.write_traces();
//   });
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "actor/observer.hpp"
#include "check/checker.hpp"
#include "conveyor/observer.hpp"
#include "core/aggregate.hpp"
#include "core/chrome_trace.hpp"
#include "core/config.hpp"
#include "core/records.hpp"
#include "metrics/registry.hpp"
#include "metrics/sampler.hpp"
#include "metrics/self_overhead.hpp"
#include "runtime/scheduler.hpp"
#include "shmem/profiling_interface.hpp"
#include "shmem/topology.hpp"

namespace ap::serve {
class Publisher;
}

namespace ap::prof {

/// A run of consecutive kept logical sends from one PE with the same
/// destination and message size: `count` rows of PEi_send in 16 bytes.
struct LogicalSendRun {
  int dst_pe = 0;
  std::uint32_t msg_bytes = 0;
  std::uint64_t count = 0;
};

/// Read-only view of one PE's logical trace (Profiler::logical_events).
/// The profiler keeps the trace as runs; size() is the record count,
/// for_each_run() yields each run's full row (what the trace writers
/// read), and records() expands the runs into the rows PEi_send.* holds.
/// The view refers to the profiler's storage, so it is valid until the
/// profiler is cleared or destroyed; take a new one after more sends.
class LogicalSendView {
 public:
  using value_type = LogicalSendRecord;

  LogicalSendView(const std::vector<LogicalSendRun>& runs,
                  std::uint64_t records, int src_pe,
                  const shmem::Topology& topo)
      : runs_(runs), records_(records), src_pe_(src_pe), topo_(topo) {}

  [[nodiscard]] std::size_t size() const { return records_; }
  [[nodiscard]] const std::vector<LogicalSendRun>& runs() const {
    return runs_;
  }
  /// Calls fn(row, count) per run.
  template <class Fn>
  void for_each_run(Fn&& fn) const {
    const int src_node = topo_.node_of(src_pe_);
    for (const LogicalSendRun& r : runs_)
      fn(LogicalSendRecord{src_node, src_pe_, topo_.node_of(r.dst_pe),
                           r.dst_pe, r.msg_bytes},
         r.count);
  }
  [[nodiscard]] std::vector<LogicalSendRecord> records() const {
    std::vector<LogicalSendRecord> out;
    out.reserve(records_);
    for_each_run([&](const LogicalSendRecord& row, std::uint64_t count) {
      out.insert(out.end(), count, row);
    });
    return out;
  }

 private:
  const std::vector<LogicalSendRun>& runs_;
  std::uint64_t records_;
  int src_pe_;
  shmem::Topology topo_;
};

class Profiler final : public actor::ActorObserver,
                       public convey::TransferObserver,
                       public shmem::RmaObserver {
 public:
  explicit Profiler(Config cfg = Config::from_env());
  ~Profiler() override;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Mark the start/end of the profiled kernel on the calling PE. Only
  /// work inside the epoch is traced (the paper profiles the triangle-
  /// counting kernel and excludes graph reading and validation).
  void epoch_begin();
  void epoch_end();

  // ---- ActorObserver ------------------------------------------------------
  void on_send(int mb, int dst_pe, std::size_t bytes,
               std::uint64_t flow_id) override;
  void on_handler_begin(int mb, int src_pe, std::size_t bytes,
                        std::uint64_t flow_id) override;
  void on_handler_end(int mb) override;
  void on_comm_begin() override;
  void on_comm_end() override;
  /// Only the timeline stamps individual handlers. Every other kind reads
  /// per-region totals and counts, and PAPI PROC rows are keyed by mailbox,
  /// which one PROC region per drained batch reproduces exactly, so those
  /// configs take the selector's cheaper batch-drain path.
  [[nodiscard]] bool wants_per_message_events() const override {
    return cfg_.timeline;
  }
  /// MAIN rows take the cycles up to the next send from MAIN, and the
  /// timeline stamps each send, so both need a send's charge at the send.
  [[nodiscard]] bool wants_per_send_charges() const override {
    return cfg_.papi || cfg_.timeline;
  }
  void on_handler_batch_begin(int mb) override;
  void on_handler_batch(int mb, std::size_t count,
                        std::size_t bytes_per_msg) override;
  /// Flow ids are only worth their wire bytes when the Chrome timeline
  /// that renders them is being recorded.
  [[nodiscard]] bool wants_flow_ids() const override { return cfg_.timeline; }
  void on_actor_misuse(const char* what) override;

  // ---- TransferObserver ---------------------------------------------------
  void on_transfer(convey::SendType type, std::size_t buffer_bytes,
                   int src_pe, int dst_pe,
                   std::uint64_t first_flow_id) override;
  void on_advance(std::size_t out_pending_bytes,
                  std::size_t recv_pending_bytes) override;
  void on_conveyor_misuse(const char* what) override;

  // ---- RmaObserver (live metrics for the shmem layer) ---------------------
  void on_put(int target_pe, std::size_t bytes) override;
  void on_put_nbi(int target_pe, std::size_t bytes) override;
  void on_get(int target_pe, std::size_t bytes) override;
  void on_quiet(std::size_t outstanding_puts) override;
  void on_barrier() override;
  void on_atomic(int target_pe) override;
  /// Superstep boundary (Config::supersteps): close the current step and
  /// stamp the PE's arrival at the collective.
  void on_collective_arrive() override;

  // ---- conformance events (Config::check, docs/CHECKING.md) ---------------
  /// One override gates the identically-named hook on both RmaObserver and
  /// TransferObserver: the shmem and conveyor layers only emit per-access
  /// conformance events when the checker is on.
  [[nodiscard]] bool wants_conformance_events() const override {
    return cfg_.check;
  }
  void on_put_range(int target_pe, std::size_t offset, std::size_t bytes,
                    const shmem::Callsite& cs) override;
  void on_get_range(int target_pe, std::size_t offset, std::size_t bytes,
                    const shmem::Callsite& cs) override;
  void on_put_nbi_range(int target_pe, std::size_t offset, std::size_t bytes,
                        const shmem::Callsite& cs) override;
  void on_quiet_begin(std::size_t outstanding) override;
  void on_nbi_applied(std::size_t index) override;
  void on_quiet_suspend(std::size_t applied, std::size_t remaining) override;
  void on_atomic_range(int target_pe, std::size_t offset,
                       const shmem::Callsite& cs) override;
  void on_wait_satisfied(std::size_t offset, std::size_t bytes) override;
  void on_local_store(int target_pe, std::size_t offset, std::size_t bytes,
                      const shmem::Callsite& cs) override;
  void on_local_read(std::size_t offset, std::size_t bytes,
                     const shmem::Callsite& cs) override;
  void on_acquire_read(std::size_t offset, std::size_t bytes) override;
  void on_pe_dead(int pe) override;

  // ---- results ------------------------------------------------------------
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] int num_pes() const;

  /// Messages sent src->dst before aggregation (Fig. 3/4 heatmap data).
  /// The dense accessors materialize P^2 cells — for large fleets use the
  /// *_sparse forms and bucket before densifying (SparseCommMatrix::
  /// bucketed).
  [[nodiscard]] CommMatrix logical_matrix() const;
  [[nodiscard]] SparseCommMatrix logical_sparse() const;
  /// Buffers transferred src->dst (Fig. 8/9), optionally by type.
  [[nodiscard]] CommMatrix physical_matrix() const;
  [[nodiscard]] CommMatrix physical_matrix(convey::SendType type) const;
  [[nodiscard]] SparseCommMatrix physical_sparse() const;
  [[nodiscard]] SparseCommMatrix physical_sparse(convey::SendType type) const;
  /// Per-PE MAIN/PROC/COMM cycle breakdown (Fig. 12/13).
  [[nodiscard]] std::vector<OverallRecord> overall() const;
  /// Per-PE total of one configured PAPI event over the MAIN and PROC
  /// segments (Fig. 10/11 bar-graph data).
  [[nodiscard]] std::vector<std::uint64_t> papi_totals(papi::Event e) const;

  /// The kept logical sends of `pe` (Config::keep_logical_events, after
  /// sample_every and max_events_per_pe), as a view over its runs.
  [[nodiscard]] LogicalSendView logical_events(int pe) const;
  [[nodiscard]] const std::vector<PhysicalRecord>& physical_events(
      int pe) const;
  [[nodiscard]] std::vector<PapiSegmentRecord> papi_segments(int pe) const;
  /// Per-PE superstep records (empty unless Config::supersteps). The
  /// returned copies carry barrier_release = max arrival stamp over every
  /// PE that reached the same (epoch, step); raw in-memory records only
  /// hold the PE's own arrival.
  [[nodiscard]] std::vector<SuperstepRecord> supersteps(int pe) const;
  /// Per-PE timeline (empty unless Config::timeline).
  [[nodiscard]] const std::vector<TimelineEvent>& timeline(int pe) const;
  /// Topology captured at the first epoch (node ids for exports).
  [[nodiscard]] const shmem::Topology& topo() const { return topo_; }

  // ---- live metrics (Config::metrics) -------------------------------------
  /// Ring of periodic fleet snapshots taken by the scheduler tick hook.
  [[nodiscard]] const metrics::SampleRing& metric_samples() const {
    return ring_;
  }
  /// Stragglers/backpressure the online detector flagged so far.
  [[nodiscard]] const metrics::AnomalyLog& anomalies() const {
    return anomalies_;
  }
  /// Measured cost of the profiler's own instrumentation (wall rdtsc).
  [[nodiscard]] const metrics::OverheadMeter& self_overhead() const {
    return meter_;
  }
  /// BSP conformance violations detected so far (empty unless
  /// Config::check). Surfaced through the advisor, check.csv, and the
  /// `actorprof check` CLI.
  [[nodiscard]] const std::vector<check::Violation>& bsp_violations() const {
    return checker_.violations();
  }
  /// Violations suppressed after the checker's report cap was reached.
  [[nodiscard]] std::uint64_t bsp_violations_dropped() const {
    return checker_.dropped();
  }
  /// Scalar-series index of the queue-depth / bytes-in-flight gauges in
  /// metric_samples() rows (-1 when metrics are disabled). Used by the
  /// Chrome exporter's counter tracks.
  [[nodiscard]] int queue_depth_series() const;
  [[nodiscard]] int bytes_in_flight_series() const;

  /// Prometheus text exposition 0.0.4 of every metric (plus self-overhead
  /// series) — what a scrape endpoint would serve.
  void write_metrics_prometheus(std::ostream& os) const;
  /// JSON exposition: metrics + sample-ring summary + anomalies +
  /// self-overhead, one self-describing object.
  void write_metrics_json(std::ostream& os) const;
  /// Write metrics.prom and metrics.json into cfg.trace_dir.
  void write_metrics() const;

  /// Write every enabled trace file into cfg.trace_dir (single process
  /// holds all PEs' data, so any PE — or post-run code — may call this).
  void write_traces() const;

  /// The live-stream publisher (Config::publish), or nullptr when live
  /// streaming is off. write_all() pushes final file bodies through it so
  /// a pushed run converges to the on-disk bytes.
  [[nodiscard]] serve::Publisher* publisher() const { return publisher_.get(); }

 private:
  enum class Region { Main, Proc, Comm };

  struct MainRowKey {
    int mb;
    int dst;
    auto operator<=>(const MainRowKey&) const = default;
  };
  struct RowAgg {
    std::uint64_t num = 0;
    std::uint32_t pkt_bytes = 0;
    std::array<std::uint64_t, papi::kMaxEventsPerSet> counters{};
  };

  /// Per-destination send counters for one PE, one slot per channel
  /// (logical sends plus the three physical transfer kinds). Hybrid
  /// storage: up to kDensePes destinations a dense index-by-destination
  /// array (one array bump on the per-send hot path); above it a hash of
  /// touched destinations, so a P-PE fleet costs O(P * touched) total
  /// instead of the O(P^2) four dense rows per PE used to pin
  /// (docs/PERFORMANCE.md, "Memory at scale").
  class CommRows {
   public:
    static constexpr int kDensePes = 256;

    struct Counts {
      std::uint64_t logical = 0, local = 0, nbi = 0, prog = 0;
    };

    void reset(int n) {
      n_ = n;
      map_.clear();
      if (n <= kDensePes)
        dense_.assign(static_cast<std::size_t>(n), Counts{});
      else
        dense_.clear();
    }
    [[nodiscard]] bool sized_for(int n) const { return n_ == n; }

    [[nodiscard]] Counts& at(int dst) {
      if (!dense_.empty()) return dense_[static_cast<std::size_t>(dst)];
      return map_[dst];
    }

    /// Visit every touched destination as f(dst, counts).
    template <class F>
    void for_each(F&& f) const {
      for (std::size_t d = 0; d < dense_.size(); ++d)
        f(static_cast<int>(d), dense_[d]);
      for (const auto& [d, c] : map_) f(d, c);
    }

   private:
    int n_ = -1;
    std::vector<Counts> dense_;
    std::unordered_map<int, Counts> map_;
  };

  struct PeData {
    bool in_epoch = false;
    std::vector<Region> region_stack;
    std::uint64_t last_cycles = 0;
    /// The configured PAPI events at the last fold, by Config slot.
    std::array<std::uint64_t, papi::kMaxEventsPerSet> last_papi{};
    std::uint64_t t_main = 0, t_proc = 0, t_comm = 0, t0 = 0, t_total = 0;

    // PAPI segment attribution. The fold charges MAIN deltas to the row of
    // the latest send from MAIN and PROC deltas to the running batch's
    // row; map nodes never move, so the cached pointers stay valid.
    std::map<MainRowKey, RowAgg> main_rows;
    std::map<int, RowAgg> proc_rows;  // mailbox -> handler aggregate
    RowAgg* main_row = nullptr;
    RowAgg* handler_row = nullptr;
    MainRowKey last_send{-1, -1};  // one-entry cache in front of main_rows
    RowAgg* last_send_row = nullptr;

    // The kept logical sends as runs; logical_kept counts their records.
    std::vector<LogicalSendRun> logical_runs;
    std::uint64_t logical_kept = 0;
    CommRows rows;                   // per-dst counts, all four channels
    std::uint64_t logical_seen = 0;  // for sampling
    std::vector<PhysicalRecord> physical_events;
    std::uint64_t physical_seen = 0;
    std::vector<TimelineEvent> events;  // timeline (Config::timeline)

    // Superstep recording (Config::supersteps). The ss_* members snapshot
    // the cumulative buckets at the current step's open, so a step's cost
    // is the delta when it closes.
    std::uint32_t epochs_begun = 0;
    std::uint32_t cur_epoch = 0, cur_step = 0;
    std::uint64_t ss_main = 0, ss_proc = 0, ss_comm = 0;
    std::uint64_t msgs_sent_total = 0, bytes_sent_total = 0,
                  msgs_handled_total = 0;
    std::uint64_t ss_msgs = 0, ss_bytes = 0, ss_handled = 0;
    std::vector<SuperstepRecord> steps;
  };

  /// Registered metric handles (valid iff cfg_.metrics).
  struct MetricIds {
    metrics::CounterId actor_sends, actor_send_bytes, actor_handlers;
    metrics::CounterId conveyor_advances, conveyor_transfers,
        conveyor_transfer_bytes;
    metrics::CounterId shmem_puts, shmem_put_bytes, shmem_nbi_puts,
        shmem_nbi_put_bytes, shmem_gets, shmem_quiets, shmem_barriers,
        shmem_atomics;
    metrics::GaugeId queue_depth, out_pending_bytes, recv_pending_bytes,
        bytes_in_flight, comm_share_milli;
    metrics::HistogramId msg_bytes, transfer_bytes;
    /// Scalar-series indices (counters-then-gauges layout) of the gauges
    /// the Chrome exporter renders as counter tracks.
    int s_queue_depth = -1, s_bytes_in_flight = -1;
  };

  PeData& pe_data() { return pe_data_of(rt::my_pe()); }
  /// `me` = rt::my_pe(), already resolved. Inline: every callback that
  /// touches a PE's data starts here.
  PeData& pe_data_of(int me) {
    if (me < 0) [[unlikely]] no_pe_context();
    ensure_world();
    return pes_[static_cast<std::size_t>(me)];
  }
  [[noreturn]] static void no_pe_context();
  void record_send(int mb, int dst_pe, std::size_t bytes,
                   std::uint64_t flow_id);
  const PeData& pe_data(int pe) const;
  /// Emit the current superstep of `pe` (deltas since its open) with the
  /// given arrival stamp, then open the next step.
  void close_superstep(PeData& d, int pe, std::uint64_t arrive);
  /// Fold cycle + PAPI deltas since the last boundary into the buckets of
  /// the current region, then re-stamp.
  void fold(PeData& d);
  /// The world setup (bind_world) runs once, on the profiler's first
  /// callback; after it this is one acquire load, a plain load on x86.
  void ensure_world() {
    if (!topo_known_.load(std::memory_order_acquire)) [[unlikely]]
      bind_world();
  }
  void bind_world();
  void register_metrics();
  /// Scheduler tick hook body: sample + detect when the interval elapsed.
  void tick();

  Config cfg_;
  /// Derived from cfg_ once: whether any consumer reads sends.
  bool sends_read_ = false;
  shmem::Topology topo_;
  /// Guards the one-time world setup in bind_world(): under the threads
  /// backend every PE's first observer callback races to initialize. The
  /// flag is the double-checked fast path (acquire pairs with the release
  /// store after setup completes); the mutex serializes the slow path.
  std::atomic<bool> topo_known_{false};
  std::mutex world_mu_;
  std::vector<PeData> pes_;
  actor::ActorObserver* prev_actor_obs_ = nullptr;
  convey::TransferObserver* prev_transfer_obs_ = nullptr;
  shmem::RmaObserver* prev_rma_obs_ = nullptr;
  bool rma_installed_ = false;
  rt::TickHook prev_tick_;
  bool tick_installed_ = false;

  metrics::Registry registry_;
  MetricIds ids_{};
  metrics::SampleRing ring_;
  metrics::AnomalyLog anomalies_;
  metrics::OverheadMeter meter_;
  check::Checker checker_;
  /// The conformance checker keeps whole-fleet state (vector clocks,
  /// shadow heap); under the threads backend its intake hooks arrive from
  /// every worker concurrently, so each one takes this mutex.
  std::mutex checker_mu_;
  std::uint64_t last_sample_cycles_ = 0;
  bool have_sampled_ = false;
  /// Epoch-boundary checkpointing (Config::crash_safe): epoch_end() calls
  /// since the last mid-run write_all() flush. Atomic: PEs close epochs
  /// concurrently under the threads backend.
  std::atomic<int> epoch_ends_since_flush_{0};
  std::vector<std::int64_t> sample_scratch_;
  std::vector<double> detect_scratch_;
  /// Live-stream publisher (Config::publish). Owned here so superstep
  /// closes and metric ticks can stage push frames without the serve
  /// daemon being linked in.
  std::unique_ptr<serve::Publisher> publisher_;
  /// Anomalies already staged as push frames by tick() (tick runs on one
  /// thread, so no atomics needed).
  std::size_t published_anomalies_ = 0;
};

}  // namespace ap::prof
