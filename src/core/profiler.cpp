#include "core/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "core/trace_binary.hpp"
#include "core/trace_io.hpp"
#include "papi/cycles.hpp"
#include "runtime/backend.hpp"
#include "runtime/scheduler.hpp"
#include "serve/publisher.hpp"
#include "shmem/shmem.hpp"

namespace ap::prof {

namespace {
using metrics::OverheadCategory;

/// Detector floors: a PE is only flagged when it diverges by at least this
/// much in absolute terms, so near-idle fleets do not spam findings.
constexpr double kMinBacklogAbs = 8.0;    // messages
constexpr double kMinCommShareAbs = 100.0;  // milli-units = 10 points

// A handful of PeData fields are written by the owning PE's worker and
// read by the sampler tick on worker 0 (threads backend): in_epoch,
// last_cycles, and the t_main/t_proc/t_comm buckets. These helpers make
// both sides atomic without widening the fields; the fields stay
// single-writer, so relaxed load+store pairs (two plain moves on x86)
// suffice — byte-identical behaviour under the fiber backend.
void store_u64(std::uint64_t& cell, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(cell).store(v, std::memory_order_relaxed);
}

void add_u64(std::uint64_t& cell, std::uint64_t delta) {
  std::atomic_ref<std::uint64_t> c(cell);
  c.store(c.load(std::memory_order_relaxed) + delta,
          std::memory_order_relaxed);
}

std::uint64_t load_u64(const std::uint64_t& cell) {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(cell))
      .load(std::memory_order_relaxed);
}

void store_flag(bool& cell, bool v) {
  std::atomic_ref<bool>(cell).store(v, std::memory_order_relaxed);
}

bool load_flag(const bool& cell) {
  return std::atomic_ref<bool>(const_cast<bool&>(cell))
      .load(std::memory_order_relaxed);
}
}  // namespace

Profiler::Profiler(Config cfg) : cfg_(std::move(cfg)) {
  sends_read_ = cfg_.papi || cfg_.timeline || cfg_.metrics || cfg_.logical ||
                cfg_.supersteps;
  prev_actor_obs_ = actor::actor_observer();
  prev_transfer_obs_ = convey::transfer_observer();
  actor::set_actor_observer(this);
  convey::set_transfer_observer(this);
  if (cfg_.metrics) register_metrics();
  // The shmem seam feeds the live metrics, the superstep boundary stamps,
  // and the conformance checker, so any of those flags installs the
  // RmaObserver.
  if (cfg_.metrics || cfg_.supersteps || cfg_.check) {
    prev_rma_obs_ = shmem::rma_observer();
    shmem::set_rma_observer(this);
    rma_installed_ = true;
  }
  if (cfg_.metrics) {
    prev_tick_ = rt::set_tick_hook([this] { tick(); });
    tick_installed_ = true;
  }
  if (!cfg_.publish.empty()) {
    serve::Publisher::Options po;
    if (!serve::Publisher::parse_endpoint(cfg_.publish, po.host, po.port))
      throw std::invalid_argument("Config::publish=\"" + cfg_.publish +
                                  "\": expected host:port");
    if (!cfg_.publish_run.empty()) {
      // Reject here, not with a 400 on every POST the collector answers.
      if (!serve::valid_run_id(cfg_.publish_run))
        throw std::invalid_argument("Config::publish_run=\"" +
                                    cfg_.publish_run +
                                    "\": expected [A-Za-z0-9._-]{1,64}");
      po.run = cfg_.publish_run;
    }
    publisher_ = std::make_unique<serve::Publisher>(std::move(po));
  }
}

Profiler::~Profiler() {
  actor::set_actor_observer(prev_actor_obs_);
  convey::set_transfer_observer(prev_transfer_obs_);
  if (rma_installed_) shmem::set_rma_observer(prev_rma_obs_);
  if (tick_installed_) rt::set_tick_hook(std::move(prev_tick_));
}

void Profiler::register_metrics() {
  // Registered once here, bound in ensure_world(); every hot-path update
  // after that is an array write (see metrics/registry.hpp).
  ids_.actor_sends = registry_.add_counter(
      "actorprof_actor_sends_total", "Logical sends before aggregation");
  ids_.actor_send_bytes = registry_.add_counter(
      "actorprof_actor_send_bytes_total", "Payload bytes of logical sends");
  ids_.actor_handlers = registry_.add_counter(
      "actorprof_actor_handlers_total", "Messages handled (PROC entries)");
  ids_.conveyor_advances = registry_.add_counter(
      "actorprof_conveyor_advances_total", "Conveyor advance() calls");
  ids_.conveyor_transfers = registry_.add_counter(
      "actorprof_conveyor_transfers_total",
      "Physical buffer transfers (local_send + nonblock_send)");
  ids_.conveyor_transfer_bytes = registry_.add_counter(
      "actorprof_conveyor_transfer_bytes_total",
      "Bytes moved by physical buffer transfers");
  ids_.shmem_puts = registry_.add_counter("actorprof_shmem_puts_total",
                                          "Blocking shmem_put calls");
  ids_.shmem_put_bytes = registry_.add_counter(
      "actorprof_shmem_put_bytes_total", "Bytes moved by blocking puts");
  ids_.shmem_nbi_puts = registry_.add_counter(
      "actorprof_shmem_nbi_puts_total", "Non-blocking shmem_putmem_nbi calls");
  ids_.shmem_nbi_put_bytes = registry_.add_counter(
      "actorprof_shmem_nbi_put_bytes_total",
      "Bytes staged by non-blocking puts");
  ids_.shmem_gets = registry_.add_counter("actorprof_shmem_gets_total",
                                          "shmem_get calls");
  ids_.shmem_quiets = registry_.add_counter("actorprof_shmem_quiets_total",
                                            "shmem_quiet calls");
  ids_.shmem_barriers = registry_.add_counter(
      "actorprof_shmem_barriers_total", "shmem_barrier_all calls");
  ids_.shmem_atomics = registry_.add_counter("actorprof_shmem_atomics_total",
                                             "shmem atomic operations");
  ids_.queue_depth = registry_.add_gauge(
      "actorprof_actor_queue_depth",
      "Messages sent to this PE and not yet handled (PROC backlog)");
  ids_.out_pending_bytes = registry_.add_gauge(
      "actorprof_conveyor_out_pending_bytes",
      "Bytes waiting in this PE's outgoing aggregation buffers");
  ids_.recv_pending_bytes = registry_.add_gauge(
      "actorprof_conveyor_recv_pending_bytes",
      "Bytes delivered to this PE and not yet pulled");
  ids_.bytes_in_flight = registry_.add_gauge(
      "actorprof_shmem_put_bytes_in_flight",
      "Bytes staged by putmem_nbi and not yet completed by quiet");
  ids_.comm_share_milli = registry_.add_gauge(
      "actorprof_comm_share_milli",
      "COMM share of this PE's cycles so far, in 1/1000 units");
  ids_.msg_bytes = registry_.add_histogram("actorprof_actor_msg_bytes",
                                           "Logical message payload sizes");
  ids_.transfer_bytes = registry_.add_histogram(
      "actorprof_conveyor_transfer_bytes",
      "Physical transfer buffer sizes");
  // Scalar rows are laid out counters-first, then gauges.
  const int num_counters =
      static_cast<int>(registry_.num_scalars()) - 5 /* gauges above */;
  ids_.s_queue_depth = num_counters + ids_.queue_depth.i;
  ids_.s_bytes_in_flight = num_counters + ids_.bytes_in_flight.i;
}

void Profiler::bind_world() {
  std::lock_guard<std::mutex> lk(world_mu_);
  if (topo_known_.load(std::memory_order_relaxed)) return;
  topo_ = shmem::topology();
  pes_.clear();
  pes_.resize(static_cast<std::size_t>(topo_.num_pes()));
  const int n = topo_.num_pes();
  // The meter backs both the metrics exposition and the checker's own
  // `check` overhead category.
  if (cfg_.metrics || cfg_.check) meter_.bind(n);
  if (cfg_.check) checker_.bind(n);
  if (cfg_.metrics) {
    registry_.bind(n);
    ring_.bind(n, registry_.num_scalars(), cfg_.metrics_ring_capacity);
    sample_scratch_.assign(
        static_cast<std::size_t>(n) * registry_.num_scalars(), 0);
    detect_scratch_.assign(static_cast<std::size_t>(n), 0.0);
    have_sampled_ = false;
    last_sample_cycles_ = 0;
  }
  // A live collector needs the PE count before any shard frame makes
  // sense; the minimal manifest is enough for parse_manifest() and is
  // replaced by the full one at write_all() time.
  if (publisher_)
    publisher_->publish_file(io::kManifestFile,
                             "num_pes " + std::to_string(n) + "\n",
                             /*append=*/false);
  // Release: every bind above is visible to any thread that observes the
  // flag true on the fast path (and to the tick hook's gate).
  topo_known_.store(true, std::memory_order_release);
}

void Profiler::no_pe_context() {
  throw std::logic_error("Profiler: PE context required (inside shmem::run)");
}

const Profiler::PeData& Profiler::pe_data(int pe) const {
  if (pe < 0 || static_cast<std::size_t>(pe) >= pes_.size())
    throw std::out_of_range("Profiler: PE index out of range");
  return pes_[static_cast<std::size_t>(pe)];
}

int Profiler::num_pes() const { return static_cast<int>(pes_.size()); }

// ------------------------------------------------------------------ epochs

void Profiler::epoch_begin() {
  PeData& d = pe_data();
  if (d.in_epoch)
    throw std::logic_error("Profiler::epoch_begin: epoch already active");
  // Repeated epochs accumulate (e.g. one epoch per BFS level or solver
  // iteration); a fresh Profiler starts a fresh experiment.
  store_flag(d.in_epoch, true);
  d.region_stack.assign(1, Region::Main);
  const std::uint64_t now = papi::cycles_now();
  d.t0 = now;
  store_u64(d.last_cycles, now);
  if (cfg_.supersteps) {
    d.cur_epoch = d.epochs_begun++;
    d.cur_step = 0;
    d.ss_main = d.t_main;
    d.ss_proc = d.t_proc;
    d.ss_comm = d.t_comm;
    d.ss_msgs = d.msgs_sent_total;
    d.ss_bytes = d.bytes_sent_total;
    d.ss_handled = d.msgs_handled_total;
  }
  if (cfg_.timeline)
    d.events.push_back(
        TimelineEvent{TimelineEvent::Kind::BeginMain, d.t0, 0, 0});
  if (cfg_.papi) {
    const papi::Counters& raw = papi::counters();
    for (int i = 0; i < cfg_.num_papi_events(); ++i)
      d.last_papi[static_cast<std::size_t>(i)] = raw[static_cast<std::size_t>(
          cfg_.papi_events[static_cast<std::size_t>(i)])];
  }
  if (!d.rows.sized_for(topo_.num_pes())) d.rows.reset(topo_.num_pes());
}

void Profiler::epoch_end() {
  PeData& d = pe_data();
  if (!d.in_epoch)
    throw std::logic_error("Profiler::epoch_end: no epoch active");
  fold(d);
  // Close the epoch's tail superstep (the work after the last in-epoch
  // collective, or the whole epoch when there was none). epoch_end is not
  // a barrier, so arrive == release == the epoch-end stamp.
  if (cfg_.supersteps) {
    const int pe = rt::my_pe();
    metrics::OverheadMeter::Scope cost(cfg_.metrics ? &meter_ : nullptr,
                                       OverheadCategory::superstep, pe);
    close_superstep(d, pe, d.last_cycles);
  }
  d.t_total += d.last_cycles - d.t0;
  if (cfg_.timeline)
    d.events.push_back(
        TimelineEvent{TimelineEvent::Kind::EndMain, d.last_cycles, 0, 0});
  store_flag(d.in_epoch, false);

  // Crash-safe checkpoint: once every live PE has closed an epoch since
  // the last flush, persist what we have. A PE killed in a later epoch
  // then leaves a loadable prefix on disk (write_all is atomic-rename, so
  // a kill mid-checkpoint can only lose the file being replaced, never
  // corrupt it). Fiber backend only: a mid-run flush reads every PE's
  // buffers, which other workers are still appending to under the threads
  // backend — there the data is persisted by the post-run write_traces().
  if (cfg_.crash_safe && rt::current_backend() == rt::Backend::fiber) {
    const int live =
        rt::in_spmd_region() ? shmem::live_pes() : num_pes();
    if (epoch_ends_since_flush_.fetch_add(1, std::memory_order_relaxed) + 1 >=
            live &&
        live > 0) {
      epoch_ends_since_flush_.store(0, std::memory_order_relaxed);
      io::write_all(*this, cfg_);
    }
  }
}

// --------------------------------------------------------------- the fold

void Profiler::fold(PeData& d) {
  // One counter lookup serves the clock and every recorded PAPI event.
  const papi::Counters& raw = papi::counters();
  const std::uint64_t now = papi::cycles_now(raw);
  const std::uint64_t dt = now - d.last_cycles;
  store_u64(d.last_cycles, now);

  const Region r = d.region_stack.back();
  // The metrics sampler and the superstep deltas derive from the same
  // buckets, so keep them warm whenever any consumer is on.
  if (cfg_.overall || cfg_.metrics || cfg_.supersteps) {
    switch (r) {
      case Region::Main: add_u64(d.t_main, dt); break;
      case Region::Proc: add_u64(d.t_proc, dt); break;
      case Region::Comm: add_u64(d.t_comm, dt); break;
    }
  }
  if (!cfg_.papi) return;

  // COMM deltas are intentionally discarded: the paper instruments only
  // user code and "excludes the Conveyors and HClib-Actor system".
  RowAgg* row = r == Region::Main   ? d.main_row
                : r == Region::Proc ? d.handler_row
                                    : nullptr;
  const int events = cfg_.num_papi_events();
  for (int i = 0; i < events; ++i) {
    const auto slot = static_cast<std::size_t>(i);
    const std::uint64_t v =
        raw[static_cast<std::size_t>(cfg_.papi_events[slot])];
    if (row != nullptr) row->counters[slot] += v - d.last_papi[slot];
    d.last_papi[slot] = v;
  }
}

// ----------------------------------------------------------- ActorObserver

// The test stays apart from record_send() so a config that reads no send
// pays one compare per send, not record_send()'s register saves.
void Profiler::on_send(int mb, int dst_pe, std::size_t bytes,
                       std::uint64_t flow_id) {
  if (sends_read_) record_send(mb, dst_pe, bytes, flow_id);
}

void Profiler::record_send(int mb, int dst_pe, std::size_t bytes,
                           std::uint64_t flow_id) {
  const int me = rt::my_pe();
  if (me < 0) return;
  metrics::OverheadMeter::Scope cost(cfg_.metrics ? &meter_ : nullptr,
                                     OverheadCategory::actor_send, me);
  PeData& d = pe_data_of(me);
  if (!d.in_epoch) return;
  RowAgg* row = nullptr;
  if (cfg_.papi) {
    const MainRowKey key{mb, dst_pe};
    if (key != d.last_send) {
      d.last_send = key;
      d.last_send_row = &d.main_rows[key];
    }
    row = d.last_send_row;
  }
  // A send never changes the region, and it changes the PAPI row only when
  // a send from MAIN moves main_row (a send from inside a handler is
  // counted, but its cost stays in PROC). Any other fold would charge
  // exactly what the next fold charges to the same bucket and row, so only
  // the timeline's stamps and the metrics sampler's buckets need it always.
  const bool moves_main_row = row != nullptr && row != d.main_row &&
                              d.region_stack.back() == Region::Main;
  if (cfg_.timeline || cfg_.metrics || moves_main_row) fold(d);
  if (row != nullptr) {
    row->num++;
    row->pkt_bytes = static_cast<std::uint32_t>(bytes);
    if (moves_main_row) d.main_row = row;
  }

  if (cfg_.supersteps) {
    ++d.msgs_sent_total;
    d.bytes_sent_total += bytes;
  }
  if (cfg_.metrics) {
    registry_.add(me, ids_.actor_sends);
    registry_.add(me, ids_.actor_send_bytes, bytes);
    registry_.observe(me, ids_.msg_bytes, bytes);
    // The destination's backlog grows until its handler runs.
    registry_.add(dst_pe, ids_.queue_depth, 1);
  }
  if (cfg_.logical) {
    d.rows.at(dst_pe).logical++;
    const bool sampled =
        cfg_.sample_every <= 1 || d.logical_seen % cfg_.sample_every == 0;
    ++d.logical_seen;
    if (cfg_.keep_logical_events && sampled &&
        (cfg_.max_events_per_pe == 0 ||
         d.logical_kept < cfg_.max_events_per_pe)) {
      ++d.logical_kept;
      const auto msg_bytes = static_cast<std::uint32_t>(bytes);
      if (!d.logical_runs.empty() && d.logical_runs.back().dst_pe == dst_pe &&
          d.logical_runs.back().msg_bytes == msg_bytes)
        ++d.logical_runs.back().count;
      else
        d.logical_runs.push_back(LogicalSendRun{dst_pe, msg_bytes, 1});
    }
  }
  if (cfg_.timeline &&
      (cfg_.max_events_per_pe == 0 ||
       d.events.size() < cfg_.max_events_per_pe)) {
    d.events.push_back(TimelineEvent{TimelineEvent::Kind::Send,
                                     d.last_cycles, dst_pe,
                                     static_cast<std::int32_t>(bytes),
                                     flow_id});
  }
}

void Profiler::on_handler_begin(int mb, int src_pe, std::size_t bytes,
                                std::uint64_t flow_id) {
  (void)src_pe;
  if (!rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(cfg_.metrics ? &meter_ : nullptr,
                                     OverheadCategory::actor_handler,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  fold(d);
  d.region_stack.push_back(Region::Proc);
  if (cfg_.supersteps) ++d.msgs_handled_total;
  if (cfg_.metrics) {
    const int me = rt::my_pe();
    registry_.add(me, ids_.actor_handlers);
    registry_.add(me, ids_.queue_depth, -1);
  }
  if (cfg_.papi) {
    RowAgg& row = d.proc_rows[mb];
    row.num++;
    row.pkt_bytes = static_cast<std::uint32_t>(bytes);
    d.handler_row = &row;
  }
  if (cfg_.timeline &&
      (cfg_.max_events_per_pe == 0 ||
       d.events.size() < cfg_.max_events_per_pe))
    d.events.push_back(TimelineEvent{TimelineEvent::Kind::BeginProc,
                                     d.last_cycles, mb, 0, flow_id});
}

void Profiler::on_handler_end(int mb) {
  (void)mb;
  if (!rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(cfg_.metrics ? &meter_ : nullptr,
                                     OverheadCategory::actor_handler,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  fold(d);
  if (d.region_stack.size() > 1 && d.region_stack.back() == Region::Proc)
    d.region_stack.pop_back();
  d.handler_row = nullptr;
  if (cfg_.timeline &&
      (cfg_.max_events_per_pe == 0 ||
       d.events.size() < cfg_.max_events_per_pe))
    d.events.push_back(
        TimelineEvent{TimelineEvent::Kind::EndProc, d.last_cycles, mb, 0});
}

void Profiler::on_handler_batch_begin(int mb) {
  if (!rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(cfg_.metrics ? &meter_ : nullptr,
                                     OverheadCategory::actor_handler,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  fold(d);
  d.region_stack.push_back(Region::Proc);
  if (cfg_.papi) d.handler_row = &d.proc_rows[mb];
}

// Also reached without a preceding on_handler_batch_begin (a decorator that
// forwards only this hook): the fold then charges the batch to the region
// that was open, only a PROC top is popped, and the PROC row still counts
// the batch.
void Profiler::on_handler_batch(int mb, std::size_t count,
                                std::size_t bytes_per_msg) {
  if (!rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(cfg_.metrics ? &meter_ : nullptr,
                                     OverheadCategory::actor_handler,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  fold(d);
  if (cfg_.papi) {
    RowAgg& row = d.proc_rows[mb];
    row.num += count;
    row.pkt_bytes = static_cast<std::uint32_t>(bytes_per_msg);
    d.handler_row = nullptr;
  }
  if (d.region_stack.size() > 1 && d.region_stack.back() == Region::Proc)
    d.region_stack.pop_back();
  if (cfg_.supersteps) d.msgs_handled_total += count;
  if (cfg_.metrics) {
    const int me = rt::my_pe();
    registry_.add(me, ids_.actor_handlers, count);
    registry_.add(me, ids_.queue_depth, -static_cast<std::int64_t>(count));
  }
}

void Profiler::on_comm_begin() {
  if (!rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(cfg_.metrics ? &meter_ : nullptr,
                                     OverheadCategory::comm_region,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  fold(d);
  d.region_stack.push_back(Region::Comm);
  if (cfg_.timeline &&
      (cfg_.max_events_per_pe == 0 ||
       d.events.size() < cfg_.max_events_per_pe))
    d.events.push_back(
        TimelineEvent{TimelineEvent::Kind::BeginComm, d.last_cycles, 0, 0});
}

void Profiler::on_comm_end() {
  if (!rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(cfg_.metrics ? &meter_ : nullptr,
                                     OverheadCategory::comm_region,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  fold(d);
  if (d.region_stack.size() > 1 && d.region_stack.back() == Region::Comm)
    d.region_stack.pop_back();
  if (cfg_.timeline &&
      (cfg_.max_events_per_pe == 0 ||
       d.events.size() < cfg_.max_events_per_pe))
    d.events.push_back(
        TimelineEvent{TimelineEvent::Kind::EndComm, d.last_cycles, 0, 0});
}

// -------------------------------------------------------- TransferObserver

void Profiler::on_transfer(convey::SendType type, std::size_t buffer_bytes,
                           int src_pe, int dst_pe,
                           std::uint64_t first_flow_id) {
  if (!cfg_.physical && !cfg_.timeline && !cfg_.metrics) return;
  if (!rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(cfg_.metrics ? &meter_ : nullptr,
                                     OverheadCategory::transfer,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  if (cfg_.metrics && type != convey::SendType::nonblock_progress) {
    const int me = rt::my_pe();
    registry_.add(me, ids_.conveyor_transfers);
    registry_.add(me, ids_.conveyor_transfer_bytes, buffer_bytes);
    registry_.observe(me, ids_.transfer_bytes, buffer_bytes);
  }
  if (cfg_.physical) {
    CommRows::Counts& row = d.rows.at(dst_pe);
    switch (type) {
      case convey::SendType::local_send:
        row.local++;
        break;
      case convey::SendType::nonblock_send:
        row.nbi++;
        break;
      case convey::SendType::nonblock_progress:
        row.prog++;
        break;
    }
    const bool sampled =
        cfg_.sample_every <= 1 || d.physical_seen % cfg_.sample_every == 0;
    ++d.physical_seen;
    if (cfg_.keep_physical_events && sampled &&
        (cfg_.max_events_per_pe == 0 ||
         d.physical_events.size() < cfg_.max_events_per_pe)) {
      d.physical_events.push_back(PhysicalRecord{
          type, static_cast<std::uint64_t>(buffer_bytes), src_pe, dst_pe});
    }
  }
  if (cfg_.timeline &&
      (cfg_.max_events_per_pe == 0 ||
       d.events.size() < cfg_.max_events_per_pe)) {
    d.events.push_back(TimelineEvent{
        TimelineEvent::Kind::Transfer, papi::cycles_now(), dst_pe,
        static_cast<std::int32_t>(buffer_bytes), first_flow_id});
  }
}

void Profiler::on_advance(std::size_t out_pending_bytes,
                          std::size_t recv_pending_bytes) {
  if (!cfg_.metrics) return;
  if (!rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::transfer,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  const int me = rt::my_pe();
  registry_.add(me, ids_.conveyor_advances);
  registry_.set(me, ids_.out_pending_bytes,
                static_cast<std::int64_t>(out_pending_bytes));
  registry_.set(me, ids_.recv_pending_bytes,
                static_cast<std::int64_t>(recv_pending_bytes));
}

// ------------------------------------------------------------- RmaObserver

void Profiler::on_put(int target_pe, std::size_t bytes) {
  (void)target_pe;
  if (!cfg_.metrics || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::rma,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  const int me = rt::my_pe();
  registry_.add(me, ids_.shmem_puts);
  registry_.add(me, ids_.shmem_put_bytes, bytes);
}

void Profiler::on_put_nbi(int target_pe, std::size_t bytes) {
  (void)target_pe;
  if (!cfg_.metrics || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::rma,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  const int me = rt::my_pe();
  registry_.add(me, ids_.shmem_nbi_puts);
  registry_.add(me, ids_.shmem_nbi_put_bytes, bytes);
  registry_.add(me, ids_.bytes_in_flight,
                static_cast<std::int64_t>(bytes));
}

void Profiler::on_get(int target_pe, std::size_t bytes) {
  (void)target_pe;
  (void)bytes;
  if (!cfg_.metrics || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::rma,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  registry_.add(rt::my_pe(), ids_.shmem_gets);
}

void Profiler::on_quiet(std::size_t outstanding_puts) {
  (void)outstanding_puts;
  if (!rt::in_spmd_region()) return;
  // This hook fires after the staged puts applied — the checker's quiet-end:
  // staged ranges become visible writes carrying the initiator's tick.
  if (cfg_.check) {
    metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                       rt::my_pe());
    ensure_world();
    std::lock_guard<std::mutex> lk(checker_mu_);
    checker_.on_quiet_end(rt::my_pe());
  }
  if (!cfg_.metrics) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::rma,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  const int me = rt::my_pe();
  registry_.add(me, ids_.shmem_quiets);
  // quiet() completes every outstanding non-blocking put of this PE.
  registry_.set(me, ids_.bytes_in_flight, 0);
}

void Profiler::on_barrier() {
  if (!cfg_.metrics || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::rma,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  registry_.add(rt::my_pe(), ids_.shmem_barriers);
}

void Profiler::on_atomic(int target_pe) {
  (void)target_pe;
  if (!cfg_.metrics || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::rma,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  registry_.add(rt::my_pe(), ids_.shmem_atomics);
}

// --------------------------------------------------------------- supersteps

void Profiler::close_superstep(PeData& d, int pe, std::uint64_t arrive) {
  SuperstepRecord r;
  r.pe = pe;
  r.epoch = d.cur_epoch;
  r.step = d.cur_step;
  r.t_main = d.t_main - d.ss_main;
  r.t_proc = d.t_proc - d.ss_proc;
  r.t_comm = d.t_comm - d.ss_comm;
  r.msgs_sent = d.msgs_sent_total - d.ss_msgs;
  r.bytes_sent = d.bytes_sent_total - d.ss_bytes;
  r.msgs_handled = d.msgs_handled_total - d.ss_handled;
  r.barrier_arrive = arrive;
  // The PE blocks here, so the true release is unknowable locally; the
  // supersteps() accessor raises this to the fleet max arrival.
  r.barrier_release = arrive;
  d.steps.push_back(r);
  // Live streaming: every closed superstep becomes an append frame on the
  // PE's binary steps shard, so a collector sees progress mid-run. The
  // frame carries the local arrival as its release; write_all()'s replace
  // frames later supersede it with the fleet-max values.
  if (publisher_) {
    metrics::OverheadMeter::Scope cost(meter_.bound() ? &meter_ : nullptr,
                                       OverheadCategory::publish, pe);
    publisher_->publish_file(io::file_name({io::BinKind::steps, pe}, true),
                             io::encode(std::vector{r}), /*append=*/true);
  }
  ++d.cur_step;
  d.ss_main = d.t_main;
  d.ss_proc = d.t_proc;
  d.ss_comm = d.t_comm;
  d.ss_msgs = d.msgs_sent_total;
  d.ss_bytes = d.bytes_sent_total;
  d.ss_handled = d.msgs_handled_total;
}

void Profiler::on_collective_arrive() {
  if (!rt::in_spmd_region()) return;
  // Checker first: the arrival closes the vector-clock round regardless of
  // epochs — conformance covers the whole run, not just the profiled kernel.
  if (cfg_.check) {
    metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                       rt::my_pe());
    ensure_world();
    std::lock_guard<std::mutex> lk(checker_mu_);
    checker_.on_collective_arrive(rt::my_pe());
  }
  if (!cfg_.supersteps) return;
  metrics::OverheadMeter::Scope cost(cfg_.metrics ? &meter_ : nullptr,
                                     OverheadCategory::superstep,
                                     rt::my_pe());
  PeData& d = pe_data();
  if (!d.in_epoch) return;
  fold(d);
  close_superstep(d, rt::my_pe(), d.last_cycles);
}

// ------------------------------------------------- conformance event intake
//
// Only fire when cfg_.check (the wants_conformance_events() gate), and are
// deliberately NOT gated on the profiling epoch: a BSP violation outside
// the profiled kernel is still a bug. Each forwards to the checker under
// the `check` self-overhead category.

void Profiler::on_put_range(int target_pe, std::size_t offset,
                            std::size_t bytes, const shmem::Callsite& cs) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_store(rt::my_pe(), target_pe, offset, bytes, cs.file, cs.line);
}

void Profiler::on_get_range(int target_pe, std::size_t offset,
                            std::size_t bytes, const shmem::Callsite& cs) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_plain_read(rt::my_pe(), target_pe, offset, bytes, cs.file,
                         cs.line);
}

void Profiler::on_put_nbi_range(int target_pe, std::size_t offset,
                                std::size_t bytes, const shmem::Callsite& cs) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_nbi_staged(rt::my_pe(), target_pe, offset, bytes, cs.file,
                         cs.line);
}

void Profiler::on_quiet_begin(std::size_t outstanding) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_quiet_begin(rt::my_pe(), outstanding);
}

void Profiler::on_nbi_applied(std::size_t index) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_nbi_applied(rt::my_pe(), index);
}

void Profiler::on_quiet_suspend(std::size_t applied, std::size_t remaining) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_quiet_suspend(rt::my_pe(), applied, remaining);
}

void Profiler::on_atomic_range(int target_pe, std::size_t offset,
                               const shmem::Callsite& cs) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_atomic(rt::my_pe(), target_pe, offset, cs.file, cs.line);
}

void Profiler::on_wait_satisfied(std::size_t offset, std::size_t bytes) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_acquire_read(rt::my_pe(), offset, bytes);
}

void Profiler::on_local_store(int target_pe, std::size_t offset,
                              std::size_t bytes, const shmem::Callsite& cs) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_store(rt::my_pe(), target_pe, offset, bytes, cs.file, cs.line);
}

void Profiler::on_local_read(std::size_t offset, std::size_t bytes,
                             const shmem::Callsite& cs) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  const int me = rt::my_pe();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_plain_read(me, me, offset, bytes, cs.file, cs.line);
}

void Profiler::on_acquire_read(std::size_t offset, std::size_t bytes) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_acquire_read(rt::my_pe(), offset, bytes);
}

void Profiler::on_pe_dead(int pe) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_pe_dead(pe);
}

void Profiler::on_conveyor_misuse(const char* what) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_misuse(rt::my_pe(), what);
}

void Profiler::on_actor_misuse(const char* what) {
  if (!cfg_.check || !rt::in_spmd_region()) return;
  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::check,
                                     rt::my_pe());
  ensure_world();
  std::lock_guard<std::mutex> lk(checker_mu_);
  checker_.on_misuse(rt::my_pe(), what);
}

// -------------------------------------------------------- sampler tick hook

void Profiler::tick() {
  // Chain whatever hook was installed before us (observer discipline).
  if (prev_tick_) prev_tick_();
  // The topo_known_ acquire gates every bind: until a PE's first callback
  // completed ensure_world(), the registry may still be mid-bind on
  // another worker and must not be touched.
  if (!cfg_.metrics || !topo_known_.load(std::memory_order_acquire) ||
      !registry_.bound())
    return;

  metrics::OverheadMeter::Scope cost(&meter_, OverheadCategory::sampler,
                                     metrics::OverheadMeter::kGlobalSlot);

  // Fleet virtual time: the farthest any in-epoch PE has advanced. The
  // tick runs outside PE context, so per-PE cycle stamps are the only
  // clock available — exactly the data the fold keeps fresh.
  std::uint64_t t = 0;
  bool any_in_epoch = false;
  for (const PeData& d : pes_) {
    if (!load_flag(d.in_epoch)) continue;
    any_in_epoch = true;
    t = std::max(t, load_u64(d.last_cycles));
  }
  if (!any_in_epoch) return;

  // The first tick that sees a PE in its epoch samples, so a run whose
  // epochs end before fleet time moves one interval still leaves one (under
  // the threads backend only worker 0's sweeps tick). Later ticks sample
  // once fleet time has passed the last sample by the interval: fleet time
  // falls when the PE holding the maximum leaves the epoch, and sample
  // times must strictly increase.
  if (have_sampled_) {
    const auto interval = static_cast<std::uint64_t>(
        cfg_.metrics_interval_virtual_ms *
        static_cast<double>(metrics::kCyclesPerVirtualMs));
    if (t < last_sample_cycles_ ||
        t - last_sample_cycles_ < std::max<std::uint64_t>(interval, 1))
      return;
  }
  have_sampled_ = true;
  last_sample_cycles_ = t;

  // Refresh the derived COMM-share gauge from the fold buckets, then
  // snapshot every scalar series into the ring.
  const int n = registry_.num_pes();
  for (int pe = 0; pe < n; ++pe) {
    const PeData& d = pes_[static_cast<std::size_t>(pe)];
    const std::uint64_t t_comm = load_u64(d.t_comm);
    const std::uint64_t busy =
        load_u64(d.t_main) + load_u64(d.t_proc) + t_comm;
    const std::int64_t share =
        busy == 0 ? 0 : static_cast<std::int64_t>(1000 * t_comm / busy);
    registry_.set(pe, ids_.comm_share_milli, share);
  }
  registry_.snapshot_scalars(sample_scratch_.data());
  ring_.push(t, sample_scratch_.data());

  // Online detection against the fleet median, on the freshest values.
  auto detect = [&](metrics::GaugeId g, metrics::AnomalyKind kind,
                    double min_abs) {
    for (int pe = 0; pe < n; ++pe)
      detect_scratch_[static_cast<std::size_t>(pe)] =
          static_cast<double>(registry_.value(pe, g));
    const double med = metrics::median(detect_scratch_);
    for (int pe : metrics::diverging_pes(
             detect_scratch_, cfg_.metrics_straggler_factor, min_abs)) {
      anomalies_.record(metrics::Anomaly{
          kind, pe, t, detect_scratch_[static_cast<std::size_t>(pe)], med});
    }
  };
  detect(ids_.queue_depth, metrics::AnomalyKind::ProcBacklog, kMinBacklogAbs);
  detect(ids_.comm_share_milli, metrics::AnomalyKind::CommShare,
         kMinCommShareAbs);

  // Live streaming: the freshly-pushed ring snapshot replaces the
  // collector's metric_samples shard, and any findings the detector just
  // produced ride along as text lines (the /live SSE anomaly feed). The
  // tick runs on one thread, so published_anomalies_ needs no atomics.
  if (publisher_) {
    metrics::OverheadMeter::Scope pcost(&meter_, OverheadCategory::publish,
                                        metrics::OverheadMeter::kGlobalSlot);
    publisher_->publish_file(io::kMetricSamplesFile,
                             io::encode_metric_samples(ring_),
                             /*append=*/false);
    const auto& items = anomalies_.items();
    if (items.size() > published_anomalies_) {
      std::string lines;
      for (std::size_t i = published_anomalies_; i < items.size(); ++i) {
        const metrics::Anomaly& a = items[i];
        lines += std::string(metrics::to_string(a.kind)) +
                 " pe=" + std::to_string(a.pe) +
                 " t_cycles=" + std::to_string(a.t_cycles) +
                 " value=" + std::to_string(a.value) +
                 " fleet_median=" + std::to_string(a.fleet_median) + "\n";
      }
      published_anomalies_ = items.size();
      publisher_->publish_file("anomalies.txt", std::move(lines),
                               /*append=*/true);
    }
  }
}

// ------------------------------------------------------------------ results

SparseCommMatrix Profiler::logical_sparse() const {
  SparseCommMatrix m(num_pes());
  for (int s = 0; s < num_pes(); ++s)
    pe_data(s).rows.for_each([&](int dst, const CommRows::Counts& c) {
      m.add(s, dst, c.logical);
    });
  return m;
}

SparseCommMatrix Profiler::physical_sparse() const {
  SparseCommMatrix m(num_pes());
  for (int s = 0; s < num_pes(); ++s)
    pe_data(s).rows.for_each([&](int dst, const CommRows::Counts& c) {
      m.add(s, dst, c.local + c.nbi);
    });
  return m;
}

SparseCommMatrix Profiler::physical_sparse(convey::SendType type) const {
  SparseCommMatrix m(num_pes());
  for (int s = 0; s < num_pes(); ++s)
    pe_data(s).rows.for_each([&](int dst, const CommRows::Counts& c) {
      switch (type) {
        case convey::SendType::local_send: m.add(s, dst, c.local); break;
        case convey::SendType::nonblock_send: m.add(s, dst, c.nbi); break;
        case convey::SendType::nonblock_progress: m.add(s, dst, c.prog); break;
      }
    });
  return m;
}

// Dense forms densify the sparse accumulation: fine for the small fleets
// the advisor and tests use, O(P^2) by definition — large-P callers go
// through *_sparse() and bucket first.
CommMatrix Profiler::logical_matrix() const { return logical_sparse().dense(); }

CommMatrix Profiler::physical_matrix() const {
  return physical_sparse().dense();
}

CommMatrix Profiler::physical_matrix(convey::SendType type) const {
  return physical_sparse(type).dense();
}

std::vector<OverallRecord> Profiler::overall() const {
  std::vector<OverallRecord> out;
  out.reserve(static_cast<std::size_t>(num_pes()));
  for (int pe = 0; pe < num_pes(); ++pe) {
    const PeData& d = pe_data(pe);
    OverallRecord r;
    r.pe = pe;
    r.t_main = d.t_main;
    r.t_proc = d.t_proc;
    r.t_total = d.t_total;
    out.push_back(r);
  }
  return out;
}

std::vector<std::uint64_t> Profiler::papi_totals(papi::Event e) const {
  int slot = -1;
  for (int i = 0; i < cfg_.num_papi_events(); ++i)
    if (cfg_.papi_events[static_cast<std::size_t>(i)] == e) slot = i;
  if (slot < 0)
    throw std::invalid_argument(
        "Profiler::papi_totals: event was not configured for recording");
  std::vector<std::uint64_t> out(static_cast<std::size_t>(num_pes()), 0);
  for (int pe = 0; pe < num_pes(); ++pe) {
    const PeData& d = pe_data(pe);
    for (const auto& [key, row] : d.main_rows)
      out[static_cast<std::size_t>(pe)] +=
          row.counters[static_cast<std::size_t>(slot)];
    for (const auto& [mb, row] : d.proc_rows)
      out[static_cast<std::size_t>(pe)] +=
          row.counters[static_cast<std::size_t>(slot)];
  }
  return out;
}

LogicalSendView Profiler::logical_events(int pe) const {
  const PeData& d = pe_data(pe);
  return LogicalSendView(d.logical_runs, d.logical_kept, pe, topo_);
}

const std::vector<PhysicalRecord>& Profiler::physical_events(int pe) const {
  return pe_data(pe).physical_events;
}

const std::vector<TimelineEvent>& Profiler::timeline(int pe) const {
  return pe_data(pe).events;
}

std::vector<SuperstepRecord> Profiler::supersteps(int pe) const {
  std::vector<SuperstepRecord> out = pe_data(pe).steps;
  if (out.empty()) return out;
  // Release of a step = the latest arrival among all PEs that reached the
  // same (epoch, step) — all arrivals happen before any PE is released, so
  // this is the fleet's recorded release stamp. A PE killed at the barrier
  // never arrived and is simply absent from the max.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> release;
  for (const PeData& d : pes_)
    for (const SuperstepRecord& s : d.steps) {
      auto& slot = release[{s.epoch, s.step}];
      slot = std::max(slot, s.barrier_arrive);
    }
  for (SuperstepRecord& r : out)
    r.barrier_release = release[{r.epoch, r.step}];
  return out;
}

std::vector<PapiSegmentRecord> Profiler::papi_segments(int pe) const {
  const PeData& d = pe_data(pe);
  std::vector<PapiSegmentRecord> out;
  const int me_node = topo_known_ ? topo_.node_of(pe) : 0;
  for (const auto& [key, row] : d.main_rows) {
    PapiSegmentRecord r;
    r.src_node = me_node;
    r.src_pe = pe;
    r.dst_node = topo_known_ ? topo_.node_of(key.dst) : 0;
    r.dst_pe = key.dst;
    r.mailbox_id = key.mb;
    r.pkt_bytes = row.pkt_bytes;
    r.num_sends = row.num;
    r.counters = row.counters;
    r.is_proc = false;
    out.push_back(r);
  }
  for (const auto& [mb, row] : d.proc_rows) {
    PapiSegmentRecord r;
    r.src_node = me_node;
    r.src_pe = pe;
    r.dst_node = me_node;
    r.dst_pe = pe;  // handler rows are self-rows
    r.mailbox_id = mb;
    r.pkt_bytes = row.pkt_bytes;
    r.num_sends = row.num;
    r.counters = row.counters;
    r.is_proc = true;
    out.push_back(r);
  }
  return out;
}

// ------------------------------------------------------------ live metrics

int Profiler::queue_depth_series() const {
  return cfg_.metrics ? ids_.s_queue_depth : -1;
}

int Profiler::bytes_in_flight_series() const {
  return cfg_.metrics ? ids_.s_bytes_in_flight : -1;
}

void Profiler::write_metrics_prometheus(std::ostream& os) const {
  registry_.write_prometheus(os);
  if (!meter_.bound()) return;
  os << "# HELP actorprof_self_overhead_cycles_total Wall rdtsc cycles "
        "spent inside ActorProf's own instrumentation\n"
     << "# TYPE actorprof_self_overhead_cycles_total counter\n";
  for (int pe = -1; pe < meter_.num_pes(); ++pe) {
    const int slot = pe < 0 ? metrics::OverheadMeter::kGlobalSlot : pe;
    for (int c = 0; c < metrics::kOverheadCategories; ++c) {
      const auto cat = static_cast<metrics::OverheadCategory>(c);
      const std::uint64_t v = meter_.cycles(slot, cat);
      if (v == 0) continue;
      os << "actorprof_self_overhead_cycles_total{pe=\""
         << (pe < 0 ? std::string("fleet") : std::to_string(pe))
         << "\",category=\"" << metrics::to_string(cat) << "\"} " << v
         << "\n";
    }
  }
  if (publisher_ != nullptr) {
    const serve::Publisher::Stats s = publisher_->stats();
    os << "# HELP actorprof_publish_segments_total Trace segments POSTed "
          "to the live collector\n"
       << "# TYPE actorprof_publish_segments_total counter\n"
       << "actorprof_publish_segments_total " << s.segments_published << "\n"
       << "# HELP actorprof_publish_bytes_total Push-frame bytes POSTed to "
          "the live collector\n"
       << "# TYPE actorprof_publish_bytes_total counter\n"
       << "actorprof_publish_bytes_total " << s.bytes_published << "\n"
       << "# HELP actorprof_publish_dropped_total Segments dropped by the "
          "bounded publish queue or failed posts\n"
       << "# TYPE actorprof_publish_dropped_total counter\n"
       << "actorprof_publish_dropped_total " << s.segments_dropped << "\n"
       << "# HELP actorprof_publish_posts_failed_total POST /ingest "
          "attempts that did not return 200\n"
       << "# TYPE actorprof_publish_posts_failed_total counter\n"
       << "actorprof_publish_posts_failed_total " << s.posts_failed << "\n";
  }
}

void Profiler::write_metrics_json(std::ostream& os) const {
  os << "{\n\"metrics\": ";
  registry_.write_json(os);
  os << ",\n\"samples\": {\"count\": " << ring_.size()
     << ", \"capacity\": " << ring_.capacity()
     << ", \"overwritten\": " << ring_.overwritten()
     << ", \"interval_virtual_ms\": " << cfg_.metrics_interval_virtual_ms
     << "}";
  os << ",\n\"anomalies\": [";
  bool first = true;
  for (const metrics::Anomaly& a : anomalies_.items()) {
    if (!first) os << ", ";
    first = false;
    os << "{\"kind\": \"" << metrics::to_string(a.kind)
       << "\", \"pe\": " << a.pe << ", \"t_cycles\": " << a.t_cycles
       << ", \"value\": " << a.value
       << ", \"fleet_median\": " << a.fleet_median << "}";
  }
  os << "]";
  if (anomalies_.dropped() > 0)
    os << ",\n\"anomalies_dropped\": " << anomalies_.dropped();
  os << ",\n\"self_overhead_cycles\": {";
  first = true;
  for (int c = 0; c < metrics::kOverheadCategories; ++c) {
    const auto cat = static_cast<metrics::OverheadCategory>(c);
    std::uint64_t total = 0;
    if (meter_.bound()) {
      total = meter_.cycles(metrics::OverheadMeter::kGlobalSlot, cat);
      for (int pe = 0; pe < meter_.num_pes(); ++pe)
        total += meter_.cycles(pe, cat);
    }
    if (!first) os << ", ";
    first = false;
    os << "\"" << metrics::to_string(cat) << "\": " << total;
  }
  os << ", \"total\": " << meter_.grand_total() << "}\n}\n";
}

void Profiler::write_metrics() const {
  std::filesystem::create_directories(cfg_.trace_dir);
  {
    std::ofstream os(cfg_.trace_dir / "metrics.prom");
    if (!os)
      throw std::runtime_error("write_metrics: cannot open metrics.prom");
    write_metrics_prometheus(os);
  }
  {
    std::ofstream os(cfg_.trace_dir / "metrics.json");
    if (!os)
      throw std::runtime_error("write_metrics: cannot open metrics.json");
    write_metrics_json(os);
  }
}

void Profiler::write_traces() const { io::write_all(*this, cfg_); }

}  // namespace ap::prof
