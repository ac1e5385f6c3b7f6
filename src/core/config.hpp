// ActorProf configuration.
//
// The paper enables each trace kind with a compile-time flag
// (-DENABLE_TRACE, -DENABLE_TCOMM_PROFILING, -DENABLE_TRACE_PHYSICAL). We
// honor those macros as defaults but also expose run-time toggles, so one
// build can run every experiment; disabled paths cost a single branch.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <string>

#include "papi/papi.hpp"

namespace ap::prof {

/// On-disk encoding of the trace files write_all() emits.
///   csv    — the paper's line-oriented text files (PEi_send.csv, ...)
///   binary — the columnar .apt container (docs/TRACE_FORMAT.md):
///            delta+varint numeric columns, dictionary string columns,
///            per-block CRC. ~5-10x smaller and faster to decode; the
///            loader sniffs both, and `actorprof export --csv` converts
///            back for interchange.
enum class TraceFormat { csv, binary };

struct Config {
  /// Logical trace (paper §III-A): PEi_send.csv + the in-memory comm matrix.
#ifdef ENABLE_TRACE
  bool logical = true;
#else
  bool logical = false;
#endif
  /// PAPI segment trace (part of §III-A): PEi_PAPI.csv.
#ifdef ENABLE_TRACE
  bool papi = true;
#else
  bool papi = false;
#endif
  /// Overall MAIN/COMM/PROC breakdown (§III-B): overall.txt.
#ifdef ENABLE_TCOMM_PROFILING
  bool overall = true;
#else
  bool overall = false;
#endif
  /// Physical trace (§III-C): physical.txt.
#ifdef ENABLE_TRACE_PHYSICAL
  bool physical = true;
#else
  bool physical = false;
#endif

  /// Superstep-resolved profiling: per barrier-to-barrier interval, each
  /// PE records its MAIN/PROC/COMM cycle split, message/byte counts and
  /// barrier arrival stamp, emitted as PEi_steps.csv and consumed by the
  /// `analyze` / `diff` CLI subcommands (docs/ANALYSIS.md). Deterministic
  /// under the virtual cycle source, so part of all_enabled().
  bool supersteps = false;

  /// Where write_traces() puts the files.
  std::filesystem::path trace_dir = "actorprof_trace";

  /// Encoding of the emitted trace files. CSV stays the default (and the
  /// interchange format); binary is the production choice for large runs.
  /// overall.txt and MANIFEST.txt are text in both formats.
  TraceFormat trace_format = TraceFormat::csv;

  /// Re-frame binary trace files into the version-2 compressed .apt
  /// container (per-block LZ, docs/TRACE_FORMAT.md "Compression") before
  /// they hit disk or the publisher. No effect on CSV output.
  bool trace_compress = false;

  /// Live streaming target, "host:port" of a running `actorprof serve`
  /// daemon (empty = off). When set, the profiler starts a background
  /// publisher thread that pushes closed supersteps, metric-ring
  /// snapshots, and advisor findings to POST /ingest as they happen, and
  /// the full trace at write_traces() time (docs/OBSERVABILITY.md, "Live
  /// streaming"). Bounded drop-oldest queue: a slow or dead collector
  /// never stalls PEs.
  std::string publish;

  /// Run id the publisher registers under on the serve daemon (the
  /// `?run=` key). Empty = "push" (the daemon's default push-run id).
  std::string publish_run;

  /// Keep individual records in memory (needed to write per-event files).
  /// The aggregated comm matrices are always maintained; disabling this
  /// bounds memory on runs with billions of sends (paper §IV-E / §VI).
  /// Logical records are kept as runs of consecutive sends with the same
  /// destination and size, 16 bytes a run, so their memory follows the
  /// number of runs, not of sends; the files still hold one row per send.
  bool keep_logical_events = true;
  bool keep_physical_events = true;
  /// Hard cap on retained per-event records per PE (0 = unlimited).
  std::size_t max_events_per_pe = 0;
  /// Keep only every k-th per-event record (1 = all). Aggregated matrices
  /// always see every event — this is the §VI "intelligent sampling"
  /// mitigation for traces that would otherwise reach 100s of GB.
  std::size_t sample_every = 1;

  /// Record per-PE timelines (region transitions + instant send/transfer
  /// events) for Google Trace Events export (§VI future work). Also turns
  /// on flow-id carriage so the Chrome trace links Send -> Transfer ->
  /// Proc with ph:"s"/"t"/"f" flow events.
  bool timeline = false;

  /// Live metrics registry + periodic sampler: per-PE counters/gauges/
  /// histograms across the actor, conveyor, and shmem layers, snapshotted
  /// every metrics_interval_virtual_ms of virtual time, with online
  /// straggler/backpressure detection and Prometheus/JSON exposition via
  /// Profiler::write_metrics(). Deliberately NOT part of all_enabled():
  /// self-overhead metering uses wall-clock rdtsc, which would break the
  /// byte-identical determinism the trace files guarantee.
  bool metrics = false;
  /// Sampler cadence in virtual milliseconds (1 virtual ms = 1e6 cycles of
  /// the simulated cost model). Must be > 0.
  double metrics_interval_virtual_ms = 1.0;
  /// Bounded snapshot ring per metric series; the oldest samples are
  /// overwritten once full. Must be > 0.
  std::size_t metrics_ring_capacity = 256;
  /// A PE is flagged as straggling/backpressured when its sampled value
  /// exceeds this multiple of the fleet median. Must be >= 1.
  double metrics_straggler_factor = 2.0;

  /// BSP conformance checker (docs/CHECKING.md): vector-clock
  /// happens-before validation of every RMA/collective against the FA-BSP
  /// memory model, reported through the advisor, check.csv, and the
  /// `actorprof check` CLI. Off by default — the checker subscribes to
  /// per-access conformance events, which cost more than the one-branch
  /// disabled path; its own cycles are accounted under the `check`
  /// self-overhead category. NOT part of all_enabled(): checking is a
  /// verification mode, not a trace kind.
  bool check = false;

  /// Checkpoint traces at epoch boundaries: once every PE has closed an
  /// epoch since the last flush, write_all() runs again, so a PE killed
  /// later (fault injection) still leaves a loadable on-disk prefix.
  /// write_all() is always atomic-rename crash-safe; this flag only adds
  /// the periodic mid-run flushes. Defaults on when ACTORPROF_FI_KILL_PE
  /// is set (see docs/FAULT_INJECTION.md).
  bool crash_safe = false;

  /// The PAPI events recorded per segment (≤ 4 — the PAPI limitation the
  /// paper calls out). The case study uses PAPI_TOT_INS + PAPI_LST_INS.
  std::array<papi::Event, papi::kMaxEventsPerSet> papi_events{
      papi::Event::TOT_INS, papi::Event::LST_INS, papi::Event::kCount,
      papi::Event::kCount};

  [[nodiscard]] int num_papi_events() const {
    int n = 0;
    for (papi::Event e : papi_events)
      if (e != papi::Event::kCount) ++n;
    return n;
  }

  /// Convenience: everything on.
  static Config all_enabled() {
    Config c;
    c.logical = c.papi = c.overall = c.physical = c.supersteps = true;
    return c;
  }

  /// Defaults from the compile-time macros, then environment overrides:
  ///   ACTORPROF_TRACE, ACTORPROF_PAPI, ACTORPROF_TCOMM_PROFILING,
  ///   ACTORPROF_TRACE_PHYSICAL (0/1)      — trace kinds (lenient parse,
  ///                                         kept for back-compat)
  ///   ACTORPROF_TRACE_DIR (path)          — output directory
  ///   ACTORPROF_TRACE_FORMAT (csv|binary) — on-disk trace encoding
  ///                                         (strict parse)
  ///   ACTORPROF_TRACE_COMPRESS (0/1)      — version-2 compressed .apt
  ///                                         container (strict parse)
  ///   ACTORPROF_PUBLISH (host:port)       — live-stream to a serve
  ///                                         daemon (strict parse: one
  ///                                         colon, non-empty host, port
  ///                                         1-65535)
  ///   ACTORPROF_PUBLISH_RUN (run id)      — run id to publish under
  ///   ACTORPROF_SUPERSTEPS (0/1)          — per-superstep PEi_steps.csv
  ///   ACTORPROF_TIMELINE (0/1)            — Chrome timeline + flow events
  ///   ACTORPROF_METRICS (0/1)             — live metrics registry/sampler
  ///   ACTORPROF_METRICS_INTERVAL_MS (>0)  — sampler cadence, virtual ms
  ///   ACTORPROF_METRICS_RING (>0 int)     — snapshot ring capacity
  ///   ACTORPROF_METRICS_STRAGGLER_FACTOR (>=1) — anomaly threshold
  ///   ACTORPROF_CHECK (0/1)               — BSP conformance checker
  ///   ACTORPROF_CRASH_SAFE (0/1)          — epoch-boundary trace
  ///                                         checkpoints; defaults to 1
  ///                                         when ACTORPROF_FI_KILL_PE set
  /// The ACTORPROF_METRICS*/ACTORPROF_TIMELINE variables are parsed
  /// strictly: a malformed or out-of-range value throws
  /// std::invalid_argument naming the variable and the offending text.
  static Config from_env();
};

}  // namespace ap::prof
