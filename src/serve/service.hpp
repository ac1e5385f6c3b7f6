// The always-on trace service behind `actorprof serve` (docs/OBSERVABILITY.md,
// "Live service").
//
// TraceService holds one run. It comes in two flavours:
//   * file-backed — watches one trace directory and keeps an in-memory
//     TraceDir loaded with the same tolerant-partial semantics the CLI
//     uses, so a directory being written by a live run — shards appearing
//     one by one, MANIFEST.txt last — is served continuously: refresh()
//     re-stats the known file names and re-ingests only the shards whose
//     signature (size/mtime/content) changed (a full reload happens only
//     when the MANIFEST, the PE count, or a non-per-PE file changes, or a
//     file shrinks/disappears).
//   * push-backed — no directory: trace content arrives as framed
//     segments over POST /ingest (serve/publisher.hpp), each validated
//     against its CRC and decoded into a scratch buffer before it is
//     spliced into the run, so a damaged segment 400s without corrupting
//     anything already ingested.
//
// handle() is pure request-in/response-out — no sockets — so endpoint
// behavior is unit-testable; registry.hpp keys many TraceServices by run
// id and http.hpp adds the HTTP/1.1 loop. Endpoint bodies are
// byte-identical to what the CLI prints for the same trace
// (`analyze --json`, `diff --json`, `check --json`, `heatmap --json`),
// which CI verifies by diffing the two.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace_io.hpp"
#include "serve/publisher.hpp"

namespace ap::serve {

struct ServiceOptions {
  /// PE count of the watched trace. 0 = detect from MANIFEST.txt on every
  /// refresh (mid-run, before the MANIFEST lands, endpoints answer 503).
  int num_pes = 0;
  /// GET /diff regression threshold, like the CLI's --threshold.
  double diff_threshold_pct = 10.0;
};

/// One HTTP-shaped reply: status code, content type, body bytes.
struct Response {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

class TraceService {
 public:
  /// File-backed run: watch `dir`.
  explicit TraceService(std::filesystem::path dir, ServiceOptions opts = {});
  /// Push-backed run: content arrives via ingest().
  explicit TraceService(ServiceOptions opts);

  /// Re-scan the watched dir and re-ingest what changed. Returns true when
  /// anything was reloaded (the version advanced). Called by the server
  /// loop on every poll tick and before every request. No-op (false) for
  /// push-backed runs.
  bool refresh();

  /// Answer one request. Targets: /healthz /analyze /diff?base=DIR
  /// /heatmap /check /metrics. Unknown targets get 404, non-GET 405.
  Response handle(std::string_view method, std::string_view target);

  /// Apply one POST /ingest body (push framing, serve/publisher.hpp).
  /// Each segment is fully validated (CRC + decode) before being spliced
  /// in; the first bad segment 400s with segment/offset attribution and
  /// everything already applied stays intact. Push-backed runs only.
  Response ingest(std::string_view body);

  /// Monotonic reload counter (bumped by every refresh/ingest that changed
  /// state).
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] const ap::prof::io::TraceDir& trace() const { return trace_; }
  [[nodiscard]] int num_pes() const { return num_pes_; }
  /// "file" or "push" — how this run's bytes arrive (the /runs listing).
  [[nodiscard]] const char* source() const {
    return push_mode_ ? "push" : "file";
  }
  /// Total trace bytes this run currently holds (on-disk sizes for a
  /// file-backed run, ingested segment totals for a push run). The
  /// retention policy evicts by this.
  [[nodiscard]] std::uint64_t bytes() const;
  /// steady-clock ms stamp of the last state change (0 = never).
  [[nodiscard]] std::int64_t last_update_ms() const { return last_update_ms_; }
  /// refresh() calls that actually reloaded something (self-metrics).
  [[nodiscard]] std::uint64_t reloads() const { return reloads_; }
  /// /analyze cache hit/miss counters (self-metrics).
  [[nodiscard]] std::uint64_t analyze_hits() const { return analyze_hits_; }
  [[nodiscard]] std::uint64_t analyze_misses() const {
    return analyze_misses_;
  }
  /// Push segments/bytes successfully applied by ingest() (self-metrics).
  [[nodiscard]] std::uint64_t ingested_segments() const {
    return ingested_segments_;
  }
  [[nodiscard]] std::uint64_t ingested_bytes() const {
    return ingested_bytes_;
  }
  /// Straggler/backpressure lines pushed by a live run ("anomalies.txt"
  /// append segments) — the /live SSE anomaly feed.
  [[nodiscard]] const std::vector<std::string>& anomaly_lines() const {
    return anomaly_lines_;
  }

  /// Superstep progress summary, the payload of /live "superstep" events.
  struct Progress {
    std::uint64_t steps_rows = 0;  ///< total rows over all PEs
    std::uint32_t max_epoch = 0, max_step = 0;
  };
  [[nodiscard]] Progress progress() const;

 private:
  struct Sig {
    std::uint64_t size = 0;
    std::int64_t mtime = 0;
    /// FNV-1a over the first and last 64 bytes. Catches the rewrite the
    /// size/mtime pair misses: an atomic-rename replacing a shard with a
    /// same-size body inside the filesystem's mtime granularity.
    std::uint64_t content = 0;
    bool exists = false;
    friend bool operator==(const Sig&, const Sig&) = default;
  };

  [[nodiscard]] Sig stat_file(const std::string& name) const;
  /// Stat every known trace file name (CSV and .apt forms) for a trace of
  /// `num_pes` PEs.
  void scan(int num_pes, std::map<std::string, Sig>& out) const;
  void full_reload();
  /// Re-parse one per-PE shard in place (the incremental path).
  void reload_shard(ap::prof::io::TraceFile f);
  /// Reset the run to `np` empty PEs (push mode, on a PE-count change).
  void resize_world(int np);
  /// Splice one validated push segment into the run; throws on bad data
  /// before any state is touched.
  void apply_segment(const PushSegment& seg);
  void touch();

  Response analyze_json();
  Response diff_json(std::string_view query);
  Response heatmap_json();
  Response check_json();
  Response metrics_text();
  Response healthz_json();

  std::filesystem::path dir_;
  ServiceOptions opts_;
  bool push_mode_ = false;
  int num_pes_ = 0;
  ap::prof::io::TraceDir trace_;
  std::map<std::string, Sig> sigs_;
  std::uint64_t version_ = 0;
  /// Cached /analyze body (analysis is the expensive endpoint); valid for
  /// `analyze_version_ == version_`.
  std::string analyze_cache_;
  std::uint64_t analyze_version_ = ~0ull;
  /// Push-backed state: per-file ingested byte totals (bytes()), the
  /// pushed metrics.prom text, and the pushed anomaly lines.
  std::map<std::string, std::uint64_t> file_bytes_;
  std::string metrics_prom_;
  std::vector<std::string> anomaly_lines_;
  std::int64_t last_update_ms_ = 0;
  std::uint64_t reloads_ = 0, analyze_hits_ = 0, analyze_misses_ = 0;
  std::uint64_t ingested_segments_ = 0, ingested_bytes_ = 0;
};

}  // namespace ap::serve
