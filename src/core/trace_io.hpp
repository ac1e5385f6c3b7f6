// Writers and parsers for ActorProf's trace files (paper §III):
//   PEi_send.csv  — logical trace, one line per application send
//   PEi_PAPI.csv  — PAPI segment rows
//   overall.txt   — Absolute/Relative TCOMM_PROFILING lines per PE
//   physical.txt  — network transfers of all PEs
// The visualization CLI consumes these files only, so it also works on
// traces produced by other builds of the tool.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "core/aggregate.hpp"
#include "core/config.hpp"
#include "core/records.hpp"
#include "core/sink.hpp"
#include "metrics/self_overhead.hpp"

namespace ap::prof {
class Profiler;
}

namespace ap::prof::io {

/// File-name helpers (exactly the names the paper lists).
std::string logical_file_name(int pe);   // "PE<i>_send.csv"
std::string papi_file_name(int pe);      // "PE<i>_PAPI.csv"
std::string steps_file_name(int pe);     // "PE<i>_steps.csv"
inline constexpr const char* kOverallFile = "overall.txt";
inline constexpr const char* kPhysicalFile = "physical.txt";
inline constexpr const char* kManifestFile = "MANIFEST.txt";
inline constexpr const char* kCheckFile = "check.csv";
/// Live-metrics sample ring dump, emitted only by the binary trace format
/// (there is no CSV counterpart; metrics.json carries the text view).
inline constexpr const char* kMetricSamplesFile = "metric_samples.apt";

/// Parse failure carrying the 1-based line it happened on. Derives from
/// std::runtime_error, so pre-existing catch sites keep working.
class TraceParseError : public std::runtime_error {
 public:
  TraceParseError(std::size_t line_no, const std::string& what);
  [[nodiscard]] std::size_t line_no() const { return line_no_; }

 private:
  std::size_t line_no_;
};

// ---- writers ---------------------------------------------------------------
// Every writer exists in two forms: the Sink form is the real
// implementation (one contiguous buffered build, see core/sink.hpp); the
// std::ostream form delegates to it and is kept for existing callers.

void write_logical(Sink& out, const std::vector<LogicalSendRecord>& events);
void write_logical(std::ostream& os,
                   const std::vector<LogicalSendRecord>& events);
void write_papi(Sink& out, const std::vector<PapiSegmentRecord>& rows,
                const Config& cfg);
void write_papi(std::ostream& os, const std::vector<PapiSegmentRecord>& rows,
                const Config& cfg);
void write_overall(Sink& out, const std::vector<OverallRecord>& recs);
void write_overall(std::ostream& os, const std::vector<OverallRecord>& recs);
/// "SelfOverhead ..." lines appended to overall.txt when Config::metrics is
/// on: the measured wall-rdtsc cost of ActorProf's own instrumentation,
/// per PE and per category. parse_overall skips them (they are not
/// "Absolute" lines), so existing consumers are unaffected.
void write_self_overhead(Sink& out, const metrics::OverheadMeter& m);
void write_self_overhead(std::ostream& os, const metrics::OverheadMeter& m);
void write_physical(Sink& out, const std::vector<PhysicalRecord>& events);
void write_physical(std::ostream& os,
                    const std::vector<PhysicalRecord>& events);
/// Superstep rows (PEi_steps.csv, Config::supersteps). Unlike overall.txt,
/// a killed PE's rows are NOT suppressed: every row was closed at a
/// collective it actually reached, so the prefix is consistent and is what
/// post-mortem analysis wants.
void write_steps(Sink& out, const std::vector<SuperstepRecord>& recs);
void write_steps(std::ostream& os, const std::vector<SuperstepRecord>& recs);
/// BSP conformance report (check.csv, Config::check). Written even when
/// empty — a zero-row check.csv is the evidence a checked run was clean.
/// `dropped` (violations past the checker's cap) rides in a parsable
/// "# dropped=<n>" comment.
void write_check(Sink& out, const std::vector<check::Violation>& v,
                 std::uint64_t dropped);
void write_check(std::ostream& os, const std::vector<check::Violation>& v,
                 std::uint64_t dropped);

/// Write every enabled trace of `prof` into cfg.trace_dir (created if
/// missing). Called by Profiler::write_traces().
///
/// Crash-safe: each file is fully built in memory, written to a ".tmp"
/// sibling, flushed, stream-checked, and atomically renamed into place —
/// a reader (or a kill) never observes a half-written file. A MANIFEST.txt
/// (file list, record counts, FNV-1a checksums, dead PEs) is written last.
/// Failures are aggregated: one std::runtime_error naming every file that
/// could not be written, thrown after all writable files landed.
void write_all(const Profiler& prof, const Config& cfg);

// ---- parsers ---------------------------------------------------------------
// All parsers skip blank lines and '#' comments and throw TraceParseError
// (a std::runtime_error) with a 1-based line number on malformed input.

std::vector<LogicalSendRecord> parse_logical(std::istream& is);
std::vector<PapiSegmentRecord> parse_papi(std::istream& is);
std::vector<OverallRecord> parse_overall(std::istream& is);
std::vector<PhysicalRecord> parse_physical(std::istream& is);
std::vector<SuperstepRecord> parse_steps(std::istream& is);

// Incremental variants: records are appended to `out` as they parse, so
// when a truncated/corrupt file throws mid-way the caller keeps the valid
// prefix (what `tolerate_partial` loading renders).
void parse_logical_into(std::istream& is, std::vector<LogicalSendRecord>& out);
void parse_papi_into(std::istream& is, std::vector<PapiSegmentRecord>& out);
void parse_overall_into(std::istream& is, std::vector<OverallRecord>& out);
void parse_physical_into(std::istream& is, std::vector<PhysicalRecord>& out);
void parse_steps_into(std::istream& is, std::vector<SuperstepRecord>& out);
/// Parses check.csv rows into `out` and the "# dropped=<n>" marker into
/// `dropped` (left untouched when the marker is absent).
void parse_check_into(std::istream& is, std::vector<check::Violation>& out,
                      std::uint64_t& dropped);

/// One MANIFEST.txt entry, as written by write_all.
struct ManifestEntry {
  std::string file;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t fnv1a = 0;
};
struct Manifest {
  int num_pes = 0;
  std::vector<ManifestEntry> files;
  std::vector<int> dead_pes;
};
Manifest parse_manifest(std::istream& is);

/// FNV-1a 64-bit over a byte buffer (the MANIFEST checksum).
std::uint64_t fnv1a64(const void* data, std::size_t n);

/// One per-file problem found while loading with tolerate_partial.
struct FileIssue {
  std::string file;        ///< file name relative to the trace dir
  std::size_t line_no = 0; ///< 1-based, 0 when not line-specific
  std::string message;
};

struct LoadOptions {
  /// Report missing/truncated/corrupt per-PE files in TraceDir::issues and
  /// keep every record that parsed, instead of throwing on the first bad
  /// file. What the viz CLI uses to render what survived a crash.
  bool tolerate_partial = false;
};

/// Load a whole trace directory produced by write_all.
struct TraceDir {
  int num_pes = 0;
  std::vector<std::vector<LogicalSendRecord>> logical;  // per PE (may be empty)
  std::vector<std::vector<PapiSegmentRecord>> papi;     // per PE
  std::vector<OverallRecord> overall;
  std::vector<PhysicalRecord> physical;
  std::vector<std::vector<SuperstepRecord>> steps;  // per PE (may be empty)
  /// BSP conformance violations (check.csv; empty when the run was clean
  /// or unchecked — check_recorded distinguishes the two).
  std::vector<check::Violation> check;
  std::uint64_t check_dropped = 0;
  /// True when a check.csv was present: the run executed under the checker.
  bool check_recorded = false;
  /// Problems found under LoadOptions::tolerate_partial (always empty for
  /// strict loads, which throw instead).
  std::vector<FileIssue> issues;
  /// PEs the MANIFEST marks as killed mid-run (fault injection).
  std::vector<int> dead_pes;
  /// PAPI event ids recovered from a binary PEi_PAPI.apt header (empty for
  /// CSV traces) — what `actorprof export --csv` uses to rebuild the
  /// PEi_PAPI.csv header line.
  std::vector<papi::Event> papi_events;

  /// Aggregate the logical events into a src-by-dst matrix. All four
  /// aggregators skip records whose src_pe or dst_pe lies outside
  /// [0, num_pes), e.g. when a trace is loaded with too small a num_pes.
  [[nodiscard]] CommMatrix logical_matrix() const;
  /// Aggregate physical transfers (excluding progress signals by default,
  /// matching the paper's buffer heatmaps).
  [[nodiscard]] CommMatrix physical_matrix(bool include_progress = false) const;
  /// Sparse forms of the same aggregations: O(nonzero cells), the only
  /// accessors the rendering paths should use at large P (they bucket
  /// before densifying; the dense forms above materialize P^2 cells).
  [[nodiscard]] SparseCommMatrix logical_sparse() const;
  [[nodiscard]] SparseCommMatrix physical_sparse(
      bool include_progress = false) const;
};

TraceDir load_trace_dir(const std::filesystem::path& dir, int num_pes);
TraceDir load_trace_dir(const std::filesystem::path& dir, int num_pes,
                        const LoadOptions& opts);

/// Read the PE count from the trace dir's MANIFEST.txt. Returns 0 when the
/// manifest is missing or unparsable — callers fall back to --num-pes.
int detect_num_pes(const std::filesystem::path& dir);

}  // namespace ap::prof::io
