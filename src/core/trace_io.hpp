// ActorProf's trace files (paper §III):
//   PEi_send.csv  — logical trace, one line per application send
//   PEi_PAPI.csv  — PAPI segment rows
//   overall.txt   — Absolute/Relative TCOMM_PROFILING lines per PE
//   physical.txt  — network transfers of all PEs
// plus PEi_steps.csv (supersteps), check.csv (BSP conformance) and
// MANIFEST.txt. Every row kind has one schema (core/trace_schema.hpp) and
// is read and written by one generic reader and writer, in either
// container: CSV text or the .apt binary columns (core/trace_binary.hpp).
// The visualization CLI consumes these files only, so it also works on
// traces produced by other builds of the tool.
#pragma once

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "check/checker.hpp"
#include "core/aggregate.hpp"
#include "core/config.hpp"
#include "core/records.hpp"
#include "core/sink.hpp"
#include "metrics/self_overhead.hpp"

namespace ap::prof {
class LogicalSendView;
class Profiler;
}

namespace ap::prof::io {

inline constexpr const char* kOverallFile = "overall.txt";
inline constexpr const char* kManifestFile = "MANIFEST.txt";
/// Live-metrics sample ring dump, emitted only by the binary trace format
/// (there is no CSV counterpart; metrics.json carries the text view).
inline constexpr const char* kMetricSamplesFile = "metric_samples.apt";

/// Record kinds of the trace files (the .apt header's `kind` byte). All but
/// `metrics` are row kinds with a schema.
enum class BinKind : std::uint8_t {
  send = 1,
  papi = 2,
  steps = 3,
  physical = 4,
  check = 5,
  metrics = 6,
};

/// The record types of the row kinds.
template <class Rec>
concept TraceRow = std::is_same_v<Rec, LogicalSendRecord> ||
                   std::is_same_v<Rec, PapiSegmentRecord> ||
                   std::is_same_v<Rec, SuperstepRecord> ||
                   std::is_same_v<Rec, PhysicalRecord> ||
                   std::is_same_v<Rec, check::Violation>;

/// The container that holds a row kind's loaded rows (TraceDir, serve's
/// ingest, rewrite): a run log for the logical sends, whose rows repeat,
/// and a vector for the other kinds.
template <TraceRow Rec>
struct RowsOf {
  using type = std::vector<Rec>;
};
template <>
struct RowsOf<LogicalSendRecord> {
  using type = LogicalSendLog;
};
template <TraceRow Rec>
using Rows = typename RowsOf<Rec>::type;

/// Every row kind, in write_all's order (overall.txt, which is not a row
/// kind, goes between steps and check).
inline constexpr BinKind kRowKinds[] = {BinKind::send, BinKind::papi,
                                        BinKind::steps, BinKind::check,
                                        BinKind::physical};

/// One row-kind file: its kind and, for the per-PE shards (send, PAPI,
/// steps), its PE.
struct TraceFile {
  BinKind kind = BinKind::send;
  int pe = -1;  ///< -1 for physical and check
};

/// The file's name, exactly as the paper lists it ("PE3_send.csv",
/// "physical.txt", "check.csv"), or its .apt spelling ("PE3_send.apt").
[[nodiscard]] std::string file_name(TraceFile f, bool binary = false);
/// The inverse over both spellings; nullopt for any other name.
[[nodiscard]] std::optional<TraceFile> parse_file_name(std::string_view name);
/// The files of row kind `kind` in a run of `num_pes` PEs: one per PE for
/// the per-PE kinds, else one.
[[nodiscard]] std::vector<TraceFile> trace_files(BinKind kind, int num_pes);

/// What a file carries besides its rows.
struct FileMeta {
  /// PEi_PAPI: the configured events, in configuration order (the CSV
  /// header names them; the .apt header aux holds their ids).
  std::vector<papi::Event> papi_events{};
  /// check: violations past the checker's cap (the CSV "# dropped=<n>"
  /// marker; the .apt header aux).
  std::uint64_t dropped = 0;

  /// The PEi_PAPI header of a run configured with `cfg`.
  static FileMeta papi(const Config& cfg);
};

/// Parse failure carrying the 1-based line it happened on. Derives from
/// std::runtime_error, so pre-existing catch sites keep working.
class TraceParseError : public std::runtime_error {
 public:
  TraceParseError(std::size_t line_no, const std::string& what);
  [[nodiscard]] std::size_t line_no() const { return line_no_; }

 private:
  std::size_t line_no_;
};

// ---- one reader and one writer per container, for every row kind ----------

/// The containers the reader and the writers take: a std::vector of any
/// kind's records, and for the logical kind its runs, from the profiler
/// (LogicalSendView) or loaded (LogicalSendLog). The writers read runs a
/// 4,096-row block at a time, so their files are byte-identical to the
/// vector forms'; the reader appends each parsed row, or each verified
/// block through one reused block of rows, so a log grows with runs.
template <class C>
concept RowContainer = TraceRow<typename C::value_type>;

/// The CSV form of a row-kind file: header line, then one line per row.
template <RowContainer Src>
void write_csv(Sink& out, const Src& rows, const FileMeta& meta = {});
/// The .apt form: a complete file body (header + 4,096-row blocks + CRCs).
template <RowContainer Src>
[[nodiscard]] std::string encode(const Src& rows, const FileMeta& meta = {});
/// Parse either container (sniffed by content) and append its rows to
/// `out`, and its header to `meta` when given. Rows append as they verify,
/// so when damaged input throws TraceParseError the caller keeps the valid
/// prefix (what tolerant loading renders). CSV skips blank lines and '#'
/// comments; a last line without its newline is a truncated row and
/// throws at that line. An .apt error is a BinaryParseError naming the
/// block and byte offset.
template <RowContainer Out>
void read_into(std::string_view body, Out& out, FileMeta* meta = nullptr);

/// Append `more` after `rows` (push ingest's append segments). A run log
/// joins `more`'s first run to its last one when they hold the same row.
template <class Rec>
void append_rows(std::vector<Rec>& rows, std::vector<Rec>&& more) {
  rows.insert(rows.end(), std::make_move_iterator(more.begin()),
              std::make_move_iterator(more.end()));
}
inline void append_rows(LogicalSendLog& rows, LogicalSendLog&& more) {
  rows.append(more);
}

/// A row-kind file of kind `kind` (either container) rewritten from its
/// rows: as CSV (`actorprof export --csv`), or as a dense .apt — full
/// 4,096-row blocks in the container version of `body`, version 1 for
/// CSV input (`actorprof compact`). `records` receives the row count.
[[nodiscard]] std::string rewrite(std::string_view body, BinKind kind,
                                  TraceFormat to, std::uint64_t& records);

// ---- overall.txt (text only) -----------------------------------------------

void write_overall(Sink& out, const std::vector<OverallRecord>& recs);
/// "SelfOverhead ..." lines appended to overall.txt when Config::metrics is
/// on: the measured wall-rdtsc cost of ActorProf's own instrumentation,
/// per PE and per category. parse_overall_into skips them (they are not
/// "Absolute" lines), so existing consumers are unaffected.
void write_self_overhead(Sink& out, const metrics::OverheadMeter& m);
/// Appends one record per "Absolute" line; throws like read_into.
void parse_overall_into(std::string_view body,
                        std::vector<OverallRecord>& out);

// ---- files and the MANIFEST ------------------------------------------------

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
[[nodiscard]] Manifest parse_manifest(std::string_view body);
/// MANIFEST.txt's text: the header comment, num_pes, one line per file in
/// order, then the dead PEs.
[[nodiscard]] std::string format_manifest(const Manifest& m);

/// FNV-1a 64-bit over a byte buffer (the MANIFEST checksum).
std::uint64_t fnv1a64(const void* data, std::size_t n);

/// Read a whole file; false when it cannot be opened.
bool read_file(const std::filesystem::path& p, std::string& out);
/// Read row-kind file `f` from `dir`, preferring its .apt spelling. Returns
/// the name read, empty when neither spelling exists.
std::string read_trace_file(const std::filesystem::path& dir, TraceFile f,
                            std::string& body);
/// Write `body` to dir/name through a ".tmp" sibling and an atomic rename,
/// so a reader (or a kill) never observes a half-written file. Returns
/// false, with the tmp removed, when any step fails.
bool write_file_atomic(const std::filesystem::path& dir,
                       const std::string& name, std::string_view body);

/// Write every enabled trace of `prof` into cfg.trace_dir (created if
/// missing). Called by Profiler::write_traces().
///
/// Crash-safe: each file is fully built in memory and written with
/// write_file_atomic. A MANIFEST.txt (file list, record counts, FNV-1a
/// checksums, dead PEs) is written last. Failures are aggregated: one
/// std::runtime_error naming every file that could not be written, thrown
/// after all writable files landed.
///
/// Superstep rows of a killed PE are kept (each closed at a collective it
/// reached, so the prefix is the post-mortem evidence); its overall.txt
/// lines are not. check.csv is written under Config::check even when
/// empty: a zero-row file is the evidence a checked run was clean.
void write_all(const Profiler& prof, const Config& cfg);

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
  std::vector<Rows<LogicalSendRecord>> logical;  // per PE (may be empty)
  std::vector<Rows<PapiSegmentRecord>> papi;     // per PE
  std::vector<OverallRecord> overall;
  Rows<PhysicalRecord> physical;
  std::vector<Rows<SuperstepRecord>> steps;  // per PE (may be empty)
  /// BSP conformance violations (check.csv; empty when the run was clean
  /// or unchecked — check_recorded distinguishes the two).
  Rows<check::Violation> check;
  std::uint64_t check_dropped = 0;
  /// True when a check.csv was present: the run executed under the checker.
  bool check_recorded = false;
  /// Problems found under LoadOptions::tolerate_partial (always empty for
  /// strict loads, which throw instead).
  std::vector<FileIssue> issues;
  /// PEs the MANIFEST marks as killed mid-run (fault injection).
  std::vector<int> dead_pes;
  /// PAPI event ids recovered from a binary PEi_PAPI.apt header (empty for
  /// CSV traces).
  std::vector<papi::Event> papi_events;

  /// Calls fn(rows) with the member holding file `f`'s records:
  /// logical[pe], papi[pe], steps[pe], physical or check.
  template <class Fn>
  void with_rows(TraceFile f, Fn&& fn);
  /// read_into file `f`'s rows and take its header (absorb), keeping the
  /// rows and header read before a TraceParseError.
  void read(TraceFile f, std::string_view body);
  /// Take what a file of `kind` carried besides rows: the first PAPI event
  /// list seen, and check's dropped count (which also marks the run as
  /// checked).
  void absorb(BinKind kind, FileMeta&& meta);

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

template <class Fn>
void TraceDir::with_rows(TraceFile f, Fn&& fn) {
  const auto pe = static_cast<std::size_t>(f.pe);
  switch (f.kind) {
    case BinKind::send: return fn(logical[pe]);
    case BinKind::papi: return fn(papi[pe]);
    case BinKind::steps: return fn(steps[pe]);
    case BinKind::physical: return fn(physical);
    case BinKind::check: return fn(check);
    case BinKind::metrics: break;
  }
}

TraceDir load_trace_dir(const std::filesystem::path& dir, int num_pes,
                        const LoadOptions& opts = {});

/// Read the PE count from the trace dir's MANIFEST.txt. Returns 0 when the
/// manifest is missing or unparsable — callers fall back to --num-pes.
int detect_num_pes(const std::filesystem::path& dir);

}  // namespace ap::prof::io
