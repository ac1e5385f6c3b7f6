#include "core/trace_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "core/profiler.hpp"
#include "core/trace_binary.hpp"
#include "core/trace_schema.hpp"
#include "faultinject/faultinject.hpp"
#include "serve/publisher.hpp"

namespace ap::prof::io {

TraceParseError::TraceParseError(std::size_t line_no, const std::string& what)
    : std::runtime_error(what), line_no_(line_no) {}

namespace {

[[noreturn]] void parse_fail(std::size_t line_no, std::string_view line,
                             const char* what) {
  throw TraceParseError(line_no, "trace parse error at line " +
                                     std::to_string(line_no) + " (" + what +
                                     "): " + std::string(line));
}

bool space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// The first non-space character of `line`, or '\0' when it is blank.
char lead(std::string_view line) {
  for (const char c : line)
    if (!space(c)) return c;
  return '\0';
}

/// Blank lines and '#' comments.
bool skippable(std::string_view line) {
  const char c = lead(line);
  return c == '\0' || c == '#';
}

/// Calls fn(line, line_no) for each '\n'-terminated line of `body`. Every
/// writer ends each line with '\n', so a non-blank last line without one
/// is a truncated write: it throws, and the lines before it stand.
template <class Fn>
void for_each_line(std::string_view body, Fn&& fn) {
  for (std::size_t line_no = 1; !body.empty(); ++line_no) {
    const std::size_t nl = body.find('\n');
    if (nl == std::string_view::npos) {
      if (lead(body) != '\0') parse_fail(line_no, body, "truncated row");
      return;
    }
    fn(body.substr(0, nl), line_no);
    body.remove_prefix(nl + 1);
  }
}

/// Split `line` on `sep` into trimmed fields, without allocating. Returns
/// the field count; past `out.size()` fields the count is out.size() + 1
/// and the rest is not split.
template <std::size_t N>
std::size_t split(std::string_view line, std::array<std::string_view, N>& out,
                  char sep = ',') {
  const char* p = line.data();
  const char* const end = p + line.size();
  for (std::size_t n = 0;;) {
    if (n == N) return N + 1;
    const char* q = p;
    while (q != end && *q != sep) ++q;
    const char* a = p;
    const char* b = q;
    while (a != b && space(*a)) ++a;
    while (b != a && space(b[-1])) --b;
    out[n++] = std::string_view(a, static_cast<std::size_t>(b - a));
    if (q == end) return n;
    p = q + 1;
  }
}

template <class T>
T to_num(std::string_view s, std::size_t line_no, std::string_view line,
         int base = 10) {
  T value{};
  const auto [p, ec] =
      std::from_chars(s.data(), s.data() + s.size(), value, base);
  if (ec != std::errc{} || p != s.data() + s.size())
    parse_fail(line_no, line, "bad number");
  return value;
}

/// The apt spelling of a CSV/text file name: "x.csv" -> "x.apt".
std::string apt_name(std::string_view csv_name) {
  return std::string(csv_name.substr(0, csv_name.rfind('.'))) + ".apt";
}

// ---- CSV fields, per schema column -----------------------------------------
// put_field writes a column's text in a row and put_label its header text;
// every column but the first is preceded by a separator (put_next), which
// the counters column repeats per value.

template <class Rec, class T>
void put_field(Sink& out, const Num<Rec, T>& col, const Rec& r) {
  out.dec(r.*col.field);
}
template <class Rec, class T, std::size_t N>
void put_field(Sink& out, const Named<Rec, T, N>& col, const Rec& r) {
  const auto v = static_cast<std::uint64_t>(r.*col.field);
  out.append(v < N ? col.names[v] : "unknown");
}
template <class Rec>
void put_field(Sink& out, const Dict<Rec>& col, const Rec& r) {
  out.append(r.*col.field);
}
template <class Col, class Rec>
void put_next(Sink& out, const Col& col, const Rec& r, const FileMeta&) {
  out.put(',');
  put_field(out, col, r);
}
template <class Rec>
void put_next(Sink& out, const Counters<Rec>& col, const Rec& r,
              const FileMeta& meta) {
  for (std::size_t i = 0; i < meta.papi_events.size(); ++i) {
    out.put(',');
    out.dec((r.*col.field)[i]);
  }
}

template <class Col>
void put_label(Sink& out, const Col& col, const FileMeta&) {
  out.append(", ");
  out.append(col.label);
}
template <class Rec>
void put_label(Sink& out, const Counters<Rec>&, const FileMeta& meta) {
  for (const papi::Event e : meta.papi_events) {
    out.append(", ");
    out.append(papi::name(e));
  }
}

/// A parsed CSV line: the fields of one row and where the next is.
struct Fields {
  const std::string_view* f;
  std::size_t next = 0;
  std::size_t counters = 0;  ///< fields the counters column takes
  std::size_t line_no;
  std::string_view line;

  std::string_view take() { return f[next++]; }
};

template <class Rec, class T>
void get_field(const Num<Rec, T>& col, Rec& r, Fields& in) {
  r.*col.field = to_num<T>(in.take(), in.line_no, in.line);
}
template <class Rec, class T, std::size_t N>
void get_field(const Named<Rec, T, N>& col, Rec& r, Fields& in) {
  const std::string_view s = in.take();
  const auto it = std::find(col.names.begin(), col.names.end(), s);
  if (it == col.names.end()) parse_fail(in.line_no, in.line, "unknown name");
  r.*col.field = static_cast<T>(it - col.names.begin());
}
template <class Rec>
void get_field(const Counters<Rec>& col, Rec& r, Fields& in) {
  for (std::size_t i = 0; i < in.counters; ++i)
    (r.*col.field)[i] = to_num<std::uint64_t>(in.take(), in.line_no, in.line);
}
template <class Rec>
void get_field(const Dict<Rec>& col, Rec& r, Fields& in) {
  r.*col.field = std::string(in.take());
}

/// The CSV half of read_into: each parsed row appends to `out`, a vector
/// or a run log.
template <class Out>
void parse_csv(std::string_view body, Out& out, FileMeta& meta) {
  using Rec = typename Out::value_type;
  const auto s = schema(std::type_identity<Rec>{});
  // Fields per row: one per column, but the counters column takes 0 to
  // kMaxEventsPerSet (kColumns counts it at its maximum).
  constexpr std::size_t kMax = SchemaOf<Rec>::kColumns;
  constexpr std::size_t kCols = std::tuple_size_v<decltype(s.cols)>;
  constexpr std::size_t kMin = kMax > kCols ? kCols - 1 : kCols;
  std::array<std::string_view, kMax> f;
  if constexpr (std::is_same_v<Out, std::vector<Rec>>)
    out.reserve(out.size() + 1024);
  for_each_line(body, [&](std::string_view line, std::size_t line_no) {
    if (s.aux == Aux::dropped && line.starts_with("# dropped=")) {
      meta.dropped = to_num<std::uint64_t>(line.substr(10), line_no, line);
      return;
    }
    if (skippable(line)) return;
    const std::size_t n = split(line, f);
    if (n < kMin || n > kMax)
      parse_fail(line_no, line, "wrong number of fields");
    Fields in{f.data(), 0, n - kMin, line_no, line};
    Rec r;
    std::apply([&](const auto&... col) { (get_field(col, r, in), ...); },
               s.cols);
    out.push_back(std::move(r));
  });
}

}  // namespace

// ------------------------------------------------------------------ row kinds

FileMeta FileMeta::papi(const Config& cfg) {
  FileMeta m;
  m.papi_events.assign(cfg.papi_events.begin(),
                       cfg.papi_events.begin() + cfg.num_papi_events());
  return m;
}

std::string file_name(TraceFile f, bool binary) {
  return visit(f.kind, [&](auto tag) {
    const auto s = schema(tag);
    const std::string csv = s.per_pe ? "PE" + std::to_string(f.pe) +
                                           std::string(s.file)
                                     : std::string(s.file);
    return binary ? apt_name(csv) : csv;
  });
}

std::optional<TraceFile> parse_file_name(std::string_view name) {
  int pe = -1;
  if (name.starts_with("PE")) {
    const auto [p, ec] =
        std::from_chars(name.data() + 2, name.data() + name.size(), pe);
    if (ec != std::errc{} || pe < 0) return std::nullopt;
    name.remove_prefix(static_cast<std::size_t>(p - name.data()));
  }
  for (const BinKind k : kRowKinds) {
    const bool match = visit(k, [&](auto tag) {
      const auto s = schema(tag);
      return s.per_pe == (pe >= 0) &&
             (name == s.file || name == apt_name(s.file));
    });
    if (match) return TraceFile{k, pe};
  }
  return std::nullopt;
}

std::vector<TraceFile> trace_files(BinKind kind, int num_pes) {
  if (!visit(kind, [](auto tag) { return schema(tag).per_pe; }))
    return {TraceFile{kind}};
  std::vector<TraceFile> out;
  for (int pe = 0; pe < num_pes; ++pe) out.push_back({kind, pe});
  return out;
}

template <RowContainer Src>
void write_csv(Sink& out, const Src& rows, const FileMeta& meta) {
  using Rec = typename Src::value_type;
  const auto s = schema(std::type_identity<Rec>{});
  out.reserve(rows.size() * 4 * SchemaOf<Rec>::kColumns + 128);
  std::apply(
      [&](const auto& head, const auto&... tail) {
        out.append("# ");
        out.append(head.label);
        (put_label(out, tail, meta), ...);
      },
      s.cols);
  out.put('\n');
  if (s.aux == Aux::dropped && meta.dropped != 0) {
    out.append("# dropped=");
    out.dec(meta.dropped);
    out.put('\n');
  }
  for_each_block(rows, [&](const Rec* block, std::size_t n) {
    for (const Rec* r = block; r != block + n; ++r) {
      std::apply(
          [&](const auto& head, const auto&... tail) {
            put_field(out, head, *r);
            (put_next(out, tail, *r, meta), ...);
          },
          s.cols);
      out.put('\n');
    }
  });
}

template <RowContainer Out>
void read_into(std::string_view body, Out& out, FileMeta* meta) {
  FileMeta scratch;
  FileMeta& m = meta != nullptr ? *meta : scratch;
  if (is_binary_trace(body))
    decode_into(body, out, m);
  else
    parse_csv(body, out, m);
}

#define AP_INSTANTIATE(Rec)                                              \
  template void write_csv(Sink&, const std::vector<Rec>&, const FileMeta&); \
  template void read_into(std::string_view, std::vector<Rec>&, FileMeta*);
AP_TRACE_ROWS(AP_INSTANTIATE)
#undef AP_INSTANTIATE
template void write_csv(Sink&, const LogicalSendView&, const FileMeta&);
template void write_csv(Sink&, const LogicalSendLog&, const FileMeta&);
template void read_into(std::string_view, LogicalSendLog&, FileMeta*);

std::string rewrite(std::string_view body, BinKind kind, TraceFormat to,
                    std::uint64_t& records) {
  return visit(kind, [&]<class Rec>(std::type_identity<Rec>) {
    Rows<Rec> rows;
    FileMeta meta;
    read_into(body, rows, &meta);
    records = rows.size();
    if (to == TraceFormat::csv) {
      Sink out;
      write_csv(out, rows, meta);
      return std::move(out).str();
    }
    std::string apt = encode(rows, meta);
    return is_compressed_trace(body) ? compress_trace(apt) : apt;
  });
}

// ---------------------------------------------------------------- overall.txt

void write_overall(Sink& out, const std::vector<OverallRecord>& recs) {
  for (const OverallRecord& r : recs) {
    out.append("Absolute [PE");
    out.dec(r.pe);
    out.append("] TCOMM_PROFILING (T_MAIN, T_COMM, T_PROC) = (");
    out.dec(r.t_main);
    out.append(", ");
    out.dec(r.t_comm());
    out.append(", ");
    out.dec(r.t_proc);
    out.append(")\n");
    out.append("Relative [PE");
    out.dec(r.pe);
    out.append("] TCOMM_PROFILING (T_MAIN/T_TOTAL, T_COMM/T_TOTAL, "
               "T_PROC/T_TOTAL) = (");
    out.flt(r.rel_main());
    out.append(", ");
    out.flt(r.rel_comm());
    out.append(", ");
    out.flt(r.rel_proc());
    out.append(")\n");
  }
}

void write_self_overhead(Sink& out, const metrics::OverheadMeter& m) {
  if (!m.bound()) return;
  out.append("# Profiler self-overhead, wall rdtsc cycles per category (");
  for (int c = 0; c < metrics::kOverheadCategories; ++c) {
    if (c) out.append(", ");
    out.append(metrics::to_string(static_cast<metrics::OverheadCategory>(c)));
  }
  out.append(")\n");
  const auto row = [&](std::string_view who, int slot) {
    out.append("SelfOverhead [");
    out.append(who);
    out.append("] cycles = (");
    for (int c = 0; c < metrics::kOverheadCategories; ++c) {
      if (c) out.append(", ");
      out.dec(m.cycles(slot, static_cast<metrics::OverheadCategory>(c)));
    }
    out.append(") total ");
    out.dec(m.total(slot));
    out.put('\n');
  };
  for (int pe = 0; pe < m.num_pes(); ++pe) row("PE" + std::to_string(pe), pe);
  row("fleet", metrics::OverheadMeter::kGlobalSlot);
  out.append("SelfOverhead total = ");
  out.dec(m.grand_total());
  out.append(" cycles\n");
}

void parse_overall_into(std::string_view body,
                        std::vector<OverallRecord>& out) {
  for_each_line(body, [&](std::string_view line, std::size_t line_no) {
    // Relative lines are derived from the Absolute ones.
    if (skippable(line) || !line.starts_with("Absolute")) return;
    // Absolute [PE3] TCOMM_PROFILING (T_MAIN, T_COMM, T_PROC) = (a, b, c)
    const auto pe_open = line.find("[PE");
    const auto pe_close = line.find(']', pe_open);
    const auto eq = line.find('=', pe_close);
    const auto paren = line.find('(', eq);
    const auto paren_close = line.find(')', paren);
    if (paren_close == std::string_view::npos)
      parse_fail(line_no, line, "malformed Absolute line");
    std::array<std::string_view, 3> nums;
    if (split(line.substr(paren + 1, paren_close - paren - 1), nums) != 3)
      parse_fail(line_no, line, "expected 3 numbers");
    OverallRecord r;
    r.pe = to_num<int>(line.substr(pe_open + 3, pe_close - pe_open - 3),
                       line_no, line);
    r.t_main = to_num<std::uint64_t>(nums[0], line_no, line);
    const auto t_comm = to_num<std::uint64_t>(nums[1], line_no, line);
    r.t_proc = to_num<std::uint64_t>(nums[2], line_no, line);
    r.t_total = r.t_main + t_comm + r.t_proc;
    out.push_back(r);
  });
}

// ------------------------------------------------------- files and MANIFEST

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

Manifest parse_manifest(std::string_view body) {
  Manifest m;
  for_each_line(body, [&](std::string_view line, std::size_t line_no) {
    if (skippable(line)) return;
    std::array<std::string_view, 5> t;
    const std::size_t n = split(line.substr(line.find_first_not_of(" \t")),
                                t, ' ');
    if (t[0] == "num_pes" && n == 2) {
      m.num_pes = to_num<int>(t[1], line_no, line);
    } else if (t[0] == "dead_pe" && n == 2) {
      m.dead_pes.push_back(to_num<int>(t[1], line_no, line));
    } else if (t[0] == "file" && n == 5) {
      const auto kv = [&](std::string_view s, std::string_view key,
                          int base) {
        if (!s.starts_with(key))
          parse_fail(line_no, line, "malformed file entry");
        return to_num<std::uint64_t>(s.substr(key.size()), line_no, line,
                                     base);
      };
      m.files.push_back(ManifestEntry{std::string(t[1]),
                                      kv(t[2], "records=", 10),
                                      kv(t[3], "bytes=", 10),
                                      kv(t[4], "fnv1a=", 16)});
    } else {
      parse_fail(line_no, line, "malformed manifest line");
    }
  });
  return m;
}

std::string format_manifest(const Manifest& m) {
  Sink out;
  out.append(
      "# ActorProf trace manifest: file <name> records=<n> bytes=<n> "
      "fnv1a=<hex64>\n");
  out.append("num_pes ");
  out.dec(m.num_pes);
  out.put('\n');
  for (const ManifestEntry& e : m.files) {
    out.append("file ");
    out.append(e.file);
    out.append(" records=");
    out.dec(e.records);
    out.append(" bytes=");
    out.dec(e.bytes);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(e.fnv1a));
    out.append(" fnv1a=");
    out.append(hex);
    out.put('\n');
  }
  for (const int pe : m.dead_pes) {
    out.append("dead_pe ");
    out.dec(pe);
    out.put('\n');
  }
  return std::move(out).str();
}

bool read_file(const std::filesystem::path& p, std::string& out) {
  std::ifstream is(p, std::ios::binary | std::ios::ate);
  if (!is) return false;
  out.resize(static_cast<std::size_t>(std::max<std::streamoff>(is.tellg(), 0)));
  is.seekg(0);
  is.read(out.data(), static_cast<std::streamsize>(out.size()));
  out.resize(static_cast<std::size_t>(is.gcount()));  // shrunk meanwhile
  return true;
}

namespace {

/// The first spelling of `f` that `read(name)` reads, .apt first; empty
/// when neither reads.
template <class Read>
std::string read_either_spelling(TraceFile f, Read&& read) {
  for (const bool binary : {true, false}) {
    std::string name = file_name(f, binary);
    if (read(name)) return name;
  }
  return {};
}

}  // namespace

std::string read_trace_file(const std::filesystem::path& dir, TraceFile f,
                            std::string& body) {
  return read_either_spelling(f, [&](const std::string& name) {
    return read_file(dir / name, body);
  });
}

bool write_file_atomic(const std::filesystem::path& dir,
                       const std::string& name, std::string_view body) {
  namespace fs = std::filesystem;
  const fs::path tmp = dir / (name + ".tmp");
  bool ok = false;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
    os.flush();
    ok = os.good();
  }
  std::error_code ec;
  if (ok) fs::rename(tmp, dir / name, ec);
  if (!ok || ec) fs::remove(tmp, ec);
  return ok && !ec;
}

void write_all(const Profiler& prof, const Config& cfg) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(cfg.trace_dir, ec);
  if (ec)
    throw std::runtime_error("write_all: cannot create trace dir " +
                             cfg.trace_dir.string() + ": " + ec.message());
  const int n = prof.num_pes();

  Manifest manifest{n, {}, {}};
  std::vector<std::string> failed;
  serve::Publisher* pub = prof.publisher();
  const auto emit = [&](const std::string& name, std::string body,
                        std::uint64_t records) {
    // Compression is a container transform applied here, at persist time:
    // the encoder stays version-1 and the manifest describes the on-disk
    // (possibly compressed) bytes.
    if (cfg.trace_compress && is_binary_trace(body))
      body = compress_trace(body);
    if (write_file_atomic(cfg.trace_dir, name, body))
      manifest.files.push_back(ManifestEntry{
          name, records, body.size(), fnv1a64(body.data(), body.size())});
    else
      failed.push_back(name);
    // Live streaming: the final on-disk body replaces whatever incremental
    // frames were pushed mid-run, so the pushed run converges to the same
    // bytes a file-based serve would load.
    if (pub != nullptr) pub->publish_file(name, std::move(body), false);
  };
  // Binary (.apt) and CSV traces hold identical rows; only the container
  // differs. The loader sniffs whichever is present, and `actorprof export
  // --csv` converts back. overall.txt and MANIFEST.txt stay text in both.
  const bool binary = cfg.trace_format == TraceFormat::binary;
  const auto emit_rows = [&](TraceFile f, const auto& rows,
                             const FileMeta& meta) {
    if (binary) {
      emit(file_name(f, true), encode(rows, meta), rows.size());
    } else {
      Sink out;
      write_csv(out, rows, meta);
      emit(file_name(f), std::move(out).str(), rows.size());
    }
  };

  // The profiler keeps logical sends as runs, and the writers read them as
  // runs: the files hold one row per send, expanded a block at a time.
  if (cfg.logical && cfg.keep_logical_events)
    for (int pe = 0; pe < n; ++pe)
      emit_rows({BinKind::send, pe}, prof.logical_events(pe), {});
  if (cfg.papi)
    for (int pe = 0; pe < n; ++pe)
      emit_rows({BinKind::papi, pe}, prof.papi_segments(pe),
                FileMeta::papi(cfg));
  if (cfg.supersteps)
    for (int pe = 0; pe < n; ++pe)
      emit_rows({BinKind::steps, pe}, prof.supersteps(pe), {});
  if (cfg.overall) {
    Sink out;
    // A PE killed mid-epoch never reached epoch_end: its cycle buckets are
    // inconsistent (t_total excludes the aborted epoch), so its overall
    // lines are suppressed — the MANIFEST marks the PE dead instead.
    std::vector<OverallRecord> recs;
    for (const OverallRecord& r : prof.overall())
      if (!fi::was_killed(r.pe)) recs.push_back(r);
    write_overall(out, recs);
    // Self-overhead is rdtsc-based (nondeterministic), so it only appears
    // when metrics were explicitly requested — determinism tests compare
    // overall.txt byte-for-byte under Config::all_enabled().
    if (cfg.metrics) write_self_overhead(out, prof.self_overhead());
    emit(kOverallFile, std::move(out).str(), recs.size());
  }
  if (cfg.check)
    emit_rows({BinKind::check}, prof.bsp_violations(),
              {.dropped = prof.bsp_violations_dropped()});
  if (cfg.physical && cfg.keep_physical_events) {
    std::vector<PhysicalRecord> merged;
    for (int pe = 0; pe < n; ++pe) {
      const auto& evs = prof.physical_events(pe);
      merged.insert(merged.end(), evs.begin(), evs.end());
    }
    emit_rows({BinKind::physical}, merged, {});
  }
  if (binary && cfg.metrics && prof.metric_samples().bound()) {
    // The sample ring has no CSV counterpart (metrics.json is its text
    // view); the binary format can afford to persist every snapshot.
    emit(kMetricSamplesFile, encode_metric_samples(prof.metric_samples()),
         prof.metric_samples().size());
  }

  // MANIFEST last: a loader that sees it knows every listed file was
  // completely written (and can verify it with the checksum).
  manifest.dead_pes = fi::killed_pes();
  std::string text = format_manifest(manifest);
  if (!write_file_atomic(cfg.trace_dir, kManifestFile, text))
    failed.push_back(kManifestFile);
  if (pub != nullptr) pub->publish_file(kManifestFile, std::move(text), false);

  if (!failed.empty()) {
    std::string msg = "write_all: failed to write " +
                      std::to_string(failed.size()) + " file(s) in " +
                      cfg.trace_dir.string() + ":";
    for (const std::string& f : failed) msg += " " + f;
    throw std::runtime_error(msg);
  }
  if (cfg.metrics) prof.write_metrics();
  if (pub != nullptr) {
    if (cfg.metrics) {
      std::ostringstream os;
      prof.write_metrics_prometheus(os);
      pub->publish_file("metrics.prom", os.str(), false);
    }
    // Bounded wait so "/analyze?run= right after write_traces()" sees the
    // final bytes; a dead collector costs at most the flush timeout.
    pub->flush();
  }
}

// ---------------------------------------------------------------- TraceDir

namespace {

/// PE ids in records come from the file: a trace loaded with a smaller
/// num_pes than it was recorded with holds cells outside the matrix.
bool in_range(int src, int dst, int n) {
  return src >= 0 && src < n && dst >= 0 && dst < n;
}

/// Count every in-range send of `t` into a CommMatrix or SparseCommMatrix,
/// adding each run's count once.
template <class Matrix>
Matrix logical_cells(const TraceDir& t) {
  Matrix m(t.num_pes);
  for (const LogicalSendLog& log : t.logical)
    for (const LogicalSendLog::Run& r : log.runs())
      if (in_range(r.row.src_pe, r.row.dst_pe, t.num_pes))
        m.add(r.row.src_pe, r.row.dst_pe, r.count);
  return m;
}

template <class Matrix>
Matrix physical_cells(const TraceDir& t, bool include_progress) {
  Matrix m(t.num_pes);
  for (const PhysicalRecord& r : t.physical) {
    if (!include_progress && r.type == convey::SendType::nonblock_progress)
      continue;
    if (in_range(r.src_pe, r.dst_pe, t.num_pes)) m.add(r.src_pe, r.dst_pe);
  }
  return m;
}

}  // namespace

CommMatrix TraceDir::logical_matrix() const {
  return logical_cells<CommMatrix>(*this);
}

CommMatrix TraceDir::physical_matrix(bool include_progress) const {
  return physical_cells<CommMatrix>(*this, include_progress);
}

SparseCommMatrix TraceDir::logical_sparse() const {
  return logical_cells<SparseCommMatrix>(*this);
}

SparseCommMatrix TraceDir::physical_sparse(bool include_progress) const {
  return physical_cells<SparseCommMatrix>(*this, include_progress);
}

void TraceDir::absorb(BinKind kind, FileMeta&& meta) {
  if (kind == BinKind::check) {
    check_recorded = true;
    check_dropped = meta.dropped;
  }
  if (papi_events.empty()) papi_events = std::move(meta.papi_events);
}

void TraceDir::read(TraceFile f, std::string_view body) {
  FileMeta meta;
  try {
    with_rows(f, [&](auto& rows) { read_into(body, rows, &meta); });
  } catch (const TraceParseError&) {
    absorb(f.kind, std::move(meta));
    throw;
  }
  absorb(f.kind, std::move(meta));
}

TraceDir load_trace_dir(const std::filesystem::path& dir, int num_pes,
                        const LoadOptions& opts) {
  TraceDir t;
  t.num_pes = num_pes;
  t.logical.resize(static_cast<std::size_t>(num_pes));
  t.papi.resize(static_cast<std::size_t>(num_pes));
  t.steps.resize(static_cast<std::size_t>(num_pes));

  // The MANIFEST (when present) supplies checksums and the dead-PE set.
  // Its absence is not an error — pre-manifest trace dirs stay loadable.
  Manifest manifest;
  bool have_manifest = false;
  if (std::string body; read_file(dir / kManifestFile, body)) {
    try {
      manifest = parse_manifest(body);
      have_manifest = true;
    } catch (const TraceParseError& e) {
      if (!opts.tolerate_partial) throw;
      t.issues.push_back(FileIssue{kManifestFile, e.line_no(), e.what()});
    }
  }
  if (have_manifest) t.dead_pes = manifest.dead_pes;

  const auto in_manifest = [&](const std::string& name) {
    for (const ManifestEntry& m : manifest.files)
      if (m.file == name) return true;
    return false;
  };

  // Load one file: `actual` names what was read (empty when missing), and
  // parse(body) reads it into `t` — the incremental forms, so a truncated
  // or corrupt tail still yields its verified prefix. A missing file is an
  // issue when the MANIFEST lists either spelling.
  const auto load = [&](const std::string& name, const std::string& bin_name,
                        const std::string& actual, std::string_view body,
                        auto&& parse) {
    if (actual.empty()) {
      if (have_manifest && (in_manifest(name) || in_manifest(bin_name))) {
        if (!opts.tolerate_partial)
          throw std::runtime_error(name + ": cannot open trace file in " +
                                   dir.string());
        t.issues.push_back(FileIssue{name, 0, "missing trace file"});
      }
      return;
    }
    if (have_manifest && opts.tolerate_partial) {
      for (const ManifestEntry& m : manifest.files) {
        if (m.file != actual) continue;
        if (m.bytes != body.size() ||
            m.fnv1a != fnv1a64(body.data(), body.size()))
          t.issues.push_back(FileIssue{
              actual, 0,
              "checksum mismatch vs MANIFEST (file truncated or modified); "
              "keeping the parsable prefix"});
        break;
      }
    }
    try {
      parse(body);
    } catch (const TraceParseError& e) {
      if (!opts.tolerate_partial)
        throw TraceParseError(e.line_no(), actual + ": " + e.what());
      t.issues.push_back(FileIssue{actual, e.line_no(), e.what()});
    }
  };
  // List the directory once and open only the names it holds: a trace
  // has one spelling of each file, and most kinds are off in most
  // configs, so trying every name would mostly make failed opens.
  std::vector<std::string> listed;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec))
    listed.push_back(entry.path().filename().string());
  std::sort(listed.begin(), listed.end());
  std::string body;
  const auto read_listed = [&](const std::string& name) {
    return std::binary_search(listed.begin(), listed.end(), name) &&
           read_file(dir / name, body);
  };
  const auto load_rows = [&](TraceFile f) {
    const std::string actual = read_either_spelling(f, read_listed);
    load(file_name(f), file_name(f, true), actual, body,
         [&](std::string_view b) { t.read(f, b); });
  };

  for (const BinKind k : kRowKinds)
    for (const TraceFile f : trace_files(k, num_pes)) load_rows(f);
  const bool have_overall = read_listed(kOverallFile);
  load(kOverallFile, kOverallFile, have_overall ? kOverallFile : "", body,
       [&](std::string_view b) { parse_overall_into(b, t.overall); });
  return t;
}

int detect_num_pes(const std::filesystem::path& dir) {
  std::string body;
  if (!read_file(dir / kManifestFile, body)) return 0;
  try {
    return parse_manifest(body).num_pes;
  } catch (const TraceParseError&) {
    return 0;
  }
}

}  // namespace ap::prof::io
