#include "core/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "core/profiler.hpp"
#include "core/trace_binary.hpp"
#include "faultinject/faultinject.hpp"
#include "serve/publisher.hpp"

namespace ap::prof::io {

TraceParseError::TraceParseError(std::size_t line_no, const std::string& what)
    : std::runtime_error(what), line_no_(line_no) {}

namespace {

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& line,
                             const char* what) {
  throw TraceParseError(line_no, "trace parse error at line " +
                                     std::to_string(line_no) + " (" + what +
                                     "): " + line);
}

/// Split a CSV line into trimmed fields without allocating: the scanner
/// writes views over `line` into the caller-owned `out`, which parse
/// loops reuse across lines. (The viz CLI reloads million-row
/// PEi_send.csv files; a stringstream per line used to dominate.)
void split_csv(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = line.find(',', pos);
    const std::size_t end = comma == std::string_view::npos ? line.size()
                                                            : comma;
    std::string_view f = line.substr(pos, end - pos);
    while (!f.empty() && (f.front() == ' ' || f.front() == '\t'))
      f.remove_prefix(1);
    while (!f.empty() &&
           (f.back() == ' ' || f.back() == '\t' || f.back() == '\r'))
      f.remove_suffix(1);
    out.push_back(f);
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
}

template <class T>
T to_num(std::string_view s, std::size_t line_no, const std::string& line) {
  T value{};
  const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || p != s.data() + s.size())
    parse_fail(line_no, line, "bad number");
  return value;
}

bool skippable(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;  // blank
}

convey::SendType parse_send_type(std::string_view s, std::size_t line_no,
                                 const std::string& line) {
  if (s == "local_send") return convey::SendType::local_send;
  if (s == "nonblock_send") return convey::SendType::nonblock_send;
  if (s == "nonblock_progress") return convey::SendType::nonblock_progress;
  parse_fail(line_no, line, "unknown send type");
}

}  // namespace

std::string logical_file_name(int pe) {
  return "PE" + std::to_string(pe) + "_send.csv";
}

std::string papi_file_name(int pe) {
  return "PE" + std::to_string(pe) + "_PAPI.csv";
}

std::string steps_file_name(int pe) {
  return "PE" + std::to_string(pe) + "_steps.csv";
}

// ------------------------------------------------------------------ writers
// The Sink forms are the implementations; the ostream forms build into a
// Sink and flush its buffer in one write (see core/sink.hpp).

namespace {

void flush_sink(std::ostream& os, const Sink& s) {
  os.write(s.str().data(), static_cast<std::streamsize>(s.size()));
}

}  // namespace

void write_logical(Sink& out, const std::vector<LogicalSendRecord>& events) {
  out.reserve(events.size() * 12 + 64);
  out.append("# source node, source PE, destination node, destination PE, "
             "message size\n");
  for (const LogicalSendRecord& r : events) {
    out.dec(r.src_node);
    out.put(',');
    out.dec(r.src_pe);
    out.put(',');
    out.dec(r.dst_node);
    out.put(',');
    out.dec(r.dst_pe);
    out.put(',');
    out.dec(r.msg_bytes);
    out.put('\n');
  }
}

void write_logical(std::ostream& os,
                   const std::vector<LogicalSendRecord>& events) {
  Sink s;
  write_logical(s, events);
  flush_sink(os, s);
}

void write_papi(Sink& out, const std::vector<PapiSegmentRecord>& rows,
                const Config& cfg) {
  out.reserve(rows.size() * 32 + 128);
  out.append("# source node, source PE, dst node, dst PE, pkt size, "
             "MAILBOXID, NUM_SENDS");
  for (int i = 0; i < cfg.num_papi_events(); ++i) {
    out.append(", ");
    out.append(papi::name(cfg.papi_events[static_cast<std::size_t>(i)]));
  }
  out.append(", REGION\n");
  for (const PapiSegmentRecord& r : rows) {
    out.dec(r.src_node);
    out.put(',');
    out.dec(r.src_pe);
    out.put(',');
    out.dec(r.dst_node);
    out.put(',');
    out.dec(r.dst_pe);
    out.put(',');
    out.dec(r.pkt_bytes);
    out.put(',');
    out.dec(r.mailbox_id);
    out.put(',');
    out.dec(r.num_sends);
    for (int i = 0; i < cfg.num_papi_events(); ++i) {
      out.put(',');
      out.dec(r.counters[static_cast<std::size_t>(i)]);
    }
    out.append(r.is_proc ? ",PROC\n" : ",MAIN\n");
  }
}

void write_papi(std::ostream& os, const std::vector<PapiSegmentRecord>& rows,
                const Config& cfg) {
  Sink s;
  write_papi(s, rows, cfg);
  flush_sink(os, s);
}

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

void write_overall(std::ostream& os, const std::vector<OverallRecord>& recs) {
  Sink s;
  write_overall(s, recs);
  flush_sink(os, s);
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

void write_self_overhead(std::ostream& os, const metrics::OverheadMeter& m) {
  Sink s;
  write_self_overhead(s, m);
  flush_sink(os, s);
}

void write_physical(Sink& out, const std::vector<PhysicalRecord>& events) {
  out.reserve(events.size() * 24 + 64);
  out.append("# send type, buffer size, source PE, destination PE\n");
  for (const PhysicalRecord& r : events) {
    out.append(convey::to_string(r.type));
    out.put(',');
    out.dec(r.buffer_bytes);
    out.put(',');
    out.dec(r.src_pe);
    out.put(',');
    out.dec(r.dst_pe);
    out.put('\n');
  }
}

void write_physical(std::ostream& os,
                    const std::vector<PhysicalRecord>& events) {
  Sink s;
  write_physical(s, events);
  flush_sink(os, s);
}

void write_check(Sink& out, const std::vector<check::Violation>& v,
                 std::uint64_t dropped) {
  out.append("# kind, pe, other_pe, superstep, offset, bytes, callsite, "
             "detail\n");
  // record() sanitized callsite/detail to comma-free text, so each row
  // stays exactly 8 fields.
  if (dropped != 0) {
    out.append("# dropped=");
    out.dec(dropped);
    out.put('\n');
  }
  for (const check::Violation& x : v) {
    out.append(check::to_string(x.kind));
    out.put(',');
    out.dec(x.pe);
    out.put(',');
    out.dec(x.other_pe);
    out.put(',');
    out.dec(x.superstep);
    out.put(',');
    out.dec(x.offset);
    out.put(',');
    out.dec(x.bytes);
    out.put(',');
    out.append(x.callsite);
    out.put(',');
    out.append(x.detail);
    out.put('\n');
  }
}

void write_check(std::ostream& os, const std::vector<check::Violation>& v,
                 std::uint64_t dropped) {
  Sink s;
  write_check(s, v, dropped);
  flush_sink(os, s);
}

void write_steps(Sink& out, const std::vector<SuperstepRecord>& recs) {
  out.reserve(recs.size() * 40 + 96);
  out.append("# pe, epoch, step, t_main, t_proc, t_comm, msgs_sent, "
             "bytes_sent, msgs_handled, barrier_arrive, barrier_release\n");
  for (const SuperstepRecord& r : recs) {
    out.dec(r.pe);
    out.put(',');
    out.dec(r.epoch);
    out.put(',');
    out.dec(r.step);
    out.put(',');
    out.dec(r.t_main);
    out.put(',');
    out.dec(r.t_proc);
    out.put(',');
    out.dec(r.t_comm);
    out.put(',');
    out.dec(r.msgs_sent);
    out.put(',');
    out.dec(r.bytes_sent);
    out.put(',');
    out.dec(r.msgs_handled);
    out.put(',');
    out.dec(r.barrier_arrive);
    out.put(',');
    out.dec(r.barrier_release);
    out.put('\n');
  }
}

void write_steps(std::ostream& os, const std::vector<SuperstepRecord>& recs) {
  Sink s;
  write_steps(s, recs);
  flush_sink(os, s);
}

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// Write `body` to dir/name via a ".tmp" sibling + atomic rename. Returns
/// false (after cleaning up the tmp) when any step fails — the aggregated
/// error in write_all reports it.
bool atomic_write_file(const std::filesystem::path& dir,
                       const std::string& name, const std::string& body) {
  namespace fs = std::filesystem;
  const fs::path tmp = dir / (name + ".tmp");
  const fs::path dst = dir / name;
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
    os.flush();
    if (!os.good()) {
      os.close();
      std::error_code ignore;
      fs::remove(tmp, ignore);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, dst, ec);
  if (ec) {
    std::error_code ignore;
    fs::remove(tmp, ignore);
    return false;
  }
  return true;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  static const char* digits = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[i] = digits[v & 0xf];
    v >>= 4;
  }
  buf[16] = '\0';
  return buf;
}

}  // namespace

void write_all(const Profiler& prof, const Config& cfg) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(cfg.trace_dir, ec);
  if (ec)
    throw std::runtime_error("write_all: cannot create trace dir " +
                             cfg.trace_dir.string() + ": " + ec.message());
  const int n = prof.num_pes();

  std::vector<ManifestEntry> written;
  std::vector<std::string> failed;
  serve::Publisher* pub = prof.publisher();
  const auto emit = [&](const std::string& name, std::string body,
                        std::uint64_t records) {
    // Compression is a container transform applied here, at persist time:
    // the encoders stay version-1 and the manifest describes the on-disk
    // (possibly compressed) bytes.
    if (cfg.trace_compress && is_binary_trace(body))
      body = compress_trace(body);
    if (atomic_write_file(cfg.trace_dir, name, body))
      written.push_back(ManifestEntry{name, records, body.size(),
                                      fnv1a64(body.data(), body.size())});
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

  if (cfg.logical && cfg.keep_logical_events) {
    for (int pe = 0; pe < n; ++pe) {
      const auto& events = prof.logical_events(pe);
      if (binary) {
        emit(binary_file_name(logical_file_name(pe)), encode_logical(events),
             events.size());
      } else {
        Sink out;
        write_logical(out, events);
        emit(logical_file_name(pe), std::move(out).str(), events.size());
      }
    }
  }
  if (cfg.papi) {
    for (int pe = 0; pe < n; ++pe) {
      const auto rows = prof.papi_segments(pe);
      if (binary) {
        emit(binary_file_name(papi_file_name(pe)), encode_papi(rows, cfg),
             rows.size());
      } else {
        Sink out;
        write_papi(out, rows, cfg);
        emit(papi_file_name(pe), std::move(out).str(), rows.size());
      }
    }
  }
  if (cfg.supersteps) {
    // Killed PEs keep their rows: each row closed at a collective the PE
    // actually reached, so the prefix is exactly the post-mortem evidence.
    for (int pe = 0; pe < n; ++pe) {
      const auto rows = prof.supersteps(pe);
      if (binary) {
        emit(binary_file_name(steps_file_name(pe)), encode_steps(rows),
             rows.size());
      } else {
        Sink out;
        write_steps(out, rows);
        emit(steps_file_name(pe), std::move(out).str(), rows.size());
      }
    }
  }
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
  if (cfg.check) {
    // Always emitted under the checker, even with zero rows: an empty
    // check file is the recorded proof the run was violation-free.
    if (binary) {
      emit(binary_file_name(kCheckFile),
           encode_check(prof.bsp_violations(), prof.bsp_violations_dropped()),
           prof.bsp_violations().size());
    } else {
      Sink out;
      write_check(out, prof.bsp_violations(), prof.bsp_violations_dropped());
      emit(kCheckFile, std::move(out).str(), prof.bsp_violations().size());
    }
  }
  if (cfg.physical && cfg.keep_physical_events) {
    std::vector<PhysicalRecord> merged;
    for (int pe = 0; pe < n; ++pe) {
      const auto& evs = prof.physical_events(pe);
      merged.insert(merged.end(), evs.begin(), evs.end());
    }
    if (binary) {
      emit(binary_file_name(kPhysicalFile), encode_physical(merged),
           merged.size());
    } else {
      Sink out;
      write_physical(out, merged);
      emit(kPhysicalFile, std::move(out).str(), merged.size());
    }
  }
  if (binary && cfg.metrics && prof.metric_samples().bound()) {
    // The sample ring has no CSV counterpart (metrics.json is its text
    // view); the binary format can afford to persist every snapshot.
    emit(kMetricSamplesFile, encode_metric_samples(prof.metric_samples()),
         prof.metric_samples().size());
  }

  {
    // MANIFEST last: a loader that sees it knows every listed file was
    // completely written (and can verify it with the checksum).
    Sink out;
    out.append(
        "# ActorProf trace manifest: file <name> records=<n> bytes=<n> "
        "fnv1a=<hex64>\n");
    out.append("num_pes ");
    out.dec(n);
    out.put('\n');
    for (const ManifestEntry& m : written) {
      out.append("file ");
      out.append(m.file);
      out.append(" records=");
      out.dec(m.records);
      out.append(" bytes=");
      out.dec(m.bytes);
      out.append(" fnv1a=");
      out.append(hex64(m.fnv1a));
      out.put('\n');
    }
    for (int pe : fi::killed_pes()) {
      out.append("dead_pe ");
      out.dec(pe);
      out.put('\n');
    }
    std::string manifest = std::move(out).str();
    if (!atomic_write_file(cfg.trace_dir, kManifestFile, manifest))
      failed.push_back(kManifestFile);
    if (pub != nullptr)
      pub->publish_file(kManifestFile, std::move(manifest), false);
  }

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

// ------------------------------------------------------------------ parsers

void parse_logical_into(std::istream& is,
                        std::vector<LogicalSendRecord>& out) {
  out.reserve(out.size() + 1024);
  std::vector<std::string_view> f;
  f.reserve(8);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (skippable(line)) continue;
    split_csv(line, f);
    if (f.size() != 5) parse_fail(line_no, line, "expected 5 fields");
    LogicalSendRecord r;
    r.src_node = to_num<int>(f[0], line_no, line);
    r.src_pe = to_num<int>(f[1], line_no, line);
    r.dst_node = to_num<int>(f[2], line_no, line);
    r.dst_pe = to_num<int>(f[3], line_no, line);
    r.msg_bytes = to_num<std::uint32_t>(f[4], line_no, line);
    out.push_back(r);
  }
}

void parse_papi_into(std::istream& is, std::vector<PapiSegmentRecord>& out) {
  out.reserve(out.size() + 1024);
  std::vector<std::string_view> f;
  f.reserve(16);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (skippable(line)) continue;
    split_csv(line, f);
    if (f.size() < 8) parse_fail(line_no, line, "expected >= 8 fields");
    PapiSegmentRecord r;
    r.src_node = to_num<int>(f[0], line_no, line);
    r.src_pe = to_num<int>(f[1], line_no, line);
    r.dst_node = to_num<int>(f[2], line_no, line);
    r.dst_pe = to_num<int>(f[3], line_no, line);
    r.pkt_bytes = to_num<std::uint32_t>(f[4], line_no, line);
    r.mailbox_id = to_num<int>(f[5], line_no, line);
    r.num_sends = to_num<std::uint64_t>(f[6], line_no, line);
    std::size_t k = 7;
    int slot = 0;
    for (; k < f.size(); ++k) {
      if (f[k] == "MAIN" || f[k] == "PROC") {
        r.is_proc = (f[k] == "PROC");
        break;
      }
      if (slot < papi::kMaxEventsPerSet)
        r.counters[static_cast<std::size_t>(slot++)] =
            to_num<std::uint64_t>(f[k], line_no, line);
    }
    out.push_back(r);
  }
}

void parse_overall_into(std::istream& is, std::vector<OverallRecord>& out) {
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (skippable(line)) continue;
    if (line.rfind("Absolute", 0) != 0) continue;  // Relative lines derived
    // Absolute [PE3] TCOMM_PROFILING (T_MAIN, T_COMM, T_PROC) = (a, b, c)
    const auto pe_open = line.find("[PE");
    const auto pe_close = line.find(']', pe_open);
    const auto eq = line.find('=', pe_close);
    const auto paren = line.find('(', eq);
    const auto paren_close = line.find(')', paren);
    if (pe_open == std::string::npos || pe_close == std::string::npos ||
        eq == std::string::npos || paren == std::string::npos ||
        paren_close == std::string::npos)
      parse_fail(line_no, line, "malformed Absolute line");
    OverallRecord r;
    r.pe = to_num<int>(
        std::string_view(line).substr(pe_open + 3, pe_close - pe_open - 3),
        line_no, line);
    std::vector<std::string_view> nums;
    split_csv(std::string_view(line).substr(paren + 1,
                                            paren_close - paren - 1),
              nums);
    if (nums.size() != 3) parse_fail(line_no, line, "expected 3 numbers");
    r.t_main = to_num<std::uint64_t>(nums[0], line_no, line);
    const auto t_comm = to_num<std::uint64_t>(nums[1], line_no, line);
    r.t_proc = to_num<std::uint64_t>(nums[2], line_no, line);
    r.t_total = r.t_main + t_comm + r.t_proc;
    out.push_back(r);
  }
}

void parse_physical_into(std::istream& is, std::vector<PhysicalRecord>& out) {
  out.reserve(out.size() + 1024);
  std::vector<std::string_view> f;
  f.reserve(8);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (skippable(line)) continue;
    split_csv(line, f);
    if (f.size() != 4) parse_fail(line_no, line, "expected 4 fields");
    PhysicalRecord r;
    r.type = parse_send_type(f[0], line_no, line);
    r.buffer_bytes = to_num<std::uint64_t>(f[1], line_no, line);
    r.src_pe = to_num<int>(f[2], line_no, line);
    r.dst_pe = to_num<int>(f[3], line_no, line);
    out.push_back(r);
  }
}

std::vector<LogicalSendRecord> parse_logical(std::istream& is) {
  std::vector<LogicalSendRecord> out;
  parse_logical_into(is, out);
  return out;
}

std::vector<PapiSegmentRecord> parse_papi(std::istream& is) {
  std::vector<PapiSegmentRecord> out;
  parse_papi_into(is, out);
  return out;
}

std::vector<OverallRecord> parse_overall(std::istream& is) {
  std::vector<OverallRecord> out;
  parse_overall_into(is, out);
  return out;
}

void parse_steps_into(std::istream& is, std::vector<SuperstepRecord>& out) {
  out.reserve(out.size() + 256);
  std::vector<std::string_view> f;
  f.reserve(12);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (skippable(line)) continue;
    split_csv(line, f);
    if (f.size() != 11) parse_fail(line_no, line, "expected 11 fields");
    SuperstepRecord r;
    r.pe = to_num<int>(f[0], line_no, line);
    r.epoch = to_num<std::uint32_t>(f[1], line_no, line);
    r.step = to_num<std::uint32_t>(f[2], line_no, line);
    r.t_main = to_num<std::uint64_t>(f[3], line_no, line);
    r.t_proc = to_num<std::uint64_t>(f[4], line_no, line);
    r.t_comm = to_num<std::uint64_t>(f[5], line_no, line);
    r.msgs_sent = to_num<std::uint64_t>(f[6], line_no, line);
    r.bytes_sent = to_num<std::uint64_t>(f[7], line_no, line);
    r.msgs_handled = to_num<std::uint64_t>(f[8], line_no, line);
    r.barrier_arrive = to_num<std::uint64_t>(f[9], line_no, line);
    r.barrier_release = to_num<std::uint64_t>(f[10], line_no, line);
    out.push_back(r);
  }
}

void parse_check_into(std::istream& is, std::vector<check::Violation>& out,
                      std::uint64_t& dropped) {
  std::vector<std::string_view> f;
  f.reserve(8);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.rfind("# dropped=", 0) == 0) {
      dropped = to_num<std::uint64_t>(
          std::string_view(line).substr(10), line_no, line);
      continue;
    }
    if (skippable(line)) continue;
    split_csv(line, f);
    if (f.size() != 8) parse_fail(line_no, line, "expected 8 fields");
    check::Violation v;
    if (!check::kind_from_string(f[0], v.kind))
      parse_fail(line_no, line, "unknown violation kind");
    v.pe = to_num<int>(f[1], line_no, line);
    v.other_pe = to_num<int>(f[2], line_no, line);
    v.superstep = to_num<std::uint32_t>(f[3], line_no, line);
    v.offset = to_num<std::uint64_t>(f[4], line_no, line);
    v.bytes = to_num<std::uint64_t>(f[5], line_no, line);
    v.callsite = std::string(f[6]);
    v.detail = std::string(f[7]);
    out.push_back(std::move(v));
  }
}

std::vector<PhysicalRecord> parse_physical(std::istream& is) {
  std::vector<PhysicalRecord> out;
  parse_physical_into(is, out);
  return out;
}

std::vector<SuperstepRecord> parse_steps(std::istream& is) {
  std::vector<SuperstepRecord> out;
  parse_steps_into(is, out);
  return out;
}

Manifest parse_manifest(std::istream& is) {
  Manifest m;
  std::string line;
  std::size_t line_no = 0;
  std::vector<std::string_view> f;
  while (std::getline(is, line)) {
    ++line_no;
    if (skippable(line)) continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "num_pes") {
      if (!(ls >> m.num_pes)) parse_fail(line_no, line, "bad num_pes");
    } else if (key == "dead_pe") {
      int pe = 0;
      if (!(ls >> pe)) parse_fail(line_no, line, "bad dead_pe");
      m.dead_pes.push_back(pe);
    } else if (key == "file") {
      ManifestEntry e;
      std::string rec, bytes, sum;
      if (!(ls >> e.file >> rec >> bytes >> sum))
        parse_fail(line_no, line, "malformed file entry");
      const auto kv = [&](const std::string& s, const char* prefix,
                          int base) -> std::uint64_t {
        const std::string_view sv(s);
        const std::string_view pfx(prefix);
        if (sv.substr(0, pfx.size()) != pfx)
          parse_fail(line_no, line, "malformed file entry");
        std::uint64_t v = 0;
        const std::string_view num = sv.substr(pfx.size());
        const auto [p, ec] =
            std::from_chars(num.data(), num.data() + num.size(), v, base);
        if (ec != std::errc{} || p != num.data() + num.size())
          parse_fail(line_no, line, "malformed file entry");
        return v;
      };
      e.records = kv(rec, "records=", 10);
      e.bytes = kv(bytes, "bytes=", 10);
      e.fnv1a = kv(sum, "fnv1a=", 16);
      m.files.push_back(std::move(e));
    } else {
      parse_fail(line_no, line, "unknown manifest key");
    }
  }
  return m;
}

// ---------------------------------------------------------------- TraceDir

namespace {

/// PE ids in records come from the file: a trace loaded with a smaller
/// num_pes than it was recorded with holds cells outside the matrix.
bool in_range(int src, int dst, int n) {
  return src >= 0 && src < n && dst >= 0 && dst < n;
}

/// Count every in-range send of `t` into a CommMatrix or SparseCommMatrix.
template <class Matrix>
Matrix logical_cells(const TraceDir& t) {
  Matrix m(t.num_pes);
  for (const auto& per_pe : t.logical)
    for (const LogicalSendRecord& r : per_pe)
      if (in_range(r.src_pe, r.dst_pe, t.num_pes)) m.add(r.src_pe, r.dst_pe);
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

namespace {

/// Read an entire file into a string. Returns false when it cannot be
/// opened (missing / unreadable).
bool slurp(const std::filesystem::path& p, std::string& out) {
  std::ifstream is(p, std::ios::binary);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

TraceDir load_trace_dir(const std::filesystem::path& dir, int num_pes) {
  return load_trace_dir(dir, num_pes, LoadOptions{});
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
  if (std::string body; slurp(dir / kManifestFile, body)) {
    std::istringstream is(body);
    try {
      manifest = parse_manifest(is);
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

  // Load one record kind: resolve the .apt sibling first, then the CSV
  // name, and dispatch on *content* (the .apt magic), so a renamed file
  // still loads. Checksum-verify against the MANIFEST, then parse/decode
  // via the incremental forms so a truncated or corrupt tail still yields
  // its verified prefix. `decode_bin` may be null for text-only files
  // (overall.txt has no binary form).
  const auto load_file = [&](const std::string& name, bool required,
                             auto&& parse_into, auto&& decode_bin) {
    const std::string bin_name = binary_file_name(name);
    std::string actual = bin_name;
    std::string body;
    if (!slurp(dir / bin_name, body)) {
      actual = name;
      if (!slurp(dir / name, body)) {
        if (required || (have_manifest && (in_manifest(name) ||
                                           in_manifest(bin_name)))) {
          if (!opts.tolerate_partial)
            throw std::runtime_error(name + ": cannot open trace file in " +
                                     dir.string());
          t.issues.push_back(FileIssue{name, 0, "missing trace file"});
        }
        return;
      }
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
      if (is_binary_trace(body)) {
        if constexpr (std::is_same_v<std::decay_t<decltype(decode_bin)>,
                                     std::nullptr_t>)
          throw BinaryParseError(0, 0, "binary content in a text-only file");
        else
          decode_bin(std::string_view(body));
      } else {
        std::istringstream is(body);
        parse_into(is);
      }
    } catch (const TraceParseError& e) {
      if (!opts.tolerate_partial)
        throw TraceParseError(e.line_no(), actual + ": " + e.what());
      t.issues.push_back(FileIssue{actual, e.line_no(), e.what()});
    }
  };

  for (int pe = 0; pe < num_pes; ++pe) {
    const auto idx = static_cast<std::size_t>(pe);
    load_file(
        logical_file_name(pe), false,
        [&](std::istream& is) { parse_logical_into(is, t.logical[idx]); },
        [&](std::string_view b) { decode_logical_into(b, t.logical[idx]); });
    load_file(
        papi_file_name(pe), false,
        [&](std::istream& is) { parse_papi_into(is, t.papi[idx]); },
        [&](std::string_view b) {
          decode_papi_into(b, t.papi[idx],
                           t.papi_events.empty() ? &t.papi_events : nullptr);
        });
    load_file(
        steps_file_name(pe), false,
        [&](std::istream& is) { parse_steps_into(is, t.steps[idx]); },
        [&](std::string_view b) { decode_steps_into(b, t.steps[idx]); });
  }
  load_file(
      kOverallFile, false,
      [&](std::istream& is) { parse_overall_into(is, t.overall); }, nullptr);
  load_file(
      kPhysicalFile, false,
      [&](std::istream& is) { parse_physical_into(is, t.physical); },
      [&](std::string_view b) { decode_physical_into(b, t.physical); });
  load_file(
      kCheckFile, false,
      [&](std::istream& is) {
        t.check_recorded = true;
        parse_check_into(is, t.check, t.check_dropped);
      },
      [&](std::string_view b) {
        t.check_recorded = true;
        decode_check_into(b, t.check, t.check_dropped);
      });
  return t;
}

int detect_num_pes(const std::filesystem::path& dir) {
  std::string body;
  if (!slurp(dir / kManifestFile, body)) return 0;
  std::istringstream is(body);
  try {
    return parse_manifest(is).num_pes;
  } catch (const TraceParseError&) {
    return 0;
  }
}

}  // namespace ap::prof::io
