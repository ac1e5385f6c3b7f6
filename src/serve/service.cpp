#include "serve/service.hpp"

#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>
#include <system_error>

#include "analysis/analysis.hpp"
#include "check/checker.hpp"
#include "core/trace_binary.hpp"
#include "viz/heatmap_json.hpp"

namespace ap::serve {

namespace io = ap::prof::io;
namespace fs = std::filesystem;

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20)
      out.push_back(c);
  }
  return out;
}

Response json_error(int status, std::string_view msg) {
  Response r;
  r.status = status;
  r.body = "{\"error\":\"" + json_escape(msg) + "\"}\n";
  return r;
}

/// Minimal %XX + '+' decoding for query parameter values.
std::string url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size()) {
      const auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
      };
      const int hi = hex(s[i + 1]);
      const int lo = hex(s[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

/// Value of `key` in an application/x-www-form-urlencoded query string.
std::string query_param(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key)
      return url_decode(pair.substr(eq + 1));
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return {};
}

bool any_steps(const io::TraceDir& t) {
  for (const auto& per_pe : t.steps)
    if (!per_pe.empty()) return true;
  return false;
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceService::TraceService(fs::path dir, ServiceOptions opts)
    : dir_(std::move(dir)), opts_(opts) {
  refresh();
}

TraceService::TraceService(ServiceOptions opts)
    : opts_(opts), push_mode_(true) {
  if (opts_.num_pes > 0) resize_world(opts_.num_pes);
}

void TraceService::touch() { last_update_ms_ = now_ms(); }

TraceService::Sig TraceService::stat_file(const std::string& name) const {
  Sig s;
  std::error_code ec;
  const fs::path p = dir_ / name;
  const auto status = fs::status(p, ec);
  if (ec || !fs::is_regular_file(status)) return s;
  s.exists = true;
  s.size = static_cast<std::uint64_t>(fs::file_size(p, ec));
  const auto mtime = fs::last_write_time(p, ec);
  s.mtime = static_cast<std::int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          mtime.time_since_epoch())
          .count());
  // Content signature over the file's head and tail: an atomically renamed
  // rewrite can keep size and (at coarse filesystem granularity) mtime, so
  // the stat pair alone misses it. 128 bytes cover the .apt header/flags
  // at the front and the final block's CRC at the back.
  std::ifstream is(p, std::ios::binary);
  if (is) {
    char head[64];
    is.read(head, sizeof head);
    const auto head_n = static_cast<std::size_t>(is.gcount());
    std::uint64_t h = io::fnv1a64(head, head_n);
    if (s.size > sizeof head) {
      char tail[64];
      const auto tail_n =
          static_cast<std::streamoff>(std::min<std::uint64_t>(s.size, 64));
      is.clear();
      is.seekg(-tail_n, std::ios::end);
      is.read(tail, tail_n);
      if (is.gcount() == tail_n)
        h = h * 1099511628211ull ^
            io::fnv1a64(tail, static_cast<std::size_t>(tail_n));
    }
    s.content = h;
  }
  return s;
}

void TraceService::scan(int num_pes, std::map<std::string, Sig>& out) const {
  const auto add = [&](io::TraceFile f) {
    for (const bool binary : {false, true}) {
      const std::string name = io::file_name(f, binary);
      out[name] = stat_file(name);
    }
  };
  out[io::kManifestFile] = stat_file(io::kManifestFile);
  out[io::kOverallFile] = stat_file(io::kOverallFile);
  out["metrics.prom"] = stat_file("metrics.prom");
  for (const io::BinKind k : io::kRowKinds)
    for (const io::TraceFile f : io::trace_files(k, num_pes)) add(f);
}

void TraceService::full_reload() {
  if (num_pes_ <= 0) {
    trace_ = io::TraceDir{};
    return;
  }
  io::LoadOptions lo;
  lo.tolerate_partial = true;
  trace_ = io::load_trace_dir(dir_, num_pes_, lo);
}

void TraceService::reload_shard(io::TraceFile f) {
  // Drop stale issues of this shard; a clean re-parse clears the warning.
  const std::string csv_name = io::file_name(f);
  const std::string bin_name = io::file_name(f, true);
  std::erase_if(trace_.issues, [&](const io::FileIssue& i) {
    return i.file == csv_name || i.file == bin_name;
  });
  std::string body;
  const std::string actual = io::read_trace_file(dir_, f, body);
  if (actual.empty()) return;  // not flushed yet
  trace_.with_rows(f, [](auto& rows) { rows.clear(); });
  try {
    trace_.read(f, body);
  } catch (const io::TraceParseError& e) {
    // Mid-flush shard: keep the verified prefix, record the damage — the
    // next refresh re-parses the finished file and clears this issue.
    trace_.issues.push_back(io::FileIssue{actual, e.line_no(), e.what()});
  }
}

bool TraceService::refresh() {
  if (push_mode_) return false;
  const int np = opts_.num_pes > 0 ? opts_.num_pes : io::detect_num_pes(dir_);
  std::map<std::string, Sig> cur;
  scan(np, cur);
  if (np == num_pes_ && cur == sigs_) return false;

  // A shard that grew or appeared re-ingests alone; anything else — PE
  // count learned, MANIFEST/overall/physical/check changed, a file gone or
  // shrunk (rewritten dir) — reloads the whole directory.
  bool full = np != num_pes_;
  std::vector<io::TraceFile> changed_shards;
  if (!full) {
    for (const auto& [name, sig] : cur) {
      const auto it = sigs_.find(name);
      const Sig old = it == sigs_.end() ? Sig{} : it->second;
      if (sig == old) continue;
      const std::optional<io::TraceFile> f = io::parse_file_name(name);
      if ((old.exists && (!sig.exists || sig.size < old.size)) || !f ||
          f->pe < 0 || f->pe >= num_pes_) {
        full = true;
        break;
      }
      changed_shards.push_back(*f);
    }
  }

  num_pes_ = np;
  if (full) {
    full_reload();
  } else {
    for (const io::TraceFile f : changed_shards) reload_shard(f);
  }
  sigs_ = std::move(cur);
  ++version_;
  ++reloads_;
  touch();
  return true;
}

// ------------------------------------------------------------- push ingest

void TraceService::resize_world(int np) {
  num_pes_ = np;
  trace_ = io::TraceDir{};
  trace_.num_pes = np;
  trace_.logical.resize(static_cast<std::size_t>(np));
  trace_.papi.resize(static_cast<std::size_t>(np));
  trace_.steps.resize(static_cast<std::size_t>(np));
}

void TraceService::apply_segment(const PushSegment& seg) {
  const std::string name(seg.name);
  if (name.empty() || name.find('/') != std::string::npos ||
      name.find("..") != std::string::npos)
    throw std::runtime_error("bad segment file name");
  const std::string_view body = seg.body;

  const auto account = [&] {
    if (seg.append)
      file_bytes_[name] += body.size();
    else
      file_bytes_[name] = body.size();
  };

  if (name == io::kManifestFile) {
    const io::Manifest m = io::parse_manifest(body);
    if (m.num_pes <= 0) throw std::runtime_error("manifest has no PE count");
    // A PE-count change resets the run: every shard indexed by the old
    // world is meaningless (the publisher always sends the MANIFEST before
    // any shard of a new world, so nothing real is lost).
    if (m.num_pes != num_pes_) resize_world(m.num_pes);
    trace_.dead_pes = m.dead_pes;
    account();
    return;
  }
  if (name == "metrics.prom") {
    if (seg.append)
      metrics_prom_ += body;
    else
      metrics_prom_ = std::string(body);
    account();
    return;
  }
  if (name == "anomalies.txt") {
    if (!seg.append) anomaly_lines_.clear();
    std::string_view rest = body;
    while (!rest.empty()) {
      const std::size_t nl = rest.find('\n');
      const std::string_view line = rest.substr(0, nl);
      if (!line.empty()) anomaly_lines_.emplace_back(line);
      if (nl == std::string_view::npos) break;
      rest.remove_prefix(nl + 1);
    }
    account();
    return;
  }
  if (name == io::kOverallFile) {
    std::vector<ap::prof::OverallRecord> scratch;
    io::parse_overall_into(body, scratch);
    trace_.overall = std::move(scratch);
    account();
    return;
  }
  if (name == io::kMetricSamplesFile) {
    // Nothing in the endpoints renders the ring yet, but the segment is
    // still fully validated so damage is rejected, not stored.
    io::MetricSamples scratch;
    io::decode_metric_samples_into(body, scratch);
    account();
    return;
  }

  const std::optional<io::TraceFile> f = io::parse_file_name(name);
  if (!f) throw std::runtime_error("unknown trace file name");
  if (f->pe >= num_pes_)
    throw std::runtime_error(
        "PE " + std::to_string(f->pe) +
        " out of range (is the MANIFEST segment missing?)");
  // Read into scratch first: a parse error mid-body must not leave the run
  // with half a segment spliced in.
  trace_.with_rows(*f, [&](auto& rows) {
    std::remove_reference_t<decltype(rows)> scratch;
    io::FileMeta meta;
    io::read_into(body, scratch, &meta);
    if (seg.append)
      io::append_rows(rows, std::move(scratch));
    else
      rows = std::move(scratch);
    trace_.absorb(f->kind, std::move(meta));
  });
  account();
}

Response TraceService::ingest(std::string_view body) {
  if (!push_mode_)
    return json_error(403,
                      "run is file-backed; POST /ingest targets push runs");
  std::vector<PushSegment> segs;
  try {
    segs = parse_push_segments(body);
  } catch (const std::exception& e) {
    return json_error(400, e.what());
  }
  std::size_t applied = 0;
  for (const PushSegment& s : segs) {
    try {
      apply_segment(s);
      ++applied;
      ++ingested_segments_;
      ingested_bytes_ += s.body.size();
    } catch (const std::exception& e) {
      // Segments already applied were individually validated, so the run
      // stays consistent; report which one failed and why.
      if (applied > 0) ++version_;
      touch();
      return json_error(400, "segment " + std::to_string(applied + 1) + " (" +
                                 std::string(s.name) + "): " + e.what());
    }
  }
  if (applied > 0) {
    ++version_;
    touch();
  }
  Response r;
  r.body = "{\"applied\":" + std::to_string(applied) + "}\n";
  return r;
}

std::uint64_t TraceService::bytes() const {
  std::uint64_t total = 0;
  if (push_mode_) {
    for (const auto& [name, sz] : file_bytes_) total += sz;
  } else {
    for (const auto& [name, sig] : sigs_)
      if (sig.exists) total += sig.size;
  }
  return total;
}

TraceService::Progress TraceService::progress() const {
  Progress p;
  for (const auto& per_pe : trace_.steps) {
    p.steps_rows += per_pe.size();
    for (const auto& r : per_pe) {
      p.max_epoch = std::max(p.max_epoch, r.epoch);
      p.max_step = std::max(p.max_step, r.step);
    }
  }
  return p;
}

// --------------------------------------------------------------- endpoints

Response TraceService::analyze_json() {
  if (num_pes_ <= 0)
    return json_error(503,
                      "PE count unknown: no readable MANIFEST.txt yet; "
                      "start serve with --num-pes N to analyze mid-run");
  if (!any_steps(trace_))
    return json_error(503,
                      "no superstep records yet (PEi_steps missing — record "
                      "with ACTORPROF_SUPERSTEPS=1)");
  if (analyze_version_ != version_) {
    ++analyze_misses_;
    const auto a = ap::prof::analysis::analyze(trace_);
    std::ostringstream os;
    ap::prof::analysis::write_json(os, a);
    analyze_cache_ = os.str();
    analyze_version_ = version_;
  } else {
    ++analyze_hits_;
  }
  Response r;
  r.body = analyze_cache_;
  return r;
}

Response TraceService::diff_json(std::string_view query) {
  const std::string base = query_param(query, "base");
  if (base.empty())
    return json_error(400, "missing query parameter: base=<trace_dir>");
  if (num_pes_ <= 0 || !any_steps(trace_))
    return json_error(503, "watched trace has no superstep records yet");
  const int base_pes =
      opts_.num_pes > 0 ? opts_.num_pes : io::detect_num_pes(base);
  if (base_pes <= 0)
    return json_error(404, "cannot determine the PE count of " + base);
  io::TraceDir tb;
  try {
    io::LoadOptions lo;
    lo.tolerate_partial = true;
    tb = io::load_trace_dir(base, base_pes, lo);
  } catch (const std::exception& e) {
    return json_error(404, std::string("cannot load base trace: ") + e.what());
  }
  if (!any_steps(tb))
    return json_error(404, "base trace has no superstep records");
  const auto a_base = ap::prof::analysis::analyze(tb);
  const auto a_cur = ap::prof::analysis::analyze(trace_);
  const auto d = ap::prof::analysis::diff(a_base, a_cur,
                                          opts_.diff_threshold_pct / 100.0);
  std::ostringstream os;
  ap::prof::analysis::write_diff_json(os, d);
  Response r;
  r.body = os.str();
  return r;
}

Response TraceService::heatmap_json() {
  if (num_pes_ <= 0)
    return json_error(503, "PE count unknown: no readable MANIFEST.txt yet");
  std::ostringstream os;
  ap::viz::write_heatmap_json(os, trace_);
  Response r;
  r.body = os.str();
  return r;
}

Response TraceService::check_json() {
  if (!trace_.check_recorded)
    return json_error(404,
                      "no conformance report recorded (run with "
                      "ACTORPROF_CHECK=1 so write_traces() emits check.csv)");
  std::ostringstream os;
  ap::check::write_json(os, trace_.check, trace_.check_dropped);
  Response r;
  r.body = os.str();
  return r;
}

Response TraceService::metrics_text() {
  std::string body;
  if (push_mode_)
    body = metrics_prom_;
  else
    io::read_file(dir_ / "metrics.prom", body);
  if (body.empty()) {
    Response r;
    r.status = 404;
    r.content_type = "text/plain; charset=utf-8";
    r.body = "no metrics.prom in the trace dir (enable ACTORPROF_METRICS=1)\n";
    return r;
  }
  Response r;
  r.content_type = "text/plain; version=0.0.4; charset=utf-8";
  r.body = std::move(body);
  return r;
}

Response TraceService::healthz_json() {
  std::ostringstream os;
  std::size_t present = 0;
  for (const auto& [name, sig] : sigs_)
    if (sig.exists) ++present;
  if (push_mode_) present = file_bytes_.size();
  os << "{\"status\":\"" << (num_pes_ > 0 ? "ok" : "waiting")
     << "\",\"dir\":\"" << json_escape(push_mode_ ? "<push>" : dir_.string())
     << "\",\"num_pes\":" << num_pes_ << ",\"version\":" << version_
     << ",\"files\":" << present << ",\"issues\":" << trace_.issues.size()
     << ",\"check_recorded\":"
     << (trace_.check_recorded ? "true" : "false") << "}\n";
  Response r;
  r.body = os.str();
  return r;
}

Response TraceService::handle(std::string_view method,
                              std::string_view target) {
  if (method != "GET") {
    Response r = json_error(405, "only GET is supported");
    return r;
  }
  std::string_view path = target;
  std::string_view query;
  if (const std::size_t q = target.find('?'); q != std::string_view::npos) {
    path = target.substr(0, q);
    query = target.substr(q + 1);
  }
  if (path == "/healthz") return healthz_json();
  if (path == "/analyze") return analyze_json();
  if (path == "/diff") return diff_json(query);
  if (path == "/heatmap") return heatmap_json();
  if (path == "/check") return check_json();
  if (path == "/metrics") return metrics_text();
  return json_error(404,
                    "unknown endpoint; try /healthz /analyze /diff?base=DIR "
                    "/heatmap /check /metrics");
}

}  // namespace ap::serve
