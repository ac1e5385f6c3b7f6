// actorprof_viz — the visualization CLI of ActorProf (paper §III-D).
//
// Run-time flags follow the paper:
//   -l   logical-trace heatmap   (from PEi_send.csv)
//   -lp  PAPI bar graphs         (from PEi_PAPI.csv, up to 4 counters)
//   -s   overall stacked bars    (from overall.txt, absolute + relative)
//   -p   physical-trace heatmap  (from physical.txt)
// plus:
//   --violin       also render quartile violin plots (Fig. 5/7 style)
//   --svg PREFIX   additionally write PREFIX_<plot>.svg files
//   --linear       linear color ramp instead of log
//   --num-pes N    number of PEs the trace was collected with (required)
// The trace directory is the positional argument, as in the paper's
// python scripts.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "check/checker.hpp"

#include "analysis/analysis.hpp"
#include "core/advisor.hpp"
#include "core/trace_io.hpp"
#include "serve/http.hpp"
#include "serve/publisher.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "shmem/topology.hpp"
#include "viz/heatmap_json.hpp"
#include "viz/render.hpp"
#include "viz/svg.hpp"

namespace {

void usage(const char* argv0) {
  std::cerr
      << "Usage: " << argv0
      << " <subcommand|flags> ...\n"
         "\n"
         "Subcommands:\n"
         "  analyze [--json] [--what-if PCT] [--num-pes N]\n"
         "          [--tolerate-partial] <trace_dir>\n"
         "            reconstruct the superstep timeline (PEi_steps.csv):\n"
         "            per-superstep MAIN/PROC/COMM/WAIT breakdown, barrier-\n"
         "            wait attribution, critical path, what-if estimates\n"
         "  diff    [--json] [--threshold PCT] [--num-pes N]\n"
         "          [--tolerate-partial] <trace_dir_a> <trace_dir_b>\n"
         "            epoch-align two runs and compare per-superstep\n"
         "            durations; exits 3 when any superstep (or the total)\n"
         "            regressed by more than PCT percent (default 10)\n"
         "  check   [--json] <trace_dir>\n"
         "            report the BSP conformance violations of a run\n"
         "            recorded under ACTORPROF_CHECK=1 (check.csv or\n"
         "            check.apt): races, reads before quiet(), un-quiesced\n"
         "            puts at barriers, API misuse — with PE/superstep/\n"
         "            heap-range/callsite attribution; exits 4 when\n"
         "            violations were recorded (see docs/CHECKING.md)\n"
         "  heatmap [--json] [--num-pes N] [--tolerate-partial] <trace_dir>\n"
         "            the -l/-p communication heatmaps as one report;\n"
         "            --json emits the dense matrices (byte-identical to\n"
         "            the trace service's GET /heatmap)\n"
         "  export  --csv [--num-pes N] [-o OUTDIR] <trace_dir>\n"
         "            convert binary (.apt) trace files back to the CSV/\n"
         "            text layout the paper describes; with -o, OUTDIR\n"
         "            becomes a complete CSV trace dir (MANIFEST included)\n"
         "  serve   [--host A] [--port P] [--num-pes N] [--max-requests N]\n"
         "          [--retain-bytes B] [--retain-runs N] <trace_dir>\n"
         "            watch a trace dir (works mid-run) and answer\n"
         "            GET /healthz /analyze /diff?base=DIR /heatmap /check\n"
         "            /metrics /runs /live over HTTP; every endpoint takes\n"
         "            ?run=<id> and POST /ingest?run=<id> accepts pushed\n"
         "            runs (ACTORPROF_PUBLISH=host:port on the profiled\n"
         "            run); --retain-* bound the pushed-run store\n"
         "            (see docs/OBSERVABILITY.md)\n"
         "  tail    [--run ID] [--max-events N] <host:port>\n"
         "            subscribe to a serve daemon's GET /live SSE stream\n"
         "            and print superstep/anomaly events as text\n"
         "  compact [--num-pes N] <trace_dir>\n"
         "            re-encode the directory's .apt shards into dense\n"
         "            blocks (merging incremental/multi-epoch appends) and\n"
         "            rewrite the MANIFEST atomically\n"
         "  --num-pes defaults to the MANIFEST.txt PE count everywhere;\n"
         "  see docs/ANALYSIS.md and docs/TRACE_FORMAT.md for reference.\n"
         "\n"
         "Exit codes:\n"
         "  0  success\n"
         "  1  trace load/parse failure (or damaged files without\n"
         "     --tolerate-partial)\n"
         "  2  usage error\n"
         "  3  diff: a superstep (or the total) regressed past --threshold\n"
         "  4  check: violations (or dropped violations) were recorded\n"
         "\n"
         "Plot flags (no subcommand):\n"
         "  " << argv0
      << " [-l] [-lp] [-s] [-p] [--violin] [--advise] [--by-node]\n"
         "       [--ppn N] [--svg PREFIX] [--linear] [--tolerate-partial]\n"
         "       --num-pes N <trace_dir>\n"
         "  -l        logical trace heatmap (PEi_send.csv)\n"
         "  -lp       PAPI counter bar graphs (PEi_PAPI.csv)\n"
         "  -s        overall MAIN/COMM/PROC stacked bars (overall.txt)\n"
         "  -p        physical trace heatmap (physical.txt)\n"
         "  --violin  add quartile violin plots of send/recv totals\n"
         "  --advise  run the bottleneck advisor over the loaded traces\n"
         "  --by-node collapse heatmaps to node granularity\n"
         "  --ppn N   PEs per node (for --by-node/--advise; default: all "
         "on one node)\n"
         "  --svg P   also write SVG files with prefix P\n"
         "  --linear  linear (not log) color scale\n"
         "  --num-pes total number of PEs in the trace (required)\n"
         "  --tolerate-partial\n"
         "            accept missing/truncated per-PE files (e.g. after a\n"
         "            fault-injected kill): render every record that parsed,\n"
         "            warn per damaged file, mark dead PEs in heatmaps, and\n"
         "            exit 0. Without it, damaged files are still reported\n"
         "            and rendered but the exit code is nonzero.\n";
}

struct Args {
  bool logical = false, papi = false, overall = false, physical = false;
  bool violin = false, linear = false, advise = false, by_node = false;
  bool tolerate_partial = false;
  std::string svg_prefix;
  int num_pes = 0;
  int ppn = 0;
  std::string dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-l") {
      a.logical = true;
    } else if (arg == "-lp") {
      a.papi = true;
    } else if (arg == "-s") {
      a.overall = true;
    } else if (arg == "-p") {
      a.physical = true;
    } else if (arg == "--violin") {
      a.violin = true;
    } else if (arg == "--advise") {
      a.advise = true;
    } else if (arg == "--by-node") {
      a.by_node = true;
    } else if (arg == "--ppn") {
      if (++i >= argc) return false;
      a.ppn = std::atoi(argv[i]);
    } else if (arg == "--linear") {
      a.linear = true;
    } else if (arg == "--tolerate-partial") {
      a.tolerate_partial = true;
    } else if (arg == "--svg") {
      if (++i >= argc) return false;
      a.svg_prefix = argv[i];
    } else if (arg == "--num-pes") {
      if (++i >= argc) return false;
      a.num_pes = std::atoi(argv[i]);
    } else if (arg == "-h" || arg == "--help") {
      return false;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    } else {
      a.dir = arg;
    }
  }
  if (!a.logical && !a.papi && !a.overall && !a.physical && !a.advise)
    return false;
  return a.num_pes > 0 && !a.dir.empty();
}

void maybe_svg(const Args& a, const std::string& name,
               const std::string& svg) {
  if (a.svg_prefix.empty()) return;
  const std::string path = a.svg_prefix + "_" + name + ".svg";
  ap::viz::write_svg_file(path, svg);
  std::cout << "[svg] wrote " << path << "\n";
}

// ------------------------------------------------------ loading a trace

/// `num_pes`, or the MANIFEST's PE count when it is not positive; 0, with
/// the error printed, when neither is known.
int resolve_num_pes(const std::string& dir, int num_pes) {
  if (num_pes <= 0) num_pes = ap::prof::io::detect_num_pes(dir);
  if (num_pes <= 0)
    std::cerr << "error: cannot determine the PE count of " << dir
              << " (no readable MANIFEST.txt) — pass --num-pes N\n";
  return num_pes;
}

/// Always load tolerantly: per-file parse errors become warnings and the
/// surviving records still render (--tolerate-partial only decides the
/// exit code, see damage_exit). Returns 0, or 1 when nothing loads.
int load_tolerant(const std::string& dir, int num_pes,
                  ap::prof::io::TraceDir& out) {
  try {
    ap::prof::io::LoadOptions lo;
    lo.tolerate_partial = true;
    out = ap::prof::io::load_trace_dir(dir, num_pes, lo);
  } catch (const std::exception& e) {
    std::cerr << "error loading traces from " << dir << ": " << e.what()
              << "\n";
    return 1;
  }
  for (const auto& issue : out.issues) {
    std::cerr << "warning: " << issue.file;
    if (issue.line_no > 0) std::cerr << ":" << issue.line_no;
    std::cerr << ": " << issue.message << " — continuing with remaining PEs\n";
  }
  for (int pe : out.dead_pes)
    std::cerr << "note: PE" << pe
              << " was killed mid-run; its trace is a partial prefix\n";
  return 0;
}

/// The exit code of a damaged trace: 1 unless --tolerate-partial.
int damage_exit(const ap::prof::io::TraceDir& t, bool tolerate_partial) {
  if (t.issues.empty() || tolerate_partial) return 0;
  std::cerr << "error: " << t.issues.size()
            << " damaged trace file(s); rerun with --tolerate-partial to "
               "accept a partial trace\n";
  return 1;
}

// ------------------------------------------------------- analyze / diff

/// Load one trace dir for analysis. num_pes <= 0 auto-detects from the
/// MANIFEST. Returns 0 on success, the process exit code otherwise.
/// Damage is warned about and tolerated for rendering (like the plot
/// flags); without tolerate_partial it still fails the exit code.
int load_analysis_dir(const std::string& dir, int num_pes,
                      bool tolerate_partial, ap::prof::io::TraceDir& out) {
  if ((num_pes = resolve_num_pes(dir, num_pes)) <= 0) return 2;
  if (const int rc = load_tolerant(dir, num_pes, out)) return rc;
  bool any_steps = false;
  for (const auto& per_pe : out.steps) any_steps |= !per_pe.empty();
  if (!any_steps) {
    std::cerr << "error: no superstep records in " << dir
              << " (PEi_steps.csv missing — record with Config::supersteps "
                 "or ACTORPROF_SUPERSTEPS=1)\n";
    return 1;
  }
  return damage_exit(out, tolerate_partial);
}

int cmd_analyze(int argc, char** argv) {
  bool json = false, tolerate_partial = false;
  int num_pes = 0;
  ap::prof::analysis::Options opts;
  std::string dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--tolerate-partial") {
      tolerate_partial = true;
    } else if (arg == "--num-pes") {
      if (++i >= argc) return usage(argv[0]), 2;
      num_pes = std::atoi(argv[i]);
    } else if (arg == "--what-if") {
      if (++i >= argc) return usage(argv[0]), 2;
      opts.what_if_factor = std::atof(argv[i]) / 100.0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(argv[0]), 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return usage(argv[0]), 2;
    }
  }
  if (dir.empty()) return usage(argv[0]), 2;

  ap::prof::io::TraceDir trace;
  if (const int rc = load_analysis_dir(dir, num_pes, tolerate_partial, trace))
    return rc;
  const auto a = ap::prof::analysis::analyze(trace, opts);
  if (json) {
    ap::prof::analysis::write_json(std::cout, a);
    return 0;
  }
  ap::prof::analysis::write_text(std::cout, a);

  // Per-superstep stacked bars: fleet cycles per step, split into the
  // three busy components plus the reconstructed barrier wait.
  std::vector<std::string> labels;
  std::vector<std::vector<std::uint64_t>> rows;
  for (const auto& s : a.steps) {
    labels.push_back("e" + std::to_string(s.epoch) + "/s" +
                     std::to_string(s.step));
    std::uint64_t m = 0, p = 0, c = 0;
    for (const auto& r : s.recs) {
      m += r.t_main;
      p += r.t_proc;
      c += r.t_comm;
    }
    rows.push_back({m, p, c, s.total_wait});
  }
  ap::viz::StackedBarOptions so;
  so.title = "\nPer-superstep fleet cycles";
  std::cout << ap::viz::render_stacked(labels, {"MAIN", "PROC", "COMM", "WAIT"},
                                       rows, so);

  const auto findings = ap::prof::analysis::barrier_wait_findings(a);
  if (!findings.empty()) {
    ap::prof::Report rep;
    rep.findings = findings;
    std::cout << "\n" << ap::prof::format_report(rep);
  }
  return 0;
}

int cmd_check(int argc, char** argv) {
  bool json = false;
  std::string dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(argv[0]), 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return usage(argv[0]), 2;
    }
  }
  if (dir.empty()) return usage(argv[0]), 2;

  // check.csv and check.apt hold the same rows; only the container differs.
  namespace io = ap::prof::io;
  const io::TraceFile file{io::BinKind::check};
  std::string body;
  const std::string name = io::read_trace_file(dir, file, body);
  const std::filesystem::path path =
      std::filesystem::path(dir) / (name.empty() ? io::file_name(file) : name);
  if (name.empty()) {
    std::cerr << "error: cannot open " << path.string()
              << " — record the run with ACTORPROF_CHECK=1 (or "
                 "Config::check) so write_traces() emits check.csv\n";
    return 1;
  }
  std::vector<ap::check::Violation> violations;
  io::FileMeta meta;
  try {
    io::read_into(body, violations, &meta);
  } catch (const std::exception& e) {
    std::cerr << "error parsing " << path.string() << ": " << e.what()
              << "\n";
    return 1;
  }
  const std::uint64_t dropped = meta.dropped;
  if (json)
    ap::check::write_json(std::cout, violations, dropped);
  else
    ap::check::write_text(std::cout, violations, dropped);
  return violations.empty() && dropped == 0 ? 0 : 4;
}

int cmd_diff(int argc, char** argv) {
  bool json = false, tolerate_partial = false;
  int num_pes = 0;
  double threshold_pct = 10.0;
  std::vector<std::string> dirs;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--tolerate-partial") {
      tolerate_partial = true;
    } else if (arg == "--num-pes") {
      if (++i >= argc) return usage(argv[0]), 2;
      num_pes = std::atoi(argv[i]);
    } else if (arg == "--threshold") {
      if (++i >= argc) return usage(argv[0]), 2;
      threshold_pct = std::atof(argv[i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(argv[0]), 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (dirs.size() != 2 || threshold_pct < 0) return usage(argv[0]), 2;

  ap::prof::io::TraceDir ta, tb;
  if (const int rc =
          load_analysis_dir(dirs[0], num_pes, tolerate_partial, ta))
    return rc;
  if (const int rc =
          load_analysis_dir(dirs[1], num_pes, tolerate_partial, tb))
    return rc;
  const auto aa = ap::prof::analysis::analyze(ta);
  const auto ab = ap::prof::analysis::analyze(tb);
  const auto d = ap::prof::analysis::diff(aa, ab, threshold_pct / 100.0);
  if (json)
    ap::prof::analysis::write_diff_json(std::cout, d);
  else
    ap::prof::analysis::write_diff_text(std::cout, d);
  return d.any_regression() ? 3 : 0;
}

// ------------------------------------------------------ heatmap / export

int cmd_heatmap(int argc, char** argv) {
  bool json = false, tolerate_partial = false;
  int num_pes = 0;
  std::string dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--tolerate-partial") {
      tolerate_partial = true;
    } else if (arg == "--num-pes") {
      if (++i >= argc) return usage(argv[0]), 2;
      num_pes = std::atoi(argv[i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(argv[0]), 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return usage(argv[0]), 2;
    }
  }
  if (dir.empty()) return usage(argv[0]), 2;
  if ((num_pes = resolve_num_pes(dir, num_pes)) <= 0) return 2;
  ap::prof::io::TraceDir trace;
  if (const int rc = load_tolerant(dir, num_pes, trace)) return rc;
  if (json) {
    ap::viz::write_heatmap_json(std::cout, trace);
  } else {
    ap::viz::HeatmapOptions ho;
    ho.title = "Logical Trace Heatmap (messages before aggregation)";
    ho.dead_pes = trace.dead_pes;
    // Sparse accessors + the sparse renderer: bucketing happens before any
    // densification, so no P^2 matrix exists even for thousands of PEs.
    std::cout << ap::viz::render_heatmap(trace.logical_sparse(), ho) << "\n";
    ho.title =
        "Physical Trace Heatmap (aggregated buffers: local_send + "
        "nonblock_send)";
    std::cout << ap::viz::render_heatmap(trace.physical_sparse(), ho) << "\n";
  }
  return damage_exit(trace, tolerate_partial);
}

/// `export --csv`: decode every .apt shard back to the CSV/text files the
/// paper describes. With -o OUTDIR the result is a complete, loadable CSV
/// trace dir — text files are copied, the MANIFEST is regenerated (same
/// entry order as write_all, so a deterministic workload recorded in both
/// formats exports to byte-identical directories). Without -o the CSV
/// siblings land next to the .apt files and the MANIFEST is left alone.
int cmd_export(int argc, char** argv) {
  namespace io = ap::prof::io;
  namespace fs = std::filesystem;
  bool csv = false;
  int num_pes = 0;
  std::string dir, outdir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--csv") {
      csv = true;
    } else if (arg == "--num-pes") {
      if (++i >= argc) return usage(argv[0]), 2;
      num_pes = std::atoi(argv[i]);
    } else if (arg == "-o" || arg == "--output") {
      if (++i >= argc) return usage(argv[0]), 2;
      outdir = argv[i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(argv[0]), 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return usage(argv[0]), 2;
    }
  }
  if (dir.empty()) return usage(argv[0]), 2;
  if (!csv) {
    std::cerr << "error: export needs a target format (only --csv for now)\n";
    return 2;
  }
  if ((num_pes = resolve_num_pes(dir, num_pes)) <= 0) return 2;
  const bool in_place = outdir.empty() || fs::path(outdir) == fs::path(dir);
  const fs::path out = in_place ? fs::path(dir) : fs::path(outdir);
  if (!in_place) {
    std::error_code ec;
    fs::create_directories(out, ec);
    if (ec) {
      std::cerr << "error: cannot create " << out.string() << ": "
                << ec.message() << "\n";
      return 1;
    }
  }

  // Source MANIFEST (optional) supplies the dead-PE markers.
  io::Manifest written{num_pes, {}, {}};
  if (std::string body;
      io::read_file(fs::path(dir) / io::kManifestFile, body)) {
    try {
      written.dead_pes = io::parse_manifest(body).dead_pes;
    } catch (const io::TraceParseError&) {
    }
  }

  int failures = 0;
  const auto put = [&](const std::string& name, const std::string& body,
                       std::uint64_t records) {
    if (!io::write_file_atomic(out, name, body)) {
      std::cerr << "error: cannot write " << (out / name).string() << "\n";
      ++failures;
      return;
    }
    written.files.push_back(io::ManifestEntry{
        name, records, body.size(), io::fnv1a64(body.data(), body.size())});
  };
  // Convert name.apt when present; otherwise carry the existing CSV file
  // over (copy on -o), counting its rows for the MANIFEST.
  const auto convert = [&](io::TraceFile f) {
    const std::string name = io::file_name(f);
    const std::string bin_name = io::file_name(f, true);
    std::string body;
    std::uint64_t records = 0;
    if (io::read_file(fs::path(dir) / bin_name, body)) {
      std::string csv_body;
      try {
        csv_body = io::rewrite(body, f.kind, ap::prof::TraceFormat::csv,
                               records);
      } catch (const std::exception& e) {
        std::cerr << "error decoding " << bin_name << ": " << e.what() << "\n";
        ++failures;
        return;
      }
      put(name, csv_body, records);
    } else if (!in_place && io::read_file(fs::path(dir) / name, body)) {
      try {
        (void)io::rewrite(body, f.kind, ap::prof::TraceFormat::csv, records);
      } catch (const std::exception&) {
        records = 0;
      }
      put(name, body, records);
    }
  };

  // overall.txt is text in both formats: copied, in write_all's order.
  const auto copy_overall = [&] {
    std::vector<ap::prof::OverallRecord> recs;
    std::string body;
    if (in_place || !io::read_file(fs::path(dir) / io::kOverallFile, body))
      return;
    try {
      io::parse_overall_into(body, recs);
    } catch (const std::exception&) {
      recs.clear();
    }
    put(io::kOverallFile, body, recs.size());
  };
  for (const io::BinKind k : io::kRowKinds) {
    if (k == io::BinKind::check) copy_overall();
    for (const io::TraceFile f : io::trace_files(k, num_pes)) convert(f);
  }

  // Regenerate the MANIFEST over what landed, same shape as write_all.
  if (!in_place && !io::write_file_atomic(out, io::kManifestFile,
                                          io::format_manifest(written))) {
    std::cerr << "error: cannot write "
              << (out / io::kManifestFile).string() << "\n";
    ++failures;
  }
  std::cerr << "export: wrote " << written.files.size() << " file(s) to "
            << out.string() << "\n";
  return failures == 0 ? 0 : 1;
}

// --------------------------------------------------------------- serve

int cmd_serve(int argc, char** argv) {
  ap::serve::RegistryOptions ro;
  ap::serve::ServerOptions ho;
  std::string dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--host") {
      if (++i >= argc) return usage(argv[0]), 2;
      ho.host = argv[i];
    } else if (arg == "--port") {
      if (++i >= argc) return usage(argv[0]), 2;
      ho.port = std::atoi(argv[i]);
    } else if (arg == "--num-pes") {
      if (++i >= argc) return usage(argv[0]), 2;
      ro.service.num_pes = std::atoi(argv[i]);
    } else if (arg == "--max-requests") {
      if (++i >= argc) return usage(argv[0]), 2;
      ho.max_requests = std::atol(argv[i]);
    } else if (arg == "--threshold") {
      if (++i >= argc) return usage(argv[0]), 2;
      ro.service.diff_threshold_pct = std::atof(argv[i]);
    } else if (arg == "--retain-bytes") {
      if (++i >= argc) return usage(argv[0]), 2;
      ro.retain_bytes = std::strtoull(argv[i], nullptr, 10);
    } else if (arg == "--retain-runs") {
      if (++i >= argc) return usage(argv[0]), 2;
      ro.retain_runs = static_cast<std::size_t>(std::atol(argv[i]));
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(argv[0]), 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return usage(argv[0]), 2;
    }
  }
  if (dir.empty() || ho.port < 0 || ho.port > 65535)
    return usage(argv[0]), 2;
  ap::serve::ServiceRegistry reg(dir, ro);
  reg.set_log(&std::cerr);
  if (reg.watched()->num_pes() <= 0)
    std::cerr << "serve: PE count unknown so far (no MANIFEST.txt yet); "
                 "watching " << dir << " — pass --num-pes N to analyze "
                 "mid-run\n";
  return ap::serve::run_server(reg, ho, std::cout, std::cerr);
}

// ---------------------------------------------------------------- tail

/// Minimal SSE client for GET /live: prints each event as one text line,
/// which is all a terminal next to a running job needs.
int cmd_tail(int argc, char** argv) {
  std::string endpoint, run = "default";
  long max_events = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--run") {
      if (++i >= argc) return usage(argv[0]), 2;
      run = argv[i];
    } else if (arg == "--max-events") {
      if (++i >= argc) return usage(argv[0]), 2;
      max_events = std::atol(argv[i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(argv[0]), 2;
    } else if (endpoint.empty()) {
      endpoint = arg;
    } else {
      return usage(argv[0]), 2;
    }
  }
  std::string host;
  int port = 0;
  if (endpoint.empty() ||
      !ap::serve::Publisher::parse_endpoint(endpoint, host, port)) {
    std::cerr << "tail: expected <host:port> (e.g. 127.0.0.1:7077)\n";
    return 2;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::cerr << "tail: socket(): " << std::strerror(errno) << "\n";
    return 1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    std::cerr << "tail: cannot connect to " << endpoint << ": "
              << std::strerror(errno) << "\n";
    ::close(fd);
    return 1;
  }
  const std::string req = "GET /live?run=" + run +
                          " HTTP/1.1\r\nHost: " + host +
                          "\r\nAccept: text/event-stream\r\n"
                          "Connection: close\r\n\r\n";
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) < 0) {
    std::cerr << "tail: send(): " << std::strerror(errno) << "\n";
    ::close(fd);
    return 1;
  }

  // Stream line by line: remember the last "event:" name, print each
  // "data:" payload as "<event> <data>".
  std::string buf, event;
  long printed = 0;
  bool headers_done = false;
  char chunk[4096];
  int status = 0;
  while (max_events < 0 || printed < max_events) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos &&
           (max_events < 0 || printed < max_events)) {
      std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!headers_done) {
        if (status == 0 && line.rfind("HTTP/", 0) == 0)
          status = std::atoi(line.c_str() + line.find(' ') + 1);
        if (line.empty()) headers_done = true;
        continue;
      }
      if (line.rfind("event: ", 0) == 0) {
        event = line.substr(7);
      } else if (line.rfind("data: ", 0) == 0) {
        std::cout << (event.empty() ? "message" : event) << " "
                  << line.substr(6) << "\n";
        std::cout.flush();
        ++printed;
      }
    }
    if (status != 0 && status != 200) break;
  }
  ::close(fd);
  if (status != 200) {
    std::cerr << "tail: server answered HTTP " << status << "\n";
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------- compact

/// `compact <dir>`: re-encode every .apt shard through its decoder and
/// encoder, merging the small blocks left by incremental/multi-epoch
/// appends into dense kRowsPerBlock runs. Compression state is preserved
/// per file (a version-2 shard stays compressed). Each rewrite goes
/// through a ".tmp" sibling + rename; the MANIFEST is rewritten last with
/// the new byte counts and checksums, so a reader (or a kill) never sees
/// a half-compacted directory.
int cmd_compact(int argc, char** argv) {
  namespace io = ap::prof::io;
  namespace fs = std::filesystem;
  int num_pes = 0;
  std::string dir;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--num-pes") {
      if (++i >= argc) return usage(argv[0]), 2;
      num_pes = std::atoi(argv[i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\n";
      return usage(argv[0]), 2;
    } else if (dir.empty()) {
      dir = arg;
    } else {
      return usage(argv[0]), 2;
    }
  }
  if (dir.empty()) return usage(argv[0]), 2;
  if ((num_pes = resolve_num_pes(dir, num_pes)) <= 0) return 2;
  const fs::path base(dir);

  // The existing MANIFEST supplies entry order, record counts of files we
  // do not touch, and the dead-PE markers.
  io::Manifest manifest;
  bool have_manifest = false;
  if (std::string body; io::read_file(base / io::kManifestFile, body)) {
    try {
      manifest = io::parse_manifest(body);
      have_manifest = true;
    } catch (const io::TraceParseError&) {
    }
  }

  int failures = 0, rewritten = 0;
  // Decode rows, re-encode densely, and atomically swap the file when the
  // bytes changed; missing files are silently skipped.
  const auto compact_file = [&](io::TraceFile f) {
    const std::string name = io::file_name(f, true);
    std::string body;
    if (!io::read_file(base / name, body)) return;
    std::string dense;
    std::uint64_t records = 0;
    try {
      dense = io::rewrite(body, f.kind, ap::prof::TraceFormat::binary,
                          records);
    } catch (const std::exception& e) {
      std::cerr << "compact: cannot re-encode " << name << ": " << e.what()
                << "\n";
      ++failures;
      return;
    }
    if (dense == body) return;  // already dense
    if (!io::write_file_atomic(base, name, dense)) {
      std::cerr << "compact: cannot replace " << name << "\n";
      ++failures;
      return;
    }
    std::cout << "compact: " << name << " " << body.size() << " -> "
              << dense.size() << " bytes\n";
    ++rewritten;
    // The MANIFEST entry gets the new byte count and checksum.
    for (io::ManifestEntry& e : manifest.files)
      if (e.file == name)
        e = {name, records, dense.size(),
             io::fnv1a64(dense.data(), dense.size())};
  };

  for (const io::BinKind k : io::kRowKinds)
    for (const io::TraceFile f : io::trace_files(k, num_pes)) compact_file(f);

  // Without a readable MANIFEST there is nothing to rewrite.
  if (have_manifest && rewritten > 0 &&
      !io::write_file_atomic(base, io::kManifestFile,
                             io::format_manifest(manifest))) {
    std::cerr << "compact: cannot replace MANIFEST.txt\n";
    return 1;
  }
  if (rewritten == 0 && failures == 0)
    std::cout << "compact: nothing to do (shards already dense)\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    const std::string sub = argv[1];
    if (sub == "analyze") return cmd_analyze(argc, argv);
    if (sub == "diff") return cmd_diff(argc, argv);
    if (sub == "check") return cmd_check(argc, argv);
    if (sub == "heatmap") return cmd_heatmap(argc, argv);
    if (sub == "export") return cmd_export(argc, argv);
    if (sub == "serve") return cmd_serve(argc, argv);
    if (sub == "tail") return cmd_tail(argc, argv);
    if (sub == "compact") return cmd_compact(argc, argv);
    // A non-flag first argument that is not a trace dir is a misspelled
    // subcommand — name the real ones instead of dumping plot usage.
    if (sub[0] != '-' && !std::filesystem::is_directory(sub)) {
      std::cerr << "unknown subcommand '" << sub
                << "'; available: analyze, diff, check, heatmap, export, "
                   "serve, tail, compact\n";
      usage(argv[0]);
      return 2;
    }
  }
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage(argv[0]);
    return 2;
  }
  if (const int recorded = ap::prof::io::detect_num_pes(a.dir);
      recorded > 0 && recorded != a.num_pes)
    std::cerr << "warning: --num-pes " << a.num_pes << " differs from "
              << ap::prof::io::kManifestFile << "'s num_pes " << recorded
              << "; records naming PEs outside [0, " << a.num_pes
              << ") are skipped\n";

  ap::prof::io::TraceDir trace;
  if (const int rc = load_tolerant(a.dir, a.num_pes, trace)) return rc;

  const bool log_scale = !a.linear;
  const ap::shmem::Topology topo(a.num_pes,
                                 a.ppn > 0 ? a.ppn : a.num_pes);

  // Both heatmap families run off the sparse accumulations: with --by-node
  // the collapse is sparse-to-small-dense, otherwise the sparse renderer
  // buckets before densifying. Either way no P^2 object is built.
  const auto plot_heatmap = [&](const ap::prof::SparseCommMatrix& sm,
                                const std::string& file_stem,
                                ap::viz::HeatmapOptions ho,
                                std::vector<std::uint64_t>& sends,
                                std::vector<std::uint64_t>& recvs) {
    if (a.by_node) {
      const auto m = ap::prof::collapse_to_nodes(sm, topo);
      std::cout << ap::viz::render_heatmap(m, ho) << "\n";
      maybe_svg(a, file_stem, ap::viz::svg_heatmap(m, ho.title, log_scale));
      sends = m.row_sums();
      recvs = m.col_sums();
    } else {
      ho.dead_pes = trace.dead_pes;
      std::cout << ap::viz::render_heatmap(sm, ho) << "\n";
      maybe_svg(a, file_stem, ap::viz::svg_heatmap(sm, ho.title, log_scale));
      sends = sm.row_sums();
      recvs = sm.col_sums();
    }
  };

  if (a.logical) {
    const auto sm = trace.logical_sparse();
    if (sm.total() == 0)
      std::cerr << "warning: no logical events found (PEi_send.csv missing "
                   "or empty)\n";
    ap::viz::HeatmapOptions ho;
    ho.title = "Logical Trace Heatmap (messages before aggregation)";
    ho.log_scale = log_scale;
    std::vector<std::uint64_t> sends, recvs;
    plot_heatmap(sm, "logical_heatmap", ho, sends, recvs);
    if (a.violin) {
      ap::viz::ViolinOptions vo;
      vo.title = "Logical Trace Violin (total send/recv per PE)";
      const std::string v =
          ap::viz::render_violins({"sends", "recvs"}, {sends, recvs}, vo);
      std::cout << v << "\n";
      maybe_svg(a, "logical_violin",
                ap::viz::svg_violins({"sends", "recvs"}, {sends, recvs},
                                     vo.title));
    }
  }

  if (a.papi) {
    // One bar graph per recorded counter (up to four in one run, matching
    // the paper's "-lp ... four PAPI counters in one run").
    std::vector<std::string> counter_names;
    {
      // Counter columns are positional; recover names from any header-free
      // data by numbering, or read them from the profiler default order.
      counter_names = {"PAPI_TOT_INS", "PAPI_LST_INS", "counter2", "counter3"};
    }
    std::vector<std::string> labels;
    for (int pe = 0; pe < a.num_pes; ++pe)
      labels.push_back("PE" + std::to_string(pe));
    bool any = false;
    for (int c = 0; c < 4; ++c) {
      std::vector<double> totals(static_cast<std::size_t>(a.num_pes), 0);
      bool nonzero = false;
      for (int pe = 0; pe < a.num_pes; ++pe) {
        for (const auto& row : trace.papi[static_cast<std::size_t>(pe)]) {
          const double v = static_cast<double>(
              row.counters[static_cast<std::size_t>(c)]);
          totals[static_cast<std::size_t>(pe)] += v;
          if (v > 0) nonzero = true;
        }
      }
      if (!nonzero) continue;
      any = true;
      ap::viz::BarOptions bo;
      bo.title = counter_names[static_cast<std::size_t>(c)] +
                 " per PE (MAIN+PROC segments)";
      std::cout << ap::viz::render_bars(labels, totals, bo) << "\n";
      maybe_svg(a, "papi_" + std::to_string(c),
                ap::viz::svg_bars(labels, totals, bo.title));
    }
    if (!any)
      std::cerr << "warning: no PAPI rows found (PEi_PAPI.csv missing?)\n";
  }

  if (a.overall) {
    if (trace.overall.empty()) {
      std::cerr << "warning: overall.txt missing or empty\n";
    } else {
      ap::viz::StackedBarOptions so;
      so.title = "Overall Profiling (absolute rdtsc cycles)";
      so.relative = false;
      std::cout << ap::viz::render_overall_stacked(trace.overall, so) << "\n";
      maybe_svg(a, "overall_absolute",
                ap::viz::svg_overall_stacked(trace.overall, so.title, false));
      so.title = "Overall Profiling (relative)";
      so.relative = true;
      std::cout << ap::viz::render_overall_stacked(trace.overall, so) << "\n";
      maybe_svg(a, "overall_relative",
                ap::viz::svg_overall_stacked(trace.overall, so.title, true));
    }
  }

  if (a.physical) {
    const auto sm = trace.physical_sparse();
    if (sm.total() == 0)
      std::cerr << "warning: no physical events found (physical.txt "
                   "missing or empty)\n";
    ap::viz::HeatmapOptions ho;
    ho.title =
        "Physical Trace Heatmap (aggregated buffers: local_send + "
        "nonblock_send)";
    ho.log_scale = log_scale;
    std::vector<std::uint64_t> sends, recvs;
    plot_heatmap(sm, "physical_heatmap", ho, sends, recvs);
    if (a.violin) {
      ap::viz::ViolinOptions vo;
      vo.title = "Physical Trace Violin (total buffers per PE)";
      std::cout << ap::viz::render_violins({"sends", "recvs"},
                                           {sends, recvs}, vo)
                << "\n";
      maybe_svg(a, "physical_violin",
                ap::viz::svg_violins({"sends", "recvs"}, {sends, recvs},
                                     vo.title));
    }
  }

  if (a.advise) {
    std::vector<std::uint64_t> ins(static_cast<std::size_t>(a.num_pes), 0);
    for (int pe = 0; pe < a.num_pes; ++pe)
      for (const auto& row : trace.papi[static_cast<std::size_t>(pe)])
        ins[static_cast<std::size_t>(pe)] += row.counters[0];
    bool any_ins = false;
    for (auto v : ins) any_ins |= (v != 0);
    // The advisor's per-PE diagnostics stay dense on purpose: its findings
    // quote individual PEs, and its callers run it at report-sized fleets.
    const auto report = ap::prof::advise(
        trace.logical_matrix(), trace.physical_matrix(), trace.overall,
        any_ins ? ins : std::vector<std::uint64_t>{}, topo);
    std::cout << ap::prof::format_report(report);
  }
  return damage_exit(trace, a.tolerate_partial);
}
