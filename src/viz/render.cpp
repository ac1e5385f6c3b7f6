#include "viz/render.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace ap::viz {

namespace {

/// Intensity ramp from cold to hot.
constexpr std::string_view kRamp = " .:-=+*#%@";

char ramp_char(double x01) {
  if (x01 <= 0) return kRamp[0];
  const auto idx = static_cast<std::size_t>(
      std::min(x01, 1.0) * static_cast<double>(kRamp.size() - 1) + 0.5);
  return kRamp[std::min(idx, kRamp.size() - 1)];
}

double scale01(std::uint64_t v, std::uint64_t max, bool log_scale) {
  if (v == 0 || max == 0) return 0;
  if (!log_scale) return static_cast<double>(v) / static_cast<double>(max);
  return std::log1p(static_cast<double>(v)) /
         std::log1p(static_cast<double>(max));
}

std::string pad(const std::string& s, int w) {
  return s.size() >= static_cast<std::size_t>(w)
             ? s
             : std::string(static_cast<std::size_t>(w) - s.size(), ' ') + s;
}

std::string human(std::uint64_t v) {
  std::ostringstream os;
  if (v >= 10'000'000) {
    os << v / 1'000'000 << "M";
  } else if (v >= 10'000) {
    os << v / 1'000 << "k";
  } else {
    os << v;
  }
  return os.str();
}

/// Shared body of the dense and sparse entry points: `m` is already at
/// renderable size (bucketed if the original was larger), `orig_n` is the
/// pre-bucketing PE count the labels must describe.
std::string render_heatmap_impl(const prof::CommMatrix& m, int orig_n,
                                bool bucketed, const HeatmapOptions& opts) {
  std::ostringstream os;
  const int n = m.size();
  if (n <= 0) {
    // 0-PE / fully-unparsable trace: emit a stub instead of dereferencing
    // max_element(end()) on the empty totals below.
    if (!opts.title.empty()) os << opts.title << "\n";
    os << "(empty matrix: no PEs)\n";
    return os.str();
  }
  const std::uint64_t max = m.max_cell();
  const auto sends = m.row_sums();
  const auto recvs = m.col_sums();
  const std::uint64_t max_total =
      std::max(*std::max_element(sends.begin(), sends.end()),
               *std::max_element(recvs.begin(), recvs.end()));

  if (!opts.title.empty()) os << opts.title << "\n";
  os << "rows = source PE, cols = destination PE; ramp \"" << kRamp
     << "\" (max cell = " << max << ")\n";
  if (bucketed) {
    // bucket_range is the attribution's source of truth; when the bucket
    // width does not divide the PE count the last bucket is short and the
    // label must say so (a uniform "aggregates K PEs" would double-count).
    const prof::BucketRange first =
        prof::bucket_range(0, orig_n, opts.max_cells);
    const prof::BucketRange last =
        prof::bucket_range(n - 1, orig_n, opts.max_cells);
    os << "(downsampled: each row/col aggregates " << first.width() << " PEs";
    if (last.width() != first.width())
      os << "; last bucket " << last.width() << " PEs";
    os << ")\n";
  }
  const auto is_dead = [&](int pe) {
    for (int d : opts.dead_pes)
      if (d == pe) return true;
    return false;
  };
  if (!opts.dead_pes.empty()) {
    os << "dead PEs (killed mid-run, trace is a partial prefix):";
    for (int d : opts.dead_pes) os << " PE" << d;
    if (!bucketed) os << "  — rows marked '!'";
    os << '\n';
  }

  // Column header.
  os << pad("", 6);
  for (int d = 0; d < n; ++d) os << pad(std::to_string(d), opts.cell_width);
  if (opts.totals) os << "  | " << pad("send", 8);
  os << '\n';

  for (int s = 0; s < n; ++s) {
    const bool mark = !bucketed && is_dead(s);
    os << pad("PE" + std::to_string(s) + (mark ? "!" : ""), 5) << ' ';
    for (int d = 0; d < n; ++d) {
      const char c = ramp_char(scale01(m.at(s, d), max, opts.log_scale));
      os << std::string(static_cast<std::size_t>(opts.cell_width - 1), ' ')
         << c;
    }
    if (opts.totals)
      os << "  | "
         << pad(human(sends[static_cast<std::size_t>(s)]), 8);
    os << '\n';
  }
  if (opts.totals) {
    os << pad("recv", 5) << ' ';
    for (int d = 0; d < n; ++d) {
      const char c = ramp_char(
          scale01(recvs[static_cast<std::size_t>(d)], max_total, opts.log_scale));
      os << std::string(static_cast<std::size_t>(opts.cell_width - 1), ' ')
         << c;
    }
    os << "  | " << pad(human(m.total()), 8) << '\n';
  }
  return os.str();
}

}  // namespace

std::string render_heatmap(const prof::CommMatrix& m,
                           const HeatmapOptions& opts) {
  const bool bucketed = opts.max_cells > 0 && m.size() > opts.max_cells;
  if (!bucketed) return render_heatmap_impl(m, m.size(), false, opts);
  return render_heatmap_impl(prof::bucket_matrix(m, opts.max_cells), m.size(),
                             true, opts);
}

std::string render_heatmap(const prof::SparseCommMatrix& m,
                           const HeatmapOptions& opts) {
  if (m.size() <= 0)
    return render_heatmap_impl(prof::CommMatrix{}, 0, false, opts);
  const bool bucketed = opts.max_cells > 0 && m.size() > opts.max_cells;
  // Bucket while still sparse: the dense object that reaches the renderer
  // is at most max_cells^2, never P^2.
  return render_heatmap_impl(
      bucketed ? m.bucketed(opts.max_cells) : m.dense(), m.size(), bucketed,
      opts);
}

std::string render_bars(const std::vector<std::string>& labels,
                        const std::vector<double>& values,
                        const BarOptions& opts) {
  std::ostringstream os;
  if (!opts.title.empty()) os << opts.title << "\n";
  double max = 0;
  for (double v : values) max = std::max(max, v);
  auto bar_len = [&](double v) {
    if (max <= 0 || v <= 0) return 0;
    const double x = opts.log_scale
                         ? std::log1p(v) / std::log1p(max)
                         : v / max;
    return static_cast<int>(x * opts.width + 0.5);
  };
  std::size_t label_w = 0;
  for (const auto& l : labels) label_w = std::max(label_w, l.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::string label = i < labels.size() ? labels[i] : "";
    os << pad(label, static_cast<int>(label_w)) << " |"
       << std::string(static_cast<std::size_t>(bar_len(values[i])), '#')
       << ' ' << std::setprecision(6) << values[i];
    if (!opts.unit.empty()) os << ' ' << opts.unit;
    os << '\n';
  }
  return os.str();
}

std::string render_overall_stacked(
    const std::vector<prof::OverallRecord>& recs,
    const StackedBarOptions& opts) {
  std::ostringstream os;
  if (!opts.title.empty()) os << opts.title << "\n";
  os << "legend: '#' = T_MAIN, '~' = T_COMM, '=' = T_PROC ("
     << (opts.relative ? "relative" : "absolute") << ")\n";
  std::uint64_t max_total = 0;
  for (const auto& r : recs) max_total = std::max(max_total, r.t_total);
  for (const auto& r : recs) {
    const double scale =
        opts.relative
            ? (r.t_total == 0 ? 0.0
                              : static_cast<double>(opts.width) /
                                    static_cast<double>(r.t_total))
            : (max_total == 0 ? 0.0
                              : static_cast<double>(opts.width) /
                                    static_cast<double>(max_total));
    const int wm = static_cast<int>(static_cast<double>(r.t_main) * scale + 0.5);
    const int wc = static_cast<int>(static_cast<double>(r.t_comm()) * scale + 0.5);
    const int wp = static_cast<int>(static_cast<double>(r.t_proc) * scale + 0.5);
    os << pad("PE" + std::to_string(r.pe), 5) << " |"
       << std::string(static_cast<std::size_t>(wm), '#')
       << std::string(static_cast<std::size_t>(wc), '~')
       << std::string(static_cast<std::size_t>(wp), '=');
    os << "  (" << r.t_main << ", " << r.t_comm() << ", " << r.t_proc << ")";
    if (opts.relative) {
      os << std::fixed << std::setprecision(1) << "  [" << 100 * r.rel_main()
         << "% " << 100 * r.rel_comm() << "% " << 100 * r.rel_proc() << "%]"
         << std::defaultfloat;
    }
    os << '\n';
  }
  return os.str();
}

std::string render_stacked(
    const std::vector<std::string>& labels,
    const std::vector<std::string>& segment_names,
    const std::vector<std::vector<std::uint64_t>>& values,
    const StackedBarOptions& opts) {
  constexpr std::string_view kGlyphs = "#~=+*o";
  std::ostringstream os;
  if (!opts.title.empty()) os << opts.title << "\n";
  os << "legend:";
  for (std::size_t s = 0; s < segment_names.size(); ++s)
    os << (s ? "," : "") << " '" << kGlyphs[s % kGlyphs.size()] << "' = "
       << segment_names[s];
  os << " (" << (opts.relative ? "relative" : "absolute") << ")\n";

  std::uint64_t max_total = 0;
  for (const auto& row : values) {
    std::uint64_t t = 0;
    for (std::uint64_t v : row) t += v;
    max_total = std::max(max_total, t);
  }
  std::size_t label_w = 5;
  for (const auto& l : labels) label_w = std::max(label_w, l.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto& row = values[i];
    std::uint64_t total = 0;
    for (std::uint64_t v : row) total += v;
    const std::uint64_t base = opts.relative ? total : max_total;
    const double scale =
        base == 0 ? 0.0
                  : static_cast<double>(opts.width) /
                        static_cast<double>(base);
    os << pad(i < labels.size() ? labels[i] : "",
              static_cast<int>(label_w))
       << " |";
    for (std::size_t s = 0; s < row.size(); ++s) {
      const auto w = static_cast<std::size_t>(
          static_cast<double>(row[s]) * scale + 0.5);
      os << std::string(w, kGlyphs[s % kGlyphs.size()]);
    }
    os << "  (";
    for (std::size_t s = 0; s < row.size(); ++s)
      os << (s ? ", " : "") << row[s];
    os << ")\n";
  }
  return os.str();
}

std::string quartile_line(const prof::QuartileStats& q) {
  std::ostringstream os;
  os << "min=" << q.min << " q1=" << q.q1 << " med=" << q.median
     << " q3=" << q.q3 << " max=" << q.max << " mean=" << std::fixed
     << std::setprecision(1) << q.mean;
  return os.str();
}

std::string render_violins(
    const std::vector<std::string>& labels,
    const std::vector<std::vector<std::uint64_t>>& sample_sets,
    const ViolinOptions& opts) {
  std::ostringstream os;
  if (!opts.title.empty()) os << opts.title << "\n";
  if (sample_sets.empty()) return os.str();

  // Common vertical axis across all violins.
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& s : sample_sets) {
    for (std::uint64_t v : s) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  }
  if (lo == UINT64_MAX) {
    lo = 0;
    hi = 0;
  }
  const int rows = std::max(3, opts.rows);
  const int width = opts.width | 1;  // force odd
  const double span = hi > lo ? static_cast<double>(hi - lo) : 1.0;

  struct Shape {
    std::vector<int> halfwidth;  // per row
    int median_row = 0, q1_row = 0, q3_row = 0;
    prof::QuartileStats q;
  };
  std::vector<Shape> shapes;
  for (const auto& s : sample_sets) {
    Shape sh;
    sh.halfwidth.assign(static_cast<std::size_t>(rows), 0);
    std::vector<int> bins(static_cast<std::size_t>(rows), 0);
    for (std::uint64_t v : s) {
      const int r = static_cast<int>(
          (static_cast<double>(v) - static_cast<double>(lo)) / span *
          (rows - 1));
      bins[static_cast<std::size_t>(std::clamp(r, 0, rows - 1))]++;
    }
    const int max_bin = *std::max_element(bins.begin(), bins.end());
    for (int r = 0; r < rows; ++r) {
      if (max_bin > 0 && bins[static_cast<std::size_t>(r)] > 0)
        sh.halfwidth[static_cast<std::size_t>(r)] = std::max(
            1, bins[static_cast<std::size_t>(r)] * (width / 2) / max_bin);
    }
    sh.q = prof::quartiles_u64(s);
    auto row_of = [&](double v) {
      return std::clamp(
          static_cast<int>((v - static_cast<double>(lo)) / span * (rows - 1)),
          0, rows - 1);
    };
    sh.median_row = row_of(sh.q.median);
    sh.q1_row = row_of(sh.q.q1);
    sh.q3_row = row_of(sh.q.q3);
    shapes.push_back(std::move(sh));
  }

  // Header labels.
  bool have_labels = false;
  for (const auto& l : labels)
    if (!l.empty()) have_labels = true;
  if (have_labels) {
    os << pad("", 12);
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      std::string l = i < labels.size() ? labels[i] : "";
      if (l.size() > static_cast<std::size_t>(width)) l.resize(static_cast<std::size_t>(width));
      const int padding = width + 2 - static_cast<int>(l.size());
      os << std::string(static_cast<std::size_t>(padding / 2), ' ') << l
         << std::string(static_cast<std::size_t>(padding - padding / 2), ' ');
    }
    os << '\n';
  }

  // Top row = max value.
  for (int r = rows - 1; r >= 0; --r) {
    const double row_value =
        static_cast<double>(lo) + span * r / (rows - 1);
    os << pad(human(static_cast<std::uint64_t>(row_value)), 10) << "  ";
    for (const Shape& sh : shapes) {
      const int hw = sh.halfwidth[static_cast<std::size_t>(r)];
      std::string line(static_cast<std::size_t>(width), ' ');
      const int mid = width / 2;
      const bool in_iqr = r >= sh.q1_row && r <= sh.q3_row;
      for (int c = mid - hw; c <= mid + hw; ++c)
        line[static_cast<std::size_t>(c)] = in_iqr ? '#' : '+';
      if (r == sh.median_row) line[static_cast<std::size_t>(mid)] = 'O';
      os << line << "  ";
    }
    os << '\n';
  }
  os << pad("", 12);
  for (const Shape& sh : shapes) {
    std::string l = "n=" + std::to_string(sh.q.n);
    l.resize(static_cast<std::size_t>(width), ' ');
    os << l << "  ";
  }
  os << "\n";
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    os << "  [" << (i < labels.size() ? labels[i] : "") << "] "
       << quartile_line(shapes[i].q) << '\n';
  }
  return os.str();
}

}  // namespace ap::viz
