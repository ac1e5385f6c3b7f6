// Terminal renderers for ActorProf traces (paper §III-D).
//
// The paper's visualizer draws heatmaps (communication matrices with total
// send/recv in the last row/column — the CrayPat "Mosaic Report" style),
// quartile violin plots, and (stacked) bar graphs with matplotlib. This
// module renders the same plot families as text so they work anywhere a
// terminal does; svg.hpp produces graphical versions of the same plots.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggregate.hpp"
#include "core/records.hpp"

namespace ap::viz {

struct HeatmapOptions {
  std::string title;
  /// Append the totals row/column ("total outgoing send/recv for every PE,
  /// represented in the last row and the last column").
  bool totals = true;
  /// Log-scale the color ramp (power-law counts are unreadable linearly).
  bool log_scale = true;
  int cell_width = 3;
  /// Downsample matrices larger than this to PE buckets so the heatmap
  /// stays terminal-sized (0 disables).
  int max_cells = 64;
  /// PEs killed mid-run (fault injection): their rows are marked with '!'
  /// and a legend line names them, so a sparse row reads as "died", not
  /// "idle". Marks are skipped when the matrix is bucketed (a bucket mixes
  /// live and dead PEs); the legend still prints.
  std::vector<int> dead_pes;
};

/// Render a src-by-dst matrix as an ASCII heatmap. An empty matrix (0 PEs,
/// e.g. a fully-unparsable trace dir) renders as a stub, not UB. The
/// sparse overload buckets before densifying, so it never materializes
/// P^2 cells — use it for large fleets.
std::string render_heatmap(const prof::CommMatrix& m,
                           const HeatmapOptions& opts = {});
std::string render_heatmap(const prof::SparseCommMatrix& m,
                           const HeatmapOptions& opts = {});

struct BarOptions {
  std::string title;
  std::string unit;
  int width = 50;  // bar columns at max value
  bool log_scale = false;
};

/// One horizontal bar per labelled value (the Fig. 10/11 per-PE bars).
std::string render_bars(const std::vector<std::string>& labels,
                        const std::vector<double>& values,
                        const BarOptions& opts = {});

struct StackedBarOptions {
  std::string title;
  int width = 60;
  /// If true, every bar spans the full width (the paper's Relative plot);
  /// otherwise bars scale with their absolute totals (Absolute plot).
  bool relative = false;
};

/// MAIN/COMM/PROC stacked bars, one per PE (Fig. 12/13).
/// Segment glyphs: MAIN '#', COMM '~', PROC '='.
std::string render_overall_stacked(const std::vector<prof::OverallRecord>& recs,
                                   const StackedBarOptions& opts = {});

/// Generic stacked bars: one bar per row, one glyph per segment (cycled
/// from "#~=+*o" when there are more segments than glyphs). Used by the
/// `analyze` subcommand for per-superstep MAIN/PROC/COMM/WAIT bars.
/// `values[row][seg]` must be rectangular with one column per segment.
std::string render_stacked(const std::vector<std::string>& labels,
                           const std::vector<std::string>& segment_names,
                           const std::vector<std::vector<std::uint64_t>>& values,
                           const StackedBarOptions& opts = {});

struct ViolinOptions {
  std::string title;
  int width = 41;   // odd, so the spine is centered
  int rows = 16;    // vertical resolution
};

/// Quartile violins side by side with labels (e.g. sends vs recvs, Cyclic
/// vs Range): per sample set a density silhouette, median dot and quartile
/// band — the information content of the paper's Fig. 5/7.
std::string render_violins(
    const std::vector<std::string>& labels,
    const std::vector<std::vector<std::uint64_t>>& sample_sets,
    const ViolinOptions& opts = {});

/// Pretty one-line summary of quartiles (used under each violin).
std::string quartile_line(const prof::QuartileStats& q);

}  // namespace ap::viz
