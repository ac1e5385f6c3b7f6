// Tests for the visualization renderers (ASCII + SVG): structure of the
// output, totals rows/columns, stacked-bar arithmetic, violin quartiles.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/aggregate.hpp"
#include "core/records.hpp"
#include "viz/render.hpp"
#include "viz/svg.hpp"
#include "test_tmpdir.hpp"

namespace {

using namespace ap;
using prof::CommMatrix;
using prof::OverallRecord;

CommMatrix sample_matrix() {
  CommMatrix m(4);
  m.add(0, 1, 100);
  m.add(0, 2, 10);
  m.add(1, 0, 5);
  m.add(2, 3, 50);
  m.add(3, 3, 1);
  return m;
}

TEST(RenderHeatmap, ContainsEveryRowAndTotals) {
  const std::string s = viz::render_heatmap(sample_matrix());
  for (int pe = 0; pe < 4; ++pe)
    EXPECT_NE(s.find("PE" + std::to_string(pe)), std::string::npos);
  EXPECT_NE(s.find("recv"), std::string::npos);
  EXPECT_NE(s.find("send"), std::string::npos);
  EXPECT_NE(s.find("max cell = 100"), std::string::npos);
  // Row sums appear: PE0 sent 110 total.
  EXPECT_NE(s.find("110"), std::string::npos);
}

TEST(RenderHeatmap, HotCellUsesHottestGlyph) {
  CommMatrix m(2);
  m.add(0, 1, 1000);
  m.add(1, 0, 1);
  viz::HeatmapOptions o;
  o.log_scale = false;
  const std::string s = viz::render_heatmap(m, o);
  EXPECT_NE(s.find('@'), std::string::npos);
}

TEST(RenderHeatmap, EmptyMatrixDoesNotCrash) {
  CommMatrix m(3);
  const std::string s = viz::render_heatmap(m);
  EXPECT_FALSE(s.empty());
}

TEST(RenderBars, ValuesAndLabelsPresent) {
  const std::string s = viz::render_bars({"PE0", "PE1", "PE2"},
                                         {10.0, 100.0, 55.0});
  EXPECT_NE(s.find("PE1"), std::string::npos);
  EXPECT_NE(s.find("100"), std::string::npos);
  // The max bar must be strictly longer than the min bar.
  const auto count_hashes = [&s](const std::string& label) {
    const auto p = s.find(label);
    const auto e = s.find('\n', p);
    return std::count(s.begin() + static_cast<std::ptrdiff_t>(p),
                      s.begin() + static_cast<std::ptrdiff_t>(e), '#');
  };
  EXPECT_GT(count_hashes("PE1"), count_hashes("PE0"));
}

TEST(RenderStacked, RelativeBarsSpanFullWidthAndSegmentsBalance) {
  std::vector<OverallRecord> recs;
  recs.push_back(OverallRecord{0, 100, 100, 1000});  // comm = 800
  recs.push_back(OverallRecord{1, 500, 500, 1000});  // comm = 0
  viz::StackedBarOptions o;
  o.relative = true;
  o.width = 60;
  const std::string s = viz::render_overall_stacked(recs, o);
  EXPECT_NE(s.find("T_MAIN"), std::string::npos);
  // PE0: mostly '~' (COMM); PE1: no '~' at all on its line.
  const auto pe1_line_start = s.find("PE1");
  const auto pe1_line_end = s.find('\n', pe1_line_start);
  const std::string pe1_line =
      s.substr(pe1_line_start, pe1_line_end - pe1_line_start);
  EXPECT_EQ(pe1_line.find('~'), std::string::npos);
  EXPECT_NE(pe1_line.find('#'), std::string::npos);
  EXPECT_NE(pe1_line.find('='), std::string::npos);
}

TEST(RenderViolin, QuartileSummaryPrinted) {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 1; i <= 100; ++i) samples.push_back(i);
  const std::string s = viz::render_violins({""}, {samples});
  EXPECT_NE(s.find("med="), std::string::npos);
  EXPECT_NE(s.find("n=100"), std::string::npos);
  EXPECT_NE(s.find('O'), std::string::npos);  // median marker
}

TEST(RenderViolin, MultipleViolinsShareAxis) {
  const std::string s = viz::render_violins(
      {"a", "b"}, {{1, 2, 3, 4, 5}, {100, 101, 102}});
  EXPECT_NE(s.find("[a]"), std::string::npos);
  EXPECT_NE(s.find("[b]"), std::string::npos);
}

TEST(RenderViolin, EmptySamplesDoNotCrash) {
  const std::string s = viz::render_violins({""}, {{}});
  EXPECT_FALSE(s.empty());
}

TEST(QuartileLine, Format) {
  prof::QuartileStats q;
  q.min = 1;
  q.q1 = 2;
  q.median = 3;
  q.q3 = 4;
  q.max = 5;
  q.mean = 3;
  const std::string s = viz::quartile_line(q);
  EXPECT_NE(s.find("min=1"), std::string::npos);
  EXPECT_NE(s.find("max=5"), std::string::npos);
}

// ------------------------------------------------------------------ SVG

TEST(Svg, HeatmapIsWellFormed) {
  const std::string s = viz::svg_heatmap(sample_matrix(), "test heat");
  EXPECT_EQ(s.rfind("<svg", 0), 0u);
  EXPECT_NE(s.find("</svg>"), std::string::npos);
  EXPECT_NE(s.find("test heat"), std::string::npos);
  // 4x4 cells + totals row/col = at least 24 rects (+ background).
  std::size_t rects = 0, pos = 0;
  while ((pos = s.find("<rect", pos)) != std::string::npos) {
    ++rects;
    ++pos;
  }
  EXPECT_GE(rects, 24u);
}

TEST(Svg, BarsAndStackedAndViolin) {
  const std::string b = viz::svg_bars({"x"}, {1.0}, "bars");
  EXPECT_NE(b.find("</svg>"), std::string::npos);
  std::vector<OverallRecord> recs{OverallRecord{0, 1, 1, 10}};
  const std::string o = viz::svg_overall_stacked(recs, "ov", true);
  EXPECT_NE(o.find("T_COMM"), std::string::npos);
  const std::string v = viz::svg_violins({"v"}, {{1, 2, 3}}, "violin");
  EXPECT_NE(v.find("<path"), std::string::npos);
}

TEST(Svg, WriteFileCreatesParents) {
  const ap::testutil::TestTmpDir tmp;
  namespace fs = std::filesystem;
  const fs::path dir = tmp / "svg_out" / "deep";
  fs::remove_all(dir.parent_path());
  const fs::path file = dir / "plot.svg";
  viz::write_svg_file(file.string(), viz::svg_bars({"a"}, {1}, "t"));
  EXPECT_TRUE(fs::exists(file));
  std::ifstream is(file);
  std::string first;
  std::getline(is, first);
  EXPECT_EQ(first.rfind("<svg", 0), 0u);
}

}  // namespace

namespace {

TEST(RenderHeatmap, LargeMatrixIsDownsampled) {
  prof::CommMatrix big(256);
  for (int s = 0; s < 256; ++s) big.add(s, (s + 1) % 256, 10);
  viz::HeatmapOptions o;
  o.max_cells = 32;
  const std::string s = viz::render_heatmap(big, o);
  EXPECT_NE(s.find("downsampled"), std::string::npos);
  EXPECT_EQ(s.find("PE255"), std::string::npos);
  EXPECT_NE(s.find("PE31"), std::string::npos);
}

TEST(BucketMatrix, SumsPreserved) {
  prof::CommMatrix m(10);
  for (int s = 0; s < 10; ++s)
    for (int d = 0; d < 10; ++d) m.add(s, d, static_cast<std::uint64_t>(s + d));
  const auto b = prof::bucket_matrix(m, 4);
  EXPECT_LE(b.size(), 4);
  EXPECT_EQ(b.total(), m.total());
  EXPECT_EQ(prof::bucket_matrix(m, 16), m);  // small enough: unchanged
  EXPECT_THROW(prof::bucket_matrix(m, 0), std::invalid_argument);
}

// Regression: a 0-PE matrix (empty or fully-unparsable trace dir) used to
// dereference max_element(end()) — render_heatmap must return a stub.
TEST(RenderHeatmap, ZeroPeMatrixReturnsStubNotUb) {
  viz::HeatmapOptions o;
  o.title = "empty trace";
  const std::string dense = viz::render_heatmap(prof::CommMatrix{}, o);
  EXPECT_NE(dense.find("empty trace"), std::string::npos);
  EXPECT_NE(dense.find("(empty matrix: no PEs)"), std::string::npos);
  const std::string sparse =
      viz::render_heatmap(prof::SparseCommMatrix{}, o);
  EXPECT_EQ(sparse, dense);
}

TEST(RenderHeatmap, SparseOverloadMatchesDense) {
  const prof::CommMatrix dense = sample_matrix();
  prof::SparseCommMatrix sparse(dense.size());
  for (int s = 0; s < dense.size(); ++s)
    for (int d = 0; d < dense.size(); ++d)
      if (dense.at(s, d) != 0) sparse.add(s, d, dense.at(s, d));
  viz::HeatmapOptions o;
  o.title = "parity";
  EXPECT_EQ(viz::render_heatmap(sparse, o), viz::render_heatmap(dense, o));
}

TEST(RenderHeatmap, SparseNonDivisibleBucketingLabelsShortLastBucket) {
  // 130 PEs into 64 cells: per = ceil(130/64) = 3, 44 buckets, last = 1 PE.
  prof::SparseCommMatrix m(130);
  for (int s = 0; s < 130; ++s) m.add(s, (s + 1) % 130, 5);
  viz::HeatmapOptions o;
  o.max_cells = 64;
  const std::string s = viz::render_heatmap(m, o);
  EXPECT_NE(s.find("downsampled"), std::string::npos);
  EXPECT_NE(s.find("aggregates 3 PEs"), std::string::npos);
  EXPECT_NE(s.find("last bucket 1 PEs"), std::string::npos);
}

TEST(Svg, SparseHeatmapBucketsAndNotesTitle) {
  prof::SparseCommMatrix m(1000);
  for (int s = 0; s < 1000; ++s) m.add(s, (s * 7) % 1000, 2);
  const std::string s = viz::svg_heatmap(m, "big fleet");
  EXPECT_EQ(s.rfind("<svg", 0), 0u);
  EXPECT_NE(s.find("bucketed:"), std::string::npos);
  // Small sparse matrices pass through unbucketed with a plain title.
  prof::SparseCommMatrix small(4);
  small.add(0, 1, 3);
  const std::string t = viz::svg_heatmap(small, "small fleet");
  EXPECT_NE(t.find("small fleet"), std::string::npos);
  EXPECT_EQ(t.find("bucketed:"), std::string::npos);
}

}  // namespace
