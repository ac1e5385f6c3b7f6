// The .apt binary columnar trace format (docs/TRACE_FORMAT.md):
// round-trip of every record kind, CSV <-> binary equivalence down to the
// byte (the Sink writers applied to decoded rows reproduce the CSV of the
// originals), block-tolerant decoding of truncated and bit-flipped files
// with exact (block, offset) attribution, and write_all/load_trace_dir
// producing identical analyses from either format.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "apps/triangle.hpp"
#include "check/checker.hpp"
#include "core/profiler.hpp"
#include "core/sink.hpp"
#include "core/trace_binary.hpp"
#include "core/trace_io.hpp"
#include "graph/distribution.hpp"
#include "graph/rmat.hpp"
#include "metrics/sampler.hpp"
#include "shmem/shmem.hpp"
#include "viz/heatmap_json.hpp"
#include "test_tmpdir.hpp"

namespace {

namespace fs = std::filesystem;
namespace io = ap::prof::io;
using ap::graph::SplitMix64;

// Rows per encoded block; mirrors kRowsPerBlock in trace_binary.cpp (the
// truncation tests below assert prefix sizes in whole blocks).
constexpr std::size_t kBlockRows = 4096;

std::vector<ap::prof::LogicalSendRecord> random_logical(std::size_t n,
                                                        std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<ap::prof::LogicalSendRecord> recs;
  recs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    recs.push_back({static_cast<int>(rng.next_below(4)),
                    static_cast<int>(rng.next_below(16)),
                    static_cast<int>(rng.next_below(4)),
                    static_cast<int>(rng.next_below(16)),
                    static_cast<std::uint32_t>(8 + rng.next_below(4096))});
  return recs;
}

std::vector<ap::prof::SuperstepRecord> random_steps(std::size_t n,
                                                    std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<ap::prof::SuperstepRecord> recs;
  for (std::size_t i = 0; i < n; ++i) {
    ap::prof::SuperstepRecord r;
    r.pe = static_cast<int>(rng.next_below(16));
    r.epoch = static_cast<std::uint32_t>(rng.next_below(4));
    r.step = static_cast<std::uint32_t>(i);
    r.t_main = rng.next_below(1 << 30);
    r.t_proc = rng.next_below(1 << 30);
    r.t_comm = rng.next_below(1 << 30);
    r.msgs_sent = rng.next_below(1 << 20);
    r.bytes_sent = rng.next_below(1 << 28);
    r.msgs_handled = rng.next_below(1 << 20);
    r.barrier_arrive = rng.next_below(1u << 30);
    r.barrier_release = r.barrier_arrive + rng.next_below(1 << 20);
    recs.push_back(r);
  }
  return recs;
}

// ------------------------------------------------------------- round trips

TEST(TraceBinary, LogicalRoundTripsAcrossBlocks) {
  const auto recs = random_logical(3 * kBlockRows + 17, 42);
  const std::string body = io::encode(recs);
  EXPECT_TRUE(io::is_binary_trace(body));
  std::vector<ap::prof::LogicalSendRecord> out;
  io::read_into(body, out);
  EXPECT_EQ(out, recs);

  // CSV -> binary -> CSV is byte-equivalent: the Sink writer applied to
  // the decoded rows reproduces the CSV of the originals exactly.
  io::Sink a, b;
  io::write_csv(a, recs);
  io::write_csv(b, out);
  EXPECT_EQ(std::move(a).str(), std::move(b).str());
}

TEST(TraceBinary, PapiRoundTripsRowsAndEventHeader) {
  const ap::prof::Config cfg = ap::prof::Config::all_enabled();
  SplitMix64 rng(7);
  std::vector<ap::prof::PapiSegmentRecord> recs;
  for (int i = 0; i < 1000; ++i) {
    ap::prof::PapiSegmentRecord r;
    r.src_node = static_cast<int>(rng.next_below(4));
    r.src_pe = static_cast<int>(rng.next_below(16));
    r.dst_node = static_cast<int>(rng.next_below(4));
    r.dst_pe = static_cast<int>(rng.next_below(16));
    r.pkt_bytes = static_cast<std::uint32_t>(8 + rng.next_below(64));
    r.mailbox_id = static_cast<int>(rng.next_below(4));
    r.num_sends = rng.next_below(1000);
    for (int k = 0; k < cfg.num_papi_events(); ++k)
      r.counters[static_cast<std::size_t>(k)] = rng.next_below(1 << 20);
    r.is_proc = (rng.next_below(2) == 1);
    recs.push_back(r);
  }
  const std::string body = io::encode(recs, io::FileMeta::papi(cfg));
  std::vector<ap::prof::PapiSegmentRecord> out;
  io::FileMeta meta;
  io::read_into(body, out, &meta);
  EXPECT_EQ(out, recs);
  // The configured event ids ride in the header aux, in order.
  const std::vector<ap::papi::Event>& events = meta.papi_events;
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(cfg.num_papi_events()));
  for (std::size_t k = 0; k < events.size(); ++k)
    EXPECT_EQ(events[k], cfg.papi_events[k]);

  io::Sink a, b;
  io::write_csv(a, recs, io::FileMeta::papi(cfg));
  io::write_csv(b, out, meta);
  EXPECT_EQ(std::move(a).str(), std::move(b).str());
}

TEST(TraceBinary, StepsRoundTrip) {
  const auto recs = random_steps(kBlockRows + 321, 11);
  std::vector<ap::prof::SuperstepRecord> out;
  io::read_into(io::encode(recs), out);
  EXPECT_EQ(out, recs);
}

TEST(TraceBinary, PhysicalRoundTrip) {
  SplitMix64 rng(13);
  std::vector<ap::prof::PhysicalRecord> recs;
  for (int i = 0; i < 500; ++i) {
    ap::prof::PhysicalRecord r;
    r.type = static_cast<ap::convey::SendType>(rng.next_below(3));
    r.buffer_bytes = 8 + rng.next_below(4096);
    r.src_pe = static_cast<int>(rng.next_below(16));
    r.dst_pe = static_cast<int>(rng.next_below(16));
    recs.push_back(r);
  }
  std::vector<ap::prof::PhysicalRecord> out;
  io::read_into(io::encode(recs), out);
  EXPECT_EQ(out, recs);

  io::Sink a, b;
  io::write_csv(a, recs);
  io::write_csv(b, out);
  EXPECT_EQ(std::move(a).str(), std::move(b).str());
}

TEST(TraceBinary, CheckRoundTripsStringsAndDroppedMarker) {
  std::vector<ap::check::Violation> v;
  for (int i = 0; i < 300; ++i) {
    ap::check::Violation x;
    x.kind = static_cast<ap::check::Violation::Kind>(i % 7);
    x.pe = i % 8;
    x.other_pe = (i % 3 == 0) ? -1 : (i % 8);
    x.superstep = static_cast<std::uint32_t>(i / 10);
    x.offset = static_cast<std::uint64_t>(i) * 64;
    x.bytes = 8;
    // Few distinct strings over many rows: the dictionary case.
    x.callsite = (i % 2 != 0) ? "app.cpp:42" : "kernel.cpp:7";
    x.detail = "range overlaps peer write";
    v.push_back(x);
  }
  const std::string body = io::encode(v, {.dropped = 9});
  std::vector<ap::check::Violation> out;
  io::FileMeta meta;
  io::read_into(body, out, &meta);
  EXPECT_EQ(meta.dropped, 9u);
  ASSERT_EQ(out.size(), v.size());

  io::Sink a, b;
  io::write_csv(a, v, {.dropped = 9});
  io::write_csv(b, out, meta);
  EXPECT_EQ(std::move(a).str(), std::move(b).str());
}

TEST(TraceBinary, MetricSamplesRoundTripKeepsRetainedWindow) {
  ap::metrics::SampleRing ring;
  ring.bind(3, 2, 4);  // 3 PEs x 2 series, capacity 4
  SplitMix64 rng(21);
  for (int i = 0; i < 7; ++i) {  // 7 pushes: the first 3 are overwritten
    std::int64_t row[6];
    for (auto& x : row)
      x = static_cast<std::int64_t>(rng.next_below(1 << 20)) - 1000;
    ring.push(1000u * static_cast<std::uint64_t>(i + 1), row);
  }
  io::MetricSamples out;
  io::decode_metric_samples_into(io::encode_metric_samples(ring), out);
  EXPECT_EQ(out.num_pes, 3);
  EXPECT_EQ(out.num_series, 2u);
  ASSERT_EQ(out.t_cycles.size(), ring.size());
  ASSERT_EQ(out.values.size(), ring.size() * 6);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const auto view = ring.at(i);
    EXPECT_EQ(out.t_cycles[i], view.t_cycles);
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_EQ(out.values[i * 6 + j], view.row[j]);
  }
}

TEST(TraceBinary, EmptyInputsRoundTrip) {
  std::vector<ap::prof::LogicalSendRecord> lg;
  io::read_into(io::encode(lg), lg);
  EXPECT_TRUE(lg.empty());

  std::vector<ap::check::Violation> cv;
  io::FileMeta meta;
  io::read_into(io::encode(cv), cv, &meta);
  EXPECT_TRUE(cv.empty());
  EXPECT_EQ(meta.dropped, 0u);
}

TEST(TraceBinary, ExtremeValuesSurviveZigzagDelta) {
  std::vector<ap::prof::SuperstepRecord> recs;
  ap::prof::SuperstepRecord r;
  r.t_main = ~0ull;  // max u64: the delta wraps, the zigzag must not
  r.barrier_release = ~0ull;
  recs.push_back(r);
  r.t_main = 0;
  r.barrier_release = 1;
  recs.push_back(r);
  r.t_main = ~0ull / 2;
  recs.push_back(r);
  std::vector<ap::prof::SuperstepRecord> out;
  io::read_into(io::encode(recs), out);
  EXPECT_EQ(out, recs);
}

TEST(TraceBinary, FileNamesAndSniffing) {
  EXPECT_EQ(io::file_name({io::BinKind::send, 0}), "PE0_send.csv");
  EXPECT_EQ(io::file_name({io::BinKind::send, 0}, true), "PE0_send.apt");
  EXPECT_EQ(io::file_name({io::BinKind::papi, 12}, true), "PE12_PAPI.apt");
  EXPECT_EQ(io::file_name({io::BinKind::physical}), "physical.txt");
  EXPECT_EQ(io::file_name({io::BinKind::physical}, true), "physical.apt");
  EXPECT_EQ(io::file_name({io::BinKind::check}, true), "check.apt");
  // parse_file_name inverts both spellings and rejects everything else.
  for (const char* name : {"PE7_steps.csv", "PE7_steps.apt", "check.csv",
                           "physical.apt", "PE0_PAPI.csv"}) {
    const auto f = io::parse_file_name(name);
    ASSERT_TRUE(f.has_value()) << name;
    EXPECT_TRUE(io::file_name(*f) == name || io::file_name(*f, true) == name)
        << name;
  }
  for (const char* name : {"overall.txt", "MANIFEST.txt", "PE_send.csv",
                           "PE1_send.txt", "PE1physical.txt", "check.apt.tmp"})
    EXPECT_FALSE(io::parse_file_name(name).has_value()) << name;
  EXPECT_FALSE(io::is_binary_trace("0,0,1,1,64\n"));
  EXPECT_FALSE(io::is_binary_trace(""));
  EXPECT_FALSE(io::is_binary_trace("APT"));  // shorter than the magic
}

// ------------------------------------------------- corruption and prefixes

TEST(TraceBinary, TruncationKeepsWholeBlockPrefix) {
  const auto recs = random_logical(2 * kBlockRows + 100, 99);
  const std::string body = io::encode(recs);

  // Cut inside the last block: both complete blocks survive and the error
  // names block 3.
  std::vector<ap::prof::LogicalSendRecord> out;
  try {
    io::read_into(body.substr(0, body.size() - 3), out);
    FAIL() << "truncated file must throw";
  } catch (const io::BinaryParseError& e) {
    EXPECT_EQ(e.block(), 3u);
    EXPECT_GT(e.offset(), 0u);
    EXPECT_LE(e.offset(), body.size());
  }
  ASSERT_EQ(out.size(), 2 * kBlockRows);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], recs[i]);

  // Cut inside the header: nothing decodes, the error names "block 0".
  out.clear();
  try {
    io::read_into(body.substr(0, 6), out);
    FAIL() << "header-truncated file must throw";
  } catch (const io::BinaryParseError& e) {
    EXPECT_EQ(e.block(), 0u);
  }
  EXPECT_TRUE(out.empty());
  // Cut inside the magic, the body does not sniff as .apt; it still
  // throws (as an unterminated CSV line) and yields nothing.
  EXPECT_THROW(io::read_into(body.substr(0, 3), out), io::TraceParseError);
  EXPECT_TRUE(out.empty());
}

TEST(TraceBinary, EveryByteFlipInBlockRegionIsDetected) {
  // Two blocks (4096 + 5 rows). Every single-byte flip past the header
  // must throw — that is the per-block CRC32 guarantee — after appending
  // exactly the blocks that verified, and must attribute the damage to
  // the right block.
  const auto recs = random_logical(kBlockRows + 5, 1234);
  const std::string body = io::encode(recs);
  // Header of a logical .apt: magic(4) version kind flags ncols aux_len.
  const std::size_t header_len = 9;
  ASSERT_EQ(body[header_len], 'B') << "block marker expected after header";

  for (std::size_t pos = header_len; pos < body.size(); ++pos) {
    std::string mutated = body;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    std::vector<ap::prof::LogicalSendRecord> out;
    try {
      io::read_into(mutated, out);
      FAIL() << "flip at byte " << pos << " must be detected";
    } catch (const io::BinaryParseError& e) {
      // Whole verified blocks precede the damage; the block index in the
      // error matches what survived.
      EXPECT_TRUE(out.empty() || out.size() == kBlockRows)
          << "flip at byte " << pos;
      EXPECT_EQ(e.block(), out.size() / kBlockRows + 1)
          << "flip at byte " << pos;
      EXPECT_LE(e.offset(), body.size()) << "flip at byte " << pos;
    }
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], recs[i]);
  }
}

TEST(TraceBinary, HeaderDamageNeverFabricatesRecords) {
  const auto recs = random_logical(64, 5);
  const std::string body = io::encode(recs);
  for (std::size_t pos = 0; pos < 9; ++pos) {
    std::string mutated = body;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    std::vector<ap::prof::LogicalSendRecord> out;
    try {
      io::read_into(mutated, out);
    } catch (const io::TraceParseError&) {
      // Damaged magic/version/kind/ncols throws; unknown flag bits are
      // forward-compatible and may decode fine.
    }
    // Whatever happened, decoded rows are a prefix of the originals.
    ASSERT_LE(out.size(), recs.size()) << "flip at header byte " << pos;
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], recs[i]);
  }
}

/// Overwrite the u32 CRC that ends `body` with the CRC of the block that
/// starts at `block_start`, so a deliberately malformed block still
/// passes its checksum.
void reseal_last_block(std::string& body, std::size_t block_start) {
  const std::size_t crc_pos = body.size() - 4;
  const std::uint32_t crc = io::crc32_bytes(
      std::string_view(body).substr(block_start, crc_pos - block_start));
  for (int i = 0; i < 4; ++i)
    body[crc_pos + static_cast<std::size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
}

/// Two blocks: 4096 good rows, then a 5-row block whose row count was
/// changed to 4 and re-sealed — CRC-valid, but its runs overshoot nrows.
std::string file_with_malformed_second_block(
    const std::vector<ap::prof::LogicalSendRecord>& recs) {
  using Rows = std::vector<ap::prof::LogicalSendRecord>;
  const auto split = recs.begin() + static_cast<std::ptrdiff_t>(kBlockRows);
  const std::string first = io::encode(Rows(recs.begin(), split));
  const std::string second = io::encode(Rows(split, recs.end()));
  const std::size_t header_len = 9;  // a logical .apt has no aux bytes
  std::string body = first + second.substr(header_len);
  EXPECT_EQ(body, io::encode(recs)) << "blocks encode independently";
  const std::size_t block2 = first.size();
  EXPECT_EQ(body[block2], 'B');
  EXPECT_EQ(body[block2 + 1], 5) << "single-byte nrows varint expected";
  body[block2 + 1] = 4;
  reseal_last_block(body, block2);
  return body;
}

TEST(TraceBinary, CrcValidButMalformedBlockAppendsNothing) {
  const auto recs = random_logical(kBlockRows + 5, 31);
  const std::string body = file_with_malformed_second_block(recs);
  std::vector<ap::prof::LogicalSendRecord> out;
  try {
    io::read_into(body, out);
    FAIL() << "a block whose runs do not sum to nrows must throw";
  } catch (const io::BinaryParseError& e) {
    EXPECT_EQ(e.block(), 2u) << e.what();
  }
  ASSERT_EQ(out.size(), kBlockRows) << "exactly block 1's rows survive";
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], recs[i]);

  // The tolerant loader keeps the same prefix and reports one issue.
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "malformed_block";
  fs::create_directories(dir);
  std::ofstream(dir / "PE0_send.apt", std::ios::binary) << body;
  io::LoadOptions lo;
  lo.tolerate_partial = true;
  const auto t = io::load_trace_dir(dir, 1, lo);
  ASSERT_EQ(t.issues.size(), 1u);
  EXPECT_EQ(t.issues[0].file, "PE0_send.apt");
  EXPECT_EQ(t.logical[0].records(), out);
}

// ------------------------------------------------------- loaded run logs

/// Logical rows whose runs straddle the 4,096-row blocks: 5,000 copies of
/// one row, 100 single rows of alternating sizes, then a run of two blocks
/// less 3.
std::vector<ap::prof::LogicalSendRecord> straddling_rows() {
  using R = ap::prof::LogicalSendRecord;
  std::vector<R> rows(5000, R{0, 0, 1, 3, 8});
  for (std::uint32_t i = 0; i < 100; ++i)
    rows.push_back(R{0, 0, 0, 1, 8 + 8 * (i % 2)});
  rows.insert(rows.end(), 2 * kBlockRows - 3, R{0, 0, 1, 2, 8});
  return rows;
}

/// `body` loaded as PE0_send of a one-PE trace dir.
io::TraceDir load_shard(const fs::path& dir, const std::string& body,
                        bool binary, const io::LoadOptions& lo = {}) {
  fs::create_directories(dir);
  std::ofstream(dir / io::file_name({io::BinKind::send, 0}, binary),
                std::ios::binary)
      << body;
  return io::load_trace_dir(dir, 1, lo);
}

TEST(LogicalLog, RunsStraddlingBlocksLoadBackAsWritten) {
  const ap::testutil::TestTmpDir tmp;
  const auto rows = straddling_rows();
  io::Sink csv;
  io::write_csv(csv, rows);
  const std::string apt = io::encode(rows);
  const auto log = load_shard(tmp / "apt", apt, true).logical[0];
  EXPECT_EQ(log.records(), rows);
  ASSERT_EQ(log.runs().size(), 102u);
  EXPECT_EQ(log.runs().front().count, 5000u)
      << "a run of 5,000 identical rows across a block boundary is one run";
  EXPECT_EQ(log.runs().back().count, 2 * kBlockRows - 3);
  EXPECT_EQ(load_shard(tmp / "aptz", io::compress_trace(apt), true).logical[0],
            log);
  // The writers read the loaded runs back to the same bytes.
  EXPECT_EQ(io::encode(log), apt);
  io::Sink again;
  io::write_csv(again, log);
  EXPECT_EQ(again.str(), csv.str());
}

TEST(LogicalLog, CsvAndAptFormsOfOneShardLoadToEqualLogs) {
  const ap::testutil::TestTmpDir tmp;
  // Random rows, each repeated 1 to 60 times, so runs fall across blocks.
  SplitMix64 rng(23);
  std::vector<ap::prof::LogicalSendRecord> rows;
  for (const auto& r : random_logical(500, 9))
    rows.insert(rows.end(), 1 + rng.next_below(60), r);
  ASSERT_GT(rows.size(), 3 * kBlockRows);
  io::Sink csv;
  io::write_csv(csv, rows);
  const auto from_csv = load_shard(tmp / "csv", csv.str(), false).logical[0];
  const auto from_apt = load_shard(tmp / "apt", io::encode(rows), true).logical[0];
  EXPECT_EQ(from_csv, from_apt);
  EXPECT_EQ(from_apt.records(), rows);
  EXPECT_LE(from_apt.runs().size(), 500u);
}

// Damage in block 2 cuts the run that straddles blocks 1 and 2 at block 1's
// last row: a tolerant load keeps exactly block 1's rows.
TEST(LogicalLog, DamageInBlockTwoKeepsExactlyBlockOne) {
  const ap::testutil::TestTmpDir tmp;
  const auto rows = straddling_rows();
  using Rows = std::vector<ap::prof::LogicalSendRecord>;
  const Rows block1(rows.begin(),
                    rows.begin() + static_cast<std::ptrdiff_t>(kBlockRows));
  std::string body = io::encode(rows);
  const std::size_t block2 = io::encode(block1).size();
  ASSERT_EQ(body[block2], 'B');
  body[block2 + 4] ^= 0x10;  // inside block 2; its CRC no longer matches
  io::LoadOptions lo;
  lo.tolerate_partial = true;
  const io::TraceDir t = load_shard(tmp / "damaged", body, true, lo);
  ASSERT_EQ(t.issues.size(), 1u);
  EXPECT_EQ(t.logical[0].records(), block1);
  ASSERT_EQ(t.logical[0].runs().size(), 1u);
  EXPECT_EQ(t.logical[0].runs()[0].count, kBlockRows);
}

TEST(TraceBinary, ForgedRowCountsCannotInflateTheReservation) {
  // kMaxRowsSanity in trace_binary.cpp: the largest row count a block
  // header may declare.
  constexpr std::size_t kMaxRows = std::size_t{1} << 22;
  constexpr std::size_t kBlocks = 6;
  std::vector<ap::prof::LogicalSendRecord> out;
  std::string body = io::encode(out);  // the header alone
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::size_t start = body.size();
    body += 'B';
    for (std::size_t v = kMaxRows; v != 0; v >>= 7)  // LEB128 nrows
      body += static_cast<char>((v & 0x7f) | (v >= 0x80 ? 0x80 : 0));
    for (int col = 0; col < 5; ++col) body.append(2, '\0');  // DELTA_RLE, empty
    body.append(4, '\0');
    reseal_last_block(body, start);
  }
  try {
    io::read_into(body, out);
    FAIL() << "empty columns cannot hold the declared rows";
  } catch (const io::BinaryParseError& e) {
    EXPECT_EQ(e.block(), 1u) << e.what();
  }
  EXPECT_TRUE(out.empty());
  EXPECT_LE(out.capacity(), kBlocks * kBlockRows);
}

TEST(TraceBinary, WrongKindIsRejected) {
  const std::string body = io::encode(random_logical(16, 3));
  std::vector<ap::prof::SuperstepRecord> out;
  EXPECT_THROW(io::read_into(body, out), io::BinaryParseError);
  EXPECT_TRUE(out.empty());
}

// --------------------------------------------- write_all / load_trace_dir

constexpr int kPes = 4;

struct TwoFormatDirs {
  fs::path csv_dir;
  fs::path bin_dir;
};

/// One profiled triangle run, written once as CSV and once as binary. The
/// first test that needs it builds it; it lives until the process exits.
const TwoFormatDirs& triangle_dirs() {
  static const ap::testutil::TestTmpDir fixture_tmp("trace_binary_fixture");
  static const TwoFormatDirs dirs = [] {
    TwoFormatDirs d;
    d.csv_dir = fixture_tmp / "trace_binary_csv";
    d.bin_dir = fixture_tmp / "trace_binary_bin";
    fs::remove_all(d.csv_dir);
    fs::remove_all(d.bin_dir);

    ap::graph::RmatParams gp;
    gp.scale = 7;
    gp.edge_factor = 8;
    gp.permute_vertices = false;
    const auto edges = ap::graph::rmat_edges(gp);
    const auto lower = ap::graph::Csr::from_edges(
        ap::graph::Vertex{1} << gp.scale, edges, true);

    ap::prof::Config pc = ap::prof::Config::all_enabled();
    pc.check = true;  // a check.csv/.apt in both dirs
    ap::prof::Profiler profiler(pc);
    ap::rt::LaunchConfig lc;
    lc.num_pes = kPes;
    lc.pes_per_node = kPes;
    ap::shmem::run(lc, [&] {
      ap::graph::RangeDistribution dist(ap::shmem::n_pes(), lower);
      ap::apps::count_triangles_actor(lower, dist, &profiler);
    });

    pc.trace_dir = d.csv_dir;
    pc.trace_format = ap::prof::TraceFormat::csv;
    io::write_all(profiler, pc);
    pc.trace_dir = d.bin_dir;
    pc.trace_format = ap::prof::TraceFormat::binary;
    io::write_all(profiler, pc);
    return d;
  }();
  return dirs;
}

TEST(TraceBinaryDir, BinaryDirContainsAptShardsOnly) {
  const auto& d = triangle_dirs();
  EXPECT_TRUE(fs::exists(d.bin_dir / "PE0_send.apt"));
  EXPECT_FALSE(fs::exists(d.bin_dir / "PE0_send.csv"));
  EXPECT_TRUE(fs::exists(d.bin_dir / "physical.apt"));
  EXPECT_TRUE(fs::exists(d.bin_dir / "check.apt"));
  // overall.txt stays text in both formats (it is the paper's format).
  EXPECT_TRUE(fs::exists(d.bin_dir / "overall.txt"));
  EXPECT_TRUE(fs::exists(d.bin_dir / "MANIFEST.txt"));
  EXPECT_TRUE(fs::exists(d.csv_dir / "PE0_send.csv"));
}

TEST(TraceBinaryDir, BothFormatsLoadIdenticalRecords) {
  const auto& d = triangle_dirs();
  const auto tc = io::load_trace_dir(d.csv_dir, kPes);
  const auto tb = io::load_trace_dir(d.bin_dir, kPes);
  ASSERT_EQ(tb.num_pes, tc.num_pes);
  EXPECT_EQ(tb.logical, tc.logical);
  EXPECT_EQ(tb.papi, tc.papi);
  EXPECT_EQ(tb.steps, tc.steps);
  EXPECT_EQ(tb.physical, tc.physical);
  EXPECT_EQ(tb.overall, tc.overall);
  EXPECT_EQ(tb.check_recorded, tc.check_recorded);
  EXPECT_EQ(tb.check_dropped, tc.check_dropped);
  io::Sink a, b;
  io::write_csv(a, tc.check, {.dropped = tc.check_dropped});
  io::write_csv(b, tb.check, {.dropped = tb.check_dropped});
  EXPECT_EQ(std::move(a).str(), std::move(b).str());
}

TEST(TraceBinaryDir, BothFormatsAnalyzeToIdenticalBytes) {
  const auto& d = triangle_dirs();
  const auto tc = io::load_trace_dir(d.csv_dir, kPes);
  const auto tb = io::load_trace_dir(d.bin_dir, kPes);
  std::ostringstream ac, ab;
  ap::prof::analysis::write_json(ac, ap::prof::analysis::analyze(tc));
  ap::prof::analysis::write_json(ab, ap::prof::analysis::analyze(tb));
  EXPECT_EQ(ac.str(), ab.str());
  std::ostringstream hc, hb;
  ap::viz::write_heatmap_json(hc, tc);
  ap::viz::write_heatmap_json(hb, tb);
  EXPECT_EQ(hc.str(), hb.str());
}

TEST(TraceBinaryDir, TruncatedShardIsToleratedWithIssue) {
  const ap::testutil::TestTmpDir tmp;
  const auto& d = triangle_dirs();
  const fs::path dir = tmp / "trace_binary_trunc";
  fs::remove_all(dir);
  fs::copy(d.bin_dir, dir);

  const fs::path shard = dir / "PE0_send.apt";
  const auto full_size = fs::file_size(shard);
  ASSERT_GT(full_size, 16u);
  fs::resize_file(shard, full_size - 5);

  io::LoadOptions lo;
  lo.tolerate_partial = true;
  const auto t = io::load_trace_dir(dir, kPes, lo);
  ASSERT_FALSE(t.issues.empty());
  bool named = false;
  for (const auto& i : t.issues)
    if (i.file == "PE0_send.apt") named = true;
  EXPECT_TRUE(named) << "issue must name the damaged shard";

  // The surviving rows are a whole-block prefix of the intact shard.
  const auto intact = io::load_trace_dir(d.bin_dir, kPes);
  const auto kept = t.logical[0].records();
  const auto all = intact.logical[0].records();
  ASSERT_LE(kept.size(), all.size());
  EXPECT_EQ(kept.size() % kBlockRows, 0u);
  for (std::size_t i = 0; i < kept.size(); ++i) EXPECT_EQ(kept[i], all[i]);
  // Undamaged PEs are complete.
  EXPECT_EQ(t.logical[1], intact.logical[1]);

  // A strict load of the damaged dir throws.
  EXPECT_THROW(io::load_trace_dir(dir, kPes), io::TraceParseError);
}

TEST(TraceBinaryDir, AggregatorsSkipPesBeyondNumPes) {
  // A 16-PE trace (every PE sends once to every PE, and so does the
  // physical layer) loaded as if it had 4 PEs: PE ids come from the file,
  // so every aggregator must drop cells outside the 4x4 matrix instead of
  // indexing past it.
  constexpr int kRecorded = 16;
  constexpr int kLoaded = 4;
  const ap::testutil::TestTmpDir tmp;
  const fs::path dir = tmp / "sixteen_pes";
  fs::create_directories(dir);
  std::vector<ap::prof::PhysicalRecord> physical;
  for (int src = 0; src < kRecorded; ++src) {
    std::vector<ap::prof::LogicalSendRecord> sends;
    for (int dst = 0; dst < kRecorded; ++dst) {
      sends.push_back({0, src, 0, dst, 8});
      physical.push_back({ap::convey::SendType::local_send, 64, src, dst});
    }
    std::ofstream(dir / io::file_name({io::BinKind::send, src}, true),
                  std::ios::binary)
        << io::encode(sends);
  }
  std::ofstream(dir / io::file_name({io::BinKind::physical}, true),
                std::ios::binary)
      << io::encode(physical);

  const auto t = io::load_trace_dir(dir, kLoaded);
  const auto expect_in_range = [&](const auto& m, const char* what) {
    EXPECT_EQ(m.size(), kLoaded) << what;
    EXPECT_EQ(m.total(), std::uint64_t{kLoaded * kLoaded}) << what;
    for (int s = 0; s < kLoaded; ++s)
      for (int d = 0; d < kLoaded; ++d) EXPECT_EQ(m.at(s, d), 1u) << what;
  };
  expect_in_range(t.logical_matrix(), "logical_matrix");
  expect_in_range(t.physical_matrix(), "physical_matrix");
  expect_in_range(t.logical_sparse(), "logical_sparse");
  expect_in_range(t.physical_sparse(), "physical_sparse");
  EXPECT_EQ(t.logical_sparse().nonzero_cells(),
            std::size_t{kLoaded * kLoaded});
  EXPECT_EQ(t.physical_sparse().nonzero_cells(),
            std::size_t{kLoaded * kLoaded});
}

// ------------------------------------------------------------ compression

TEST(TraceCompress, LzRoundTripsRandomAndRepetitiveBuffers) {
  // Empty, tiny, random and highly repetitive traces: the compressed
  // container decodes to the same rows as the plain one.
  using Rows = std::vector<ap::prof::LogicalSendRecord>;
  Rows repetitive;  // a 7-row pattern, repeated
  for (int i = 0; i < 5000; ++i)
    repetitive.push_back({i % 2, i % 7, (i + 1) % 2, (3 * i) % 7,
                          static_cast<std::uint32_t>(8 << (i % 7))});
  for (const Rows& recs :
       {Rows{}, random_logical(1, 98), random_logical(3 * kBlockRows + 17, 99),
        repetitive}) {
    const std::string v1 = io::encode(recs);
    const std::string v2 = io::compress_trace(v1);
    Rows from_v1, from_v2;
    io::read_into(v1, from_v1);
    io::read_into(v2, from_v2);
    EXPECT_EQ(from_v1, recs) << recs.size() << " rows";
    EXPECT_EQ(from_v2, recs) << recs.size() << " rows";
  }
  // The repetitive trace must actually shrink — the codec earns its keep
  // on delta-encoded integer columns, which look just like this.
  const std::string plain = io::encode(repetitive);
  EXPECT_LT(io::compress_trace(plain).size(), plain.size() / 4);
}

TEST(TraceCompress, CompressTraceRoundTripsByteIdentical) {
  const auto recs = random_logical(3 * kBlockRows + 17, 1234);
  const std::string v1 = io::encode(recs);
  const std::string v2 = io::compress_trace(v1);
  ASSERT_FALSE(io::is_compressed_trace(v1));
  ASSERT_TRUE(io::is_compressed_trace(v2));
  EXPECT_EQ(static_cast<std::uint8_t>(v2[4]), io::kAptVersionCompressed);
  EXPECT_LT(v2.size(), v1.size()) << "delta columns must compress";

  // Compressing twice is a no-op.
  EXPECT_EQ(io::compress_trace(v2), v2);

  // The decoders accept both containers and yield the same rows.
  std::vector<ap::prof::LogicalSendRecord> from_v1, from_v2;
  io::read_into(v1, from_v1);
  io::read_into(v2, from_v2);
  EXPECT_EQ(from_v1, recs);
  EXPECT_EQ(from_v2, recs);
}

TEST(TraceCompress, CompressedMutationsRejectedWithAttribution) {
  const auto recs = random_logical(2 * kBlockRows, 77);
  const std::string v2 = io::compress_trace(io::encode(recs));
  SplitMix64 rng(78);
  for (int t = 0; t < 32; ++t) {
    const std::size_t pos = rng.next_below(v2.size());
    std::string mutated = v2;
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1u << rng.next_below(8)));
    std::vector<ap::prof::LogicalSendRecord> out;
    try {
      io::read_into(mutated, out);
    } catch (const io::TraceParseError&) {
      // expected for nearly every flip (CRC covers the whole block)
    }
    const std::size_t n = std::min(out.size(), recs.size());
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out[i], recs[i]) << "flip at byte " << pos;
  }
  // Truncations keep whole-block prefixes, exactly like version 1.
  for (int t = 0; t < 16; ++t) {
    const std::size_t cut = rng.next_below(v2.size());
    std::vector<ap::prof::LogicalSendRecord> out;
    try {
      io::read_into(std::string_view(v2).substr(0, cut), out);
    } catch (const io::TraceParseError&) {
    }
    ASSERT_EQ(out.size() % kBlockRows, 0u) << "cut at " << cut;
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], recs[i]) << "cut at " << cut;
  }
}

TEST(TraceCompress, WriteAllWithCompressionLoadsIdentically) {
  const ap::testutil::TestTmpDir tmp;
  // A full profiled run written twice — plain and with
  // Config::trace_compress — must load to identical records, and the
  // compressed shards must carry the version-2 container.
  const fs::path plain = tmp / "compress_off";
  const fs::path comp = tmp / "compress_on";
  for (const auto& dir : {plain, comp}) fs::remove_all(dir);
  const auto run_once = [&](const fs::path& dir, bool compress) {
    ap::graph::RmatParams gp;
    gp.scale = 6;
    gp.edge_factor = 8;
    gp.permute_vertices = false;
    const auto edges = ap::graph::rmat_edges(gp);
    const auto lower = ap::graph::Csr::from_edges(
        ap::graph::Vertex{1} << gp.scale, edges, true);
    ap::prof::Config pc = ap::prof::Config::all_enabled();
    pc.trace_dir = dir;
    pc.trace_format = ap::prof::TraceFormat::binary;
    pc.trace_compress = compress;
    ap::prof::Profiler profiler(pc);
    ap::rt::LaunchConfig lc;
    lc.num_pes = 4;
    lc.pes_per_node = 4;
    // Pinned to fiber: the two runs must give the same records, which only
    // that backend promises.
    lc.backend = ap::rt::Backend::fiber;
    ap::shmem::run(lc, [&] {
      ap::graph::RangeDistribution dist(ap::shmem::n_pes(), lower);
      ap::apps::count_triangles_actor(lower, dist, &profiler);
    });
    profiler.write_traces();
  };
  run_once(plain, false);
  run_once(comp, true);

  std::string plain_shard, comp_shard;
  {
    std::ifstream a(plain / "PE0_send.apt", std::ios::binary);
    std::ifstream b(comp / "PE0_send.apt", std::ios::binary);
    std::ostringstream as, bs;
    as << a.rdbuf();
    bs << b.rdbuf();
    plain_shard = as.str();
    comp_shard = bs.str();
  }
  ASSERT_FALSE(io::is_compressed_trace(plain_shard));
  ASSERT_TRUE(io::is_compressed_trace(comp_shard));

  const auto a = io::load_trace_dir(plain, 4);
  const auto b = io::load_trace_dir(comp, 4);
  EXPECT_EQ(a.logical, b.logical);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.physical, b.physical);

  // The MANIFEST entries describe the compressed bytes actually on disk
  // (size + checksum verified by the loader's strict path above).
  std::string manifest;
  ASSERT_TRUE(io::read_file(comp / io::kManifestFile, manifest));
  const io::Manifest m = io::parse_manifest(manifest);
  for (const auto& e : m.files) {
    if (e.file == "PE0_send.apt") {
      EXPECT_EQ(e.bytes, comp_shard.size());
    }
  }
}

}  // namespace
