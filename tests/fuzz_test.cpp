// Seeded randomized property tests ("fuzz"): random traffic patterns,
// message sizes, topologies and buffer sizes hammer the conveyor/selector
// stack; the invariants (conservation, checksum, FIFO per pair,
// termination) must hold for every seed. A second family mutilates trace
// files (random truncation, junk-line injection) and checks every parser
// either yields the clean prefix or throws TraceParseError with the right
// line number — never hangs or reads out of bounds (run under ASan/UBSan
// by tools/check.sh).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "actor/selector.hpp"
#include "conveyor/conveyor.hpp"
#include "core/records.hpp"
#include "core/trace_binary.hpp"
#include "core/trace_io.hpp"
#include "graph/rmat.hpp"  // SplitMix64
#include "runtime/finish.hpp"
#include "serve/publisher.hpp"
#include "serve/registry.hpp"
#include "serve/service.hpp"
#include "shmem/shmem.hpp"

namespace {

namespace shmem = ap::shmem;
namespace convey = ap::convey;
using ap::graph::SplitMix64;

ap::rt::LaunchConfig cfg_of(int pes, int ppn) {
  ap::rt::LaunchConfig cfg;
  cfg.num_pes = pes;
  cfg.pes_per_node = ppn;
  cfg.symm_heap_bytes = 32 << 20;
  return cfg;
}

class ConveyorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConveyorFuzz, RandomTrafficConservesEverything) {
  const std::uint64_t seed = GetParam();
  SplitMix64 shape_rng(seed);
  // Random shape: 1..32 PEs, random nodes, random buffers & slots.
  const int pes = 1 + static_cast<int>(shape_rng.next_below(32));
  const int ppn = 1 + static_cast<int>(shape_rng.next_below(
                          static_cast<std::uint64_t>(pes)));
  const std::size_t buffer =
      32 + shape_rng.next_below(2048);
  const int slots = 1 + static_cast<int>(shape_rng.next_below(4));
  const std::size_t msgs = 50 + shape_rng.next_below(2000);
  const auto route = static_cast<convey::RouteKind>(
      1 + shape_rng.next_below(3));  // Linear1D / Mesh2D / Cube3D

  shmem::run(cfg_of(pes, ppn), [&] {
    convey::Options o;
    o.item_bytes = sizeof(std::int64_t);
    o.buffer_bytes = buffer;
    o.slots = slots;
    o.route = route;
    auto c = convey::Conveyor::create(o);

    SplitMix64 rng(seed ^ (static_cast<std::uint64_t>(shmem::my_pe()) << 40));
    std::int64_t sent_sum = 0, recv_sum = 0, recv_count = 0;
    std::size_t i = 0;
    bool done = false;
    while (c->advance(done)) {
      // Random-length push bursts, random destinations.
      const std::size_t burst = rng.next_below(64);
      for (std::size_t b = 0; b < burst && i < msgs; ++b) {
        // 16-bit payloads: the conservation sums below must stay inside
        // int64 across msgs * pes values or the += is signed overflow.
        const std::int64_t v = static_cast<std::int64_t>(rng.next() & 0xffff);
        const int dst = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(pes)));
        if (!c->push(&v, dst)) break;  // retry item i next round
        sent_sum += v;
        ++i;
      }
      c->drain([&](const convey::Delivered& d) {
        std::int64_t item;
        std::memcpy(&item, d.payload, sizeof item);
        recv_sum += item;
        ++recv_count;
      });
      done = (i == msgs);
      ap::rt::yield();
    }
    EXPECT_EQ(shmem::sum_reduce(recv_count),
              static_cast<std::int64_t>(msgs) * pes)
        << "pes=" << pes << " ppn=" << ppn << " buf=" << buffer
        << " slots=" << slots;
    EXPECT_EQ(shmem::sum_reduce(sent_sum), shmem::sum_reduce(recv_sum));
    EXPECT_EQ(c->delivered_total(), msgs * static_cast<std::size_t>(pes));
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConveyorFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

class SelectorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectorFuzz, RandomRequestReplyWorkloads) {
  const std::uint64_t seed = GetParam();
  SplitMix64 shape_rng(seed * 0x9E3779B97F4A7C15ull);
  const int pes = 2 + static_cast<int>(shape_rng.next_below(15));
  const int ppn = 1 + static_cast<int>(shape_rng.next_below(
                          static_cast<std::uint64_t>(pes)));
  const std::size_t buffer = 48 + shape_rng.next_below(512);
  const std::size_t reqs = 20 + shape_rng.next_below(800);

  shmem::run(cfg_of(pes, ppn), [&] {
    ap::convey::Options o;
    o.buffer_bytes = buffer;
    std::int64_t replies_received = 0, requests_handled = 0;
    ap::actor::Selector<2, std::int64_t> sel{o};
    sel.mb[0].process = [&](std::int64_t v, int from) {
      ++requests_handled;
      sel.send(1, v * 2, from);
    };
    sel.mb[1].process = [&](std::int64_t v, int) {
      EXPECT_EQ(v % 2, 0);
      ++replies_received;
    };
    SplitMix64 rng(seed + static_cast<std::uint64_t>(shmem::my_pe()));
    ap::hclib::finish([&] {
      sel.start();
      for (std::size_t i = 0; i < reqs; ++i) {
        sel.send(0, static_cast<std::int64_t>(rng.next_below(1 << 20)),
                 static_cast<int>(rng.next_below(
                     static_cast<std::uint64_t>(pes))));
      }
      sel.done(0);
    });
    EXPECT_EQ(replies_received, static_cast<std::int64_t>(reqs))
        << "pes=" << pes << " ppn=" << ppn << " buf=" << buffer;
    EXPECT_EQ(shmem::sum_reduce(requests_handled),
              static_cast<std::int64_t>(reqs) * pes);
    EXPECT_TRUE(sel.terminated());
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectorFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------------------ parser fuzz

namespace io = ap::prof::io;

/// Mirror of the parsers' comment/blank-line skipping.
bool line_skippable(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// Records encoded by the COMPLETE lines of `text` (a partial trailing
/// line, if any, is not counted). In the overall format only "Absolute"
/// lines carry records.
std::size_t records_in_complete_lines(const std::string& text,
                                      bool overall_fmt) {
  std::size_t n = 0, pos = 0;
  for (;;) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line_skippable(line)) continue;
    if (overall_fmt) {
      if (line.rfind("Absolute", 0) == 0) ++n;
    } else {
      ++n;
    }
  }
  return n;
}

std::size_t complete_lines(const std::string& text) {
  std::size_t n = 0;
  for (char c : text)
    if (c == '\n') ++n;
  return n;
}

/// The two mutation properties every parser must satisfy:
///  * truncation at ANY byte: the parser yields exactly the records of the
///    complete lines, each equal to the original at its index — a cut row
///    yields none, and the parse throws at the cut line (every writer ends
///    each line with '\n');
///  * a junk line at ANY line boundary: the parser throws TraceParseError
///    carrying exactly the junk line's number, after having produced every
///    record that precedes it.
template <class Rec, class ParseInto>
void check_parser_mutations(const std::string& name, const std::string& body,
                            const std::vector<Rec>& recs,
                            const std::string& junk, bool overall_fmt,
                            ParseInto parse_into, SplitMix64& rng) {
  for (int t = 0; t < 8; ++t) {
    const std::size_t cut = rng.next_below(body.size() + 1);
    const std::string text = body.substr(0, cut);
    const bool partial = !text.empty() && text.back() != '\n';
    std::vector<Rec> out;
    try {
      parse_into(text, out);
      EXPECT_FALSE(partial) << name << " cut at byte " << cut
                            << ": a cut row must throw";
    } catch (const io::TraceParseError& e) {
      EXPECT_TRUE(partial) << name << " cut at byte " << cut << ": "
                           << e.what();
      EXPECT_EQ(e.line_no(), complete_lines(text) + 1)
          << name << " cut at byte " << cut;
    }
    ASSERT_EQ(out.size(), records_in_complete_lines(text, overall_fmt))
        << name << " cut at byte " << cut;
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], recs[i]) << name << " cut at byte " << cut;
  }

  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < body.size(); ++i)
    if (body[i] == '\n') starts.push_back(i + 1);
  for (int t = 0; t < 4; ++t) {
    const std::size_t k = rng.next_below(starts.size());
    const std::string text =
        body.substr(0, starts[k]) + junk + "\n" + body.substr(starts[k]);
    std::vector<Rec> out;
    try {
      parse_into(text, out);
      FAIL() << name << ": junk line at " << (k + 1) << " must throw";
    } catch (const io::TraceParseError& e) {
      EXPECT_EQ(e.line_no(), k + 1) << name;
    }
    EXPECT_EQ(out.size(),
              records_in_complete_lines(body.substr(0, starts[k]),
                                        overall_fmt))
        << name << " junk at line " << (k + 1);
  }
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, TruncationAndJunkNeverBreakInvariants) {
  const auto read = [](std::string_view b, auto& out) {
    io::read_into(b, out);
  };
  const std::uint64_t seed = GetParam();
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const auto n = 3 + rng.next_below(40);

  {
    std::vector<ap::prof::LogicalSendRecord> recs;
    for (std::uint64_t i = 0; i < n; ++i)
      recs.push_back({static_cast<int>(rng.next_below(4)),
                      static_cast<int>(rng.next_below(16)),
                      static_cast<int>(rng.next_below(4)),
                      static_cast<int>(rng.next_below(16)),
                      static_cast<std::uint32_t>(8 + rng.next_below(4096))});
    io::Sink os;
    io::write_csv(os, recs);
    check_parser_mutations("logical", os.str(), recs, "%%junk,###", false,
                           read, rng);
  }
  {
    const ap::prof::Config cfg = ap::prof::Config::all_enabled();
    std::vector<ap::prof::PapiSegmentRecord> recs;
    for (std::uint64_t i = 0; i < n; ++i) {
      ap::prof::PapiSegmentRecord r;
      r.src_node = static_cast<int>(rng.next_below(4));
      r.src_pe = static_cast<int>(rng.next_below(16));
      r.dst_node = static_cast<int>(rng.next_below(4));
      r.dst_pe = static_cast<int>(rng.next_below(16));
      r.pkt_bytes = static_cast<std::uint32_t>(8 + rng.next_below(64));
      r.mailbox_id = static_cast<int>(rng.next_below(4));
      r.num_sends = rng.next_below(1000);
      r.counters[0] = rng.next_below(1 << 20);
      r.counters[1] = rng.next_below(1 << 20);
      r.is_proc = (rng.next_below(2) == 1);
      recs.push_back(r);
    }
    io::Sink os;
    io::write_csv(os, recs, io::FileMeta::papi(cfg));
    check_parser_mutations("papi", os.str(), recs, "junk,###", false, read,
                           rng);
  }
  {
    std::vector<ap::prof::OverallRecord> recs;
    for (std::uint64_t i = 0; i < n; ++i) {
      ap::prof::OverallRecord r;
      r.pe = static_cast<int>(i);
      r.t_main = rng.next_below(1 << 30);
      r.t_proc = rng.next_below(1 << 30);
      r.t_total = r.t_main + r.t_proc + rng.next_below(1 << 30);
      recs.push_back(r);
    }
    io::Sink os;
    io::write_overall(os, recs);
    check_parser_mutations(
        "overall", os.str(), recs,
        "Absolute garbage without the expected shape", true,
        [](std::string_view b, auto& out) { io::parse_overall_into(b, out); },
        rng);
  }
  {
    std::vector<ap::prof::PhysicalRecord> recs;
    for (std::uint64_t i = 0; i < n; ++i) {
      ap::prof::PhysicalRecord r;
      r.type = static_cast<convey::SendType>(rng.next_below(3));
      r.buffer_bytes = 8 + rng.next_below(4096);
      r.src_pe = static_cast<int>(rng.next_below(16));
      r.dst_pe = static_cast<int>(rng.next_below(16));
      recs.push_back(r);
    }
    io::Sink os;
    io::write_csv(os, recs);
    check_parser_mutations("physical", os.str(), recs, "weird_send,###,0,0",
                           false, read, rng);
  }
  {
    std::vector<ap::prof::SuperstepRecord> recs;
    for (std::uint64_t i = 0; i < n; ++i) {
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
    io::Sink os;
    io::write_csv(os, recs);
    check_parser_mutations("steps", os.str(), recs,
                           "0,zero,##,not_a_superstep", false, read, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

// ------------------------------------------------------- binary decoder fuzz

/// The mutation properties every .apt decoder must satisfy: truncation at
/// ANY byte and a single corrupted byte ANYWHERE must never crash, hang or
/// read out of bounds; if the decoder throws it throws TraceParseError
/// (BinaryParseError); and every record it does produce is an exact prefix
/// of the originals (whole verified blocks — the per-block CRC makes a
/// fabricated record essentially impossible).
template <class Rec, class Decode>
void check_binary_mutations(const std::string& name, const std::string& body,
                            const std::vector<Rec>& recs, Decode decode,
                            SplitMix64& rng) {
  for (int t = 0; t < 8; ++t) {
    const std::size_t cut = rng.next_below(body.size() + 1);
    std::vector<Rec> out;
    try {
      decode(std::string_view(body).substr(0, cut), out);
    } catch (const io::TraceParseError&) {
      // expected for most cuts
    }
    ASSERT_LE(out.size(), recs.size()) << name << " cut at byte " << cut;
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], recs[i]) << name << " cut at byte " << cut;
  }
  for (int t = 0; t < 8; ++t) {
    const std::size_t pos = rng.next_below(body.size());
    std::string mutated = body;
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1u << rng.next_below(8)));
    std::vector<Rec> out;
    try {
      decode(std::string_view(mutated), out);
    } catch (const io::TraceParseError&) {
      // expected whenever the flip lands in a CRC-covered block
    }
    const std::size_t n = std::min(out.size(), recs.size());
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(out[i], recs[i]) << name << " flip at byte " << pos;
  }
}

class BinaryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryFuzz, TruncationAndBitFlipsNeverBreakInvariants) {
  const auto read = [](std::string_view b, auto& out) {
    io::read_into(b, out);
  };
  const std::uint64_t seed = GetParam();
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 3);
  // Sometimes spans multiple 4096-row blocks, sometimes stays inside one.
  const auto n = 3 + rng.next_below(6000);

  {
    std::vector<ap::prof::LogicalSendRecord> recs;
    for (std::uint64_t i = 0; i < n; ++i)
      recs.push_back({static_cast<int>(rng.next_below(4)),
                      static_cast<int>(rng.next_below(16)),
                      static_cast<int>(rng.next_below(4)),
                      static_cast<int>(rng.next_below(16)),
                      static_cast<std::uint32_t>(8 + rng.next_below(4096))});
    check_binary_mutations("logical.apt", io::encode(recs), recs, read, rng);
    // The same damage decoded into a run log keeps the same prefix.
    const auto read_as_runs = [](std::string_view b,
                                 std::vector<ap::prof::LogicalSendRecord>& out) {
      ap::prof::LogicalSendLog log;
      try {
        io::read_into(b, log);
      } catch (const io::TraceParseError&) {
        out = log.records();
        throw;
      }
      out = log.records();
    };
    SplitMix64 runs_rng(seed + 101);
    check_binary_mutations("logical.apt as runs", io::encode(recs), recs,
                           read_as_runs, runs_rng);
  }
  {
    std::vector<ap::prof::SuperstepRecord> recs;
    for (std::uint64_t i = 0; i < n; ++i) {
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
    check_binary_mutations("steps.apt", io::encode(recs), recs, read, rng);
  }
  {
    std::vector<ap::prof::PhysicalRecord> recs;
    for (std::uint64_t i = 0; i < n; ++i) {
      ap::prof::PhysicalRecord r;
      r.type = static_cast<convey::SendType>(rng.next_below(3));
      r.buffer_bytes = 8 + rng.next_below(4096);
      r.src_pe = static_cast<int>(rng.next_below(16));
      r.dst_pe = static_cast<int>(rng.next_below(16));
      recs.push_back(r);
    }
    check_binary_mutations("physical.apt", io::encode(recs), recs, read,
                           rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

// ----------------------------------------------------------- ingest fuzz

/// POST /ingest mutation properties: truncating the framed body at ANY
/// byte or flipping ANY bit must either still apply cleanly (flips in
/// slack the CRC does not cover simply don't exist — every body byte is
/// covered — but a flip may land in a frame of a later segment) or answer
/// 400 with segment+offset attribution; it must NEVER crash, hang, or
/// corrupt the run — rows already ingested stay intact and a follow-up
/// good push still lands.
TEST_P(BinaryFuzz, IngestFramingSurvivesTruncationAndBitFlips) {
  const std::uint64_t seed = GetParam();
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 17);

  std::vector<ap::prof::SuperstepRecord> rows;
  for (std::uint64_t i = 0; i < 64; ++i) {
    ap::prof::SuperstepRecord r;
    r.pe = 0;
    r.epoch = 0;
    r.step = static_cast<std::uint32_t>(i);
    r.t_main = rng.next_below(1 << 20);
    rows.push_back(r);
  }
  using Rows = std::vector<ap::prof::SuperstepRecord>;
  const std::string steps_name = io::file_name({io::BinKind::steps, 0}, true);
  std::string frame;
  ap::serve::append_push_segment(frame, io::kManifestFile, false,
                                 "num_pes 1\n");
  ap::serve::append_push_segment(
      frame, steps_name, true,
      io::encode(Rows(rows.begin(), rows.begin() + 32)));
  ap::serve::append_push_segment(
      frame, steps_name, true, io::encode(Rows(rows.begin() + 32, rows.end())));

  ap::serve::ServiceRegistry reg({});
  ASSERT_EQ(reg.handle("POST", "/ingest?run=base", frame).status, 200);
  ap::serve::TraceService* base = reg.find("base");
  ASSERT_NE(base, nullptr);
  ASSERT_EQ(base->trace().steps[0].size(), 64u);
  const auto version_before = base->version();

  const auto rows_of = [&](const char* run) -> std::size_t {
    ap::serve::TraceService* svc = reg.find(run);
    if (svc == nullptr || svc->trace().steps.empty()) return 0;
    return svc->trace().steps[0].size();
  };

  for (int t = 0; t < 16; ++t) {
    const std::size_t cut = rng.next_below(frame.size());  // strict prefix
    const ap::serve::Response r =
        reg.handle("POST", "/ingest?run=mut", frame.substr(0, cut));
    if (r.status != 200) {
      EXPECT_EQ(r.status, 400) << r.body;
      EXPECT_NE(r.body.find("segment"), std::string::npos)
          << "attribution missing, cut at " << cut << ": " << r.body;
    }
    ASSERT_LE(rows_of("mut"), 64u) << "cut at " << cut;
  }
  for (int t = 0; t < 16; ++t) {
    const std::size_t pos = rng.next_below(frame.size());
    std::string mutated = frame;
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1u << rng.next_below(8)));
    const ap::serve::Response r =
        reg.handle("POST", "/ingest?run=mut", mutated);
    if (r.status != 200) {
      EXPECT_EQ(r.status, 400) << r.body;
      EXPECT_NE(r.body.find("segment"), std::string::npos)
          << "attribution missing, flip at " << pos << ": " << r.body;
    }
    ASSERT_LE(rows_of("mut"), 128u) << "flip at " << pos;
  }

  // The pre-existing run was never disturbed, and a clean push still works.
  EXPECT_EQ(base->version(), version_before);
  EXPECT_EQ(base->trace().steps[0].size(), 64u);
  ASSERT_EQ(reg.handle("POST", "/ingest?run=base", frame).status, 200);
  EXPECT_EQ(base->trace().steps[0].size(), 128u);
}

/// Same properties for a COMPRESSED container pushed as a segment body:
/// the decompressor is the first thing that touches attacker-shaped
/// bytes, so flips inside the LZ stream must surface as a 400, not UB.
TEST_P(BinaryFuzz, CompressedSegmentMutationsAreRejectedNotCrashed) {
  const std::uint64_t seed = GetParam();
  SplitMix64 rng(seed * 0x2545F4914F6CDD1Dull + 5);
  std::vector<ap::prof::LogicalSendRecord> recs;
  for (std::uint64_t i = 0; i < 2000; ++i)
    recs.push_back({0, 0, 0, static_cast<int>(rng.next_below(8)),
                    static_cast<std::uint32_t>(8 + rng.next_below(64))});
  const std::string comp = io::compress_trace(io::encode(recs));
  ASSERT_TRUE(io::is_compressed_trace(comp));

  ap::serve::ServiceRegistry reg({});
  const std::string name = io::file_name({io::BinKind::send, 0}, true);
  for (int t = 0; t < 24; ++t) {
    const std::size_t pos = rng.next_below(comp.size());
    std::string mutated = comp;
    mutated[pos] = static_cast<char>(
        mutated[pos] ^ static_cast<char>(1u << rng.next_below(8)));
    std::string frame;
    ap::serve::append_push_segment(frame, io::kManifestFile, false,
                                   "num_pes 1\n");
    ap::serve::append_push_segment(frame, name, false, mutated);
    const ap::serve::Response r =
        reg.handle("POST", "/ingest?run=c", frame);
    if (r.status != 200) {
      EXPECT_EQ(r.status, 400) << r.body;
    }
  }
}

}  // namespace
