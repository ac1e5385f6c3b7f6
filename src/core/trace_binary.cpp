#include "core/trace_binary.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <stdexcept>
#include <type_traits>

#include "core/profiler.hpp"
#include "core/trace_schema.hpp"
#include "metrics/sampler.hpp"

namespace ap::prof::io {

namespace {

constexpr std::uint8_t kFlagCrc = 0x01;
/// Header flag bit of the version-2 container: blocks carry a flag byte.
constexpr std::uint8_t kFlagCompressed = 0x02;
/// Version-2 per-block flag byte values.
constexpr std::uint8_t kBlockStored = 0;
constexpr std::uint8_t kBlockLz = 1;
/// Cap on a compressed block's declared uncompressed size: fuzzed frames
/// must not turn into huge allocations. Real blocks stay far below this.
constexpr std::uint64_t kMaxRawBlockSanity = 1u << 28;
/// Column encodings (one byte per column per block).
constexpr std::uint8_t kEncDeltaRle = 0;
constexpr std::uint8_t kEncDict = 1;
/// Decoder sanity caps: a fuzzed length field must not turn into a huge
/// allocation. Real blocks hold kRowsPerBlock rows.
constexpr std::uint64_t kMaxRowsSanity = 1u << 22;
constexpr std::uint64_t kMaxValuesSanity = 1u << 26;

// --------------------------------------------------------------- primitives

std::uint32_t crc32(const void* data, std::size_t n,
                    std::uint32_t seed = 0xffffffffu) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed;
  for (std::size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

/// Zigzag over the wrapped u64 delta: reversible for any pair of u64
/// values, small for small signed differences.
std::uint64_t zigzag(std::uint64_t delta) {
  const auto d = static_cast<std::int64_t>(delta);
  return static_cast<std::uint64_t>((d << 1) ^ (d >> 63));
}

std::uint64_t unzigzag(std::uint64_t v) {
  return (v >> 1) ^ (~(v & 1) + 1);
}

/// Bounded byte reader with exact error attribution. `base` is the
/// absolute file offset of the view's first byte; `block` the 1-based
/// block being decoded (0 = header).
struct Cursor {
  std::string_view body;
  std::size_t pos = 0;
  std::size_t base = 0;
  std::size_t block = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw BinaryParseError(block, base + pos, what);
  }
  [[nodiscard]] bool done() const { return pos >= body.size(); }
  std::uint8_t u8() {
    if (pos >= body.size()) fail("truncated");
    return static_cast<std::uint8_t>(body[pos++]);
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint64_t b = u8();
      v |= (b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    fail("bad varint");
  }
  std::uint32_t u32le() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  std::string_view take(std::size_t n) {
    if (body.size() - pos < n) fail("truncated");
    const std::string_view s = body.substr(pos, n);
    pos += n;
    return s;
  }
};

// ------------------------------------------------------------ column codecs

/// Delta + run-length: a stream of (zigzag delta, run count) pairs. A
/// constant column — or one advancing by a constant stride — costs one
/// pair per block.
std::string encode_numeric(const std::vector<std::uint64_t>& v) {
  std::string out;
  std::uint64_t prev = 0;
  std::size_t i = 0;
  while (i < v.size()) {
    const std::uint64_t d = v[i] - prev;
    std::size_t run = 1;
    while (i + run < v.size() && v[i + run] - v[i + run - 1] == d) ++run;
    put_varint(out, zigzag(d));
    put_varint(out, run);
    prev = v[i + run - 1];
    i += run;
  }
  return out;
}

/// Dictionary: varint entry count, entries (varint len + bytes), then the
/// per-row indices as a delta-RLE stream.
std::string encode_dict(const std::vector<std::string_view>& v) {
  std::string out;
  std::map<std::string_view, std::uint64_t> index;
  std::vector<std::string_view> entries;
  std::vector<std::uint64_t> idx;
  idx.reserve(v.size());
  for (const std::string_view s : v) {
    const auto [it, inserted] = index.try_emplace(s, entries.size());
    if (inserted) entries.push_back(s);
    idx.push_back(it->second);
  }
  put_varint(out, entries.size());
  for (const std::string_view e : entries) {
    put_varint(out, e.size());
    out.append(e);
  }
  out += encode_numeric(idx);
  return out;
}

// ------------------------------------------------------------- file framing

std::string header(BinKind kind, std::size_t ncols, std::string_view aux,
                   std::uint8_t version = kAptVersion,
                   std::uint8_t flags = kFlagCrc) {
  std::string out;
  out.append(kAptMagic);
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(kind));
  out.push_back(static_cast<char>(flags));
  out.push_back(static_cast<char>(ncols));
  put_varint(out, aux.size());
  out.append(aux);
  return out;
}

/// One encoded column of a block: encoding byte + payload.
struct EncodedColumn {
  std::uint8_t encoding = kEncDeltaRle;
  std::string payload;
};

void emit_block(std::string& out, std::size_t nrows,
                const std::vector<EncodedColumn>& cols) {
  const std::size_t start = out.size();
  out.push_back('B');
  put_varint(out, nrows);
  for (const EncodedColumn& c : cols) {
    out.push_back(static_cast<char>(c.encoding));
    put_varint(out, c.payload.size());
    out.append(c.payload);
  }
  put_u32le(out, crc32(out.data() + start, out.size() - start));
}

// ------------------------------------------------------------ frame reading

/// A parsed .apt header; the cursor is left at the first block.
struct AptHeader {
  std::uint8_t version = 0;
  std::uint8_t kind = 0;
  std::uint8_t flags = 0;
  std::uint8_t ncols = 0;
  std::string_view aux;
};

AptHeader read_header(Cursor& c) {
  if (c.body.size() < 8 || c.body.substr(0, 4) != kAptMagic)
    c.fail("bad .apt magic");
  c.pos = 4;
  AptHeader h;
  h.version = c.u8();
  if (h.version != kAptVersion && h.version != kAptVersionCompressed)
    c.fail("unsupported .apt version");
  h.kind = c.u8();
  h.flags = c.u8();
  h.ncols = c.u8();
  const std::uint64_t aux_len = c.varint();
  if (aux_len > c.body.size() - c.pos) c.fail("bad aux length");
  h.aux = c.take(aux_len);
  return h;
}

/// One block's frame, parsed for structure only: the stored CRC is read,
/// not checked. `sections` holds the ncols column sections of a stored
/// block, or the LZ bytes that expand to them.
struct Frame {
  std::size_t start = 0;  ///< file offset of the 'B' marker
  std::uint64_t nrows = 0;
  std::uint8_t flag = kBlockStored;
  std::uint64_t raw_len = 0;  ///< LZ blocks: expanded size of `sections`
  std::string_view sections;
  std::size_t sections_off = 0;  ///< file offset of `sections`
  std::size_t crc_end = 0;       ///< end of the CRC-covered bytes
  std::uint32_t crc = 0;
};

/// Parse the next block frame at `c` (which must not be done) and advance
/// c.block, so errors name the block being read.
Frame read_frame(Cursor& c, const AptHeader& h) {
  Frame f;
  ++c.block;
  f.start = c.pos;
  if (c.u8() != 'B') {
    c.pos = f.start;
    c.fail("bad block marker");
  }
  f.nrows = c.varint();
  if (f.nrows > kMaxRowsSanity) c.fail("implausible row count");
  if (h.version == kAptVersionCompressed) f.flag = c.u8();
  if (f.flag == kBlockLz) {
    f.raw_len = c.varint();
    const std::uint64_t comp_len = c.varint();
    if (f.raw_len > kMaxRawBlockSanity) c.fail("implausible block size");
    if (comp_len > c.body.size() - c.pos) c.fail("truncated compressed block");
    f.sections_off = c.pos;
    f.sections = c.take(comp_len);
  } else if (f.flag == kBlockStored) {
    f.sections_off = c.pos;
    for (std::size_t k = 0; k < h.ncols; ++k) {
      c.u8();  // encoding
      const std::uint64_t len = c.varint();
      if (len > c.body.size() - c.pos) c.fail("truncated column payload");
      c.take(len);
    }
    f.sections = c.body.substr(f.sections_off, c.pos - f.sections_off);
  } else {
    c.fail("unknown block flag");
  }
  f.crc_end = c.pos;
  if ((h.flags & kFlagCrc) != 0) f.crc = c.u32le();
  return f;
}

void check_crc(std::string_view body, const AptHeader& h, const Frame& f,
               std::size_t block) {
  if ((h.flags & kFlagCrc) != 0 &&
      crc32(body.data() + f.start, f.crc_end - f.start) != f.crc)
    throw BinaryParseError(block, f.start, "block CRC mismatch");
}

void lz_expand(std::string_view comp, std::size_t raw_len, std::string& out);

/// Expand an LZ block's sections into `out`. The CRC already vouched for
/// the stored bytes, so a failure here means the frame was encoded wrong.
void expand_block(const Frame& f, std::size_t block, std::string& out) {
  try {
    lz_expand(f.sections, f.raw_len, out);
  } catch (const std::exception& e) {
    throw BinaryParseError(block, f.sections_off,
                           std::string("bad compressed block: ") + e.what());
  }
}

/// What the pre-scan learns about a file before anything is decoded.
struct Extent {
  std::uint64_t rows = 0;     ///< declared rows, at most kRowsPerBlock each
  std::uint64_t max_raw = 0;  ///< largest LZ block's expanded size
};

/// Walk the frames from `c` without checking CRCs or expanding anything,
/// stopping at the first malformed one (the decode pass reports it). Each
/// block counts as at most kRowsPerBlock rows, the size every writer emits,
/// so a forged row count cannot inflate the reservation made from it.
Extent scan_extent(Cursor c, const AptHeader& h) {
  Extent e;
  try {
    while (!c.done()) {
      const Frame f = read_frame(c, h);
      e.rows += std::min<std::uint64_t>(f.nrows, kRowsPerBlock);
      e.max_raw = std::max(e.max_raw, f.raw_len);
    }
  } catch (const BinaryParseError&) {
  }
  return e;
}

/// One column of a CRC-verified block handed to a decoder.
struct RawColumn {
  std::uint8_t encoding = 0;
  std::string_view payload;
  std::size_t abs_offset = 0;  ///< file offset of the payload

  [[nodiscard]] Cursor at(std::size_t block) const {
    return {payload, 0, abs_offset, block};
  }
};

/// Parse the header, call reserve(extent.rows) once, then for each block:
/// verify the CRC, split the column sections and call on_block(block,
/// nrows, cols). Errors — structural, CRC, or thrown by on_block — carry
/// (block, offset) attribution.
template <class Reserve, class OnBlock>
void decode_file(std::string_view body, BinKind expect, std::size_t ncols,
                 std::string_view& aux_out, Reserve&& reserve,
                 OnBlock&& on_block) {
  Cursor c{body};
  const AptHeader h = read_header(c);
  if (static_cast<BinKind>(h.kind) != expect)
    throw BinaryParseError(0, 5, "wrong record kind");
  if (h.ncols != ncols) throw BinaryParseError(0, 7, "unexpected column count");
  aux_out = h.aux;
  const Extent extent = scan_extent(c, h);
  reserve(extent.rows);

  std::vector<RawColumn> cols(ncols);
  std::string lz;  // expanded sections of LZ blocks, reused across blocks
  while (!c.done()) {
    const Frame f = read_frame(c, h);
    check_crc(body, h, f, c.block);
    Cursor sc{f.sections, 0, f.sections_off, c.block};
    if (f.flag == kBlockLz) {
      if (lz.capacity() < f.raw_len) lz.reserve(extent.max_raw);
      expand_block(f, c.block, lz);
      // Column offsets inside a compressed block cannot map to file bytes;
      // attribute them to the block start.
      sc = Cursor{lz, 0, f.start, c.block};
    }
    for (RawColumn& col : cols) {
      col.encoding = sc.u8();
      const std::uint64_t len = sc.varint();
      if (len > sc.body.size() - sc.pos) sc.fail("truncated column payload");
      col.abs_offset = f.flag == kBlockLz ? f.start : sc.base + sc.pos;
      col.payload = sc.take(len);
    }
    if (!sc.done()) sc.fail("trailing bytes in compressed block");
    on_block(c.block, f.nrows, cols);
  }
}

// ------------------------------------------------------------ column decode
// A block's columns are all validated before any of its rows is committed;
// then each (delta, run) pair is expanded straight into its field for rows
// [r, r + run).

/// Walk a DELTA_RLE stream that must hold exactly `nrows` values, calling
/// on_run(row, delta, run) per pair. Throws on a zero or overlong run and
/// on trailing bytes.
template <class OnRun>
void for_each_run(Cursor c, std::uint64_t nrows, OnRun&& on_run) {
  for (std::uint64_t r = 0; r < nrows;) {
    const std::uint64_t d = unzigzag(c.varint());
    const std::uint64_t run = c.varint();
    if (run == 0 || run > nrows - r) c.fail("bad run length");
    on_run(r, d, run);
    r += run;
  }
  if (!c.done()) c.fail("trailing bytes in column");
}

constexpr std::uint32_t kAnyValue = ~std::uint32_t{0};

/// Validate a DELTA_RLE column. An enum-valued column names its largest
/// valid value, so a corrupt file cannot materialize an out-of-range enum.
void check_numeric(const RawColumn& raw, std::size_t block,
                   std::uint64_t nrows, std::uint32_t max = kAnyValue) {
  const Cursor c = raw.at(block);
  if (raw.encoding != kEncDeltaRle) c.fail("unexpected column encoding");
  std::uint64_t v = 0;  // an enum column needs 0 <= int(v) <= max
  for_each_run(c, nrows,
               [&](std::uint64_t, std::uint64_t d, std::uint64_t run) {
                 if (max == kAnyValue) return;
                 for (std::uint64_t k = 0; k < run; ++k)
                   if (static_cast<std::uint32_t>(v += d) > max)
                     c.fail("enum value out of range");
               });
}

/// Expand a checked DELTA_RLE column into rows [0, nrows): set(row, value).
template <class Row, class Set>
void expand_numeric(const RawColumn& raw, std::size_t block,
                    std::uint64_t nrows, Row* rows, Set&& set) {
  std::uint64_t v = 0;
  for_each_run(raw.at(block), nrows,
               [&](std::uint64_t r, std::uint64_t d, std::uint64_t run) {
                 for (Row* p = rows + r; p != rows + r + run; ++p)
                   set(*p, v += d);
               });
}

/// A DICT column's entries; leaves `c` at the index stream.
std::vector<std::string_view> read_dict(Cursor& c) {
  const std::uint64_t n = c.varint();
  if (n > c.body.size()) c.fail("bad dictionary size");
  std::vector<std::string_view> entries;
  entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t len = c.varint();
    if (len > c.body.size() - c.pos) c.fail("bad dictionary entry");
    entries.push_back(c.take(len));
  }
  return entries;
}

// Per schema column: check_column validates its .apt column(s), which
// start at `raw`; expand_column stores them into rows [0, nrows).

template <class Col>
void check_column(const Col&, const RawColumn* raw, std::size_t block,
                  std::uint64_t nrows) {
  check_numeric(raw[0], block, nrows);
}
template <class Rec, class T, std::size_t N>
void check_column(const Named<Rec, T, N>&, const RawColumn* raw,
                  std::size_t block, std::uint64_t nrows) {
  check_numeric(raw[0], block, nrows, N - 1);
}
template <class Rec>
void check_column(const Counters<Rec>&, const RawColumn* raw,
                  std::size_t block, std::uint64_t nrows) {
  for (std::size_t k = 0; k < papi::kMaxEventsPerSet; ++k)
    check_numeric(raw[k], block, nrows);
}
template <class Rec>
void check_column(const Dict<Rec>&, const RawColumn* raw, std::size_t block,
                  std::uint64_t nrows) {
  Cursor c = raw[0].at(block);
  if (raw[0].encoding != kEncDict) c.fail("unexpected column encoding");
  const std::size_t n = read_dict(c).size();
  std::uint64_t i = 0;
  for_each_run(c, nrows,
               [&](std::uint64_t, std::uint64_t d, std::uint64_t run) {
                 for (std::uint64_t k = 0; k < run; ++k)
                   if ((i += d) >= n) c.fail("dictionary index out of range");
               });
}

template <class Col, class Rec>
void expand_column(const Col& col, const RawColumn* raw, std::size_t block,
                   std::uint64_t nrows, Rec* rows) {
  using T = std::remove_reference_t<decltype(rows->*col.field)>;
  // Signed fields wrap back, as their widening to u64 wrapped them.
  expand_numeric(raw[0], block, nrows, rows, [&](Rec& r, std::uint64_t v) {
    r.*col.field = static_cast<T>(v);
  });
}
template <class Rec>
void expand_column(const Counters<Rec>& col, const RawColumn* raw,
                   std::size_t block, std::uint64_t nrows, Rec* rows) {
  for (std::size_t k = 0; k < papi::kMaxEventsPerSet; ++k)
    expand_numeric(raw[k], block, nrows, rows, [&](Rec& r, std::uint64_t v) {
      (r.*col.field)[k] = v;
    });
}
template <class Rec>
void expand_column(const Dict<Rec>& col, const RawColumn* raw,
                   std::size_t block, std::uint64_t nrows, Rec* rows) {
  Cursor c = raw[0].at(block);
  const std::vector<std::string_view> entries = read_dict(c);
  std::uint64_t i = 0;
  for_each_run(c, nrows,
               [&](std::uint64_t r, std::uint64_t d, std::uint64_t run) {
                 for (Rec* p = rows + r; p != rows + r + run; ++p)
                   p->*col.field = entries[i += d];
               });
}

// ------------------------------------------------------------ column encode

/// Append one block's `n` rows of a schema column as .apt column(s).
template <class Col, class Rec>
void encode_column(const Col& col, const Rec* rows, std::size_t n,
                   std::vector<EncodedColumn>& out) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint64_t>(rows[i].*col.field);
  out.push_back({kEncDeltaRle, encode_numeric(v)});
}
template <class Rec>
void encode_column(const Counters<Rec>& col, const Rec* rows, std::size_t n,
                   std::vector<EncodedColumn>& out) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t k = 0; k < papi::kMaxEventsPerSet; ++k) {
    for (std::size_t i = 0; i < n; ++i) v[i] = (rows[i].*col.field)[k];
    out.push_back({kEncDeltaRle, encode_numeric(v)});
  }
}
template <class Rec>
void encode_column(const Dict<Rec>& col, const Rec* rows, std::size_t n,
                   std::vector<EncodedColumn>& out) {
  std::vector<std::string_view> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rows[i].*col.field;
  out.push_back({kEncDict, encode_dict(v)});
}

// ------------------------------------------------------------- row sinks
// Where the decoder puts a verified block: a vector takes the rows in place,
// reserved once per file; a run log takes them through one reused block, so
// it grows with runs, not rows.

template <class Out>
struct BlockSink;

template <class Rec>
struct BlockSink<std::vector<Rec>> {
  std::vector<Rec>& out;

  void reserve(std::uint64_t rows) { out.reserve(out.size() + rows); }
  Rec* open(std::size_t n) {
    const std::size_t first = out.size();
    out.resize(first + n);
    return out.data() + first;
  }
  void close() {}
};

template <>
struct BlockSink<LogicalSendLog> {
  LogicalSendLog& out;
  std::vector<LogicalSendRecord> block{};

  void reserve(std::uint64_t rows) {
    block.reserve(std::min<std::uint64_t>(rows, kRowsPerBlock));
  }
  LogicalSendRecord* open(std::size_t n) {
    block.resize(n);
    return block.data();
  }
  void close() {
    for (const LogicalSendRecord& r : block) out.push_back(r);
  }
};

// ---------------------------------------------------------------- header aux

std::string encode_aux(Aux aux, const FileMeta& meta) {
  std::string out;
  if (aux == Aux::papi_events) {
    out.push_back(static_cast<char>(meta.papi_events.size()));
    for (const papi::Event e : meta.papi_events)
      out.push_back(static_cast<char>(e));
  } else if (aux == Aux::dropped) {
    put_varint(out, meta.dropped);
  }
  return out;
}

void decode_aux(Aux aux, std::string_view bytes, FileMeta& meta) {
  if (aux == Aux::papi_events) {
    meta.papi_events.clear();
    const std::size_t n =
        bytes.empty() ? 0 : static_cast<unsigned char>(bytes[0]);
    for (std::size_t i = 0; i < n && i + 1 < bytes.size() &&
                            i < papi::kMaxEventsPerSet;
         ++i) {
      const int e = static_cast<unsigned char>(bytes[1 + i]);
      if (e < static_cast<int>(papi::Event::kCount))
        meta.papi_events.push_back(static_cast<papi::Event>(e));
    }
  } else if (aux == Aux::dropped) {
    Cursor c{bytes};
    meta.dropped = c.varint();
  }
}

}  // namespace

// ------------------------------------------------------------------- public

bool is_binary_trace(std::string_view body) {
  return body.size() >= kAptMagic.size() &&
         body.substr(0, kAptMagic.size()) == kAptMagic;
}

std::uint32_t crc32_bytes(std::string_view data) {
  return crc32(data.data(), data.size());
}

bool is_compressed_trace(std::string_view body) {
  return is_binary_trace(body) && body.size() > kAptMagic.size() &&
         static_cast<std::uint8_t>(body[kAptMagic.size()]) ==
             kAptVersionCompressed;
}

// ---- LZ codec --------------------------------------------------------------
// Greedy LZ77 over a 64 KiB window with an 8K-entry position hash, emitted
// as an LZ4-style token stream: per sequence one token byte (high nibble =
// literal length, low nibble = match length - 4, 15 meaning "255-run
// extension bytes follow"), the literals, then a 2-byte little-endian
// back-offset. The final sequence may be literals only. Decompression
// needs the exact uncompressed size, which the block frame records.

namespace {

constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzHashBits = 13;

std::uint32_t lz_read32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void lz_put_ext(std::string& out, std::size_t rest) {
  while (rest >= 255) {
    out.push_back(static_cast<char>(0xff));
    rest -= 255;
  }
  out.push_back(static_cast<char>(rest));
}

void lz_emit(std::string& out, std::string_view in, std::size_t lit_start,
             std::size_t lit_len, std::size_t match_len, std::size_t offset) {
  const std::size_t lit_nib = std::min<std::size_t>(lit_len, 15);
  const std::size_t match_nib =
      match_len == 0 ? 0 : std::min<std::size_t>(match_len - kLzMinMatch, 15);
  out.push_back(static_cast<char>((lit_nib << 4) | match_nib));
  if (lit_nib == 15) lz_put_ext(out, lit_len - 15);
  out.append(in.substr(lit_start, lit_len));
  if (match_len > 0) {
    out.push_back(static_cast<char>(offset & 0xff));
    out.push_back(static_cast<char>((offset >> 8) & 0xff));
    if (match_nib == 15) lz_put_ext(out, match_len - kLzMinMatch - 15);
  }
}

}  // namespace

std::string lz_compress(std::string_view in) {
  std::string out;
  out.reserve(in.size() / 2 + 16);
  const std::size_t n = in.size();
  std::vector<std::uint32_t> table(std::size_t{1} << kLzHashBits, 0);
  const auto hash = [](std::uint32_t v) {
    return (v * 2654435761u) >> (32 - kLzHashBits);
  };
  std::size_t anchor = 0;
  std::size_t i = 0;
  while (n >= kLzMinMatch && i + kLzMinMatch <= n) {
    const std::uint32_t h = hash(lz_read32(in.data() + i));
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(i + 1);
    if (cand != 0 && i - (cand - 1) <= 0xffff &&
        lz_read32(in.data() + (cand - 1)) == lz_read32(in.data() + i)) {
      const std::size_t m = cand - 1;
      std::size_t len = kLzMinMatch;
      while (i + len < n && in[m + len] == in[i + len]) ++len;
      lz_emit(out, in, anchor, i - anchor, len, i - m);
      i += len;
      anchor = i;
    } else {
      ++i;
    }
  }
  if (anchor < n) lz_emit(out, in, anchor, n - anchor, 0, 0);
  return out;
}

namespace {

/// Expand `comp` into `out` (cleared first), reusing its capacity.
void lz_expand(std::string_view comp, std::size_t raw_len, std::string& out) {
  out.clear();
  out.reserve(raw_len);
  std::size_t pos = 0;
  const auto need = [&](std::size_t k) {
    if (comp.size() - pos < k) throw std::runtime_error("truncated LZ stream");
  };
  const auto read_len = [&](std::size_t nibble) {
    std::size_t len = nibble;
    if (nibble == 15) {
      std::uint8_t b = 0;
      do {
        need(1);
        b = static_cast<std::uint8_t>(comp[pos++]);
        len += b;
      } while (b == 0xff);
    }
    return len;
  };
  while (pos < comp.size()) {
    const std::uint8_t token = static_cast<std::uint8_t>(comp[pos++]);
    const std::size_t lit_len = read_len(token >> 4);
    need(lit_len);
    if (raw_len - out.size() < lit_len)
      throw std::runtime_error("LZ output overrun");
    out.append(comp.substr(pos, lit_len));
    pos += lit_len;
    if (pos >= comp.size()) break;  // final literal-only sequence
    need(2);
    const std::size_t offset =
        static_cast<std::size_t>(static_cast<std::uint8_t>(comp[pos])) |
        (static_cast<std::size_t>(static_cast<std::uint8_t>(comp[pos + 1]))
         << 8);
    pos += 2;
    if (offset == 0 || offset > out.size())
      throw std::runtime_error("bad LZ match offset");
    const std::size_t match_len = read_len(token & 0x0f) + kLzMinMatch;
    if (raw_len - out.size() < match_len)
      throw std::runtime_error("LZ output overrun");
    const std::size_t src = out.size() - offset;
    for (std::size_t k = 0; k < match_len; ++k)
      out.push_back(out[src + k]);  // may overlap the bytes just written
  }
  if (out.size() != raw_len) throw std::runtime_error("LZ size mismatch");
}

}  // namespace

// ---- container re-framing --------------------------------------------------

std::string compress_trace(std::string_view body) {
  if (is_compressed_trace(body)) return std::string(body);
  Cursor c{body};
  const AptHeader h = read_header(c);
  std::string out = header(static_cast<BinKind>(h.kind), h.ncols, h.aux,
                           kAptVersionCompressed, h.flags | kFlagCompressed);
  out.reserve(body.size());
  while (!c.done()) {
    const Frame f = read_frame(c, h);
    check_crc(body, h, f, c.block);
    const std::string comp = lz_compress(f.sections);
    const std::size_t start = out.size();
    out.push_back('B');
    put_varint(out, f.nrows);
    if (comp.size() < f.sections.size()) {
      out.push_back(static_cast<char>(kBlockLz));
      put_varint(out, f.sections.size());
      put_varint(out, comp.size());
      out.append(comp);
    } else {  // incompressible: store verbatim rather than grow the file
      out.push_back(static_cast<char>(kBlockStored));
      out.append(f.sections);
    }
    if ((h.flags & kFlagCrc) != 0)
      put_u32le(out, crc32(out.data() + start, out.size() - start));
  }
  return out;
}

BinaryParseError::BinaryParseError(std::size_t block, std::size_t offset,
                                   const std::string& what)
    : TraceParseError(block, "binary trace parse error at block " +
                                 std::to_string(block) + " offset " +
                                 std::to_string(offset) + ": " + what),
      offset_(offset) {}

// ---- row kinds -------------------------------------------------------------

template <RowContainer Src>
std::string encode(const Src& rows, const FileMeta& meta) {
  using Rec = typename Src::value_type;
  const auto s = schema(std::type_identity<Rec>{});
  std::string out = header(s.kind, s.kColumns, encode_aux(s.aux, meta));
  std::vector<EncodedColumn> cols;
  for_each_block(rows, [&](const Rec* block, std::size_t n) {
    cols.clear();
    std::apply(
        [&](const auto&... col) { (encode_column(col, block, n, cols), ...); },
        s.cols);
    emit_block(out, n, cols);
  });
  return out;
}

/// No rows of a block land in `out` until all of its columns check out —
/// the tolerant-load prefix guarantee.
template <class Out>
void decode_into(std::string_view body, Out& out, FileMeta& meta) {
  using Rec = typename Out::value_type;
  const auto s = schema(std::type_identity<Rec>{});
  BlockSink<Out> sink{out};
  std::string_view aux;
  decode_file(
      body, s.kind, s.kColumns, aux,
      [&](std::uint64_t rows) {
        decode_aux(s.aux, aux, meta);
        sink.reserve(rows);
      },
      [&](std::size_t block, std::uint64_t nrows,
          const std::vector<RawColumn>& raw) {
        const auto each = [&](auto&& fn) {
          std::apply(
              [&](const auto&... col) {
                const RawColumn* at = raw.data();
                ((fn(col, at), at += kWidth<std::decay_t<decltype(col)>>),
                 ...);
              },
              s.cols);
        };
        each([&](const auto& col, const RawColumn* at) {
          check_column(col, at, block, nrows);
        });
        Rec* rows = sink.open(nrows);
        each([&](const auto& col, const RawColumn* at) {
          expand_column(col, at, block, nrows, rows);
        });
        sink.close();
      });
}

#define AP_INSTANTIATE(Rec)                                             \
  template std::string encode(const std::vector<Rec>&, const FileMeta&); \
  template void decode_into(std::string_view, std::vector<Rec>&, FileMeta&);
AP_TRACE_ROWS(AP_INSTANTIATE)
#undef AP_INSTANTIATE
template std::string encode(const LogicalSendView&, const FileMeta&);
template std::string encode(const LogicalSendLog&, const FileMeta&);
template void decode_into(std::string_view, LogicalSendLog&, FileMeta&);

// ---- metric samples --------------------------------------------------------

std::string encode_metric_samples(const metrics::SampleRing& r) {
  std::string aux;
  put_varint(aux, static_cast<std::uint64_t>(r.num_pes()));
  put_varint(aux, r.num_series());
  std::string out = header(BinKind::metrics, 2, aux);
  const std::size_t per_row =
      static_cast<std::size_t>(r.num_pes()) * r.num_series();
  std::vector<std::uint64_t> times;
  std::vector<std::uint64_t> values;
  for (std::size_t base = 0; base < r.size(); base += kRowsPerBlock) {
    const std::size_t n = std::min(kRowsPerBlock, r.size() - base);
    times.clear();
    values.clear();
    values.reserve(n * per_row);
    for (std::size_t i = 0; i < n; ++i) {
      const metrics::SampleRing::View v = r.at(base + i);
      times.push_back(v.t_cycles);
      for (std::size_t k = 0; k < per_row; ++k)
        values.push_back(static_cast<std::uint64_t>(v.row[k]));
    }
    emit_block(out, n,
               {{kEncDeltaRle, encode_numeric(times)},
                {kEncDeltaRle, encode_numeric(values)}});
  }
  return out;
}

void decode_metric_samples_into(std::string_view body, MetricSamples& out) {
  std::string_view aux;
  std::uint64_t per_row = 0;
  decode_file(
      body, BinKind::metrics, 2, aux,
      [&](std::uint64_t rows) {
        Cursor ac{aux};
        out.num_pes = static_cast<int>(ac.varint());
        out.num_series = ac.varint();
        per_row = static_cast<std::uint64_t>(out.num_pes) * out.num_series;
        out.t_cycles.reserve(out.t_cycles.size() + rows);
        if (per_row != 0 && rows <= kMaxValuesSanity / per_row)
          out.values.reserve(out.values.size() + rows * per_row);
      },
      [&](std::size_t block, std::uint64_t nrows,
          const std::vector<RawColumn>& cols) {
        if (per_row != 0 && nrows > kMaxValuesSanity / per_row)
          cols[1].at(block).fail("implausible sample volume");
        const std::uint64_t nvals = nrows * per_row;
        check_numeric(cols[0], block, nrows);
        check_numeric(cols[1], block, nvals);
        const std::size_t t0 = out.t_cycles.size();
        const std::size_t v0 = out.values.size();
        out.t_cycles.resize(t0 + nrows);
        out.values.resize(v0 + nvals);
        expand_numeric(cols[0], block, nrows, out.t_cycles.data() + t0,
                       [](std::uint64_t& t, std::uint64_t v) { t = v; });
        expand_numeric(cols[1], block, nvals, out.values.data() + v0,
                       [](std::int64_t& x, std::uint64_t v) {
                         x = static_cast<std::int64_t>(v);
                       });
      });
}

}  // namespace ap::prof::io
