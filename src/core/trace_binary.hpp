// The .apt binary columnar trace container (docs/TRACE_FORMAT.md).
//
// CSV traces will not survive millions of supersteps: a PEi_send.csv row
// spends ~10 bytes on four near-constant coordinates. The .apt container
// stores each record kind column-wise — run-length-encoded zigzag-varint
// deltas for numeric columns, a dictionary for string columns — in blocks
// of a few thousand rows, each guarded by a CRC32. A constant column costs
// ~2 bytes per *block*, so real traces shrink 5-10x (bench_trace measures
// it) and decode faster than the CSV scanner.
//
// Layout (all integers little-endian; varint = LEB128):
//   header:  "APT1" | u8 version | u8 kind | u8 flags | u8 ncols
//            | varint aux_len | aux bytes (kind-specific, see .cpp)
//   blocks:  'B' | varint nrows
//            | ncols x { u8 encoding | varint payload_len | payload }
//            | u32 crc32 (flags bit0; over 'B'..end of last payload)
//   ... blocks repeat until EOF.
//
// Decoding is block-tolerant: every fully-verified block's rows are
// appended to the output before the next block is touched, so a truncated
// or bit-flipped file yields its clean prefix plus a BinaryParseError
// attributing the damage to an exact (block, byte offset) — the binary
// analogue of the CSV parsers' line numbers.
//
// The row kinds are encoded and decoded by io::encode and io::read_into
// (core/trace_io.hpp), from the columns core/trace_schema.hpp declares.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace_io.hpp"

namespace ap::metrics {
class SampleRing;
}

namespace ap::prof::io {

inline constexpr std::string_view kAptMagic = "APT1";
inline constexpr std::uint8_t kAptVersion = 1;
/// Version byte of the compressed container (docs/TRACE_FORMAT.md,
/// "Compression"): same header and column codecs, but every block carries
/// a flag byte selecting stored vs LZ-compressed column sections. Readers
/// that predate compression reject such files with the existing
/// "unsupported .apt version" error.
inline constexpr std::uint8_t kAptVersionCompressed = 2;

/// True when `body` starts with the .apt magic — how the loader sniffs
/// binary vs CSV content independent of the file name.
[[nodiscard]] bool is_binary_trace(std::string_view body);

/// True when `body` is a version-2 (compressed-container) .apt file.
[[nodiscard]] bool is_compressed_trace(std::string_view body);

/// Re-frame a version-1 .apt body into the version-2 compressed container:
/// each block's column sections are LZ-compressed (kept stored when
/// compression would not shrink them). Lossless: every decoder reads both
/// versions to the same rows. Passing an already-compressed body returns
/// it unchanged.
[[nodiscard]] std::string compress_trace(std::string_view body);

/// CRC-32 (IEEE — the .apt block checksum) over a byte buffer. Exposed
/// for the push-ingest framing and tests.
[[nodiscard]] std::uint32_t crc32_bytes(std::string_view data);

/// The dependency-free LZ byte codec behind the version-2 container
/// (greedy hash-chain LZ77, 64 KiB window, LZ4-style token stream). The
/// decoders expand its blocks in place.
[[nodiscard]] std::string lz_compress(std::string_view raw);

/// Binary decode failure. line_no() carries the 1-based block index (0 for
/// the file header); offset() the absolute byte offset of the damage.
class BinaryParseError : public TraceParseError {
 public:
  BinaryParseError(std::size_t block, std::size_t offset,
                   const std::string& what);
  [[nodiscard]] std::size_t block() const { return line_no(); }
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// The live-metrics sample ring: one row per snapshot, a timestamp column
/// plus one flattened PE-major values column (num_pes * num_series each).
/// Not a row kind: it has no CSV form.
[[nodiscard]] std::string encode_metric_samples(const metrics::SampleRing& r);

/// Decoded metric-sample rows (the SampleRing's retained snapshots).
struct MetricSamples {
  int num_pes = 0;
  std::uint64_t num_series = 0;
  std::vector<std::uint64_t> t_cycles;  ///< one per snapshot
  /// snapshot-major, then PE-major: rows[i * num_pes * num_series + ...].
  std::vector<std::int64_t> values;
};
void decode_metric_samples_into(std::string_view body, MetricSamples& out);

}  // namespace ap::prof::io
