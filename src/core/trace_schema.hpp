// The trace schema: every row kind's file layout, declared once.
//
// A schema lists a kind's columns in file order. Each column names the
// record field it holds, its CSV text form and its .apt encoding:
//
//   num(&R::f, "label")           a decimal number      | DELTA_RLE
//   named(&R::f, "label", names)  names[value]          | DELTA_RLE, value
//                                 (an enum, or MAIN/PROC)  past the names
//                                                          is damage
//   counters(&R::f)               0-4 PAPI counters,    | kMaxEventsPerSet
//                                 one per event         | DELTA_RLE columns
//   dict(&R::f, "label")          free comma-free text  | DICT
//
// The CSV header line is "# " + the labels joined by ", " (the counters
// are headed by their event names). Besides its columns a schema names the
// kind's file, its BinKind and its header aux: what the file carries
// besides rows (FileMeta). The CSV writer and parser (trace_io.cpp) and
// the .apt encoder and decoder (trace_binary.cpp) are each written once,
// against these tables (docs/TRACE_FORMAT.md, "Adding a record kind").
// Which container holds a kind's loaded rows is declared beside the row
// kinds, as Rows<Rec> (trace_io.hpp): the writers read it a block at a
// time (for_each_block) and the readers append to it, so their callers
// never branch on the kind.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "check/checker.hpp"
#include "core/records.hpp"
#include "core/trace_io.hpp"

namespace ap::prof::io {

template <class Rec, class T>
struct Num {
  T Rec::*field;
  std::string_view label;
};

template <class Rec, class T, std::size_t N>
struct Named {
  T Rec::*field;
  std::string_view label;
  std::array<std::string_view, N> names;
};

template <class Rec>
struct Counters {
  std::array<std::uint64_t, papi::kMaxEventsPerSet> Rec::*field;
};

template <class Rec>
struct Dict {
  std::string Rec::*field;
  std::string_view label;
};

template <class Rec, class T>
Num<Rec, T> num(T Rec::*field, std::string_view label) {
  return {field, label};
}
template <class Rec, class T, std::size_t N>
Named<Rec, T, N> named(T Rec::*field, std::string_view label,
                       std::array<std::string_view, N> names) {
  return {field, label, names};
}
template <class Rec>
Counters<Rec> counters(
    std::array<std::uint64_t, papi::kMaxEventsPerSet> Rec::*field) {
  return {field};
}
template <class Rec>
Dict<Rec> dict(std::string Rec::*field, std::string_view label) {
  return {field, label};
}

/// The names of enum values 0..N-1, as `to_string` spells them.
template <class E, std::size_t N, class ToString>
std::array<std::string_view, N> names_of(ToString to_string) {
  std::array<std::string_view, N> out;
  for (std::size_t i = 0; i < N; ++i) out[i] = to_string(static_cast<E>(i));
  return out;
}

/// .apt columns a schema column occupies.
template <class Col>
inline constexpr std::size_t kWidth = 1;
template <class Rec>
inline constexpr std::size_t kWidth<Counters<Rec>> = papi::kMaxEventsPerSet;

/// What a kind's header carries besides the column labels.
enum class Aux {
  none,
  /// PEi_PAPI: FileMeta::papi_events, the counters' event names in CSV and
  /// u8 count + u8 event ids in the .apt aux bytes.
  papi_events,
  /// check: FileMeta::dropped, a "# dropped=<n>" line after the CSV header
  /// (when nonzero) and a varint in the .apt aux bytes.
  dropped,
};

template <class... Cols>
struct Schema {
  BinKind kind;
  /// The CSV file name; per-PE kinds prefix it with "PE<i>".
  std::string_view file;
  bool per_pe;
  Aux aux;
  std::tuple<Cols...> cols;

  /// .apt columns of the kind (the most CSV fields a row can have).
  static constexpr std::size_t kColumns = (kWidth<Cols> + ... + 0);
};

template <class... Cols>
Schema<Cols...> schema_of(BinKind kind, std::string_view file, bool per_pe,
                          Aux aux, Cols... cols) {
  return {kind, file, per_pe, aux, std::tuple<Cols...>{cols...}};
}

// ---- the five row kinds (paper §III file layouts) --------------------------

inline auto schema(std::type_identity<LogicalSendRecord>) {
  using R = LogicalSendRecord;
  return schema_of(BinKind::send, "_send.csv", true, Aux::none,
                   num(&R::src_node, "source node"),
                   num(&R::src_pe, "source PE"),
                   num(&R::dst_node, "destination node"),
                   num(&R::dst_pe, "destination PE"),
                   num(&R::msg_bytes, "message size"));
}

inline auto schema(std::type_identity<PapiSegmentRecord>) {
  using R = PapiSegmentRecord;
  return schema_of(
      BinKind::papi, "_PAPI.csv", true, Aux::papi_events,
      num(&R::src_node, "source node"), num(&R::src_pe, "source PE"),
      num(&R::dst_node, "dst node"), num(&R::dst_pe, "dst PE"),
      num(&R::pkt_bytes, "pkt size"), num(&R::mailbox_id, "MAILBOXID"),
      num(&R::num_sends, "NUM_SENDS"), counters(&R::counters),
      named(&R::is_proc, "REGION",
            std::array<std::string_view, 2>{"MAIN", "PROC"}));
}

inline auto schema(std::type_identity<SuperstepRecord>) {
  using R = SuperstepRecord;
  return schema_of(
      BinKind::steps, "_steps.csv", true, Aux::none, num(&R::pe, "pe"),
      num(&R::epoch, "epoch"), num(&R::step, "step"),
      num(&R::t_main, "t_main"), num(&R::t_proc, "t_proc"),
      num(&R::t_comm, "t_comm"), num(&R::msgs_sent, "msgs_sent"),
      num(&R::bytes_sent, "bytes_sent"), num(&R::msgs_handled, "msgs_handled"),
      num(&R::barrier_arrive, "barrier_arrive"),
      num(&R::barrier_release, "barrier_release"));
}

inline auto schema(std::type_identity<PhysicalRecord>) {
  using R = PhysicalRecord;
  using convey::SendType;
  return schema_of(
      BinKind::physical, "physical.txt", false, Aux::none,
      named(&R::type, "send type",
            names_of<SendType, 3>([](SendType t) { return to_string(t); })),
      num(&R::buffer_bytes, "buffer size"), num(&R::src_pe, "source PE"),
      num(&R::dst_pe, "destination PE"));
}

inline auto schema(std::type_identity<check::Violation>) {
  using V = check::Violation;
  return schema_of(
      BinKind::check, "check.csv", false, Aux::dropped,
      named(&V::kind, "kind",
            names_of<V::Kind, 7>(
                [](V::Kind k) { return check::to_string(k); })),
      num(&V::pe, "pe"), num(&V::other_pe, "other_pe"),
      num(&V::superstep, "superstep"), num(&V::offset, "offset"),
      num(&V::bytes, "bytes"), dict(&V::callsite, "callsite"),
      dict(&V::detail, "detail"));
}

template <class Rec>
using SchemaOf = decltype(schema(std::type_identity<Rec>{}));

/// X(Rec) for the record type of every row kind: how the .cpp files
/// instantiate their halves of the generic reader and writer.
#define AP_TRACE_ROWS(X)                                   \
  X(LogicalSendRecord) X(PapiSegmentRecord) X(SuperstepRecord) \
  X(PhysicalRecord) X(check::Violation)

/// Calls fn(std::type_identity<Rec>{}) with the record type of row kind
/// `kind`: where a kind known only at run time becomes a type.
template <class Fn>
decltype(auto) visit(BinKind kind, Fn&& fn) {
  switch (kind) {
    case BinKind::send: return fn(std::type_identity<LogicalSendRecord>{});
    case BinKind::papi: return fn(std::type_identity<PapiSegmentRecord>{});
    case BinKind::steps: return fn(std::type_identity<SuperstepRecord>{});
    case BinKind::physical: return fn(std::type_identity<PhysicalRecord>{});
    case BinKind::check: return fn(std::type_identity<check::Violation>{});
    case BinKind::metrics: break;
  }
  throw std::invalid_argument("not a row kind");
}

/// Rows per .apt block, as every writer emits them.
inline constexpr std::size_t kRowsPerBlock = 4096;

/// Calls fn(rows, n) for each block of at most kRowsPerBlock rows, the
/// form both writers read: a vector's rows in place, and a run source's
/// (LogicalSendView, LogicalSendLog) expanded into one reused block.
template <class Rec, class Fn>
void for_each_block(const std::vector<Rec>& rows, Fn&& fn) {
  for (std::size_t base = 0; base < rows.size(); base += kRowsPerBlock)
    fn(rows.data() + base, std::min(kRowsPerBlock, rows.size() - base));
}
template <class Runs, class Fn>
void for_each_block(const Runs& runs, Fn&& fn) {
  std::vector<LogicalSendRecord> block;
  block.reserve(std::min(kRowsPerBlock, runs.size()));
  runs.for_each_run([&](const LogicalSendRecord& row, std::uint64_t count) {
    while (count > 0) {
      const auto k = static_cast<std::size_t>(
          std::min<std::uint64_t>(count, kRowsPerBlock - block.size()));
      block.insert(block.end(), k, row);
      count -= k;
      if (block.size() == kRowsPerBlock) {
        fn(block.data(), block.size());
        block.clear();
      }
    }
  });
  if (!block.empty()) fn(block.data(), block.size());
}

/// The .apt half of read_into (trace_binary.cpp): decode `body`, appending
/// rows to `out` (a vector, or the run log of Rows<LogicalSendRecord>)
/// block by block and the header aux to `meta`.
template <class Out>
void decode_into(std::string_view body, Out& out, FileMeta& meta);

}  // namespace ap::prof::io
